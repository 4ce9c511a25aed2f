//! PDUs between the layers, in the form that costs one buffer per leg.
//!
//! On transmit no layer above RLC builds a buffer: SDAP and PDCP each put
//! their header in front of the payload in a [`TxPdu`], and PDCP names the
//! keystream for what follows its header. RLC writes the result, ciphering
//! as it writes, straight into the MAC PDU that carries it, so the MAC PDU
//! is the leg's one transmit buffer. (An SDU too large for its grant is
//! written once into a buffer of its own, and each segment copies its
//! slice of it.)
//!
//! On receive an [`RxPdu`] is a view of the block being walked: borrowed
//! where the PHY decoded it, or a shared buffer. Every header is read where
//! it lies, and PDCP deciphers into the one copy the SDU gets, or in place
//! when the block is a buffer nobody else holds (an SDU RLC reassembled).
//! The copy keeps [`RX_HEADROOM`] spare bytes in front of the PDU, so the
//! layer above the stack can put its own header in front of the payload
//! in that same buffer (the gNB's GTP-U header on N3).
//!
//! A buffer slot that is filled again and again (a ping's payload, its MAC
//! PDUs, its receive copy) builds into the storage its previous occupant
//! left, through [`reclaimed`], when that occupant is the only handle on
//! it. A clone held anywhere keeps its bytes: the slot allocates instead.

use bytes::{BufMut, Bytes, BytesMut};
use std::ops::{Deref, Range};

/// Most header bytes the layers above RLC put in front of a payload:
/// PDCP's two and SDAP's one.
const MAX_HEAD: usize = 3;

/// Spare bytes a receive copy keeps in front of the PDCP PDU it copies.
/// With PDCP's two header bytes and SDAP's one, spent once the SDU is
/// delivered, that leaves eight in front of the payload: room for the
/// mandatory GTP-U header the gNB puts there to make the copy its N3
/// packet.
pub const RX_HEADROOM: usize = 5;

/// A buffer with room for `capacity` bytes: `spent`'s whole storage,
/// emptied, when `spent` is the only handle on it and it is that large;
/// a fresh allocation otherwise. Either way it exposes only the bytes
/// written into it from here on, so a reused buffer holds what a fresh one
/// would.
pub fn reclaimed(spent: Bytes, capacity: usize) -> BytesMut {
    match spent.try_reclaim() {
        Ok(buf) if buf.capacity() >= capacity => buf,
        _ => BytesMut::with_capacity(capacity),
    }
}

/// A PDU on its way down, framed by the layers above RLC but not written
/// yet: their headers, held inline, in front of the payload they frame, and
/// once PDCP has numbered it the keystream that ciphers everything behind
/// the PDCP header. It owns no buffer of its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxPdu {
    /// Header bytes, right-aligned: the last `head_len` are in use.
    head: [u8; MAX_HEAD],
    head_len: u8,
    body: Bytes,
    /// The keystream's Gold `c_init`, and how many leading bytes it leaves
    /// in clear.
    keystream: Option<(u32, u8)>,
}

impl TxPdu {
    /// A payload no layer has framed yet.
    pub fn new(body: Bytes) -> TxPdu {
        TxPdu { head: [0; MAX_HEAD], head_len: 0, body, keystream: None }
    }

    /// `self` behind `header`.
    ///
    /// # Panics
    /// Panics if the headers would exceed the three bytes SDAP and PDCP
    /// need, or if `self` is already ciphered (PDCP's header is the last).
    pub(crate) fn framed(mut self, header: &[u8]) -> TxPdu {
        let len = usize::from(self.head_len) + header.len();
        assert!(len <= MAX_HEAD, "{len} header bytes in front of a payload, room for {MAX_HEAD}");
        assert!(self.keystream.is_none(), "no header goes in front of PDCP's");
        self.head[MAX_HEAD - len..][..header.len()].copy_from_slice(header);
        self.head_len = len as u8;
        self
    }

    /// `self` behind `header`, with everything after the header ciphered by
    /// the keystream seeded with `c_init` as it is written.
    pub(crate) fn ciphered(self, header: &[u8], c_init: u32) -> TxPdu {
        let mut pdu = self.framed(header);
        pdu.keystream = Some((c_init, header.len() as u8));
        pdu
    }

    /// Bytes the PDU takes on the wire.
    pub fn len(&self) -> usize {
        usize::from(self.head_len) + self.body.len()
    }

    /// Whether the PDU has no bytes at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends the PDU to `out`, ciphering it there.
    pub(crate) fn write_into(&self, out: &mut BytesMut) {
        let at = out.len();
        out.put_slice(&self.head[MAX_HEAD - usize::from(self.head_len)..]);
        out.put_slice(&self.body);
        if let Some((c_init, clear)) = self.keystream {
            crate::pdcp::apply_keystream(c_init, &mut out[at + usize::from(clear)..]);
        }
    }

    /// The PDU in a buffer of its own; the payload itself, shared, when no
    /// layer has framed it.
    pub fn to_bytes(&self) -> Bytes {
        if self.head_len == 0 && self.keystream.is_none() {
            return self.body.clone();
        }
        let mut out = BytesMut::with_capacity(self.len());
        self.write_into(&mut out);
        out.freeze()
    }
}

/// A received PDU on its way up: a view of the block being walked, never a
/// copy of it.
#[derive(Debug, Clone)]
pub enum RxPdu<'a> {
    /// Bytes in a buffer the walk borrows: the transport block where the
    /// PHY decoded it.
    Borrowed(&'a [u8]),
    /// Bytes in a shared buffer: a caller's, or an SDU RLC reassembled.
    Shared(Bytes),
}

impl<'a> RxPdu<'a> {
    /// Bytes `range` of the PDU, as the same kind of view.
    ///
    /// # Panics
    /// Panics if `range` is out of bounds.
    pub fn slice(&self, range: Range<usize>) -> RxPdu<'a> {
        match self {
            RxPdu::Borrowed(b) => RxPdu::Borrowed(&b[range]),
            RxPdu::Shared(b) => RxPdu::Shared(b.slice(range)),
        }
    }

    /// The PDU as a shared buffer: itself when it is one, a copy of the
    /// borrowed bytes otherwise.
    pub(crate) fn into_shared(self) -> Bytes {
        match self {
            RxPdu::Borrowed(b) => Bytes::copy_from_slice(b),
            RxPdu::Shared(b) => b,
        }
    }

    /// The PDU for writing, and where in the buffer it starts: in place
    /// when it is a shared buffer nobody else holds, otherwise a copy behind
    /// [`RX_HEADROOM`] spare bytes, made in `spare`'s storage when it can
    /// be [`reclaimed`] (`spare` is then left empty).
    pub(crate) fn into_mut(self, spare: &mut Bytes) -> (BytesMut, usize) {
        let mut copy = |b: &[u8]| {
            let mut out = reclaimed(std::mem::take(spare), RX_HEADROOM + b.len());
            out.put_bytes(0, RX_HEADROOM);
            out.put_slice(b);
            (out, RX_HEADROOM)
        };
        match self {
            RxPdu::Borrowed(b) => copy(b),
            RxPdu::Shared(b) => b.try_into_mut().map(|own| (own, 0)).unwrap_or_else(|b| copy(&b)),
        }
    }
}

impl Deref for RxPdu<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            RxPdu::Borrowed(b) => b,
            RxPdu::Shared(b) => b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headers_stack_in_front_and_the_keystream_skips_the_outermost() {
        let payload = Bytes::from_static(b"payload");
        let sdu = TxPdu::new(payload.clone()).framed(&[0xA9]);
        assert_eq!((sdu.len(), sdu.to_bytes()), (8, Bytes::from_static(b"\xA9payload")));
        let pdu = sdu.clone().ciphered(&[0x80, 0x07], 0x1234);
        let wire = pdu.to_bytes();
        assert_eq!(&wire[..2], &[0x80, 0x07], "the PDCP header stays in clear");
        let mut clear = wire.to_vec();
        crate::pdcp::apply_keystream(0x1234, &mut clear[2..]);
        assert_eq!(&clear[2..], &sdu.to_bytes()[..], "the keystream undoes itself");

        // Written behind other bytes, the PDU ciphers only its own.
        let mut out = BytesMut::with_capacity(3 + pdu.len());
        out.put_slice(b"mac");
        pdu.write_into(&mut out);
        assert_eq!(&out[..3], b"mac");
        assert_eq!(&out[3..], &wire[..]);
    }

    #[test]
    fn an_unframed_payload_is_shared_not_copied() {
        let payload = Bytes::from_static(b"as is");
        let pdu = TxPdu::new(payload.clone());
        assert_eq!(pdu.to_bytes().as_ptr(), payload.as_ptr());
        assert!(TxPdu::new(Bytes::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "room for 3")]
    fn a_fourth_header_byte_is_refused() {
        TxPdu::new(Bytes::new()).framed(&[1, 2]).framed(&[3, 4]);
    }

    #[test]
    fn a_slot_reclaims_storage_only_it_holds_and_only_when_it_fits() {
        let spent = Bytes::copy_from_slice(b"old bytes").slice(4..);
        let at = spent.as_ptr() as usize - 4;
        let reused = reclaimed(spent, 9);
        assert_eq!((reused.as_ptr() as usize, reused.len(), reused.capacity()), (at, 0, 9));
        let small = reused.freeze();
        let grown = reclaimed(small, 10);
        assert_eq!(grown.capacity(), 10, "too small: a fresh buffer of the size asked");
        let held = Bytes::copy_from_slice(b"held");
        let fresh = reclaimed(held.clone(), 2);
        assert_ne!(fresh.as_ptr(), held.as_ptr());
        assert_eq!((&held[..], reclaimed(Bytes::new(), 3).capacity()), (&b"held"[..], 3));
    }

    #[test]
    fn a_received_view_is_copied_only_when_it_must_be() {
        let block = [1u8, 2, 3, 4];
        let borrowed = RxPdu::Borrowed(&block).slice(1..3);
        assert_eq!(&borrowed[..], &[2, 3]);
        assert_eq!(borrowed.clone().into_shared(), Bytes::from_static(&[2, 3]));
        let (copy, at) = borrowed.clone().into_mut(&mut Bytes::new());
        assert_eq!((&copy[at..], at), (&[2, 3][..], RX_HEADROOM), "a copy keeps room in front");
        // A spare nobody else holds takes the copy; a held one does not.
        let spare = copy.freeze();
        let (spare_at, held) = (spare.as_ptr(), spare.clone());
        let mut spare = Some(spare);
        let (copy, _) = borrowed.clone().into_mut(spare.as_mut().unwrap());
        assert_ne!(copy.as_ptr(), spare_at, "a held spare is never written");
        drop(held);
        let mut spare = spare.take().unwrap();
        let (copy, at) = borrowed.clone().into_mut(&mut spare);
        assert_eq!((copy.as_ptr(), &copy[at..]), (spare_at, &[2, 3][..]));
        assert!(spare.is_empty(), "a used spare is taken");

        let mut own = BytesMut::with_capacity(4);
        own.put_slice(&block);
        let own = own.freeze();
        let at = own.as_ptr();
        let mut spare = Bytes::copy_from_slice(b"spare");
        let (thawed, start) = RxPdu::Shared(own).into_mut(&mut spare);
        assert_eq!((thawed.as_ptr(), start), (at, 0), "a sole handle is thawed in place");
        assert_eq!(spare, b"spare"[..], "and the spare is left for the next copy");
        let shared = Bytes::copy_from_slice(&block);
        let view = RxPdu::Shared(shared.clone()).slice(0..4);
        assert_eq!(view.clone().into_shared().as_ptr(), shared.as_ptr());
        let (copy, at) = view.into_mut(&mut Bytes::new());
        assert_ne!(copy[at..].as_ptr(), shared.as_ptr(), "a held buffer is never written");
        assert_eq!(&copy[at..], &block[..]);
    }
}
