//! MAC PDU framing (TS 38.321 §6.1): subheader multiplexing, the short BSR
//! control element, and padding.
//!
//! A MAC PDU is a sequence of subPDUs, each `| R | F | LCID(6) | L(8/16) |
//! payload |`. The MAC layer is also where the paper's scheduling story
//! lives; the decision logic itself is in [`crate::sched`], the UE-side SR
//! trigger in [`crate::sr`] — this module is the wire format.

use bytes::{BufMut, Bytes, BytesMut};
use std::ops::Range;

/// Logical Channel ID values used here (DL-SCH/UL-SCH tables of TS 38.321).
pub mod lcid {
    /// CCCH (SRB0).
    pub const CCCH: u8 = 0;
    /// C-RNTI control element (UL-SCH) — carried in Msg3 so the gNB can
    /// match a re-establishing UE to its old context.
    pub const C_RNTI: u8 = 58;
    /// Short BSR control element (UL-SCH).
    pub const SHORT_BSR: u8 = 61;
    /// Padding.
    pub(crate) const PADDING: u8 = 63;
}

/// Errors from MAC PDU processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacError {
    /// PDU ended mid-subheader or mid-payload.
    Truncated,
    /// A subPDU payload exceeds the 16-bit length field.
    PayloadTooLarge,
    /// The multiplexed subPDUs overflow the granted transport block.
    ExceedsTransportBlock {
        /// Bytes the subPDUs and their subheaders need.
        needed: usize,
        /// Transport block size granted by the scheduler.
        tbs: usize,
    },
    /// The bounded MAC backlog is at capacity (overload protection).
    BacklogFull {
        /// PDUs already queued when the push arrived.
        queued: usize,
        /// Configured backlog capacity in PDUs.
        cap: usize,
    },
}

impl core::fmt::Display for MacError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MacError::Truncated => write!(f, "MAC PDU truncated"),
            MacError::PayloadTooLarge => write!(f, "subPDU payload exceeds 65535 bytes"),
            MacError::ExceedsTransportBlock { needed, tbs } => {
                write!(f, "subPDUs need {needed} bytes but the transport block holds {tbs}")
            }
            MacError::BacklogFull { queued, cap } => {
                write!(f, "MAC backlog full ({queued} PDUs queued, cap {cap})")
            }
        }
    }
}

impl std::error::Error for MacError {}

/// One subPDU: a logical-channel ID plus its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacSubPdu {
    /// Logical channel / control-element ID.
    pub lcid: u8,
    /// The payload (an RLC PDU for data LCIDs, CE body for control).
    pub payload: Bytes,
}

impl MacSubPdu {
    /// Creates a subPDU.
    pub fn new(lcid: u8, payload: Bytes) -> MacSubPdu {
        assert!(lcid < 64, "LCID is 6 bits");
        MacSubPdu { lcid, payload }
    }

    /// Encoded size including the subheader.
    pub fn encoded_len(&self) -> usize {
        subheader_len(self.payload.len()) + self.payload.len()
    }
}

/// Bytes the subheader of a `len`-byte subPDU takes: the LCID byte and an
/// 8-bit L, or a 16-bit one past 255 bytes.
pub fn subheader_len(len: usize) -> usize {
    if len > 255 {
        3
    } else {
        2
    }
}

/// Appends the subheader of a `len`-byte subPDU on `lcid`; its payload goes
/// straight behind it.
///
/// # Panics
/// Panics if `len` does not fit the 16-bit L field.
pub fn put_subheader(out: &mut BytesMut, lcid: u8, len: usize) {
    assert!(len <= usize::from(u16::MAX), "a {len} B subPDU payload overflows the L field");
    if len > 255 {
        out.put_u8(0x40 | (lcid & 0x3F)); // F=1: 16-bit L
        out.put_u16(len as u16);
    } else {
        out.put_u8(lcid & 0x3F); // F=0: 8-bit L
        out.put_u8(len as u8);
    }
}

/// A complete MAC PDU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacPdu {
    /// The subPDUs, in order (padding not included — it is synthesised at
    /// encode time and stripped at decode time).
    pub subpdus: Vec<MacSubPdu>,
}

impl MacPdu {
    /// Creates a PDU from subPDUs.
    pub fn new(subpdus: Vec<MacSubPdu>) -> MacPdu {
        MacPdu { subpdus }
    }

    /// Encodes the PDU, padding to exactly `transport_block_size` bytes if
    /// given (a MAC PDU must fill its transport block).
    pub fn encode(&self, transport_block_size: Option<usize>) -> Result<Bytes, MacError> {
        let mut needed = 0usize;
        for sub in &self.subpdus {
            if sub.payload.len() > u16::MAX as usize {
                return Err(MacError::PayloadTooLarge);
            }
            needed += sub.encoded_len();
        }
        let size = transport_block_size.unwrap_or(needed);
        if needed > size {
            return Err(MacError::ExceedsTransportBlock { needed, tbs: size });
        }
        let mut out = BytesMut::with_capacity(size);
        for sub in &self.subpdus {
            put_subheader(&mut out, sub.lcid, sub.payload.len());
            out.put_slice(&sub.payload);
        }
        if needed < size {
            // Padding subPDU: one subheader byte, rest zero.
            out.put_u8(lcid::PADDING);
            out.put_bytes(0, size - needed - 1);
        }
        Ok(out.freeze())
    }

    /// Decodes a PDU, stripping padding.
    pub fn decode(data: &Bytes) -> Result<MacPdu, MacError> {
        subpdus(data)
            .map(|sub| sub.map(|(lcid, at)| MacSubPdu { lcid, payload: data.slice(at) }))
            .collect::<Result<_, _>>()
            .map(MacPdu::new)
    }
}

/// The subPDUs of the MAC PDU `data`, in wire order, padding stripped: each
/// as its LCID and the range of `data` its payload occupies, so a PDU is
/// walked where it lies.
pub fn subpdus(data: &[u8]) -> SubPdus<'_> {
    SubPdus { data, pos: 0 }
}

/// Iterator over a MAC PDU's subPDUs (see [`subpdus`]). A malformed
/// subheader yields one error, after which the iterator is exhausted.
#[derive(Debug, Clone)]
pub struct SubPdus<'a> {
    data: &'a [u8],
    /// Offset of the next subheader; `data.len()` once exhausted.
    pos: usize,
}

impl Iterator for SubPdus<'_> {
    type Item = Result<(u8, Range<usize>), MacError>;

    fn next(&mut self) -> Option<Self::Item> {
        let data = self.data;
        let hdr = *data.get(self.pos)?;
        let lcid_v = hdr & 0x3F;
        // Padding runs to the end of the PDU; an error ends the walk.
        let start = self.pos;
        self.pos = data.len();
        if lcid_v == lcid::PADDING {
            return None;
        }
        let (len, body) = if hdr & 0x40 != 0 {
            match data.get(start + 1..start + 3) {
                Some(l) => (usize::from(u16::from_be_bytes([l[0], l[1]])), start + 3),
                None => return Some(Err(MacError::Truncated)),
            }
        } else {
            match data.get(start + 1) {
                Some(&l) => (usize::from(l), start + 2),
                None => return Some(Err(MacError::Truncated)),
            }
        };
        if body + len > data.len() {
            return Some(Err(MacError::Truncated));
        }
        self.pos = body + len;
        Some(Ok((lcid_v, body..body + len)))
    }
}

/// The short-BSR buffer-size levels of TS 38.321 Table 6.1.3.1-1
/// (5-bit index → "buffer ≤ N bytes"; index 31 means "> 150000").
pub(crate) const BSR_LEVELS: [u32; 31] = [
    0, 10, 14, 20, 28, 38, 53, 74, 102, 142, 198, 276, 384, 535, 745, 1038, 1446, 2014, 2806, 3909,
    5446, 7587, 10570, 14726, 20516, 28581, 39818, 55474, 77284, 107669, 150000,
];

/// Every one-byte control element there is: a short BSR rides on each
/// uplink MAC PDU, and viewing its byte here costs no allocation.
static ONE_BYTE_CES: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = i as u8;
        i += 1;
    }
    table
};

/// Encodes a short BSR control element: `| LCG(3) | BufferSize(5) |`.
pub fn encode_short_bsr(lcg: u8, buffer_bytes: usize) -> Bytes {
    assert!(lcg < 8, "LCG is 3 bits");
    let idx = BSR_LEVELS.iter().position(|&lvl| buffer_bytes as u32 <= lvl).unwrap_or(31) as u8;
    let ce = usize::from((lcg << 5) | idx);
    Bytes::from_static(&ONE_BYTE_CES[ce..=ce])
}

/// Decodes a short BSR: returns `(lcg, upper bound on buffered bytes)` —
/// `None` for the ">150000" top index.
pub fn decode_short_bsr(ce: &Bytes) -> Result<(u8, Option<u32>), MacError> {
    if ce.len() != 1 {
        return Err(MacError::Truncated);
    }
    let lcg = ce[0] >> 5;
    let idx = (ce[0] & 0x1F) as usize;
    Ok((lcg, BSR_LEVELS.get(idx).copied()))
}

/// Encodes a C-RNTI control element (TS 38.321 §6.1.3.2): the UE's old
/// C-RNTI, sent in Msg3 during contention-based re-access so the gNB can
/// route the re-establishment request to the existing UE context.
pub fn encode_c_rnti(rnti: u16) -> Bytes {
    Bytes::copy_from_slice(&rnti.to_be_bytes())
}

/// Decodes a C-RNTI control element.
pub fn decode_c_rnti(ce: &Bytes) -> Result<u16, MacError> {
    if ce.len() != 2 {
        return Err(MacError::Truncated);
    }
    Ok(u16::from_be_bytes([ce[0], ce[1]]))
}

/// A bounded FIFO of MAC-level work (transport blocks awaiting HARQ
/// retransmission, assembled PDUs awaiting air time). Under overload the
/// queue tail-drops with a typed error instead of growing without bound —
/// the MAC-layer leg of the drop taxonomy.
#[derive(Debug, Clone)]
pub struct MacBacklog<T> {
    queue: std::collections::VecDeque<T>,
    cap: usize,
    dropped_full: u64,
    peak: usize,
}

impl<T> MacBacklog<T> {
    /// A backlog holding at most `cap` entries (min 1).
    pub fn new(cap: usize) -> MacBacklog<T> {
        let cap = cap.max(1);
        MacBacklog {
            queue: std::collections::VecDeque::with_capacity(cap),
            cap,
            dropped_full: 0,
            peak: 0,
        }
    }

    /// Enqueues, tail-dropping with [`MacError::BacklogFull`] at capacity.
    pub fn push(&mut self, item: T) -> Result<(), MacError> {
        if self.queue.len() >= self.cap {
            self.dropped_full += 1;
            return Err(MacError::BacklogFull { queued: self.queue.len(), cap: self.cap });
        }
        self.queue.push_back(item);
        self.peak = self.peak.max(self.queue.len());
        Ok(())
    }

    /// Pops the oldest entry.
    pub fn pop(&mut self) -> Option<T> {
        self.queue.pop_front()
    }

    /// The oldest entry, without removing it.
    pub fn peek(&self) -> Option<&T> {
        self.queue.front()
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Entries tail-dropped at capacity so far.
    pub fn dropped_full(&self) -> u64 {
        self.dropped_full
    }

    /// Highest occupancy observed (bounded-memory evidence for the
    /// overload sweep's CSV).
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Drops entries failing `keep`, returning how many were removed
    /// (deadline-expiry shedding under SLO degradation).
    pub fn prune<F: FnMut(&T) -> bool>(&mut self, mut keep: F) -> usize {
        let before = self.queue.len();
        self.queue.retain(|item| keep(item));
        before - self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostile::mutate;
    use proptest::prelude::*;

    /// `MacPdu::decode` as it was before the subPDU iterator: the oracle.
    fn decode_indexing(data: &Bytes) -> Result<MacPdu, MacError> {
        let mut subpdus = Vec::new();
        let mut pos = 0usize;
        while pos < data.len() {
            let hdr = data[pos];
            let lcid_v = hdr & 0x3F;
            if lcid_v == lcid::PADDING {
                break;
            }
            let f16 = hdr & 0x40 != 0;
            pos += 1;
            let len = if f16 {
                if pos + 2 > data.len() {
                    return Err(MacError::Truncated);
                }
                let l = u16::from_be_bytes([data[pos], data[pos + 1]]) as usize;
                pos += 2;
                l
            } else {
                if pos >= data.len() {
                    return Err(MacError::Truncated);
                }
                let l = data[pos] as usize;
                pos += 1;
                l
            };
            if pos + len > data.len() {
                return Err(MacError::Truncated);
            }
            subpdus.push(MacSubPdu { lcid: lcid_v, payload: data.slice(pos..pos + len) });
            pos += len;
        }
        Ok(MacPdu { subpdus })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn subpdu_iterator_agrees_with_the_indexing_decoder_on_valid_pdus(
            subs in prop::collection::vec(
                (0u8..63, prop::collection::vec(any::<u8>(), 0..300)),
                0..5,
            ),
            padding in prop::option::of(0usize..40),
        ) {
            let pdu = MacPdu::new(
                subs.into_iter().map(|(lcid, p)| MacSubPdu::new(lcid, Bytes::from(p))).collect(),
            );
            let needed: usize = pdu.subpdus.iter().map(MacSubPdu::encoded_len).sum();
            let wire = pdu.encode(padding.map(|p| needed + p)).unwrap();
            let walked = MacPdu::decode(&wire);
            prop_assert_eq!(&walked, &decode_indexing(&wire));
            prop_assert_eq!(walked, Ok(pdu));
        }

        #[test]
        fn subpdu_iterator_agrees_with_the_indexing_decoder_on_arbitrary_bytes(
            data in prop::collection::vec(any::<u8>(), 0..80),
            cut in 0usize..80,
        ) {
            // Arbitrary bytes, and a valid PDU cut short at an arbitrary
            // point (mid-subheader, mid-length, mid-payload).
            let valid = MacPdu::new(vec![
                MacSubPdu::new(lcid::SHORT_BSR, encode_short_bsr(0, data.len())),
                MacSubPdu::new(1, Bytes::from(data.clone())),
            ])
            .encode(None)
            .unwrap();
            for wire in [Bytes::from(data), valid.slice(..cut.min(valid.len()))] {
                prop_assert_eq!(MacPdu::decode(&wire), decode_indexing(&wire));
                // An error ends the walk: nothing after it.
                let mut walk = subpdus(&wire).skip_while(Result::is_ok);
                if walk.next().is_some() {
                    prop_assert!(walk.next().is_none());
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::cases_from_env_or(256))]
        #[test]
        fn a_hostile_mac_pdu_is_a_typed_error_or_a_round_trip(
            subs in prop::collection::vec((0u8..63, 0usize..300), 1..4),
            padding in prop::option::of(0usize..40),
            victim in any::<usize>(),
            mutation in (0u8..4, any::<usize>(), any::<u32>()),
        ) {
            let pdu = MacPdu::new(
                subs.iter()
                    .map(|&(lcid, len)| MacSubPdu::new(lcid, (0..len).map(|i| i as u8).collect()))
                    .collect(),
            );
            let needed: usize = pdu.subpdus.iter().map(MacSubPdu::encoded_len).sum();
            let wire = pdu.encode(padding.map(|p| needed + p)).unwrap();
            // A lie in one subPDU's subheader (R/F bits, LCID, an 8- or
            // 16-bit L), a bit flip anywhere or a truncation.
            let victim = victim % pdu.subpdus.len();
            let at: usize = pdu.subpdus[..victim].iter().map(MacSubPdu::encoded_len).sum();
            let header = subheader_len(pdu.subpdus[victim].payload.len());
            let hostile = Bytes::from(mutate(&wire, at..at + header, mutation));
            match MacPdu::decode(&hostile) {
                Ok(decoded) => {
                    // Whatever decoded re-encodes and decodes to itself.
                    let again = decoded.encode(None);
                    prop_assert_eq!(again.and_then(|b| MacPdu::decode(&b)), Ok(decoded.clone()));
                    if hostile == wire {
                        prop_assert_eq!(decoded, pdu);
                    }
                }
                Err(err) => {
                    prop_assert_eq!(err, MacError::Truncated);
                    // The walk ends on that error, with nothing after it.
                    prop_assert_eq!(subpdus(&hostile).last(), Some(Err(err)));
                }
            }
        }

        #[test]
        fn a_hostile_control_element_is_a_typed_error_or_a_round_trip(
            ce in prop::collection::vec(any::<u8>(), 0..4),
        ) {
            let ce = Bytes::from(ce);
            match decode_short_bsr(&ce) {
                // The top index decodes as unbounded: any larger buffer
                // encodes back to it.
                Ok((lcg, bound)) => prop_assert_eq!(
                    encode_short_bsr(lcg, bound.map_or(150_001, |b| b as usize)),
                    ce.clone()
                ),
                Err(err) => prop_assert_eq!((err, ce.len() == 1), (MacError::Truncated, false)),
            }
            match decode_c_rnti(&ce) {
                Ok(rnti) => prop_assert_eq!(encode_c_rnti(rnti), ce),
                Err(err) => prop_assert_eq!((err, ce.len() == 2), (MacError::Truncated, false)),
            }
        }
    }

    #[test]
    fn single_subpdu_roundtrip() {
        let pdu = MacPdu::new(vec![MacSubPdu::new(4, Bytes::from_static(b"rlc pdu"))]);
        let enc = pdu.encode(None).unwrap();
        assert_eq!(MacPdu::decode(&enc).unwrap(), pdu);
        // One 8-bit and two 16-bit L fields.
        for size in [64, 512, 4096] {
            let pdu = MacPdu::new(vec![MacSubPdu::new(1, Bytes::from(vec![0xA5; size]))]);
            let enc = pdu.encode(None).unwrap();
            assert_eq!(MacPdu::decode(&enc).unwrap(), pdu, "{size} B");
        }
    }

    #[test]
    fn multiplexes_several_channels() {
        let pdu = MacPdu::new(vec![
            MacSubPdu::new(lcid::SHORT_BSR, encode_short_bsr(0, 100)),
            MacSubPdu::new(1, Bytes::from_static(b"bearer one")),
            MacSubPdu::new(2, Bytes::from_static(b"bearer two")),
        ]);
        let enc = pdu.encode(None).unwrap();
        let dec = MacPdu::decode(&enc).unwrap();
        assert_eq!(dec.subpdus.len(), 3);
        assert_eq!(dec, pdu);
    }

    #[test]
    fn padding_fills_transport_block() {
        let pdu = MacPdu::new(vec![MacSubPdu::new(1, Bytes::from_static(b"x"))]);
        let enc = pdu.encode(Some(100)).unwrap();
        assert_eq!(enc.len(), 100);
        let dec = MacPdu::decode(&enc).unwrap();
        assert_eq!(dec.subpdus.len(), 1);
        assert_eq!(dec.subpdus[0].payload, Bytes::from_static(b"x"));
    }

    #[test]
    fn c_rnti_ce_roundtrips_inside_a_mac_pdu() {
        let ce = encode_c_rnti(0xC0DE);
        let pdu = MacPdu::new(vec![
            MacSubPdu::new(lcid::C_RNTI, ce),
            MacSubPdu::new(lcid::CCCH, Bytes::from_static(b"reestablishment request")),
        ]);
        let dec = MacPdu::decode(&pdu.encode(None).unwrap()).unwrap();
        assert_eq!(dec.subpdus[0].lcid, lcid::C_RNTI);
        assert_eq!(decode_c_rnti(&dec.subpdus[0].payload).unwrap(), 0xC0DE);
        assert_eq!(decode_c_rnti(&Bytes::from_static(&[1])).unwrap_err(), MacError::Truncated);
    }

    #[test]
    fn exact_fit_needs_no_padding() {
        let pdu = MacPdu::new(vec![MacSubPdu::new(1, Bytes::from_static(b"abc"))]);
        let enc = pdu.encode(Some(5)).unwrap(); // 2 hdr + 3 payload
        assert_eq!(enc.len(), 5);
        assert_eq!(MacPdu::decode(&enc).unwrap(), pdu);
    }

    #[test]
    fn oversized_for_tb_is_a_typed_error() {
        let pdu = MacPdu::new(vec![MacSubPdu::new(1, Bytes::from(vec![0u8; 50]))]);
        assert_eq!(
            pdu.encode(Some(10)).unwrap_err(),
            MacError::ExceedsTransportBlock { needed: 52, tbs: 10 }
        );
    }

    #[test]
    fn long_payload_uses_16bit_length() {
        let payload = Bytes::from(vec![0xEE; 1000]);
        let pdu = MacPdu::new(vec![MacSubPdu::new(3, payload.clone())]);
        let enc = pdu.encode(None).unwrap();
        assert_eq!(enc.len(), 3 + 1000); // 1 hdr + 2 len + payload
        assert_eq!(enc[0] & 0x40, 0x40);
        let dec = MacPdu::decode(&enc).unwrap();
        assert_eq!(dec.subpdus[0].payload, payload);
    }

    #[test]
    fn truncated_pdus_rejected() {
        // Subheader promising more payload than present.
        let bad = Bytes::from(vec![0x01, 0x10, 0xAA]);
        assert_eq!(MacPdu::decode(&bad).unwrap_err(), MacError::Truncated);
        // 16-bit length field cut short.
        let bad = Bytes::from(vec![0x41, 0x00]);
        assert_eq!(MacPdu::decode(&bad).unwrap_err(), MacError::Truncated);
        // Header with no length byte.
        let bad = Bytes::from(vec![0x01]);
        assert_eq!(MacPdu::decode(&bad).unwrap_err(), MacError::Truncated);
    }

    #[test]
    fn empty_pdu_decodes_empty() {
        assert_eq!(MacPdu::decode(&Bytes::new()).unwrap().subpdus.len(), 0);
    }

    #[test]
    fn bsr_levels_are_monotone() {
        for w in BSR_LEVELS.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn bsr_roundtrip_bounds() {
        for &bytes in &[0usize, 5, 10, 11, 100, 5000, 149_999, 150_000] {
            let ce = encode_short_bsr(2, bytes);
            let (lcg, bound) = decode_short_bsr(&ce).unwrap();
            assert_eq!(lcg, 2);
            let bound = bound.expect("within table");
            assert!(bound as usize >= bytes, "{bytes} -> bound {bound}");
        }
        // Above the table: top index, unbounded.
        let ce = encode_short_bsr(0, 200_000);
        assert_eq!(decode_short_bsr(&ce).unwrap(), (0, None));
    }

    #[test]
    fn bsr_picks_tightest_level() {
        let ce = encode_short_bsr(0, 15);
        let (_, bound) = decode_short_bsr(&ce).unwrap();
        assert_eq!(bound, Some(20)); // 14 < 15 <= 20
    }

    #[test]
    fn backlog_tail_drops_at_capacity_and_tracks_peak() {
        let mut b = MacBacklog::new(2);
        assert!(b.push(1u32).is_ok());
        assert!(b.push(2).is_ok());
        assert_eq!(b.push(3).unwrap_err(), MacError::BacklogFull { queued: 2, cap: 2 });
        assert_eq!(b.dropped_full(), 1);
        assert_eq!(b.peak(), 2);
        assert_eq!(b.pop(), Some(1));
        assert!(b.push(4).is_ok());
        assert_eq!(b.pop(), Some(2));
        assert_eq!(b.pop(), Some(4));
        assert!(b.is_empty());
        // prune removes entries failing the predicate.
        for i in 0..2 {
            b.push(i).unwrap();
        }
        assert_eq!(b.prune(|&x| x != 0), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn encoded_len_matches_encode() {
        for len in [0usize, 1, 255, 256, 1000] {
            let sub = MacSubPdu::new(7, Bytes::from(vec![1u8; len]));
            let pdu = MacPdu::new(vec![sub.clone()]);
            assert_eq!(pdu.encode(None).unwrap().len(), sub.encoded_len());
        }
    }
}
