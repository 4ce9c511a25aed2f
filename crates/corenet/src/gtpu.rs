//! GTP-U header codec (TS 29.281 §5.1).
//!
//! The mandatory 8-byte header:
//!
//! ```text
//! | ver(3)=1 | PT(1)=1 | R(1) | E(1) | S(1) | PN(1) |  message type (8) |
//! |                length (16)                       |
//! |                         TEID (32)                                   |
//! ```
//!
//! plus a 4-byte optional field block (sequence number ‖ N-PDU ‖ next ext)
//! when any of E/S/PN is set. `length` counts everything after the first
//! 8 bytes.

use bytes::{BufMut, Bytes, BytesMut};

/// Message type of a G-PDU (encapsulated user packet).
pub(crate) const MSG_GPDU: u8 = 255;

/// Message type of an echo request (path management).
pub(crate) const MSG_ECHO_REQUEST: u8 = 1;

/// Message type of an echo response (path management).
pub(crate) const MSG_ECHO_RESPONSE: u8 = 2;

/// Message type of an end marker (TS 29.281 §7.3.2): the last packet the
/// source sends down a forwarding tunnel after the path switch, telling
/// the target no more forwarded data follows.
pub(crate) const MSG_END_MARKER: u8 = 254;

/// Bytes of the mandatory header: all a G-PDU without a sequence number
/// carries in front of its payload, and the room a buffer must leave in
/// front of a packet for [`GtpuHeader::encapsulate`] to write it in place.
pub const GPDU_HEADER_LEN: usize = 8;

/// Bytes of the mandatory header plus the optional block.
const MAX_HEADER_LEN: usize = GPDU_HEADER_LEN + 4;

/// Largest payload a single G-PDU may carry: a jumbo-frame transport MTU
/// minus the tunnel overhead. Anything larger is a malformed or hostile
/// header, not a packet the N3/Xn transport could have carried.
pub(crate) const MAX_PAYLOAD: usize = 9000;

/// Errors from GTP-U decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GtpuError {
    /// Packet shorter than the mandatory header (or its declared length).
    Truncated,
    /// Version field is not 1 or PT is not GTP.
    BadVersion,
    /// Declared length exceeds what the transport can carry
    /// (`MAX_PAYLOAD` plus the optional block).
    Oversized,
}

impl core::fmt::Display for GtpuError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GtpuError::Truncated => write!(f, "GTP-U packet truncated"),
            GtpuError::BadVersion => write!(f, "not a GTPv1-U packet"),
            GtpuError::Oversized => write!(f, "GTP-U length exceeds the transport MTU"),
        }
    }
}

impl std::error::Error for GtpuError {}

/// A decoded GTP-U header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GtpuHeader {
    /// Message type (`MSG_GPDU` for user data).
    pub message_type: u8,
    /// Tunnel endpoint identifier.
    pub teid: u32,
    /// Optional sequence number (sets the S flag when present).
    pub sequence: Option<u16>,
}

impl GtpuHeader {
    /// A G-PDU header for the given tunnel.
    pub fn gpdu(teid: u32) -> GtpuHeader {
        GtpuHeader { message_type: MSG_GPDU, teid, sequence: None }
    }

    /// An echo request (path management, TS 29.281 §7.2.1). Sent on
    /// TEID 0; the sequence number pairs it with its response.
    pub(crate) fn echo_request(sequence: u16) -> GtpuHeader {
        GtpuHeader { message_type: MSG_ECHO_REQUEST, teid: 0, sequence: Some(sequence) }
    }

    /// An echo response echoing the request's sequence (§7.2.2).
    pub(crate) fn echo_response(sequence: u16) -> GtpuHeader {
        GtpuHeader { message_type: MSG_ECHO_RESPONSE, teid: 0, sequence: Some(sequence) }
    }

    /// An end marker for a forwarding tunnel (§7.3.2): no payload, sent on
    /// the forwarding TEID after the last forwarded packet.
    pub(crate) fn end_marker(teid: u32) -> GtpuHeader {
        GtpuHeader { message_type: MSG_END_MARKER, teid, sequence: None }
    }

    /// Encodes header + payload, rejecting payloads beyond
    /// [`MAX_PAYLOAD`] — the 16-bit length field would otherwise truncate
    /// silently and desynchronise the decoder.
    pub(crate) fn try_encode(&self, payload: &[u8]) -> Result<Bytes, GtpuError> {
        if payload.len() > MAX_PAYLOAD {
            return Err(GtpuError::Oversized);
        }
        Ok(self.encode(payload))
    }

    /// Encodes header + payload into a wire packet.
    ///
    /// Invariant: `payload.len() <= MAX_PAYLOAD`. Every payload in this
    /// stack is bounded by the slot capacity (hundreds of bytes), far
    /// under the MTU; callers assembling untrusted payloads use
    /// `try_encode`.
    pub fn encode(&self, payload: &[u8]) -> Bytes {
        let (header, len) = self.header(payload.len());
        let mut out = BytesMut::with_capacity(len + payload.len());
        out.put_slice(&header[..len]);
        out.put_slice(payload);
        out.freeze()
    }

    /// [`encode`](Self::encode) of a payload the caller hands over, into
    /// the payload's own buffer when it can be: the header goes into the
    /// spare bytes in front of the payload (an SDU's spent lower-layer
    /// headers, a reserve its builder left) when there are enough and no
    /// other handle holds the buffer. Otherwise (a held clone, or less
    /// room than the header takes) it is encoded into a new buffer. The
    /// packet's bytes are the same either way.
    pub fn encapsulate(&self, payload: Bytes) -> Bytes {
        let (header, len) = self.header(payload.len());
        payload.try_prepend(&header[..len]).unwrap_or_else(|payload| self.encode(&payload))
    }

    /// The header in front of a payload of `payload_len` bytes, in the
    /// first `len` bytes of the array returned with it: where every GTP-U
    /// header is written.
    fn header(&self, payload_len: usize) -> ([u8; MAX_HEADER_LEN], usize) {
        debug_assert!(payload_len <= MAX_PAYLOAD, "payload exceeds the GTP-U transport MTU");
        let opt_len = if self.sequence.is_some() { 4 } else { 0 };
        let mut header = [0u8; MAX_HEADER_LEN];
        // version 1, PT=1 (GTP), S flag per sequence.
        header[0] = 0b0011_0000 | if self.sequence.is_some() { 0b0000_0010 } else { 0 };
        header[1] = self.message_type;
        header[2..4].copy_from_slice(&((payload_len + opt_len) as u16).to_be_bytes());
        header[4..8].copy_from_slice(&self.teid.to_be_bytes());
        if let Some(seq) = self.sequence {
            // The N-PDU number and the next extension header type after
            // it stay zero: none.
            header[8..10].copy_from_slice(&seq.to_be_bytes());
        }
        (header, GPDU_HEADER_LEN + opt_len)
    }

    /// Decodes a wire packet into `(header, payload)`.
    pub fn decode(packet: &Bytes) -> Result<(GtpuHeader, Bytes), GtpuError> {
        if packet.len() < 8 {
            return Err(GtpuError::Truncated);
        }
        let flags = packet[0];
        if flags >> 5 != 0b001 || flags & 0b0001_0000 == 0 {
            return Err(GtpuError::BadVersion);
        }
        let message_type = packet[1];
        let length = u16::from_be_bytes([packet[2], packet[3]]) as usize;
        let teid = u32::from_be_bytes([packet[4], packet[5], packet[6], packet[7]]);
        let has_opt = flags & 0b0000_0111 != 0;
        if length > MAX_PAYLOAD + if has_opt { 4 } else { 0 } {
            return Err(GtpuError::Oversized);
        }
        if packet.len() < 8 + length {
            return Err(GtpuError::Truncated);
        }
        let (sequence, payload_start) = if has_opt {
            if length < 4 {
                return Err(GtpuError::Truncated);
            }
            let seq = if flags & 0b0000_0010 != 0 {
                Some(u16::from_be_bytes([packet[8], packet[9]]))
            } else {
                None
            };
            (seq, 12)
        } else {
            (None, 8)
        };
        let payload = packet.slice(payload_start..8 + length);
        Ok((GtpuHeader { message_type, teid, sequence }, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gpdu_roundtrip() {
        let h = GtpuHeader::gpdu(0xDEAD_BEEF);
        let payload = b"ip packet bytes";
        let pkt = h.encode(payload);
        assert_eq!(pkt.len(), 8 + payload.len());
        let (dec, body) = GtpuHeader::decode(&pkt).unwrap();
        assert_eq!(dec, h);
        assert_eq!(&body[..], payload);
    }

    #[test]
    fn sequence_number_roundtrip() {
        let h = GtpuHeader { message_type: MSG_GPDU, teid: 7, sequence: Some(0x1234) };
        let pkt = h.encode(b"data");
        assert_eq!(pkt.len(), 12 + 4);
        let (dec, body) = GtpuHeader::decode(&pkt).unwrap();
        assert_eq!(dec.sequence, Some(0x1234));
        assert_eq!(&body[..], b"data");
    }

    #[test]
    fn empty_payload() {
        let pkt = GtpuHeader::gpdu(1).encode(b"");
        let (h, body) = GtpuHeader::decode(&pkt).unwrap();
        assert_eq!(h.teid, 1);
        assert!(body.is_empty());
    }

    #[test]
    fn rejects_short_and_bad_version() {
        assert_eq!(
            GtpuHeader::decode(&Bytes::from_static(&[0x30])).unwrap_err(),
            GtpuError::Truncated
        );
        let mut pkt = GtpuHeader::gpdu(1).encode(b"x").to_vec();
        pkt[0] = 0x50; // version 2
        assert_eq!(GtpuHeader::decode(&Bytes::from(pkt)).unwrap_err(), GtpuError::BadVersion);
        // PT = 0 (GTP').
        let mut pkt = GtpuHeader::gpdu(1).encode(b"x").to_vec();
        pkt[0] = 0x20;
        assert_eq!(GtpuHeader::decode(&Bytes::from(pkt)).unwrap_err(), GtpuError::BadVersion);
    }

    #[test]
    fn rejects_length_beyond_packet() {
        let mut pkt = GtpuHeader::gpdu(1).encode(b"abc").to_vec();
        pkt[3] = 200; // declared length 200, actual 3
        assert_eq!(GtpuHeader::decode(&Bytes::from(pkt)).unwrap_err(), GtpuError::Truncated);
    }

    #[test]
    fn rejects_oversized_declared_length() {
        // A header whose 16-bit length field claims more than the
        // transport MTU is Oversized, not merely Truncated.
        let mut pkt = GtpuHeader::gpdu(1).encode(b"abc").to_vec();
        let bad = (MAX_PAYLOAD + 5) as u16;
        pkt[2..4].copy_from_slice(&bad.to_be_bytes());
        assert_eq!(GtpuHeader::decode(&Bytes::from(pkt)).unwrap_err(), GtpuError::Oversized);
    }

    #[test]
    fn a_header_without_the_optional_block_may_not_declare_it() {
        // Without E/S/PN the length is all payload: past MAX_PAYLOAD it is
        // more than the transport carries, and more than `encode` accepts.
        let mut pkt = GtpuHeader::gpdu(1).encode(&vec![0u8; MAX_PAYLOAD]).to_vec();
        pkt.extend([0; 4]);
        pkt[2..4].copy_from_slice(&((MAX_PAYLOAD + 4) as u16).to_be_bytes());
        assert_eq!(
            GtpuHeader::decode(&Bytes::from(pkt.clone())).unwrap_err(),
            GtpuError::Oversized
        );
        pkt[0] |= 0b0000_0100; // E: the same length now covers the block
        assert!(GtpuHeader::decode(&Bytes::from(pkt)).is_ok());
    }

    /// `payload` in a buffer of its own, behind `room` spare bytes.
    fn behind(room: usize, payload: &[u8]) -> Bytes {
        let mut b = BytesMut::with_capacity(room + payload.len());
        b.put_bytes(0xEE, room);
        b.put_slice(payload);
        b.freeze().slice(room..)
    }

    #[test]
    fn encapsulate_writes_into_the_payloads_buffer_when_it_can() {
        let gpdu = GtpuHeader::gpdu(0xDEAD_BEEF);
        let payload = behind(GPDU_HEADER_LEN, b"ip packet bytes");
        let at = payload.as_ptr();
        let pkt = gpdu.encapsulate(payload);
        assert_eq!(pkt, gpdu.encode(b"ip packet bytes"));
        assert_eq!(pkt[GPDU_HEADER_LEN..].as_ptr(), at, "the payload's own buffer");
        assert_eq!(gpdu.encapsulate(behind(13, b"")), gpdu.encode(b""));

        // A held clone, too little room and a header with the optional
        // block each get a buffer of their own, with the same bytes.
        let held = behind(GPDU_HEADER_LEN, b"held");
        let pkt = gpdu.encapsulate(held.clone());
        assert_eq!((pkt.clone(), &held[..]), (gpdu.encode(b"held"), &b"held"[..]));
        assert_ne!(pkt[GPDU_HEADER_LEN..].as_ptr(), held.as_ptr());
        let short = behind(GPDU_HEADER_LEN - 1, b"short");
        let at = short.as_ptr();
        let pkt = gpdu.encapsulate(short);
        assert_eq!(pkt, gpdu.encode(b"short"));
        assert_ne!(pkt[GPDU_HEADER_LEN..].as_ptr(), at);
        let sequenced = GtpuHeader { message_type: MSG_GPDU, teid: 7, sequence: Some(0x1234) };
        let pkt = sequenced.encapsulate(behind(GPDU_HEADER_LEN, b"data"));
        assert_eq!(pkt, sequenced.encode(b"data"));
        assert_eq!(sequenced.encapsulate(Bytes::from_static(b"data")), pkt);
    }

    proptest! {
        #![proptest_config(ProptestConfig::cases_from_env_or(256))]
        #[test]
        fn a_hostile_holder_never_sees_encapsulate_write_outside_its_view(
            room in 0usize..20,
            len in 0usize..64,
            tail in 0usize..8,
            sequence in prop::option::of(any::<u16>()),
            holder in 0u8..3,
            teid in any::<u32>(),
        ) {
            let header = GtpuHeader { message_type: MSG_GPDU, teid, sequence };
            let storage: Bytes = (0..room + len + tail).map(|i| (i as u8).wrapping_mul(37)).collect();
            let before = storage.to_vec();
            let view = storage.slice(room..room + len);
            let want = header.encode(&view);
            // Someone else holds the whole buffer, or the view, or nobody.
            let held = match holder {
                0 => None,
                1 => Some(storage.clone()),
                _ => Some(view.clone()),
            };
            drop(storage);
            let at = view.as_ptr();
            let pkt = header.encapsulate(view);
            prop_assert_eq!(&pkt, &want);
            let fits = room >= pkt.len() - len;
            prop_assert_eq!(pkt[pkt.len() - len..].as_ptr() == at, held.is_none() && fits);
            match (holder, held) {
                (1, Some(storage)) => prop_assert_eq!(&storage[..], &before[..]),
                (_, Some(view)) => prop_assert_eq!(&view[..], &before[room..room + len]),
                _ => {}
            }
        }
    }

    #[test]
    fn try_encode_rejects_oversized_payloads() {
        let h = GtpuHeader::gpdu(9);
        assert_eq!(h.try_encode(&vec![0u8; MAX_PAYLOAD + 1]).unwrap_err(), GtpuError::Oversized);
        let ok = h.try_encode(&[0u8; 64]).unwrap();
        assert_eq!(GtpuHeader::decode(&ok).unwrap().0, h);
    }

    #[test]
    fn end_marker_roundtrips_with_no_payload() {
        let h = GtpuHeader::end_marker(0xF0F0);
        let pkt = h.encode(b"");
        assert_eq!(pkt.len(), 8);
        let (dec, body) = GtpuHeader::decode(&pkt).unwrap();
        assert_eq!(dec.message_type, MSG_END_MARKER);
        assert_eq!(dec.teid, 0xF0F0);
        assert!(body.is_empty());
    }

    #[test]
    fn echo_request_type_preserved() {
        let h = GtpuHeader { message_type: MSG_ECHO_REQUEST, teid: 0, sequence: Some(1) };
        let (dec, _) = GtpuHeader::decode(&h.encode(b"")).unwrap();
        assert_eq!(dec.message_type, MSG_ECHO_REQUEST);
    }

    #[test]
    fn echo_constructors_roundtrip_with_sequence() {
        let req = GtpuHeader::echo_request(0xBEEF);
        let (dec, body) = GtpuHeader::decode(&req.encode(b"")).unwrap();
        assert_eq!(dec, req);
        assert_eq!(dec.teid, 0);
        assert!(body.is_empty());

        let resp = GtpuHeader::echo_response(0xBEEF);
        let (dec, _) = GtpuHeader::decode(&resp.encode(b"")).unwrap();
        assert_eq!(dec.message_type, MSG_ECHO_RESPONSE);
        assert_eq!(dec.sequence, Some(0xBEEF));
    }
}
