//! Xn-U data forwarding for inter-gNB handover (TS 38.423 §8.2, TS 29.281).
//!
//! When a UE moves between cells, the source gNB must not drop the
//! downlink PDCP PDUs it has already numbered but not yet delivered.
//! Instead it opens a *forwarding tunnel* — a plain GTP-U tunnel over the
//! Xn interface — and replays those PDUs to the target gNB, which delivers
//! them ahead of fresh data so the UE sees a contiguous, in-order COUNT
//! sequence. Two control-plane artefacts ride along:
//!
//! * the **SN STATUS TRANSFER** ([`SnStatusTransfer`]) tells the target
//!   which COUNT its own transmitter must start from, so locally generated
//!   PDUs continue the source's numbering instead of colliding with it;
//! * the **end marker** (TS 29.281 §7.3.2) is the last packet down the
//!   tunnel after the UPF path switch, telling the target that everything
//!   after it arrives on the fresh N3 path.
//!
//! [`XnForwardingTunnel`] is the source side (encapsulate + sequence),
//! [`XnReceiver`] the target side (validate, buffer, detect the marker).

use bytes::Bytes;
use telemetry::{metric, Telemetry};

use crate::gtpu::{GtpuError, GtpuHeader, MSG_END_MARKER, MSG_GPDU};

/// The SN STATUS TRANSFER carried over Xn-C (TS 38.423 §9.1.1.4): the
/// COUNT the target's downlink transmitter must assign to its first
/// locally generated PDU. Control-plane signalling is reliable, so this
/// is passed by value rather than through the lossy tunnel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnStatusTransfer {
    /// Next downlink COUNT the target transmitter starts from.
    pub dl_tx_next: u32,
}

/// Errors from the target side of a forwarding tunnel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XnError {
    /// The packet did not parse as GTP-U.
    Gtpu(GtpuError),
    /// The packet parsed but named a different tunnel.
    WrongTeid {
        /// TEID this receiver terminates.
        expected: u32,
        /// TEID the packet carried.
        got: u32,
    },
    /// A message type that has no business on a forwarding tunnel
    /// (only G-PDUs and the end marker do).
    UnexpectedType {
        /// The offending GTP-U message type.
        message_type: u8,
    },
}

impl From<GtpuError> for XnError {
    fn from(e: GtpuError) -> XnError {
        XnError::Gtpu(e)
    }
}

impl core::fmt::Display for XnError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            XnError::Gtpu(e) => write!(f, "Xn forwarding: {e}"),
            XnError::WrongTeid { expected, got } => {
                write!(f, "Xn forwarding TEID mismatch: expected {expected}, got {got}")
            }
            XnError::UnexpectedType { message_type } => {
                write!(f, "unexpected GTP-U message type {message_type} on forwarding tunnel")
            }
        }
    }
}

impl std::error::Error for XnError {}

/// What one accepted packet meant to the target gNB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XnDelivery {
    /// A forwarded PDCP PDU, ready for delivery ahead of fresh data.
    Forwarded(Bytes),
    /// The end marker: the source has flushed everything it had.
    EndMarker,
}

/// Source-gNB side of the forwarding tunnel: wraps already-ciphered PDCP
/// PDUs in sequenced G-PDUs on the forwarding TEID the target allocated
/// in its HANDOVER REQUEST ACKNOWLEDGE.
#[derive(Debug, Clone)]
pub struct XnForwardingTunnel {
    teid: u32,
    next_seq: u16,
    forwarded: u64,
}

impl XnForwardingTunnel {
    /// Opens a tunnel towards the target's forwarding TEID.
    pub fn new(teid: u32) -> XnForwardingTunnel {
        XnForwardingTunnel { teid, next_seq: 0, forwarded: 0 }
    }

    /// How many PDUs have been forwarded so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Encapsulates one PDCP PDU for the wire. Sequence numbers are
    /// per-tunnel so the target can observe reordering; the PDU itself
    /// already carries its PDCP SN, which is what ordering is restored
    /// from.
    pub fn forward(&mut self, pdcp_pdu: &[u8]) -> Result<Bytes, GtpuError> {
        let header =
            GtpuHeader { message_type: MSG_GPDU, teid: self.teid, sequence: Some(self.next_seq) };
        let pkt = header.try_encode(pdcp_pdu)?;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.forwarded += 1;
        Ok(pkt)
    }

    /// The end marker closing the tunnel — sent once, after the last
    /// forwarded PDU, once the UPF path switch has completed.
    pub fn end_marker(&self) -> Bytes {
        GtpuHeader::end_marker(self.teid).encode(b"")
    }
}

/// Target-gNB side of the forwarding tunnel: validates, buffers forwarded
/// PDUs, and recognises the end marker.
#[derive(Debug, Clone)]
pub struct XnReceiver {
    teid: u32,
    buffered: Vec<Bytes>,
    ended: bool,
    tel: Telemetry,
}

impl XnReceiver {
    /// Terminates the forwarding TEID this target allocated.
    pub fn new(teid: u32) -> XnReceiver {
        XnReceiver { teid, buffered: Vec::new(), ended: false, tel: Telemetry::disabled() }
    }

    /// Attaches a telemetry handle (`corenet/gtpu_decode_err` on malformed
    /// packets).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Whether the end marker has arrived.
    pub fn ended(&self) -> bool {
        self.ended
    }

    /// Forwarded PDUs accepted and not yet drained.
    pub fn buffered(&self) -> usize {
        self.buffered.len()
    }

    /// Accepts one packet off the wire.
    pub fn accept(&mut self, packet: &Bytes) -> Result<XnDelivery, XnError> {
        let (header, payload) = match GtpuHeader::decode(packet) {
            Ok(decoded) => decoded,
            Err(e) => {
                self.tel.add(metric::CORENET_GTPU_DECODE_ERR, 1);
                return Err(e.into());
            }
        };
        if header.teid != self.teid {
            return Err(XnError::WrongTeid { expected: self.teid, got: header.teid });
        }
        match header.message_type {
            MSG_GPDU => {
                self.buffered.push(payload.clone());
                Ok(XnDelivery::Forwarded(payload))
            }
            MSG_END_MARKER => {
                self.ended = true;
                Ok(XnDelivery::EndMarker)
            }
            other => Err(XnError::UnexpectedType { message_type: other }),
        }
    }

    /// Takes the buffered PDUs, in arrival order, for delivery ahead of
    /// fresh data.
    pub fn drain(&mut self) -> Vec<Bytes> {
        std::mem::take(&mut self.buffered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gtpu::MSG_ECHO_REQUEST;
    use crate::hostile::mutate;
    use proptest::prelude::*;

    #[test]
    fn forwarded_pdus_roundtrip_in_order() {
        let mut tx = XnForwardingTunnel::new(42);
        let mut rx = XnReceiver::new(42);
        for i in 0u8..5 {
            let pkt = tx.forward(&[i, i, i]).unwrap();
            assert_eq!(rx.accept(&pkt).unwrap(), XnDelivery::Forwarded(Bytes::from(vec![i; 3])));
        }
        assert_eq!(tx.forwarded(), 5);
        let drained = rx.drain();
        assert_eq!(drained.len(), 5);
        for (i, pdu) in drained.iter().enumerate() {
            assert_eq!(&pdu[..], &[i as u8; 3]);
        }
        assert_eq!(rx.buffered(), 0);
    }

    #[test]
    fn end_marker_closes_the_tunnel() {
        let tx = XnForwardingTunnel::new(7);
        let mut rx = XnReceiver::new(7);
        assert!(!rx.ended());
        assert_eq!(rx.accept(&tx.end_marker()).unwrap(), XnDelivery::EndMarker);
        assert!(rx.ended());
    }

    #[test]
    fn rejects_wrong_teid_and_foreign_types() {
        let mut tx = XnForwardingTunnel::new(1);
        let mut rx = XnReceiver::new(2);
        let pkt = tx.forward(b"x").unwrap();
        assert_eq!(rx.accept(&pkt).unwrap_err(), XnError::WrongTeid { expected: 2, got: 1 });

        let mut rx = XnReceiver::new(0);
        let echo = GtpuHeader::echo_request(3).encode(b"");
        assert_eq!(
            rx.accept(&echo).unwrap_err(),
            XnError::UnexpectedType { message_type: MSG_ECHO_REQUEST }
        );
    }

    #[test]
    fn malformed_packets_are_typed_and_counted() {
        let tel = Telemetry::new(64);
        let mut rx = XnReceiver::new(9);
        rx.set_telemetry(tel.clone());
        let err = rx.accept(&Bytes::from_static(&[0x30, 0xFF])).unwrap_err();
        assert_eq!(err, XnError::Gtpu(GtpuError::Truncated));
        assert_eq!(tel.snapshot().counter("corenet", "gtpu_decode_err"), Some(1));
    }

    #[test]
    fn sequence_numbers_increment_per_pdu() {
        let mut tx = XnForwardingTunnel::new(5);
        let a = tx.forward(b"a").unwrap();
        let b = tx.forward(b"b").unwrap();
        assert_eq!(GtpuHeader::decode(&a).unwrap().0.sequence, Some(0));
        assert_eq!(GtpuHeader::decode(&b).unwrap().0.sequence, Some(1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::cases_from_env_or(256))]
        #[test]
        fn a_hostile_xn_packet_is_a_typed_error_or_delivers_byte_exact(
            teid in any::<u16>(),
            lens in prop::collection::vec(0usize..300, 1..6),
            marker_at in any::<usize>(),
            victim in any::<usize>(),
            mutations in prop::collection::vec((0u8..7, any::<usize>(), any::<u16>()), 0..4),
        ) {
            let teid = u32::from(teid);
            let (mut tx, mut rx) = (XnForwardingTunnel::new(teid), XnReceiver::new(teid));
            // The forwarded PDUs with the end marker among them: the G-PDUs
            // behind it arrived after the path switch.
            let pdus: Vec<Bytes> = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| (0..len).map(|j| (31 * i + j) as u8).collect())
                .collect();
            let mut honest: Vec<(Bytes, Option<&Bytes>)> =
                pdus.iter().map(|p| (tx.forward(p).unwrap(), Some(p))).collect();
            honest.insert(marker_at % (pdus.len() + 1), (tx.end_marker(), None));
            // A TEID lie, a message-type lie, a truncated or otherwise
            // broken header, a bit flip: up to four lies in one packet.
            let victim = victim % honest.len();
            let lied = mutations.iter().fold(honest[victim].0.clone(), |pkt, &m| mutate(&pkt, m));
            let mut accepted = Vec::new();
            for (i, (pkt, pdu)) in honest.iter().enumerate() {
                let pkt = if i == victim { &lied } else { pkt };
                let outcome = rx.accept(pkt);
                if pkt == &honest[i].0 {
                    // An honest packet: its PDU byte-exact, or the marker.
                    let want = pdu.cloned().map_or(XnDelivery::EndMarker, XnDelivery::Forwarded);
                    prop_assert_eq!(&outcome, &Ok(want));
                }
                match (GtpuHeader::decode(pkt), outcome) {
                    (Ok((header, body)), Ok(XnDelivery::Forwarded(payload))) => {
                        prop_assert_eq!((header.message_type, header.teid), (MSG_GPDU, teid));
                        prop_assert_eq!(&payload, &body);
                        accepted.push(payload);
                    }
                    (Ok((header, _)), Ok(XnDelivery::EndMarker)) => {
                        let marker = (header.message_type, header.teid);
                        prop_assert_eq!(marker, (MSG_END_MARKER, teid));
                        prop_assert!(rx.ended());
                    }
                    (Ok((header, _)), Err(XnError::WrongTeid { expected, got })) => {
                        prop_assert_eq!((expected, got), (teid, header.teid));
                        prop_assert_ne!(got, teid);
                    }
                    (Ok((header, _)), Err(XnError::UnexpectedType { message_type })) => {
                        prop_assert_eq!((header.teid, header.message_type), (teid, message_type));
                        prop_assert!(![MSG_GPDU, MSG_END_MARKER].contains(&message_type));
                    }
                    (Err(e), outcome) => prop_assert_eq!(outcome, Err(XnError::Gtpu(e))),
                    (Ok(_), outcome) => {
                        prop_assert!(false, "{:?} from a packet that decodes", outcome);
                    }
                }
                prop_assert_eq!(rx.buffered(), accepted.len());
            }
            // What was accepted drains in arrival order, G-PDUs behind the
            // end marker included.
            prop_assert_eq!(rx.drain(), accepted);
        }
    }
}
