//! The User Plane Function: tunnel endpoint of the N3 interface.
//!
//! The UPF maps TEIDs to PDU sessions, decapsulating uplink G-PDUs toward
//! the data network and encapsulating downlink packets toward the right
//! gNB tunnel (paper Fig 2: "The UPF decapsulates the payload and forwards
//! it to the destination over IP").

use bytes::Bytes;
use std::collections::BTreeMap;
use telemetry::{metric, Telemetry};

use crate::gtpu::{GtpuError, GtpuHeader, MSG_ECHO_REQUEST, MSG_GPDU};

/// A PDU session record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Session {
    /// Uplink TEID (gNB → UPF direction, allocated by the UPF).
    pub ul_teid: u32,
    /// Downlink TEID (UPF → gNB direction, allocated by the gNB).
    pub dl_teid: u32,
    /// The UE's IP address, abstracted to an opaque id.
    pub ue_addr: u32,
}

/// Errors from UPF processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpfError {
    /// GTP-U parsing failed.
    Gtpu(GtpuError),
    /// No session for this TEID.
    UnknownTeid {
        /// The unmatched TEID.
        teid: u32,
    },
    /// No session for this UE address.
    UnknownUe {
        /// The unmatched UE address.
        ue_addr: u32,
    },
    /// A non-G-PDU message reached the data path.
    NotGpdu,
    /// An unsupported path-management message type.
    UnsupportedMessage {
        /// The unhandled GTP-U message type.
        message_type: u8,
    },
}

impl From<GtpuError> for UpfError {
    fn from(e: GtpuError) -> UpfError {
        UpfError::Gtpu(e)
    }
}

impl core::fmt::Display for UpfError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            UpfError::Gtpu(e) => write!(f, "GTP-U error: {e}"),
            UpfError::UnknownTeid { teid } => write!(f, "no session for TEID {teid}"),
            UpfError::UnknownUe { ue_addr } => write!(f, "no session for UE {ue_addr}"),
            UpfError::NotGpdu => write!(f, "unexpected GTP-U message type on data path"),
            UpfError::UnsupportedMessage { message_type } => {
                write!(f, "unsupported GTP-U message type {message_type}")
            }
        }
    }
}

impl std::error::Error for UpfError {}

/// What the UPF did with one uplink N3 packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UplinkOutcome {
    /// A G-PDU: decapsulated payload bound for the data network.
    Data {
        /// The session the tunnel belongs to.
        session: Session,
        /// The decapsulated inner packet.
        payload: Bytes,
    },
    /// A path-management echo request: the encoded echo response to send
    /// straight back to the probing gNB (sequence preserved).
    EchoResponse(Bytes),
}

/// The UPF user-plane state.
#[derive(Debug, Clone, Default)]
pub struct Upf {
    by_ul_teid: BTreeMap<u32, Session>,
    by_ue: BTreeMap<u32, Session>,
    next_teid: u32,
    /// Forwarded packet counters (uplink, downlink).
    pub forwarded: (u64, u64),
    /// Echo requests answered (path supervision round trips).
    pub echoes_answered: u64,
    tel: Telemetry,
}

impl Upf {
    /// Creates an empty UPF.
    pub fn new() -> Upf {
        Upf { next_teid: 1, ..Upf::default() }
    }

    /// Attaches a telemetry handle (`corenet/*` GTP-U counters).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Establishes a PDU session; the UPF allocates the uplink TEID, the
    /// caller (gNB) supplies the downlink TEID it listens on.
    pub fn establish_session(&mut self, ue_addr: u32, dl_teid: u32) -> Session {
        let ul_teid = self.next_teid;
        self.next_teid += 1;
        let s = Session { ul_teid, dl_teid, ue_addr };
        self.by_ul_teid.insert(ul_teid, s);
        self.by_ue.insert(ue_addr, s);
        s
    }

    /// Number of active sessions.
    pub fn sessions(&self) -> usize {
        self.by_ul_teid.len()
    }

    /// Tears down the session anchoring `ue_addr`, returning it (so a
    /// failover can re-anchor the tunnel with `establish_session`).
    pub fn release_session(&mut self, ue_addr: u32) -> Result<Session, UpfError> {
        let session = self.by_ue.remove(&ue_addr).ok_or(UpfError::UnknownUe { ue_addr })?;
        self.by_ul_teid.remove(&session.ul_teid);
        Ok(session)
    }

    /// Re-anchors `ue_addr`'s session on a new downlink TEID without
    /// changing its uplink TEID — the in-place variant of a release +
    /// re-establish cycle, used when the gNB moves the tunnel to a backup
    /// path endpoint.
    pub fn rebind_session(&mut self, ue_addr: u32, new_dl_teid: u32) -> Result<Session, UpfError> {
        let session = self.by_ue.get_mut(&ue_addr).ok_or(UpfError::UnknownUe { ue_addr })?;
        session.dl_teid = new_dl_teid;
        let rebound = *session;
        self.by_ul_teid.insert(rebound.ul_teid, rebound);
        Ok(rebound)
    }

    /// Uplink: takes an N3 packet from a gNB. G-PDUs decapsulate to
    /// [`UplinkOutcome::Data`]; echo requests (path management, TS 29.281
    /// §7.2.1) are answered in place with [`UplinkOutcome::EchoResponse`],
    /// the request's sequence number echoed back.
    pub fn uplink(&mut self, n3_packet: &Bytes) -> Result<UplinkOutcome, UpfError> {
        let (header, payload) = match GtpuHeader::decode(n3_packet) {
            Ok(decoded) => decoded,
            Err(e) => {
                self.tel.add(metric::CORENET_GTPU_DECODE_ERR, 1);
                return Err(e.into());
            }
        };
        match header.message_type {
            MSG_GPDU => {
                let session = self
                    .by_ul_teid
                    .get(&header.teid)
                    .copied()
                    .ok_or(UpfError::UnknownTeid { teid: header.teid })?;
                self.forwarded.0 += 1;
                self.tel.add(metric::CORENET_UL_GPDU, 1);
                Ok(UplinkOutcome::Data { session, payload })
            }
            MSG_ECHO_REQUEST => {
                self.echoes_answered += 1;
                self.tel.add(metric::CORENET_ECHO_RSP, 1);
                let seq = header.sequence.unwrap_or(0);
                Ok(UplinkOutcome::EchoResponse(GtpuHeader::echo_response(seq).encode(b"")))
            }
            other => Err(UpfError::UnsupportedMessage { message_type: other }),
        }
    }

    /// Downlink: takes a data-network packet for `ue_addr`, returns the N3
    /// packet to send to the gNB.
    pub fn downlink(&mut self, ue_addr: u32, payload: &Bytes) -> Result<Bytes, UpfError> {
        self.encapsulate(ue_addr, payload.clone())
    }

    /// [`downlink`](Self::downlink) of a packet the caller hands over: the
    /// N3 packet is the packet's own buffer when that has
    /// [`GPDU_HEADER_LEN`](crate::gtpu::GPDU_HEADER_LEN) spare bytes in
    /// front and no other handle ([`GtpuHeader::encapsulate`]), as a
    /// server's reply built with that reserve does.
    pub fn encapsulate(&mut self, ue_addr: u32, payload: Bytes) -> Result<Bytes, UpfError> {
        let session = self.by_ue.get(&ue_addr).copied().ok_or(UpfError::UnknownUe { ue_addr })?;
        self.forwarded.1 += 1;
        self.tel.add(metric::CORENET_DL_GPDU, 1);
        Ok(GtpuHeader::gpdu(session.dl_teid).encapsulate(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gtpu::{MAX_PAYLOAD, MSG_ECHO_RESPONSE};
    use crate::hostile::mutate;
    use proptest::prelude::*;

    #[test]
    fn session_lifecycle_and_forwarding() {
        let mut upf = Upf::new();
        let s = upf.establish_session(0x0A00_0001, 42);
        assert_eq!(upf.sessions(), 1);

        // Uplink: gNB wraps a packet in the UL tunnel.
        let inner = Bytes::from_static(b"ping request");
        let n3 = GtpuHeader::gpdu(s.ul_teid).encode(&inner);
        let UplinkOutcome::Data { session: sess, payload } = upf.uplink(&n3).unwrap() else {
            panic!("G-PDU must decapsulate to data");
        };
        assert_eq!(sess.ue_addr, 0x0A00_0001);
        assert_eq!(payload, inner);

        // Downlink: reply comes back for the UE address.
        let reply = Bytes::from_static(b"ping reply");
        let n3_dl = upf.downlink(0x0A00_0001, &reply).unwrap();
        let (h, body) = GtpuHeader::decode(&n3_dl).unwrap();
        assert_eq!(h.teid, 42); // the gNB's DL TEID
        assert_eq!(body, reply);
        assert_eq!(upf.forwarded, (1, 1));
    }

    #[test]
    fn unknown_teid_rejected() {
        let mut upf = Upf::new();
        let n3 = GtpuHeader::gpdu(999).encode(b"x");
        assert_eq!(upf.uplink(&n3).unwrap_err(), UpfError::UnknownTeid { teid: 999 });
    }

    #[test]
    fn unknown_ue_rejected() {
        let mut upf = Upf::new();
        assert_eq!(
            upf.downlink(7, &Bytes::from_static(b"x")).unwrap_err(),
            UpfError::UnknownUe { ue_addr: 7 }
        );
    }

    #[test]
    fn echo_request_answered_with_sequence_preserved() {
        let mut upf = Upf::new();
        upf.establish_session(1, 2);
        let echo = GtpuHeader::echo_request(0x4242).encode(b"");
        let UplinkOutcome::EchoResponse(resp) = upf.uplink(&echo).unwrap() else {
            panic!("echo request must be answered, not forwarded");
        };
        let (h, body) = GtpuHeader::decode(&resp).unwrap();
        assert_eq!(h.message_type, crate::gtpu::MSG_ECHO_RESPONSE);
        assert_eq!(h.sequence, Some(0x4242));
        assert!(body.is_empty());
        assert_eq!(upf.echoes_answered, 1);
        // Echoes are path management, not forwarded traffic.
        assert_eq!(upf.forwarded, (0, 0));
    }

    #[test]
    fn unsupported_message_type_rejected() {
        let mut upf = Upf::new();
        let pkt = GtpuHeader { message_type: 26, teid: 0, sequence: None }.encode(b"");
        assert_eq!(
            upf.uplink(&pkt).unwrap_err(),
            UpfError::UnsupportedMessage { message_type: 26 }
        );
    }

    #[test]
    fn release_and_rebind_sessions() {
        let mut upf = Upf::new();
        let s = upf.establish_session(7, 100);
        // Rebind moves the downlink tunnel, keeping the uplink TEID.
        let rebound = upf.rebind_session(7, 200).unwrap();
        assert_eq!(rebound.ul_teid, s.ul_teid);
        assert_eq!(rebound.dl_teid, 200);
        let dl = upf.downlink(7, &Bytes::from_static(b"x")).unwrap();
        assert_eq!(GtpuHeader::decode(&dl).unwrap().0.teid, 200);
        // Uplink on the original TEID still resolves, to the rebound record.
        let n3 = GtpuHeader::gpdu(s.ul_teid).encode(b"y");
        let UplinkOutcome::Data { session, .. } = upf.uplink(&n3).unwrap() else {
            panic!("expected data");
        };
        assert_eq!(session.dl_teid, 200);

        // Release tears the anchor down entirely.
        let released = upf.release_session(7).unwrap();
        assert_eq!(released.dl_teid, 200);
        assert_eq!(upf.sessions(), 0);
        assert_eq!(upf.uplink(&n3).unwrap_err(), UpfError::UnknownTeid { teid: s.ul_teid });
        assert_eq!(upf.release_session(7).unwrap_err(), UpfError::UnknownUe { ue_addr: 7 });
        assert_eq!(upf.rebind_session(7, 300).unwrap_err(), UpfError::UnknownUe { ue_addr: 7 });
    }

    #[test]
    fn teids_are_unique_per_session() {
        let mut upf = Upf::new();
        let a = upf.establish_session(1, 10);
        let b = upf.establish_session(2, 20);
        assert_ne!(a.ul_teid, b.ul_teid);
        // Each UE's downlink goes through its own tunnel.
        let pa = upf.downlink(1, &Bytes::from_static(b"a")).unwrap();
        let pb = upf.downlink(2, &Bytes::from_static(b"b")).unwrap();
        assert_eq!(GtpuHeader::decode(&pa).unwrap().0.teid, 10);
        assert_eq!(GtpuHeader::decode(&pb).unwrap().0.teid, 20);
    }

    #[test]
    fn encapsulate_is_downlink_in_the_packets_own_buffer() {
        let mut upf = Upf::new();
        upf.establish_session(7, 42);
        let reply = b"ping reply";
        let mut buf = bytes::BytesMut::with_capacity(crate::gtpu::GPDU_HEADER_LEN + reply.len());
        bytes::BufMut::put_bytes(&mut buf, 0, crate::gtpu::GPDU_HEADER_LEN);
        bytes::BufMut::put_slice(&mut buf, reply);
        let owned = buf.freeze().slice(crate::gtpu::GPDU_HEADER_LEN..);
        let at = owned.as_ptr();
        let n3 = upf.encapsulate(7, owned).unwrap();
        assert_eq!(n3, upf.downlink(7, &Bytes::from_static(reply)).unwrap());
        assert_eq!(n3[crate::gtpu::GPDU_HEADER_LEN..].as_ptr(), at);
        assert_eq!(upf.forwarded, (0, 2));
        let err = upf.encapsulate(8, Bytes::new()).unwrap_err();
        assert_eq!(err, UpfError::UnknownUe { ue_addr: 8 });
    }

    proptest! {
        #![proptest_config(ProptestConfig::cases_from_env_or(512))]
        #[test]
        fn a_hostile_n3_packet_gets_a_typed_error_or_round_trips(
            kind in 0u8..3,
            len in 0usize..1500,
            near_mtu in any::<bool>(),
            sequence in any::<u16>(),
            mutations in prop::collection::vec((0u8..5, any::<usize>(), any::<u16>()), 0..4),
        ) {
            let mut upf = Upf::new();
            let session = upf.establish_session(1, 2);
            let len = if near_mtu { MAX_PAYLOAD - len % 16 } else { len };
            let payload: Vec<u8> = (0..len).map(|i| i as u8 ^ sequence as u8).collect();
            let valid = match kind {
                0 => GtpuHeader::gpdu(session.ul_teid).encode(&payload),
                1 => GtpuHeader { message_type: MSG_GPDU, teid: session.ul_teid, sequence: Some(sequence) }
                    .encode(&payload),
                _ => GtpuHeader::echo_request(sequence).encode(b""),
            };
            let pkt = mutations.iter().fold(valid, |pkt, &m| mutate(&pkt, m));
            let outcome = upf.uplink(&pkt);
            match GtpuHeader::decode(&pkt) {
                Ok((header, body)) => {
                    // What decoded is a packet of its own: it encodes to
                    // bytes that decode to it again.
                    prop_assert!(body.len() <= MAX_PAYLOAD && body.len() <= pkt.len());
                    let again = GtpuHeader::decode(&header.encode(&body));
                    prop_assert_eq!(again, Ok((header, body.clone())));
                    match outcome {
                        Ok(UplinkOutcome::Data { session: s, payload }) => {
                            prop_assert_eq!(header.message_type, MSG_GPDU);
                            prop_assert_eq!((s, payload), (session, body));
                        }
                        Ok(UplinkOutcome::EchoResponse(rsp)) => {
                            prop_assert_eq!(header.message_type, MSG_ECHO_REQUEST);
                            let (h, b) = GtpuHeader::decode(&rsp).unwrap();
                            prop_assert_eq!(h.message_type, MSG_ECHO_RESPONSE);
                            prop_assert_eq!((h.sequence, b.len()), (Some(header.sequence.unwrap_or(0)), 0));
                        }
                        Err(UpfError::UnknownTeid { teid }) => {
                            prop_assert_eq!((header.message_type, teid), (MSG_GPDU, header.teid));
                            prop_assert_ne!(teid, session.ul_teid);
                        }
                        Err(UpfError::UnsupportedMessage { message_type }) => {
                            prop_assert_eq!(message_type, header.message_type);
                            prop_assert!(![MSG_GPDU, MSG_ECHO_REQUEST].contains(&message_type));
                        }
                        Err(e) => prop_assert!(false, "{} from a packet that decodes", e),
                    }
                }
                Err(e) => prop_assert_eq!(outcome, Err(UpfError::Gtpu(e))),
            }
        }
    }
}
