//! SDAP — Service Data Adaptation Protocol (TS 37.324).
//!
//! SDAP's job is small but real: map QoS flows (identified by a 6-bit QFI)
//! onto data radio bearers (DRBs) and stamp each packet with a one-byte
//! header. In the paper's ping journey it is the first 5G-specific layer
//! the packet crosses (Fig 2), and its processing time is the first row of
//! Table 2.

use crate::pdu::TxPdu;
use bytes::Bytes;
use std::collections::BTreeMap;
use telemetry::{metric, Telemetry};

/// A QoS Flow Identifier (0–63).
pub(crate) type Qfi = u8;

/// A Data Radio Bearer identifier.
pub(crate) type DrbId = u8;

/// The one-byte SDAP header.
///
/// Downlink data PDU layout (TS 37.324 §6.2.2.2):
/// `| RDI(1) | RQI(1) | QFI(6) |`. Uplink uses `| DC(1) | R(1) | QFI(6) |`;
/// we carry the two flag bits uniformly and let direction give them
/// meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdapHeader {
    /// First flag bit (RDI on DL, D/C on UL).
    pub flag1: bool,
    /// Second flag bit (RQI on DL, reserved on UL).
    pub flag2: bool,
    /// QoS Flow Identifier.
    pub qfi: Qfi,
}

impl SdapHeader {
    /// Encodes the header byte.
    pub(crate) fn encode(self) -> u8 {
        assert!(self.qfi < 64, "QFI is 6 bits");
        (u8::from(self.flag1) << 7) | (u8::from(self.flag2) << 6) | self.qfi
    }

    /// Decodes a header byte.
    pub(crate) fn decode(byte: u8) -> SdapHeader {
        SdapHeader { flag1: byte & 0x80 != 0, flag2: byte & 0x40 != 0, qfi: byte & 0x3F }
    }
}

/// Errors from SDAP processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SdapError {
    /// No DRB is mapped for this QFI and no default bearer exists.
    NoBearer {
        /// The unmapped QFI.
        qfi: Qfi,
    },
    /// PDU too short to contain the header.
    Truncated,
}

impl core::fmt::Display for SdapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SdapError::NoBearer { qfi } => write!(f, "no DRB mapped for QFI {qfi}"),
            SdapError::Truncated => write!(f, "SDAP PDU shorter than its header"),
        }
    }
}

impl std::error::Error for SdapError {}

/// An SDAP entity: the QFI→DRB mapping plus header processing.
#[derive(Debug, Clone, Default)]
pub struct SdapEntity {
    mapping: BTreeMap<Qfi, DrbId>,
    default_drb: Option<DrbId>,
    tel: Telemetry,
}

impl SdapEntity {
    /// Creates an entity with no mappings.
    pub fn new() -> SdapEntity {
        SdapEntity::default()
    }

    /// Attaches a telemetry handle (PDU counters under `sdap/*`).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Maps a QoS flow onto a bearer.
    pub fn map_flow(&mut self, qfi: Qfi, drb: DrbId) {
        assert!(qfi < 64, "QFI is 6 bits");
        self.mapping.insert(qfi, drb);
    }

    /// Sets the default bearer for unmapped flows.
    pub fn set_default_drb(&mut self, drb: DrbId) {
        self.default_drb = Some(drb);
    }

    /// Looks up the bearer for a flow.
    pub(crate) fn bearer_for(&self, qfi: Qfi) -> Result<DrbId, SdapError> {
        self.mapping.get(&qfi).copied().or(self.default_drb).ok_or(SdapError::NoBearer { qfi })
    }

    /// Frames an SDU as an SDAP data PDU, header in front of the payload,
    /// without writing it anywhere. Returns the bearer it should travel on.
    pub fn frame(&self, qfi: Qfi, sdu: &Bytes) -> Result<(DrbId, TxPdu), SdapError> {
        let drb = self.bearer_for(qfi)?;
        let header = SdapHeader { flag1: true, flag2: false, qfi }.encode();
        self.tel.add(metric::SDAP_TX_PDUS, 1);
        Ok((drb, TxPdu::new(sdu.clone()).framed(&[header])))
    }

    /// Builds an SDAP data PDU from an SDU: header + payload. Returns the
    /// bearer it should travel on.
    pub fn encode_pdu(&self, qfi: Qfi, sdu: &Bytes) -> Result<(DrbId, Bytes), SdapError> {
        self.frame(qfi, sdu).map(|(drb, pdu)| (drb, pdu.to_bytes()))
    }

    /// Parses an SDAP data PDU back into `(header, SDU)`.
    pub fn decode_pdu(&self, pdu: &Bytes) -> Result<(SdapHeader, Bytes), SdapError> {
        if pdu.is_empty() {
            return Err(SdapError::Truncated);
        }
        let header = SdapHeader::decode(pdu[0]);
        self.tel.add(metric::SDAP_RX_PDUS, 1);
        Ok((header, pdu.slice(1..)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostile::mutate;
    use proptest::prelude::*;

    #[test]
    fn header_roundtrip_all_values() {
        for qfi in 0..64u8 {
            for flags in 0..4u8 {
                let h = SdapHeader { flag1: flags & 2 != 0, flag2: flags & 1 != 0, qfi };
                assert_eq!(SdapHeader::decode(h.encode()), h);
            }
        }
    }

    #[test]
    #[should_panic(expected = "QFI is 6 bits")]
    fn header_rejects_wide_qfi() {
        SdapHeader { flag1: false, flag2: false, qfi: 64 }.encode();
    }

    #[test]
    fn flow_mapping_with_default() {
        let mut e = SdapEntity::new();
        e.map_flow(5, 1);
        assert_eq!(e.bearer_for(5), Ok(1));
        assert_eq!(e.bearer_for(9), Err(SdapError::NoBearer { qfi: 9 }));
        e.set_default_drb(2);
        assert_eq!(e.bearer_for(9), Ok(2));
        assert_eq!(e.bearer_for(5), Ok(1)); // explicit mapping wins
    }

    #[test]
    fn pdu_roundtrip() {
        let mut e = SdapEntity::new();
        e.map_flow(9, 3);
        let sdu = Bytes::from_static(b"ICMP echo request");
        let (drb, pdu) = e.encode_pdu(9, &sdu).unwrap();
        assert_eq!(drb, 3);
        assert_eq!(pdu.len(), sdu.len() + 1);
        let (h, out) = e.decode_pdu(&pdu).unwrap();
        assert_eq!(h.qfi, 9);
        assert_eq!(out, sdu);
    }

    #[test]
    fn empty_sdu_roundtrips() {
        let mut e = SdapEntity::new();
        e.set_default_drb(1);
        let (_, pdu) = e.encode_pdu(0, &Bytes::new()).unwrap();
        let (h, sdu) = e.decode_pdu(&pdu).unwrap();
        assert_eq!(h.qfi, 0);
        assert!(sdu.is_empty());
    }

    #[test]
    fn decode_rejects_empty_pdu() {
        let e = SdapEntity::new();
        assert_eq!(e.decode_pdu(&Bytes::new()).unwrap_err(), SdapError::Truncated);
    }

    proptest! {
        #![proptest_config(ProptestConfig::cases_from_env_or(256))]
        #[test]
        fn a_hostile_sdap_pdu_is_a_typed_error_or_a_round_trip(
            qfi in 0u8..64,
            len in 0usize..64,
            mutation in (0u8..4, any::<usize>(), any::<u32>()),
        ) {
            let mut e = SdapEntity::new();
            e.set_default_drb(1);
            let sdu: Bytes = (0..len).map(|i| i as u8 ^ qfi).collect();
            let (_, pdu) = e.encode_pdu(qfi, &sdu).unwrap();
            // A lie in the header byte, a bit flip or a truncation.
            let wire = Bytes::from(mutate(&pdu, 0..1, mutation));
            match e.decode_pdu(&wire) {
                Ok((header, body)) => {
                    // What decoded is the PDU's bytes, header and payload.
                    prop_assert_eq!(header.encode(), wire[0]);
                    prop_assert_eq!(&body[..], &wire[1..]);
                    if wire == pdu {
                        prop_assert_eq!((header.qfi, body), (qfi, sdu));
                    }
                }
                Err(SdapError::Truncated) => prop_assert!(wire.is_empty()),
                Err(err) => prop_assert!(false, "{} from a received PDU", err),
            }
        }
    }
}
