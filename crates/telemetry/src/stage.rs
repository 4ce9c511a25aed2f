//! The Fig-3 stage vocabulary as a one-byte code.
//!
//! The paper's Fig 3 splits every ping into the ①–⑪ stages, plus the
//! slot-alignment waits, the RACH fallback and the RLF recovery detour.
//! [`Stage`] names each of them. It lives here, below `stack`, because the
//! event journal is its lowest user: a journaled stage carries the code,
//! not a 16-byte string slice, so a [`crate::JournalEvent`] fits in
//! 32 bytes. The text form is [`Stage::as_str`], the one place a stage's
//! label is spelled; every trace, report and artifact prints that string.
//! `stack::stage_labels` maps each stage onto the closed-form model's
//! budget terms.

use std::fmt;

/// One stage of the Fig-3 ping journey (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// ① UE walks the request down APP→SDAP→PDCP→RLC.
    AppDown,
    /// Waiting for the next reachable uplink opportunity.
    WaitUlSlot,
    /// ② Scheduling request on PUCCH (one-symbol air time).
    Sr,
    /// ③ gNB decodes the SR (PHY + MAC).
    SrDecode,
    /// Four-step RACH fallback after sr-TransMax exhaustion.
    Rach,
    /// ④ Wait for the per-slot scheduling round.
    Sche,
    /// ⑤ UL grant DCI on the air (two-symbol CORESET).
    UlGrant,
    /// UE decodes the grant and prepares the transport block (MAC + PHY).
    UePrep,
    /// ⑥ UL data transmission on the air.
    UlData,
    /// gNB radio front-end: RX chain + fronthaul bus (+ any jitter storm).
    Radio,
    /// ⑦ gNB receive walk: PHY, MAC↑, RLC, PDCP, SDAP.
    MacUp,
    /// N3 backbone to the UPF and the data network.
    Upf,
    /// ⑧ gNB transmit walk for the reply: SDAP↓, PDCP, RLC.
    SdapDown,
    /// ⑨ RLC queue: reply waits for its scheduled DL slot (Table 2's RLC-q).
    RlcQ,
    /// ⑩ DL data transmission on the air.
    DlData,
    /// ⑪ UE receive walk: radio, PHY and the upper layers to the app.
    PhyUp,
    /// RLF declared → detection complete.
    RlfDetect,
    /// RACH re-access carrying the C-RNTI MAC CE.
    RachReaccess,
    /// RRC re-establishment processing (Msg4 → entities re-established).
    RrcReestablish,
    /// PDCP status exchange + retransmission of the in-flight SDUs.
    PdcpRecover,
}

impl Stage {
    /// Every stage, in journey order.
    pub const ALL: [Stage; 20] = [
        Stage::AppDown,
        Stage::WaitUlSlot,
        Stage::Sr,
        Stage::SrDecode,
        Stage::Rach,
        Stage::Sche,
        Stage::UlGrant,
        Stage::UePrep,
        Stage::UlData,
        Stage::Radio,
        Stage::MacUp,
        Stage::Upf,
        Stage::SdapDown,
        Stage::RlcQ,
        Stage::DlData,
        Stage::PhyUp,
        Stage::RlfDetect,
        Stage::RachReaccess,
        Stage::RrcReestablish,
        Stage::PdcpRecover,
    ];

    /// The stage's label in the paper's Fig-3 vocabulary, as every trace,
    /// report and artifact prints it.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::AppDown => "APP↓",
            Stage::WaitUlSlot => "wait UL slot",
            Stage::Sr => "SR",
            Stage::SrDecode => "SR decode",
            Stage::Rach => "RACH",
            Stage::Sche => "SCHE",
            Stage::UlGrant => "UL grant",
            Stage::UePrep => "UE prep",
            Stage::UlData => "UL data",
            Stage::Radio => "radio",
            Stage::MacUp => "MAC↑",
            Stage::Upf => "UPF",
            Stage::SdapDown => "SDAP↓",
            Stage::RlcQ => "RLC-q",
            Stage::DlData => "DL data",
            Stage::PhyUp => "PHY↑",
            Stage::RlfDetect => "RLF detect",
            Stage::RachReaccess => "RACH re-access",
            Stage::RrcReestablish => "RRC reestablish",
            Stage::PdcpRecover => "PDCP recover",
        }
    }
}

/// The label, honouring width and alignment (`{:<14}` pads as the string
/// would).
impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stage_is_one_byte_and_prints_padded_like_its_label() {
        assert_eq!(std::mem::size_of::<Stage>(), 1);
        assert_eq!(format!("[{:<14}]", Stage::AppDown), format!("[{:<14}]", "APP↓"));
        assert_eq!(format!("[{:>6}]", Stage::Sr), "[    SR]");
    }
}
