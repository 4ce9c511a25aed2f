//! Canonical stage-label vocabulary for the Fig-3 ping journey.
//!
//! `StageSpan` labels used to be free `&'static str` literals scattered
//! across the experiment driver; centralizing them here keeps trace
//! labels, telemetry keys and the deadline-budget auditor's term
//! classification from drifting apart. [`term`] maps each stage onto the
//! closed-form model's budget terms (protocol / processing / radio /
//! core / recovery — the paper's Fig 2 attribution).
//!
//! These labels are *trace vocabulary*, distinct from the pipeline's hop
//! vocabulary ([`crate::pipeline::HopId`]): a hop is one step of the
//! ping walk, a label names a span in the rendered Fig-3 timeline.
//! The mapping is mostly 1:1 (`AppDown` → `APP_DOWN`, `Backbone` →
//! `UPF`, `RadioRing` → `DL_DATA`) but not exactly — one hop may emit
//! several spans (`RlfRecovery` emits the whole `RLF_DETECT` →
//! `PDCP_RECOVER` detour), and fault gates stretch existing spans
//! rather than adding labels of their own.

/// ① UE walks the request down APP→SDAP→PDCP→RLC.
pub(crate) const APP_DOWN: &str = "APP↓";
/// Waiting for the next reachable uplink opportunity.
pub(crate) const WAIT_UL_SLOT: &str = "wait UL slot";
/// ② Scheduling request on PUCCH (one-symbol air time).
pub(crate) const SR: &str = "SR";
/// ③ gNB decodes the SR (PHY + MAC).
pub(crate) const SR_DECODE: &str = "SR decode";
/// Four-step RACH fallback after sr-TransMax exhaustion.
pub(crate) const RACH: &str = "RACH";
/// ④ Wait for the per-slot scheduling round.
pub(crate) const SCHE: &str = "SCHE";
/// ⑤ UL grant DCI on the air (two-symbol CORESET).
pub(crate) const UL_GRANT: &str = "UL grant";
/// UE decodes the grant and prepares the transport block (MAC + PHY).
pub(crate) const UE_PREP: &str = "UE prep";
/// ⑥ UL data transmission on the air.
pub(crate) const UL_DATA: &str = "UL data";
/// gNB radio front-end: RX chain + fronthaul bus (+ any jitter storm).
pub(crate) const RADIO: &str = "radio";
/// ⑦ gNB receive walk: PHY, MAC↑, RLC, PDCP, SDAP.
pub(crate) const MAC_UP: &str = "MAC↑";
/// N3 backbone to the UPF and the data network.
pub(crate) const UPF: &str = "UPF";
/// ⑧ gNB transmit walk for the reply: SDAP↓, PDCP, RLC.
pub(crate) const SDAP_DOWN: &str = "SDAP↓";
/// ⑨ RLC queue: reply waits for its scheduled DL slot (Table 2's RLC-q).
pub(crate) const RLC_Q: &str = "RLC-q";
/// ⑩ DL data transmission on the air.
pub(crate) const DL_DATA: &str = "DL data";
/// ⑪ UE receive walk: radio, PHY and the upper layers to the app.
pub(crate) const PHY_UP: &str = "PHY↑";
/// RLF declared → detection complete.
pub const RLF_DETECT: &str = "RLF detect";
/// RACH re-access carrying the C-RNTI MAC CE.
pub(crate) const RACH_REACCESS: &str = "RACH re-access";
/// RRC re-establishment processing (Msg4 → entities re-established).
pub(crate) const RRC_REESTABLISH: &str = "RRC reestablish";
/// PDCP status exchange + retransmission of the in-flight SDUs.
pub(crate) const PDCP_RECOVER: &str = "PDCP recover";

/// Every stage label, in journey order.
pub const ALL: &[&str] = &[
    APP_DOWN,
    WAIT_UL_SLOT,
    SR,
    SR_DECODE,
    RACH,
    SCHE,
    UL_GRANT,
    UE_PREP,
    UL_DATA,
    RADIO,
    MAC_UP,
    UPF,
    SDAP_DOWN,
    RLC_Q,
    DL_DATA,
    PHY_UP,
    RLF_DETECT,
    RACH_REACCESS,
    RRC_REESTABLISH,
    PDCP_RECOVER,
];

/// The closed-form model's budget terms (Fig 2's attribution split, plus
/// the recovery detour of `core::recovery`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BudgetTerm {
    /// Protocol-imposed waits: slot alignment, SR/grant handshake,
    /// scheduling rounds, queueing for a scheduled slot.
    Protocol,
    /// Software processing in either node's layer walk.
    Processing,
    /// Air time and radio front-end (bus, buffering, RF chains).
    Radio,
    /// Core-network traversal (N3 backbone, UPF).
    Core,
    /// RLF → re-established-bearer recovery detour.
    Recovery,
}

impl BudgetTerm {
    /// Metric-friendly name.
    pub fn label(self) -> &'static str {
        match self {
            BudgetTerm::Protocol => "protocol",
            BudgetTerm::Processing => "processing",
            BudgetTerm::Radio => "radio",
            BudgetTerm::Core => "core",
            BudgetTerm::Recovery => "recovery",
        }
    }
}

/// Classifies a stage label into its budget term (`None` for labels
/// outside the canonical vocabulary).
pub fn term(label: &str) -> Option<BudgetTerm> {
    match label {
        WAIT_UL_SLOT | SR | RACH | SCHE | UL_GRANT | RLC_Q => Some(BudgetTerm::Protocol),
        APP_DOWN | SR_DECODE | UE_PREP | MAC_UP | SDAP_DOWN | PHY_UP => {
            Some(BudgetTerm::Processing)
        }
        UL_DATA | RADIO | DL_DATA => Some(BudgetTerm::Radio),
        UPF => Some(BudgetTerm::Core),
        RLF_DETECT | RACH_REACCESS | RRC_REESTABLISH | PDCP_RECOVER => Some(BudgetTerm::Recovery),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_label_classifies() {
        for &l in ALL {
            assert!(term(l).is_some(), "label {l:?} has no budget term");
        }
        assert_eq!(term("not a stage"), None);
    }

    #[test]
    fn labels_are_unique() {
        let mut v: Vec<&str> = ALL.to_vec();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), ALL.len());
    }

    #[test]
    fn recovery_labels_match_recovery_term() {
        for l in [RLF_DETECT, RACH_REACCESS, RRC_REESTABLISH, PDCP_RECOVER] {
            assert_eq!(term(l), Some(BudgetTerm::Recovery));
        }
    }
}
