//! Canonical stage-label vocabulary for the Fig-3 ping journey.
//!
//! The vocabulary itself is [`telemetry::Stage`], a one-byte code defined
//! next to the event journal that stores it; its `as_str` is the only
//! spelling of each label. The constants here name its values for the
//! span emitters (`StageSpan::new(labels::SR, …)`), and [`term`] maps each
//! stage onto the closed-form model's budget terms (protocol / processing
//! / radio / core / recovery — the paper's Fig 2 attribution). The match
//! is total, so a new stage cannot go unclassified.
//!
//! These labels are *trace vocabulary*, distinct from the pipeline's hop
//! vocabulary ([`crate::pipeline::HopId`]): a hop is one step of the
//! ping walk, a label names a span in the rendered Fig-3 timeline.
//! The mapping is mostly 1:1 (`AppDown` → `APP_DOWN`, `Backbone` →
//! `UPF`, `RadioRing` → `DL_DATA`) but not exactly — one hop may emit
//! several spans (`RlfRecovery` emits the whole `RLF_DETECT` →
//! `PDCP_RECOVER` detour), and fault gates stretch existing spans
//! rather than adding labels of their own.

use telemetry::Stage;

pub(crate) const APP_DOWN: Stage = Stage::AppDown;
pub(crate) const WAIT_UL_SLOT: Stage = Stage::WaitUlSlot;
pub(crate) const SR: Stage = Stage::Sr;
pub(crate) const SR_DECODE: Stage = Stage::SrDecode;
pub(crate) const RACH: Stage = Stage::Rach;
pub(crate) const SCHE: Stage = Stage::Sche;
pub(crate) const UL_GRANT: Stage = Stage::UlGrant;
pub(crate) const UE_PREP: Stage = Stage::UePrep;
pub(crate) const UL_DATA: Stage = Stage::UlData;
pub(crate) const RADIO: Stage = Stage::Radio;
pub(crate) const MAC_UP: Stage = Stage::MacUp;
pub(crate) const UPF: Stage = Stage::Upf;
pub(crate) const SDAP_DOWN: Stage = Stage::SdapDown;
pub(crate) const RLC_Q: Stage = Stage::RlcQ;
pub(crate) const DL_DATA: Stage = Stage::DlData;
pub(crate) const PHY_UP: Stage = Stage::PhyUp;
/// RLF declared → detection complete: the span that counts a ping's RLFs.
pub(crate) const RLF_DETECT: Stage = Stage::RlfDetect;
pub(crate) const RACH_REACCESS: Stage = Stage::RachReaccess;
pub(crate) const RRC_REESTABLISH: Stage = Stage::RrcReestablish;
pub(crate) const PDCP_RECOVER: Stage = Stage::PdcpRecover;

/// The closed-form model's budget terms (Fig 2's attribution split, plus
/// the recovery detour of [`crate::recovery`]).
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

/// The budget term a stage's time counts toward.
pub(crate) fn term(stage: Stage) -> BudgetTerm {
    match stage {
        WAIT_UL_SLOT | SR | RACH | SCHE | UL_GRANT | RLC_Q => BudgetTerm::Protocol,
        APP_DOWN | SR_DECODE | UE_PREP | MAC_UP | SDAP_DOWN | PHY_UP => BudgetTerm::Processing,
        UL_DATA | RADIO | DL_DATA => BudgetTerm::Radio,
        UPF => BudgetTerm::Core,
        RLF_DETECT | RACH_REACCESS | RRC_REESTABLISH | PDCP_RECOVER => BudgetTerm::Recovery,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The string vocabulary `Stage` replaced, in journey order: the oracle
    /// the typed labels must spell exactly.
    const OLD_LABELS: [&str; 20] = [
        "APP↓",
        "wait UL slot",
        "SR",
        "SR decode",
        "RACH",
        "SCHE",
        "UL grant",
        "UE prep",
        "UL data",
        "radio",
        "MAC↑",
        "UPF",
        "SDAP↓",
        "RLC-q",
        "DL data",
        "PHY↑",
        "RLF detect",
        "RACH re-access",
        "RRC reestablish",
        "PDCP recover",
    ];

    /// The string classifier `term` replaced.
    fn old_term(label: &str) -> Option<BudgetTerm> {
        match label {
            "wait UL slot" | "SR" | "RACH" | "SCHE" | "UL grant" | "RLC-q" => {
                Some(BudgetTerm::Protocol)
            }
            "APP↓" | "SR decode" | "UE prep" | "MAC↑" | "SDAP↓" | "PHY↑" => {
                Some(BudgetTerm::Processing)
            }
            "UL data" | "radio" | "DL data" => Some(BudgetTerm::Radio),
            "UPF" => Some(BudgetTerm::Core),
            "RLF detect" | "RACH re-access" | "RRC reestablish" | "PDCP recover" => {
                Some(BudgetTerm::Recovery)
            }
            _ => None,
        }
    }

    #[test]
    fn every_stage_spells_its_old_label_in_journey_order() {
        assert_eq!(Stage::ALL.map(Stage::as_str), OLD_LABELS);
    }

    #[test]
    fn every_label_classifies() {
        for stage in Stage::ALL {
            assert_eq!(Some(term(stage)), old_term(stage.as_str()), "{stage}");
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut v: Vec<&str> = Stage::ALL.map(Stage::as_str).to_vec();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), Stage::ALL.len());
    }

    #[test]
    fn recovery_labels_match_recovery_term() {
        for l in [RLF_DETECT, RACH_REACCESS, RRC_REESTABLISH, PDCP_RECOVER] {
            assert_eq!(term(l), BudgetTerm::Recovery);
        }
    }
}
