//! Design-space search: how limited is the set of feasible URLLC systems?
//!
//! §5 concludes that "while URLLC is, in principle, possible, the set of
//! possible system designs is quite limited, and some might not be
//! practical once additional factors are considered." This module makes the
//! claim quantitative: it enumerates the cross product of slot pattern ×
//! access mode × radio platform × OS kernel, evaluates each point's
//! worst-case UL and DL latency against the 0.5 ms deadline, and reports
//! the (small) surviving set.

use sim::Duration;

use crate::feasibility::URLLC_DEADLINE;
use crate::model::{ConfigUnderTest, ProcessingBudget};
use crate::worst_case::{worst_case, Direction};

/// Radio platform options (the §5 hardware axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RadioPlatform {
    /// ASIC-integrated radio (footnote 1: possible but inflexible).
    Asic,
    /// PCIe SDR.
    PcieSdr,
    /// USB SDR (the testbed's B210).
    UsbSdr,
}

impl RadioPlatform {
    /// All platforms.
    pub(crate) const ALL: [RadioPlatform; 3] =
        [RadioPlatform::Asic, RadioPlatform::PcieSdr, RadioPlatform::UsbSdr];

    /// Display name.
    pub(crate) fn label(self) -> &'static str {
        match self {
            RadioPlatform::Asic => "ASIC",
            RadioPlatform::PcieSdr => "PCIe SDR",
            RadioPlatform::UsbSdr => "USB SDR",
        }
    }

    /// Representative per-hop radio latency (mean; matches the `radio`
    /// crate presets).
    pub(crate) fn radio_latency(self) -> Duration {
        match self {
            RadioPlatform::Asic => Duration::from_micros(8),
            RadioPlatform::PcieSdr => Duration::from_micros(60),
            RadioPlatform::UsbSdr => Duration::from_micros(500),
        }
    }
}

/// OS kernel options (the §6 software axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// General-purpose kernel: jitter forces extra scheduling margin.
    GeneralPurpose,
    /// PREEMPT_RT-style kernel.
    RealTime,
}

impl Kernel {
    /// All kernels.
    pub(crate) const ALL: [Kernel; 2] = [Kernel::GeneralPurpose, Kernel::RealTime];

    /// Display name.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Kernel::GeneralPurpose => "GP kernel",
            Kernel::RealTime => "RT kernel",
        }
    }

    /// Jitter margin the scheduler must add to survive the kernel's tail
    /// (99.9th-percentile spike allowance; calibrated to the `radio`
    /// crate's jitter presets).
    pub(crate) fn jitter_margin(self) -> Duration {
        match self {
            Kernel::GeneralPurpose => Duration::from_micros(90),
            Kernel::RealTime => Duration::from_micros(12),
        }
    }
}

/// One point of the design space with its verdict.
#[derive(Debug, Clone)]
pub struct DesignPoint {
    /// Slot-pattern column name (Table 1 vocabulary).
    pub pattern: &'static str,
    /// Whether the uplink is grant-free.
    pub grant_free: bool,
    /// Radio platform.
    pub radio: RadioPlatform,
    /// Kernel.
    pub kernel: Kernel,
    /// The verdict.
    pub verdict: DesignVerdict,
}

/// Worst-case latencies and the feasibility verdict of one design point.
///
/// Feasibility follows §5's two-part criterion: (a) the *protocol*
/// worst case meets the 0.5 ms deadline, and (b) "the radio and processing
/// latency should be less than one slot. If this threshold is not met, an
/// additional slot is missed, leading to a deadline violation."
#[derive(Debug, Clone, Copy)]
pub struct DesignVerdict {
    /// Worst-case uplink latency including the processing/radio budget.
    pub worst_ul: Duration,
    /// Worst-case downlink latency including the processing/radio budget.
    pub worst_dl: Duration,
    /// Protocol-only worst-case uplink latency.
    pub proto_ul: Duration,
    /// Protocol-only worst-case downlink latency.
    pub proto_dl: Duration,
    /// Per-hop radio + per-packet processing overhead, compared against one
    /// slot.
    pub overhead: Duration,
    /// Whether the §5 criterion holds.
    pub feasible: bool,
}

/// The full design-space search result.
#[derive(Debug, Clone)]
pub struct DesignSearch {
    /// Every evaluated point.
    pub points: Vec<DesignPoint>,
}

impl DesignSearch {
    /// Enumerates and evaluates the whole space (5 patterns × 2 access ×
    /// 3 radios × 2 kernels = 60 points) with processing at the Table 2
    /// gNB means. The cross product is flattened and evaluated in
    /// parallel; each point is a pure function of its coordinates, so the
    /// search is identical regardless of worker count.
    pub fn run() -> DesignSearch {
        let mut coords = Vec::new();
        for (pattern, cfg) in ConfigUnderTest::table1_columns() {
            for grant_free in [true, false] {
                for radio in RadioPlatform::ALL {
                    for kernel in Kernel::ALL {
                        coords.push((pattern, cfg.clone(), grant_free, radio, kernel));
                    }
                }
            }
        }
        let points = sim::parallel::run_shards(coords.len(), |i| {
            let (pattern, ref cfg, grant_free, radio, kernel) = coords[i];
            let budget = ProcessingBudget {
                // Lean software stack: Table 2's processing means
                // (µs-scale, §7: "low processing time").
                ue_tx_prep: Duration::from_micros(20),
                sr_decode: Duration::from_micros(97),
                grant_decode: Duration::from_micros(100),
                gnb_rx: Duration::from_micros(114),
                gnb_tx_prep: Duration::from_micros(17),
                ue_rx: Duration::from_micros(100),
                radio: radio.radio_latency() + kernel.jitter_margin(),
            };
            let ul_dir =
                if grant_free { Direction::UplinkGrantFree } else { Direction::UplinkGrantBased };
            let zero = ProcessingBudget::zero();
            let worst_ul = worst_case(cfg, ul_dir, &budget).latency;
            let worst_dl = worst_case(cfg, Direction::Downlink, &budget).latency;
            let proto_ul = worst_case(cfg, ul_dir, &zero).latency;
            let proto_dl = worst_case(cfg, Direction::Downlink, &zero).latency;
            // §5 (b): per-hop radio latency plus the heaviest per-packet
            // processing must fit within one slot.
            let overhead = budget.radio + budget.gnb_rx + budget.gnb_tx_prep;
            let feasible = proto_ul <= URLLC_DEADLINE
                && proto_dl <= URLLC_DEADLINE
                && overhead < cfg.slot_duration();
            DesignPoint {
                pattern,
                grant_free,
                radio,
                kernel,
                verdict: DesignVerdict {
                    worst_ul,
                    worst_dl,
                    proto_ul,
                    proto_dl,
                    overhead,
                    feasible,
                },
            }
        });
        DesignSearch { points }
    }

    /// The feasible subset.
    pub(crate) fn feasible(&self) -> Vec<&DesignPoint> {
        self.points.iter().filter(|p| p.verdict.feasible).collect()
    }

    /// Renders a summary listing of feasible designs.
    pub fn render_feasible(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} of {} design points meet the 0.5 ms deadline:\n",
            self.feasible().len(),
            self.points.len()
        ));
        for p in self.feasible() {
            out.push_str(&format!(
                "  {:<10} {:<12} {:<9} {:<10}  UL {:>9}  DL {:>9}\n",
                p.pattern,
                if p.grant_free { "grant-free" } else { "grant-based" },
                p.radio.label(),
                p.kernel.label(),
                format!("{}", p.verdict.worst_ul),
                format!("{}", p.verdict.worst_dl),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_has_sixty_points() {
        let s = DesignSearch::run();
        assert_eq!(s.points.len(), 60);
    }

    #[test]
    fn feasible_set_is_small_but_non_empty() {
        // §5's conclusion: possible, but "the set of possible system
        // designs is quite limited".
        let s = DesignSearch::run();
        let n = s.feasible().len();
        assert!(n > 0, "URLLC should be achievable somewhere in the space");
        assert!(n < s.points.len() / 3, "only a minority survive, got {n}/60");
    }

    #[test]
    fn usb_radio_is_never_feasible() {
        // §7: the ~500 µs USB radio alone exceeds the one-way budget.
        let s = DesignSearch::run();
        assert!(s.feasible().iter().all(|p| p.radio != RadioPlatform::UsbSdr));
    }

    #[test]
    fn no_feasible_grant_based_tdd_common_config() {
        // Table 1's first row: grant-based UL fails on DU/DM/MU no matter
        // the hardware.
        let s = DesignSearch::run();
        assert!(!s
            .feasible()
            .iter()
            .any(|p| !p.grant_free && ["DU", "DM", "MU"].contains(&p.pattern)));
    }

    #[test]
    fn some_dm_grant_free_design_survives() {
        // The paper's §5 flagship design must appear in the feasible set.
        let s = DesignSearch::run();
        assert!(s.feasible().iter().any(|p| p.pattern == "DM" && p.grant_free));
    }

    #[test]
    fn better_hardware_never_hurts() {
        let s = DesignSearch::run();
        // For identical (pattern, access, kernel), ASIC latency <= PCIe <= USB.
        for a in &s.points {
            for b in &s.points {
                if (a.pattern, a.grant_free, a.kernel) == (b.pattern, b.grant_free, b.kernel)
                    && a.radio == RadioPlatform::Asic
                    && b.radio == RadioPlatform::UsbSdr
                {
                    assert!(a.verdict.worst_ul <= b.verdict.worst_ul);
                    assert!(a.verdict.worst_dl <= b.verdict.worst_dl);
                }
            }
        }
    }

    #[test]
    fn render_mentions_counts() {
        let s = DesignSearch::run();
        assert!(s.render_feasible().contains("of 60 design points"));
    }
}
