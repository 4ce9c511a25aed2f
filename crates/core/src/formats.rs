//! Slot-format survey — extension X3.
//!
//! The paper's §2 presents the Slot Format configuration (Fig 1c) as the
//! middle ground between Common Configuration and mini-slots, and its §9
//! asks how to balance latency against scalability. This module answers a
//! concrete version of that question: *which of the standard's predefined
//! slot formats, repeated every slot at the FR1 minimum of 0.25 ms, meet
//! the URLLC deadline — and for which access modes?*
//!
//! The headline finding (asserted in the tests): several D…F…U formats
//! with per-slot uplink tails — e.g. format 45 (`DDDDDDFFFFUUUU`) — meet
//! the 0.5 ms deadline on *all three* rows of Table 1, including
//! grant-based uplink, because every slot offers both a DL control/data
//! region and an UL opportunity. They achieve mini-slot-like latency using
//! only standard-defined formats, at the cost of dedicating UL symbols in
//! every slot (the §9 efficiency trade).

use sim::Duration;

use crate::feasibility::URLLC_DEADLINE;
use crate::model::{ConfigUnderTest, ProcessingBudget};
use crate::worst_case::{worst_case, Direction};

use phy::slot_format::{SlotFormat, SymbolKind};

/// Verdict for one slot format.
#[derive(Debug, Clone)]
pub struct FormatVerdict {
    /// Format index in TS 38.213 Table 11.1.1-1.
    pub index: u8,
    /// The 14-letter layout.
    pub letters: String,
    /// Worst-case latency per direction, in Table 1 row order
    /// (grant-based UL, grant-free UL, DL). `None` when the format lacks
    /// the symbols that direction needs (no UL run / no leading DL run).
    pub worst: [Option<Duration>; 3],
    /// Whether all three directions meet the deadline.
    pub all_feasible: bool,
}

/// Surveys every implemented slot format, repeated each slot at µ2.
/// Formats are evaluated in parallel; each verdict is a pure function of
/// its format, so the survey is identical regardless of worker count.
pub fn format_survey(budget: &ProcessingBudget) -> Vec<FormatVerdict> {
    sim::parallel::run_shards(SlotFormat::TABLE.len(), |i| {
        let f = &SlotFormat::TABLE[i];
        {
            let has_ul = f.ul_symbols() > 0;
            let has_leading_dl = f.symbols[0] == SymbolKind::Downlink;
            let cfg = ConfigUnderTest::repeating_format(f.index);
            let evaluate = |dir: Direction, possible: bool| {
                possible.then(|| worst_case(&cfg, dir, budget).latency)
            };
            // Grant-based UL needs DL (for the grant) and UL; grant-free
            // needs UL only; DL needs a leading DL run.
            let worst = [
                evaluate(Direction::UplinkGrantBased, has_ul && has_leading_dl),
                evaluate(Direction::UplinkGrantFree, has_ul),
                evaluate(Direction::Downlink, has_leading_dl),
            ];
            let all_feasible = worst.iter().all(|w| matches!(w, Some(l) if *l <= URLLC_DEADLINE));
            FormatVerdict { index: f.index, letters: f.letters(), worst, all_feasible }
        }
    })
}

/// Renders the survey: only formats that fully meet the deadline, plus a
/// count of the rest.
pub fn render_survey(survey: &[FormatVerdict]) -> String {
    let mut out = String::new();
    let winners: Vec<&FormatVerdict> = survey.iter().filter(|v| v.all_feasible).collect();
    out.push_str(&format!(
        "{} of {} slot formats meet 0.5 ms on all three directions when repeated every slot (µ2):\n",
        winners.len(),
        survey.len()
    ));
    for v in winners {
        let fmt = |w: Option<Duration>| match w {
            Some(l) => format!("{l}"),
            None => "n/a".into(),
        };
        out.push_str(&format!(
            "  format {:>2}  {}   GB-UL {:>10}  GF-UL {:>10}  DL {:>10}\n",
            v.index,
            v.letters,
            fmt(v.worst[0]),
            fmt(v.worst[1]),
            fmt(v.worst[2]),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn survey() -> Vec<FormatVerdict> {
        format_survey(&ProcessingBudget::zero())
    }

    #[test]
    fn survey_covers_the_whole_table() {
        let s = survey();
        assert_eq!(s.len(), SlotFormat::TABLE.len());
        for (i, v) in s.iter().enumerate() {
            assert_eq!(v.index as usize, i);
        }
    }

    #[test]
    fn pure_formats_cannot_do_both_directions() {
        let s = survey();
        // Format 0 (all D): no uplink at all.
        assert_eq!(s[0].worst[0], None);
        assert_eq!(s[0].worst[1], None);
        assert!(s[0].worst[2].is_some());
        assert!(!s[0].all_feasible);
        // Format 1 (all U): no downlink.
        assert!(s[1].worst[1].is_some());
        assert_eq!(s[1].worst[2], None);
        // Format 2 (all F): nothing usable.
        assert_eq!(s[2].worst, [None, None, None]);
    }

    #[test]
    fn format_45_meets_all_three_directions() {
        // DDDDDDFFFFUUUU every slot: per-slot DL head and UL tail give
        // mini-slot-like latency from a standard-defined format.
        let s = survey();
        let v = &s[45];
        assert!(v.all_feasible, "format 45: {:?}", v.worst);
        for w in v.worst.iter().flatten() {
            assert!(*w <= URLLC_DEADLINE);
        }
    }

    #[test]
    fn some_but_not_most_formats_fully_qualify() {
        let s = survey();
        let n = s.iter().filter(|v| v.all_feasible).count();
        assert!(n >= 1, "at least format 45 qualifies");
        assert!(n < s.len() / 2, "fully-feasible formats are a minority, got {n}");
    }

    #[test]
    fn grant_free_beats_or_ties_grant_based_everywhere() {
        for v in survey() {
            if let (Some(gb), Some(gf)) = (v.worst[0], v.worst[1]) {
                assert!(gf <= gb, "format {}: GF {gf} > GB {gb}", v.index);
            }
        }
    }

    #[test]
    fn dl_heavy_formats_have_fast_dl_slow_ul() {
        // Format 28 (DDDDDDDDDDDDFU): DL well under deadline, grant-based
        // UL over it (the SR/grant round costs two extra slots).
        let s = survey();
        let v = &s[28];
        assert!(v.worst[2].unwrap() <= URLLC_DEADLINE);
        assert!(v.worst[1].unwrap() <= URLLC_DEADLINE);
        assert!(v.worst[0].unwrap() > URLLC_DEADLINE, "GB-UL {:?}", v.worst[0]);
    }

    #[test]
    fn testbed_budget_disqualifies_everything() {
        let s = format_survey(&ProcessingBudget::testbed_means());
        assert!(s.iter().all(|v| !v.all_feasible));
    }

    #[test]
    fn render_lists_winners() {
        let s = survey();
        let r = render_survey(&s);
        assert!(r.contains("format 45"));
        assert!(r.contains("meet 0.5 ms"));
    }
}
