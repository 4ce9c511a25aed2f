//! The configuration space of the §5 analysis, and its timing semantics.
//!
//! ## Scheduling semantics (the rules behind Table 1 and Fig 4)
//!
//! The worst-case engine applies the following rules, each traceable to the
//! paper:
//!
//! 1. **Per-slot scheduling.** gNB scheduling decisions happen at slot
//!    starts, and a decision at boundary *b* covers only work that became
//!    ready strictly before *b* (§2: control information "can only be sent
//!    once per slot"; §4 step ④: "the grant is scheduled in the next
//!    slot").
//! 2. **DL eligibility.** Downlink data decided at boundary *b* is carried
//!    by the first slot *with DL symbols at its start* whose start is ≥ *b*
//!    (data and its DCI share the slot). The transmission is accounted to
//!    the end of that slot's DL portion — §5: arriving "at the beginning of
//!    a DL slot", the data finds "the specific slot already allocated" and
//!    waits for the next one.
//! 3. **UL grant-free eligibility.** Configured-grant resources exist in
//!    every UL portion, and an SR-less UE can place (short) data in any
//!    portion that has not yet ended — §5's footnote: "any UE can send ...
//!    at any time during the UL slot". The transmission is accounted to the
//!    end of the portion. Worst case is therefore the largest gap between
//!    consecutive UL-portion ends.
//! 4. **UL grant-based.** The SR follows rule 3 (it is one bit); the grant
//!    follows rules 1–2 (it is DL control, decoded after a 2-symbol
//!    CORESET); the granted data uses the earliest UL portion still open
//!    when the UE has processed the grant — NR lets the grant place the
//!    PUSCH at a mid-slot start symbol (TS 38.214 time-domain allocation),
//!    so a partially elapsed UL slot remains usable — accounted to the
//!    portion's end.
//!
//! Under these rules the engine reproduces the paper's Table 1 exactly
//! (see [`crate::feasibility`]); the tests there are the cross-check.

use phy::mini_slot::MiniSlotConfig;
use phy::numerology::{Numerology, SYMBOLS_PER_SLOT};
use phy::slot_format::{SlotFormat, SymbolKind};
use phy::tdd::{SlotKind, TddConfig};
use sim::{Duration, Instant};

/// A configuration under worst-case analysis (Table 1's columns).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigUnderTest {
    /// TDD with a Common Configuration pattern.
    TddCommon(TddConfig),
    /// TDD with mini-slot (Type B) scheduling: any mini-slot can carry
    /// either direction, chosen by per-slot control signalling.
    MiniSlot(MiniSlotConfig),
    /// FDD: paired spectrum, every slot carries both directions,
    /// transmissions slot-aligned.
    Fdd {
        /// Numerology of both carriers.
        numerology: Numerology,
    },
    /// TDD driven by a repeating sequence of predefined slot formats
    /// (TS 38.213 Table 11.1.1-1, paper §2/Fig 1c): slot *n* uses
    /// `formats[n % formats.len()]`.
    ///
    /// UL portions are the maximal runs of U symbols; DL data is
    /// conservatively restricted to D runs starting at symbol 0 (the DCI
    /// rides the same slot's control region).
    SlotFormatSeq {
        /// Numerology of the carrier.
        numerology: Numerology,
        /// The repeating format sequence (non-empty).
        formats: Vec<SlotFormat>,
    },
}

impl ConfigUnderTest {
    /// The five columns of the paper's Table 1, at the FR1-minimum 0.25 ms
    /// slots (µ2).
    pub fn table1_columns() -> Vec<(&'static str, ConfigUnderTest)> {
        let mut cols: Vec<(&'static str, ConfigUnderTest)> = TddConfig::minimal_configs()
            .into_iter()
            .map(|(name, c)| (name, ConfigUnderTest::TddCommon(c)))
            .collect();
        cols.push((
            "Mini-slot",
            ConfigUnderTest::MiniSlot(MiniSlotConfig::new(
                Numerology::Mu2,
                phy::mini_slot::MiniSlotLen::Two,
            )),
        ));
        cols.push(("FDD", ConfigUnderTest::Fdd { numerology: Numerology::Mu2 }));
        cols
    }

    /// A configuration repeating one slot format every slot, at µ2.
    ///
    /// # Panics
    /// Panics if `index` is not in the implemented format table.
    pub(crate) fn repeating_format(index: u8) -> ConfigUnderTest {
        ConfigUnderTest::SlotFormatSeq {
            numerology: Numerology::Mu2,
            formats: vec![SlotFormat::by_index(index).expect("format in table")],
        }
    }

    /// The numerology in use.
    pub(crate) fn numerology(&self) -> Numerology {
        match self {
            ConfigUnderTest::TddCommon(c) => c.numerology(),
            ConfigUnderTest::MiniSlot(m) => m.numerology,
            ConfigUnderTest::Fdd { numerology } => *numerology,
            ConfigUnderTest::SlotFormatSeq { numerology, .. } => *numerology,
        }
    }

    /// Slot duration.
    pub fn slot_duration(&self) -> Duration {
        self.numerology().slot_duration()
    }

    /// The repeating analysis period: the TDD pattern period, or one slot
    /// for the translation-invariant Mini-Slot/FDD cases.
    pub fn analysis_period(&self) -> Duration {
        match self {
            ConfigUnderTest::TddCommon(c) => c.period(),
            ConfigUnderTest::MiniSlot(m) => m.numerology.slot_duration(),
            ConfigUnderTest::Fdd { numerology } => numerology.slot_duration(),
            ConfigUnderTest::SlotFormatSeq { numerology, formats } => {
                numerology.slot_duration() * formats.len() as u64
            }
        }
    }

    fn format_for_slot(formats: &[SlotFormat], slot: u64) -> SlotFormat {
        formats[(slot % formats.len() as u64) as usize]
    }

    /// Maximal runs of `kind` symbols in `format`, as `(start, end)`
    /// offsets from the slot start.
    fn symbol_runs(
        numerology: Numerology,
        format: &SlotFormat,
        kind: SymbolKind,
    ) -> Vec<(Duration, Duration)> {
        let mut runs = Vec::new();
        let mut begin: Option<u32> = None;
        for i in 0..SYMBOLS_PER_SLOT {
            let is_kind = format.symbols[i as usize] == kind;
            match (is_kind, begin) {
                (true, None) => begin = Some(i),
                (false, Some(b)) => {
                    runs.push((numerology.symbol_offset(b), numerology.symbol_offset(i)));
                    begin = None;
                }
                _ => {}
            }
        }
        if let Some(b) = begin {
            runs.push((numerology.symbol_offset(b), numerology.symbol_offset(SYMBOLS_PER_SLOT)));
        }
        runs
    }

    /// The uplink portions `(start, end)` of slot `slot` (global index),
    /// empty if none. FDD slots are whole-slot portions; mini-slot UL
    /// opportunities are each mini-slot's span.
    pub(crate) fn ul_portions_in_slot(&self, slot: u64) -> Vec<(Instant, Instant)> {
        let slot_dur = self.slot_duration();
        let start = Instant::from_nanos(slot * slot_dur.as_nanos());
        match self {
            ConfigUnderTest::Fdd { .. } => vec![(start, start + slot_dur)],
            ConfigUnderTest::MiniSlot(m) => m
                .opportunities_in_slot(start)
                .into_iter()
                .map(|op| (op, op + m.mini_slot_duration()))
                .collect(),
            ConfigUnderTest::TddCommon(c) => match c.slot_kind(slot) {
                SlotKind::Uplink => vec![(start, start + slot_dur)],
                SlotKind::Mixed { ul_symbols, .. } if ul_symbols > 0 => {
                    let nu = c.numerology();
                    let first = SYMBOLS_PER_SLOT - ul_symbols;
                    vec![(start + nu.symbol_offset(first), start + slot_dur)]
                }
                _ => vec![],
            },
            ConfigUnderTest::SlotFormatSeq { numerology, formats } => {
                let f = Self::format_for_slot(formats, slot);
                Self::symbol_runs(*numerology, &f, SymbolKind::Uplink)
                    .into_iter()
                    .map(|(b, e)| (start + b, start + e))
                    .collect()
            }
        }
    }

    /// The downlink portions `(start, end)` of slot `slot`. Only portions
    /// at the *start* of the slot are usable for slot-scheduled DL data
    /// (rule 2), which is what this returns for TDD; FDD and mini-slot are
    /// always-on.
    pub(crate) fn dl_portions_in_slot(&self, slot: u64) -> Vec<(Instant, Instant)> {
        let slot_dur = self.slot_duration();
        let start = Instant::from_nanos(slot * slot_dur.as_nanos());
        match self {
            ConfigUnderTest::Fdd { .. } => vec![(start, start + slot_dur)],
            ConfigUnderTest::MiniSlot(m) => m
                .opportunities_in_slot(start)
                .into_iter()
                .map(|op| (op, op + m.mini_slot_duration()))
                .collect(),
            ConfigUnderTest::TddCommon(c) => match c.slot_kind(slot) {
                SlotKind::Downlink => vec![(start, start + slot_dur)],
                SlotKind::Mixed { dl_symbols, .. } if dl_symbols > 0 => {
                    vec![(start, start + c.numerology().symbol_offset(dl_symbols))]
                }
                _ => vec![],
            },
            // Conservative rule: DL data needs its DCI in the same slot's
            // control region, so only the D run starting at symbol 0 is
            // usable for slot-scheduled data.
            ConfigUnderTest::SlotFormatSeq { numerology, formats } => {
                let f = Self::format_for_slot(formats, slot);
                Self::symbol_runs(*numerology, &f, SymbolKind::Downlink)
                    .into_iter()
                    .filter(|(b, _)| b.is_zero())
                    .map(|(b, e)| (start + b, start + e))
                    .collect()
            }
        }
    }

    /// First slot boundary strictly after `t` (rule 1's decision instant).
    pub(crate) fn next_decision(&self, t: Instant) -> Instant {
        let slot = self.slot_duration();
        // Mini-slot: decisions at mini-slot granularity (the finer control
        // signalling is the point of the configuration).
        if let ConfigUnderTest::MiniSlot(m) = self {
            let mut probe = t;
            loop {
                let op = m.next_opportunity(probe);
                if op > t {
                    return op;
                }
                probe = op + Duration::from_nanos(1);
            }
        }
        (t + Duration::from_nanos(1)).ceil_to(slot)
    }
}

/// A deterministic processing/radio budget layered onto the protocol
/// analysis — how §4's other two latency categories enter the worst case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProcessingBudget {
    /// UE: application → data ready at MAC (APP↓).
    pub ue_tx_prep: Duration,
    /// gNB: SR air → decoded and visible to the scheduler.
    pub sr_decode: Duration,
    /// UE: grant air → ready to transmit on it.
    pub grant_decode: Duration,
    /// gNB: last data symbol → packet out of SDAP/GTP-U (MAC↑ + upper).
    pub gnb_rx: Duration,
    /// gNB: packet arrival → in the RLC queue (SDAP↓).
    pub gnb_tx_prep: Duration,
    /// UE: last data symbol → delivered to the application (PHY↑).
    pub ue_rx: Duration,
    /// Radio latency added to every over-the-air hop (submission + RF
    /// chain), the §4 radio category.
    pub radio: Duration,
}

impl ProcessingBudget {
    /// The pure-protocol analysis of Table 1: everything zero.
    pub fn zero() -> ProcessingBudget {
        ProcessingBudget::default()
    }

    /// Mean-value budget for the paper's testbed (Table 2 means, B210
    /// radio): used to show how processing+radio push the testbed far past
    /// the deadline even before protocol waits.
    pub fn testbed_means() -> ProcessingBudget {
        ProcessingBudget {
            ue_tx_prep: Duration::from_micros(51),
            sr_decode: Duration::from_micros(97),
            grant_decode: Duration::from_micros(300),
            gnb_rx: Duration::from_micros(114),
            gnb_tx_prep: Duration::from_micros(17),
            ue_rx: Duration::from_micros(170),
            radio: Duration::from_micros(500),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_columns_are_complete() {
        let cols = ConfigUnderTest::table1_columns();
        let names: Vec<&str> = cols.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["DU", "DM", "MU", "Mini-slot", "FDD"]);
        for (_, c) in &cols {
            assert_eq!(c.slot_duration(), Duration::from_micros(250));
        }
    }

    #[test]
    fn dm_portions() {
        let dm = ConfigUnderTest::TddCommon(TddConfig::dm_minimal());
        // Slot 0: pure DL.
        assert_eq!(dm.ul_portions_in_slot(0), vec![]);
        let dl0 = dm.dl_portions_in_slot(0);
        assert_eq!(dl0, vec![(Instant::ZERO, Instant::from_micros(250))]);
        // Slot 1: mixed — DL head, UL tail.
        let dl1 = dm.dl_portions_in_slot(1);
        assert_eq!(dl1.len(), 1);
        assert_eq!(dl1[0].0, Instant::from_micros(250));
        assert!(dl1[0].1 < Instant::from_micros(500));
        let ul1 = dm.ul_portions_in_slot(1);
        assert_eq!(ul1.len(), 1);
        assert!(ul1[0].0 > Instant::from_micros(250));
        assert_eq!(ul1[0].1, Instant::from_micros(500));
    }

    #[test]
    fn fdd_is_always_on_both_ways() {
        let fdd = ConfigUnderTest::Fdd { numerology: Numerology::Mu2 };
        for slot in 0..4 {
            assert_eq!(fdd.ul_portions_in_slot(slot).len(), 1);
            assert_eq!(fdd.dl_portions_in_slot(slot).len(), 1);
        }
    }

    #[test]
    fn mini_slot_portions_have_fine_granularity() {
        let ms = ConfigUnderTest::MiniSlot(MiniSlotConfig::new(
            Numerology::Mu2,
            phy::mini_slot::MiniSlotLen::Two,
        ));
        let ops = ms.ul_portions_in_slot(0);
        assert_eq!(ops.len(), 6);
        for (s, e) in &ops {
            assert!(*e > *s);
            assert!(*e - *s < Duration::from_micros(40));
        }
    }

    #[test]
    fn slot_format_seq_portions() {
        // Format 45: DDDDDD FFFF UUUU — one DL run at symbol 0, one UL run
        // of 4 symbols at the tail.
        let cfg = ConfigUnderTest::repeating_format(45);
        let nu = Numerology::Mu2;
        let ul = cfg.ul_portions_in_slot(0);
        assert_eq!(
            ul,
            vec![(Instant::ZERO + nu.symbol_offset(10), Instant::ZERO + nu.symbol_offset(14))]
        );
        let dl = cfg.dl_portions_in_slot(0);
        assert_eq!(dl, vec![(Instant::ZERO, Instant::ZERO + nu.symbol_offset(6))]);
        // Repeats every slot; period is one slot.
        assert_eq!(cfg.analysis_period(), nu.slot_duration());
        assert_eq!(cfg.ul_portions_in_slot(7).len(), 1);
    }

    #[test]
    fn slot_format_seq_mid_slot_dl_runs_are_excluded() {
        // Format 1 (all U) then format 0 (all D): the D run starts at
        // symbol 0 so it counts; in a hypothetical F-led format it would
        // not. Use format 10 (FUUUUUUUUUUUUU): no D at all, and format 16
        // (DFFFFFFFFFFFFF): a 1-symbol D run at the start.
        let cfg = ConfigUnderTest::SlotFormatSeq {
            numerology: Numerology::Mu2,
            formats: vec![
                phy::SlotFormat::by_index(10).unwrap(),
                phy::SlotFormat::by_index(16).unwrap(),
            ],
        };
        assert!(cfg.dl_portions_in_slot(0).is_empty());
        assert_eq!(cfg.dl_portions_in_slot(1).len(), 1);
        // UL: slot 0 has a 13-symbol run, slot 1 none.
        assert_eq!(cfg.ul_portions_in_slot(0).len(), 1);
        assert!(cfg.ul_portions_in_slot(1).is_empty());
        // Two-slot period.
        assert_eq!(cfg.analysis_period(), Numerology::Mu2.slot_duration() * 2);
    }

    #[test]
    fn next_decision_is_strictly_later() {
        let dm = ConfigUnderTest::TddCommon(TddConfig::dm_minimal());
        assert_eq!(dm.next_decision(Instant::ZERO), Instant::from_micros(250));
        assert_eq!(dm.next_decision(Instant::from_micros(250)), Instant::from_micros(500));
        assert_eq!(dm.next_decision(Instant::from_micros(251)), Instant::from_micros(500));
        let fdd = ConfigUnderTest::Fdd { numerology: Numerology::Mu2 };
        assert_eq!(fdd.next_decision(Instant::from_micros(100)), Instant::from_micros(250));
    }

    #[test]
    fn mini_slot_decisions_are_sub_slot() {
        let ms = ConfigUnderTest::MiniSlot(MiniSlotConfig::new(
            Numerology::Mu2,
            phy::mini_slot::MiniSlotLen::Two,
        ));
        let d = ms.next_decision(Instant::ZERO);
        assert!(d > Instant::ZERO);
        assert!(d < Instant::ZERO + Duration::from_micros(100), "{d:?}");
    }
}
