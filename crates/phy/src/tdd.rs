//! TDD *Common Configuration* (TS 38.331 `tdd-UL-DL-ConfigurationCommon`).
//!
//! A configuration is one or two concatenated [`TddPattern`]s that repeat
//! forever. Each pattern is `nrofDownlinkSlots` full DL slots, optionally a
//! *mixed* slot (leading DL symbols, guard symbols, trailing UL symbols),
//! then `nrofUplinkSlots` full UL slots — exactly Fig 1a of the paper. The
//! standard restricts the pattern period to
//! {0.5, 0.625, 1, 1.25, 2, 2.5, 5, 10} ms (paper §2), which combined with
//! FR1's minimum 0.25 ms slot gives the *minimal* 0.5 ms patterns the paper
//! enumerates in §5: **DU**, **DM**, **MU**.

use sim::{Duration, Instant};

use crate::numerology::{Numerology, SYMBOLS_PER_SLOT};

/// Characterization of one slot inside a TDD pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotKind {
    /// All 14 symbols downlink.
    Downlink,
    /// All 14 symbols uplink.
    Uplink,
    /// `dl_symbols` leading DL symbols, an implicit guard, and
    /// `ul_symbols` trailing UL symbols.
    Mixed {
        /// Leading downlink symbols.
        dl_symbols: u32,
        /// Trailing uplink symbols.
        ul_symbols: u32,
    },
}

impl SlotKind {
    /// `true` if any downlink symbols exist in this slot.
    pub(crate) fn has_dl(self) -> bool {
        match self {
            SlotKind::Downlink => true,
            SlotKind::Uplink => false,
            SlotKind::Mixed { dl_symbols, .. } => dl_symbols > 0,
        }
    }

    /// `true` if any uplink symbols exist in this slot.
    pub fn has_ul(self) -> bool {
        match self {
            SlotKind::Downlink => false,
            SlotKind::Uplink => true,
            SlotKind::Mixed { ul_symbols, .. } => ul_symbols > 0,
        }
    }

    /// Number of guard symbols in this slot (zero for pure DL/UL slots).
    pub fn guard_symbols(self) -> u32 {
        match self {
            SlotKind::Mixed { dl_symbols, ul_symbols } => {
                SYMBOLS_PER_SLOT - dl_symbols - ul_symbols
            }
            _ => 0,
        }
    }

    /// Single-letter label used in diagrams: D, U or M.
    pub fn letter(self) -> char {
        match self {
            SlotKind::Downlink => 'D',
            SlotKind::Uplink => 'U',
            SlotKind::Mixed { .. } => 'M',
        }
    }
}

/// Errors from TDD configuration validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TddError {
    /// Period not in the standard's allowed set.
    InvalidPeriod,
    /// Period is not an integer number of slots for the numerology.
    PeriodNotSlotAligned,
    /// Declared slots don't fill the period exactly.
    SlotCountMismatch {
        /// Slots declared by the pattern (DL + mixed + UL).
        declared: u64,
        /// Slots that fit in the period.
        expected: u64,
    },
    /// Mixed-slot symbols exceed the slot (need ≥ 1 guard symbol for the
    /// DL→UL switch — paper §2: "the use of guard symbols ... is
    /// mandatory").
    MixedSlotOverfull,
    /// Mixed slot declared with zero DL and zero UL symbols.
    MixedSlotEmpty,
    /// Pattern has no slots at all.
    EmptyPattern,
}

impl core::fmt::Display for TddError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TddError::InvalidPeriod => {
                write!(f, "period must be one of 0.5/0.625/1/1.25/2/2.5/5/10 ms")
            }
            TddError::PeriodNotSlotAligned => {
                write!(f, "period is not an integer number of slots for this numerology")
            }
            TddError::SlotCountMismatch { declared, expected } => {
                write!(f, "pattern declares {declared} slots but period holds {expected}")
            }
            TddError::MixedSlotOverfull => {
                write!(f, "mixed slot needs at least one guard symbol between DL and UL")
            }
            TddError::MixedSlotEmpty => write!(f, "mixed slot has neither DL nor UL symbols"),
            TddError::EmptyPattern => write!(f, "pattern has no slots"),
        }
    }
}

impl std::error::Error for TddError {}

/// Pattern periods permitted by TS 38.331 (paper §2).
pub(crate) const ALLOWED_PERIODS_US: [u64; 8] =
    [500, 625, 1_000, 1_250, 2_000, 2_500, 5_000, 10_000];

/// One TDD pattern: DL slots, optional mixed slot, UL slots, repeating with
/// the given period.
#[derive(Debug, Clone, PartialEq)]
pub struct TddPattern {
    period: Duration,
    dl_slots: u32,
    mixed: Option<SlotKind>,
    ul_slots: u32,
}

impl TddPattern {
    /// Builds and validates a pattern for `numerology`.
    ///
    /// `mixed` is `Some((dl_symbols, ul_symbols))` when the pattern has a
    /// mixed slot between the DL and UL slots.
    pub fn new(
        numerology: Numerology,
        period: Duration,
        dl_slots: u32,
        mixed: Option<(u32, u32)>,
        ul_slots: u32,
    ) -> Result<TddPattern, TddError> {
        if !ALLOWED_PERIODS_US.contains(&(period.as_nanos() / 1_000)) {
            return Err(TddError::InvalidPeriod);
        }
        let slot = numerology.slot_duration();
        if !(period % slot).is_zero() {
            return Err(TddError::PeriodNotSlotAligned);
        }
        let expected = period / slot;
        let mixed_kind = match mixed {
            None => None,
            Some((dl, ul)) => {
                if dl == 0 && ul == 0 {
                    return Err(TddError::MixedSlotEmpty);
                }
                if dl + ul >= SYMBOLS_PER_SLOT {
                    return Err(TddError::MixedSlotOverfull);
                }
                Some(SlotKind::Mixed { dl_symbols: dl, ul_symbols: ul })
            }
        };
        let declared = u64::from(dl_slots) + u64::from(mixed_kind.is_some()) + u64::from(ul_slots);
        if declared == 0 {
            return Err(TddError::EmptyPattern);
        }
        if declared != expected {
            return Err(TddError::SlotCountMismatch { declared, expected });
        }
        Ok(TddPattern { period, dl_slots, mixed: mixed_kind, ul_slots })
    }

    /// Pattern period.
    pub(crate) fn period(&self) -> Duration {
        self.period
    }

    /// Number of slots in one period.
    pub(crate) fn slots(&self) -> u64 {
        u64::from(self.dl_slots) + u64::from(self.mixed.is_some()) + u64::from(self.ul_slots)
    }

    /// Kind of slot `index` (0-based within the pattern).
    ///
    /// # Panics
    /// Panics when `index >= self.slots()`.
    pub(crate) fn slot_kind(&self, index: u64) -> SlotKind {
        assert!(index < self.slots(), "slot index beyond pattern");
        if index < u64::from(self.dl_slots) {
            SlotKind::Downlink
        } else if let (true, Some(mixed)) = (index == u64::from(self.dl_slots), self.mixed) {
            mixed
        } else {
            SlotKind::Uplink
        }
    }
}

/// A full TDD Common Configuration: one or two patterns plus the numerology
/// they are defined against.
#[derive(Debug, Clone, PartialEq)]
pub struct TddConfig {
    numerology: Numerology,
    pattern1: TddPattern,
    pattern2: Option<TddPattern>,
    /// Cached slot kinds over one full configuration period.
    slots: Vec<SlotKind>,
}

impl TddConfig {
    /// Builds a single-pattern configuration.
    pub fn single(numerology: Numerology, pattern: TddPattern) -> TddConfig {
        Self::build(numerology, pattern, None)
    }

    /// Builds a two-pattern configuration (TS 38.331 allows two consecutive
    /// patterns whose *combined* period divides 20 ms; we only require the
    /// patterns themselves to be valid).
    pub fn dual(numerology: Numerology, p1: TddPattern, p2: TddPattern) -> TddConfig {
        Self::build(numerology, p1, Some(p2))
    }

    fn build(numerology: Numerology, p1: TddPattern, p2: Option<TddPattern>) -> TddConfig {
        let mut slots = Vec::new();
        for i in 0..p1.slots() {
            slots.push(p1.slot_kind(i));
        }
        if let Some(ref p2) = p2 {
            for i in 0..p2.slots() {
                slots.push(p2.slot_kind(i));
            }
        }
        TddConfig { numerology, pattern1: p1, pattern2: p2, slots }
    }

    /// The numerology the configuration is defined against.
    pub fn numerology(&self) -> Numerology {
        self.numerology
    }

    /// Total period of the configuration (pattern1 + pattern2).
    pub fn period(&self) -> Duration {
        self.pattern1.period()
            + self.pattern2.as_ref().map(|p| p.period()).unwrap_or(Duration::ZERO)
    }

    /// Slot duration (from the numerology).
    pub(crate) fn slot_duration(&self) -> Duration {
        self.numerology.slot_duration()
    }

    /// Number of slots in one configuration period.
    pub fn slots_per_period(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Kind of the slot with *global* index `slot` (indices count from the
    /// simulation epoch and wrap over the configuration period).
    pub fn slot_kind(&self, slot: u64) -> SlotKind {
        self.slots[(slot % self.slots_per_period()) as usize]
    }

    /// Global index of the slot containing instant `t`.
    pub fn slot_index_at(&self, t: Instant) -> u64 {
        t.as_nanos() / self.slot_duration().as_nanos()
    }

    /// Start instant of global slot `slot`.
    pub(crate) fn slot_start(&self, slot: u64) -> Instant {
        Instant::from_nanos(slot * self.slot_duration().as_nanos())
    }

    /// First slot with index ≥ `from` satisfying `pred`.
    ///
    /// # Panics
    /// Panics if no slot in a full period satisfies `pred` (the pattern
    /// simply has no such slot, e.g. asking for UL in a DL-only pattern).
    pub(crate) fn next_slot_where(&self, from: u64, pred: impl Fn(SlotKind) -> bool) -> u64 {
        let n = self.slots_per_period();
        for off in 0..n {
            let s = from + off;
            if pred(self.slot_kind(s)) {
                return s;
            }
        }
        panic!("no slot in the TDD period satisfies the predicate");
    }

    /// Whether any slot of the period satisfies `pred`.
    pub(crate) fn any_slot(&self, pred: impl Fn(SlotKind) -> bool) -> bool {
        self.slots.iter().any(|&k| pred(k))
    }

    /// Instant at which uplink transmission can begin in slot `slot`
    /// (slot start for a full UL slot, start of the UL symbols for a mixed
    /// slot), or `None` if the slot carries no UL.
    pub(crate) fn ul_start_in_slot(&self, slot: u64) -> Option<Instant> {
        let start = self.slot_start(slot);
        match self.slot_kind(slot) {
            SlotKind::Uplink => Some(start),
            SlotKind::Mixed { ul_symbols, .. } if ul_symbols > 0 => {
                let first_ul = SYMBOLS_PER_SLOT - ul_symbols;
                Some(start + self.numerology.symbol_offset(first_ul))
            }
            _ => None,
        }
    }

    /// Instant at which downlink transmission can begin in slot `slot`
    /// (slot start for full-DL and mixed-with-DL slots), or `None`.
    pub(crate) fn dl_start_in_slot(&self, slot: u64) -> Option<Instant> {
        match self.slot_kind(slot) {
            SlotKind::Downlink => Some(self.slot_start(slot)),
            SlotKind::Mixed { dl_symbols, .. } if dl_symbols > 0 => Some(self.slot_start(slot)),
            _ => None,
        }
    }

    /// Duration of the uplink portion of slot `slot` (zero if none).
    pub(crate) fn ul_duration_in_slot(&self, slot: u64) -> Duration {
        match self.slot_kind(slot) {
            SlotKind::Uplink => self.slot_duration(),
            SlotKind::Mixed { ul_symbols, .. } => {
                let first_ul = SYMBOLS_PER_SLOT - ul_symbols;
                self.slot_duration() - self.numerology.symbol_offset(first_ul)
            }
            SlotKind::Downlink => Duration::ZERO,
        }
    }

    /// Duration of the downlink portion of slot `slot` (zero if none).
    pub(crate) fn dl_duration_in_slot(&self, slot: u64) -> Duration {
        match self.slot_kind(slot) {
            SlotKind::Downlink => self.slot_duration(),
            SlotKind::Mixed { dl_symbols, .. } => self.numerology.symbol_offset(dl_symbols),
            SlotKind::Uplink => Duration::ZERO,
        }
    }

    /// The slot-letter string of one period, e.g. `"DDDU"` — matches the
    /// paper's naming of configurations.
    pub fn letters(&self) -> String {
        self.slots.iter().map(|k| k.letter()).collect()
    }

    // ---- Named configurations from the paper -------------------------------
    //
    // Each preset builds its pattern from compile-time constants, so the
    // `TddPattern::new` validation below cannot fail: the slot counts match
    // the declared period and the mixed-slot symbol splits are in range.
    // The `expect`s are unreachable-by-construction and every preset is
    // exercised by the crate tests, so a bad edit fails the suite rather
    // than a caller.

    /// **DDDU** @ µ1 (0.5 ms slots, 2 ms period): the paper's §7 testbed
    /// configuration.
    pub fn dddu_testbed() -> TddConfig {
        let p = TddPattern::new(Numerology::Mu1, Duration::from_millis(2), 3, None, 1)
            .expect("DDDU is valid");
        TddConfig::single(Numerology::Mu1, p)
    }

    /// **DU** @ µ2 (0.25 ms slots, 0.5 ms period): minimal pattern, one DL
    /// slot then one UL slot (§5).
    pub fn du_minimal() -> TddConfig {
        let p = TddPattern::new(Numerology::Mu2, Duration::from_micros(500), 1, None, 1)
            .expect("DU is valid");
        TddConfig::single(Numerology::Mu2, p)
    }

    /// **DM** @ µ2 (0.25 ms slots, 0.5 ms period): one DL slot then one
    /// mixed slot — the only minimal TDD Common Configuration that meets the
    /// 0.5 ms deadline on both directions with grant-free UL (§5, Fig 4).
    ///
    /// The mixed slot uses 6 DL symbols, 2 guard symbols, 6 UL symbols.
    pub fn dm_minimal() -> TddConfig {
        let p = TddPattern::new(Numerology::Mu2, Duration::from_micros(500), 1, Some((6, 6)), 0)
            .expect("DM is valid");
        TddConfig::single(Numerology::Mu2, p)
    }

    /// **MU** @ µ2 (0.25 ms slots, 0.5 ms period): one mixed slot then one
    /// UL slot (§5).
    pub fn mu_minimal() -> TddConfig {
        let p = TddPattern::new(Numerology::Mu2, Duration::from_micros(500), 0, Some((6, 6)), 1)
            .expect("MU is valid");
        TddConfig::single(Numerology::Mu2, p)
    }

    /// All three minimal 0.5 ms configurations of Table 1, with their paper
    /// names.
    pub fn minimal_configs() -> Vec<(&'static str, TddConfig)> {
        vec![
            ("DU", TddConfig::du_minimal()),
            ("DM", TddConfig::dm_minimal()),
            ("MU", TddConfig::mu_minimal()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dddu_layout() {
        let c = TddConfig::dddu_testbed();
        assert_eq!(c.letters(), "DDDU");
        assert_eq!(c.period(), Duration::from_millis(2));
        assert_eq!(c.slots_per_period(), 4);
        assert_eq!(c.slot_kind(0), SlotKind::Downlink);
        assert_eq!(c.slot_kind(3), SlotKind::Uplink);
        // Wraps over periods.
        assert_eq!(c.slot_kind(4), SlotKind::Downlink);
        assert_eq!(c.slot_kind(7), SlotKind::Uplink);
    }

    #[test]
    fn minimal_patterns_have_expected_letters() {
        assert_eq!(TddConfig::du_minimal().letters(), "DU");
        assert_eq!(TddConfig::dm_minimal().letters(), "DM");
        assert_eq!(TddConfig::mu_minimal().letters(), "MU");
        for (_, c) in TddConfig::minimal_configs() {
            assert_eq!(c.period(), Duration::from_micros(500));
            assert_eq!(c.slots_per_period(), 2);
        }
    }

    #[test]
    fn rejects_bad_period() {
        let err =
            TddPattern::new(Numerology::Mu1, Duration::from_micros(750), 1, None, 1).unwrap_err();
        assert_eq!(err, TddError::InvalidPeriod);
    }

    #[test]
    fn rejects_unaligned_period() {
        // 0.625 ms is an allowed period but is not slot-aligned at µ1
        // (0.5 ms slots).
        let err =
            TddPattern::new(Numerology::Mu1, Duration::from_micros(625), 1, None, 0).unwrap_err();
        assert_eq!(err, TddError::PeriodNotSlotAligned);
    }

    #[test]
    fn period_625us_works_at_mu3() {
        // 0.625 ms at µ3 (125 µs slots) = 5 slots.
        let p = TddPattern::new(Numerology::Mu3, Duration::from_micros(625), 3, Some((6, 6)), 1)
            .expect("valid");
        assert_eq!(p.slots(), 5);
    }

    #[test]
    fn rejects_slot_count_mismatch() {
        let err =
            TddPattern::new(Numerology::Mu2, Duration::from_micros(500), 3, None, 1).unwrap_err();
        assert_eq!(err, TddError::SlotCountMismatch { declared: 4, expected: 2 });
    }

    #[test]
    fn rejects_overfull_mixed_slot() {
        // 7 + 7 = 14 leaves no guard symbol.
        let err = TddPattern::new(Numerology::Mu2, Duration::from_micros(500), 1, Some((7, 7)), 0)
            .unwrap_err();
        assert_eq!(err, TddError::MixedSlotOverfull);
    }

    #[test]
    fn rejects_empty_mixed_and_empty_pattern() {
        assert_eq!(
            TddPattern::new(Numerology::Mu2, Duration::from_micros(500), 1, Some((0, 0)), 0)
                .unwrap_err(),
            TddError::MixedSlotEmpty
        );
        assert_eq!(
            TddPattern::new(Numerology::Mu2, Duration::from_micros(500), 0, None, 0).unwrap_err(),
            TddError::EmptyPattern
        );
    }

    #[test]
    fn mixed_slot_guard_and_portions() {
        let c = TddConfig::dm_minimal();
        let k = c.slot_kind(1);
        assert_eq!(k, SlotKind::Mixed { dl_symbols: 6, ul_symbols: 6 });
        assert_eq!(k.guard_symbols(), 2);
        assert!(k.has_dl() && k.has_ul());
        // UL starts at symbol 8 of slot 1.
        let ul_start = c.ul_start_in_slot(1).unwrap();
        let expected = c.slot_start(1) + Numerology::Mu2.symbol_offset(8);
        assert_eq!(ul_start, expected);
        // DL portion of the mixed slot covers 6 symbols.
        assert_eq!(c.dl_duration_in_slot(1), Numerology::Mu2.symbol_offset(6));
    }

    #[test]
    fn ul_dl_starts_in_full_slots() {
        let c = TddConfig::dddu_testbed();
        assert_eq!(c.ul_start_in_slot(0), None);
        assert_eq!(c.dl_start_in_slot(0), Some(Instant::ZERO));
        assert_eq!(c.ul_start_in_slot(3), Some(c.slot_start(3)));
        assert_eq!(c.dl_start_in_slot(3), None);
        assert_eq!(c.ul_duration_in_slot(3), Duration::from_micros(500));
        assert_eq!(c.dl_duration_in_slot(3), Duration::ZERO);
    }

    #[test]
    fn next_slot_where_finds_ul() {
        let c = TddConfig::dddu_testbed();
        assert_eq!(c.next_slot_where(0, SlotKind::has_ul), 3);
        assert_eq!(c.next_slot_where(3, SlotKind::has_ul), 3);
        assert_eq!(c.next_slot_where(4, SlotKind::has_ul), 7);
        assert_eq!(c.next_slot_where(0, SlotKind::has_dl), 0);
        assert_eq!(c.next_slot_where(3, SlotKind::has_dl), 4);
    }

    #[test]
    #[should_panic(expected = "no slot in the TDD period")]
    fn next_slot_where_panics_when_absent() {
        // A DL-only pattern has no UL slot to find.
        let p = TddPattern::new(Numerology::Mu1, Duration::from_millis(1), 2, None, 0).unwrap();
        let c = TddConfig::single(Numerology::Mu1, p);
        c.next_slot_where(0, SlotKind::has_ul);
    }

    #[test]
    fn slot_index_time_bijection() {
        let c = TddConfig::dm_minimal();
        for slot in [0u64, 1, 2, 17, 1000] {
            let t = c.slot_start(slot);
            assert_eq!(c.slot_index_at(t), slot);
            // Any instant strictly inside the slot maps back to it.
            let inside = t + Duration::from_nanos(1);
            assert_eq!(c.slot_index_at(inside), slot);
        }
    }

    #[test]
    fn dual_pattern_concatenates() {
        let p1 = TddPattern::new(Numerology::Mu1, Duration::from_millis(2), 3, None, 1).unwrap();
        let p2 = TddPattern::new(Numerology::Mu1, Duration::from_millis(1), 1, None, 1).unwrap();
        let c = TddConfig::dual(Numerology::Mu1, p1, p2);
        assert_eq!(c.letters(), "DDDUDU");
        assert_eq!(c.period(), Duration::from_millis(3));
        assert_eq!(c.slots_per_period(), 6);
        assert_eq!(c.slot_kind(5), SlotKind::Uplink);
        assert_eq!(c.slot_kind(6), SlotKind::Downlink); // wraps
    }
}
