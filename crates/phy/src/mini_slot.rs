//! Mini-slot (Type-B) scheduling (TR 38.912, paper §2 / Fig 1b).
//!
//! With mini-slots, transmissions may start at a sub-slot granularity of
//! 2, 4 or 7 OFDM symbols instead of full 14-symbol slots, at the cost of
//! per-mini-slot control signalling: the gNB spends the first symbols of
//! each slot announcing the characterization of the rest. The paper's §5
//! uses this configuration to show that even *grant-based* uplink can meet
//! the 0.5 ms deadline — but also notes the standard's recommendation of a
//! ≥ 0.5 ms target slot duration for this mode, making the µ2 variant
//! standards-non-compliant and in need of practical evaluation.

use sim::{Duration, Instant};

use crate::numerology::{Numerology, SYMBOLS_PER_SLOT};

/// Permitted mini-slot lengths in symbols (TR 38.912: 2, 4 or 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MiniSlotLen {
    /// 2-symbol mini-slots (7 per slot, last one truncated to the control
    /// region — see [`MiniSlotConfig::mini_slots_per_slot`]).
    Two,
    /// 4-symbol mini-slots.
    Four,
    /// 7-symbol mini-slots (half-slot granularity).
    Seven,
}

impl MiniSlotLen {
    /// Length in symbols.
    pub(crate) const fn symbols(self) -> u32 {
        match self {
            MiniSlotLen::Two => 2,
            MiniSlotLen::Four => 4,
            MiniSlotLen::Seven => 7,
        }
    }
}

/// A mini-slot configuration over a given numerology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiniSlotConfig {
    /// Underlying numerology (sets the symbol duration).
    pub numerology: Numerology,
    /// Mini-slot granularity.
    pub len: MiniSlotLen,
    /// Symbols at the start of each slot used by the gNB to announce the
    /// characterization of the remaining symbols (paper §2: "the first
    /// couple of symbols"). These symbols cannot carry user data.
    pub control_symbols: u32,
}

impl MiniSlotConfig {
    /// A standard configuration: 2-symbol control region, given granularity.
    pub fn new(numerology: Numerology, len: MiniSlotLen) -> MiniSlotConfig {
        MiniSlotConfig { numerology, len, control_symbols: 2 }
    }

    /// Duration of one mini-slot.
    pub fn mini_slot_duration(&self) -> Duration {
        self.numerology.symbol_offset(self.len.symbols())
    }

    /// Data symbols available per slot after the control region.
    pub(crate) fn data_symbols_per_slot(&self) -> u32 {
        SYMBOLS_PER_SLOT - self.control_symbols
    }

    /// Number of whole mini-slots that fit in the data region of one slot.
    pub fn mini_slots_per_slot(&self) -> u32 {
        self.data_symbols_per_slot() / self.len.symbols()
    }

    /// Fraction of a slot's symbols lost to control overhead plus the
    /// truncated tail that fits no whole mini-slot — the "increased
    /// signaling overhead" cost the paper attributes to this configuration.
    pub fn overhead_fraction(&self) -> f64 {
        let usable = self.mini_slots_per_slot() * self.len.symbols();
        1.0 - usable as f64 / SYMBOLS_PER_SLOT as f64
    }

    /// Start instants of the mini-slot transmission opportunities inside the
    /// slot beginning at `slot_start`.
    pub fn opportunities_in_slot(&self, slot_start: Instant) -> Vec<Instant> {
        (0..self.mini_slots_per_slot())
            .map(|i| {
                slot_start
                    + self.numerology.symbol_offset(self.control_symbols + i * self.len.symbols())
            })
            .collect()
    }

    /// The first mini-slot opportunity at or after `t` that starts at or
    /// after `ready`: the fine-grained analogue of "wait for the next slot".
    ///
    /// `t` and `ready` are usually the same instant; they differ when a
    /// packet became ready in the past but the search starts later.
    pub fn next_opportunity(&self, ready: Instant) -> Instant {
        let slot_dur = self.numerology.slot_duration();
        let mut slot_start = ready.floor_to(slot_dur);
        loop {
            for op in self.opportunities_in_slot(slot_start) {
                if op >= ready {
                    return op;
                }
            }
            slot_start += slot_dur;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_scale_with_numerology() {
        let c = MiniSlotConfig::new(Numerology::Mu2, MiniSlotLen::Two);
        // 2 symbols of a 250 µs slot ≈ 35.7 µs.
        let d = c.mini_slot_duration();
        assert_eq!(d, Numerology::Mu2.symbol_offset(2));
        assert!(d > Duration::from_micros(35) && d < Duration::from_micros(36));
    }

    #[test]
    fn counts_per_slot() {
        let two = MiniSlotConfig::new(Numerology::Mu2, MiniSlotLen::Two);
        assert_eq!(two.data_symbols_per_slot(), 12);
        assert_eq!(two.mini_slots_per_slot(), 6);
        let four = MiniSlotConfig::new(Numerology::Mu2, MiniSlotLen::Four);
        assert_eq!(four.mini_slots_per_slot(), 3);
        let seven = MiniSlotConfig::new(Numerology::Mu2, MiniSlotLen::Seven);
        assert_eq!(seven.mini_slots_per_slot(), 1);
    }

    #[test]
    fn overhead_grows_with_granularity() {
        let two = MiniSlotConfig::new(Numerology::Mu2, MiniSlotLen::Two);
        let seven = MiniSlotConfig::new(Numerology::Mu2, MiniSlotLen::Seven);
        // 2-symbol: 12/14 usable. 7-symbol: only 7/14 usable.
        assert!((two.overhead_fraction() - 2.0 / 14.0).abs() < 1e-12);
        assert!((seven.overhead_fraction() - 7.0 / 14.0).abs() < 1e-12);
        assert!(seven.overhead_fraction() > two.overhead_fraction());
    }

    #[test]
    fn opportunities_are_inside_data_region() {
        let c = MiniSlotConfig::new(Numerology::Mu2, MiniSlotLen::Two);
        let slot_start = Instant::from_micros(500);
        let ops = c.opportunities_in_slot(slot_start);
        assert_eq!(ops.len(), 6);
        assert_eq!(ops[0], slot_start + Numerology::Mu2.symbol_offset(2));
        for w in ops.windows(2) {
            assert!(w[1] > w[0]);
        }
        let slot_end = slot_start + Numerology::Mu2.slot_duration();
        assert!(*ops.last().unwrap() + c.mini_slot_duration() <= slot_end);
    }

    #[test]
    fn next_opportunity_waits_at_most_one_mini_slot_plus_control() {
        let c = MiniSlotConfig::new(Numerology::Mu2, MiniSlotLen::Two);
        // Worst wait: ready just after an opportunity; bounded by one
        // mini-slot within the data region, or the control region across a
        // slot boundary.
        let bound = c.mini_slot_duration() + c.numerology.symbol_offset(c.control_symbols);
        for us in [0u64, 1, 100, 251, 499, 500, 733] {
            let ready = Instant::from_micros(us);
            let op = c.next_opportunity(ready);
            assert!(op >= ready);
            assert!(op - ready <= bound, "ready {ready:?} -> {op:?}");
        }
    }

    #[test]
    fn next_opportunity_is_deterministic_boundary() {
        let c = MiniSlotConfig::new(Numerology::Mu2, MiniSlotLen::Seven);
        // Exactly at the opportunity -> that opportunity.
        let op0 = Instant::ZERO + Numerology::Mu2.symbol_offset(2);
        assert_eq!(c.next_opportunity(op0), op0);
        // Just after -> next slot's opportunity (only one per slot at len 7).
        let next = c.next_opportunity(op0 + Duration::from_nanos(1));
        assert_eq!(next, Instant::from_micros(250) + Numerology::Mu2.symbol_offset(2));
    }
}
