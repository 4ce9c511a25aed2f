//! Frame/slot/symbol addressing: the bijection between simulation time and
//! the NR frame structure (TS 38.211 §4.3.1).
//!
//! A radio frame is 10 ms; the system frame number (SFN) wraps at 1024
//! (every 10.24 s). Within a frame there are `10 · 2^µ` slots of 14 symbols.

use sim::{Duration, Instant};

use crate::numerology::{Numerology, SUBFRAMES_PER_FRAME, SYMBOLS_PER_SLOT};

/// Duration of one radio frame: 10 ms.
pub const FRAME_DURATION: Duration = Duration::from_millis(10);

/// SFN wrap modulus.
pub const SFN_MODULUS: u64 = 1024;

/// A position in the NR frame structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FramePosition {
    /// How many full SFN cycles (10.24 s each) have elapsed. Carried so the
    /// position↔instant mapping stays a bijection over arbitrarily long
    /// simulations.
    pub hyperframe: u64,
    /// System frame number, 0–1023.
    pub sfn: u64,
    /// Slot within the frame, 0 .. 10·2^µ.
    pub slot: u64,
    /// Symbol within the slot, 0–13.
    pub symbol: u32,
}

/// Converts between [`Instant`] and [`FramePosition`] for one numerology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotClock {
    numerology: Numerology,
}

impl SlotClock {
    /// Creates a clock for `numerology`.
    pub fn new(numerology: Numerology) -> SlotClock {
        SlotClock { numerology }
    }

    /// Global slot index (monotonic, never wraps) containing `t`.
    pub fn global_slot(&self, t: Instant) -> u64 {
        t.as_nanos() / self.numerology.slot_duration().as_nanos()
    }

    /// Start instant of global slot `slot`.
    pub fn slot_start(&self, slot: u64) -> Instant {
        Instant::from_nanos(slot * self.numerology.slot_duration().as_nanos())
    }

    /// Instant of the next slot boundary strictly after `t`... unless `t`
    /// is itself a boundary, in which case `t` is returned (ceiling).
    pub fn next_slot_boundary(&self, t: Instant) -> Instant {
        t.ceil_to(self.numerology.slot_duration())
    }

    /// Decomposes an instant into its frame position.
    pub fn position(&self, t: Instant) -> FramePosition {
        let ns = t.as_nanos();
        let frame_ns = FRAME_DURATION.as_nanos();
        let frame_index = ns / frame_ns;
        let hyperframe = frame_index / SFN_MODULUS;
        let sfn = frame_index % SFN_MODULUS;
        let in_frame = ns % frame_ns;
        let slot_ns = self.numerology.slot_duration().as_nanos();
        let slot = in_frame / slot_ns;
        let in_slot = Duration::from_nanos(in_frame % slot_ns);
        // Find the symbol via the exact offset table (offsets are not
        // uniform because of integer rounding).
        let mut symbol = 0;
        for s in (0..SYMBOLS_PER_SLOT).rev() {
            if in_slot >= self.numerology.symbol_offset(s) {
                symbol = s;
                break;
            }
        }
        FramePosition { hyperframe, sfn, slot, symbol }
    }

    /// Instant at which a frame position begins.
    pub fn instant(&self, pos: FramePosition) -> Instant {
        assert!(pos.sfn < SFN_MODULUS, "sfn out of range");
        assert!(pos.slot < u64::from(self.slots_per_frame()), "slot out of range");
        assert!(pos.symbol < SYMBOLS_PER_SLOT, "symbol out of range");
        let frame_index = pos.hyperframe * SFN_MODULUS + pos.sfn;
        Instant::from_nanos(frame_index * FRAME_DURATION.as_nanos())
            + self.numerology.slot_duration() * pos.slot
            + self.numerology.symbol_offset(pos.symbol)
    }

    /// Slots per frame for this numerology.
    pub fn slots_per_frame(&self) -> u32 {
        self.numerology.slots_per_subframe() * SUBFRAMES_PER_FRAME
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_at_epoch() {
        let clk = SlotClock::new(Numerology::Mu1);
        let p = clk.position(Instant::ZERO);
        assert_eq!(p, FramePosition { hyperframe: 0, sfn: 0, slot: 0, symbol: 0 });
    }

    #[test]
    fn position_instant_roundtrip_on_boundaries() {
        for nu in Numerology::ALL {
            let clk = SlotClock::new(nu);
            for &(hf, sfn, slot, sym) in
                &[(0u64, 0u64, 0u64, 0u32), (0, 1, 0, 0), (0, 1023, 0, 13), (3, 512, 1, 7)]
            {
                if slot >= u64::from(clk.slots_per_frame()) {
                    continue;
                }
                let pos = FramePosition { hyperframe: hf, sfn, slot, symbol: sym };
                let t = clk.instant(pos);
                assert_eq!(clk.position(t), pos, "{nu} {pos:?}");
            }
        }
    }

    #[test]
    fn sfn_wraps_at_1024() {
        let clk = SlotClock::new(Numerology::Mu0);
        let t = Instant::from_millis(10 * 1024); // one full hyperframe
        let p = clk.position(t);
        assert_eq!(p.hyperframe, 1);
        assert_eq!(p.sfn, 0);
    }

    #[test]
    fn mid_symbol_instants_map_to_containing_symbol() {
        let clk = SlotClock::new(Numerology::Mu2);
        let slot_start = clk.slot_start(5);
        let sym3 = slot_start + Numerology::Mu2.symbol_offset(3);
        let p = clk.position(sym3 + Duration::from_nanos(100));
        assert_eq!(p.symbol, 3);
        assert_eq!(p.slot % u64::from(clk.slots_per_frame()), 5);
    }

    #[test]
    fn global_slot_monotonic_across_frames() {
        let clk = SlotClock::new(Numerology::Mu1);
        // Slot 25 is in the second frame (20 slots per frame at µ1).
        let t = clk.slot_start(25);
        assert_eq!(clk.global_slot(t), 25);
        let p = clk.position(t);
        assert_eq!(p.sfn, 1);
        assert_eq!(p.slot, 5);
    }

    #[test]
    fn next_slot_boundary_ceiling_semantics() {
        let clk = SlotClock::new(Numerology::Mu1);
        assert_eq!(clk.next_slot_boundary(Instant::ZERO), Instant::ZERO);
        assert_eq!(clk.next_slot_boundary(Instant::from_nanos(1)), Instant::from_micros(500));
    }

    #[test]
    #[should_panic(expected = "slot out of range")]
    fn instant_rejects_bad_slot() {
        let clk = SlotClock::new(Numerology::Mu0);
        clk.instant(FramePosition { hyperframe: 0, sfn: 0, slot: 10, symbol: 0 });
    }
}
