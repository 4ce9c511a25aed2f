//! NR numerologies (TS 38.211 §4.2–4.3).
//!
//! The subcarrier spacing is `15 kHz · 2^µ` for µ ∈ 0..=6; a slot is always
//! 14 OFDM symbols and lasts `1 ms / 2^µ`. Numerologies 0–2 are usable in
//! FR1 (sub-6 GHz), 2–6 in FR2 (mmWave) — the split at the heart of the
//! paper's §5 argument: FR1's shortest slot is 0.25 ms (µ2), so sub-0.25 ms
//! slot-level latency is only available in the unreliable FR2 bands.

use sim::Duration;

use crate::band::FrequencyRange;

/// OFDM symbols per slot (normal cyclic prefix, TS 38.211 Table 4.3.2-1).
pub const SYMBOLS_PER_SLOT: u32 = 14;

/// Subframes per radio frame (each subframe is 1 ms, frame is 10 ms).
pub const SUBFRAMES_PER_FRAME: u32 = 10;

/// An NR numerology µ, determining subcarrier spacing and slot duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Numerology {
    /// µ=0: 15 kHz SCS, 1 ms slots (LTE-compatible).
    Mu0,
    /// µ=1: 30 kHz SCS, 0.5 ms slots.
    Mu1,
    /// µ=2: 60 kHz SCS, 0.25 ms slots — the shortest slot available in FR1.
    Mu2,
    /// µ=3: 120 kHz SCS, 125 µs slots (FR2 only).
    Mu3,
    /// µ=4: 240 kHz SCS, 62.5 µs slots (FR2 only).
    Mu4,
    /// µ=5: 480 kHz SCS, 31.25 µs slots (FR2 only).
    Mu5,
    /// µ=6: 960 kHz SCS, 15.625 µs slots (FR2 only) — the paper's §1
    /// "slots as low as 15.625 µs".
    Mu6,
}

impl Numerology {
    /// All seven numerologies, in order.
    pub const ALL: [Numerology; 7] = [
        Numerology::Mu0,
        Numerology::Mu1,
        Numerology::Mu2,
        Numerology::Mu3,
        Numerology::Mu4,
        Numerology::Mu5,
        Numerology::Mu6,
    ];

    /// The µ value (0–6).
    pub const fn mu(self) -> u32 {
        match self {
            Numerology::Mu0 => 0,
            Numerology::Mu1 => 1,
            Numerology::Mu2 => 2,
            Numerology::Mu3 => 3,
            Numerology::Mu4 => 4,
            Numerology::Mu5 => 5,
            Numerology::Mu6 => 6,
        }
    }

    /// Constructs from a µ value.
    pub const fn from_mu(mu: u32) -> Option<Numerology> {
        match mu {
            0 => Some(Numerology::Mu0),
            1 => Some(Numerology::Mu1),
            2 => Some(Numerology::Mu2),
            3 => Some(Numerology::Mu3),
            4 => Some(Numerology::Mu4),
            5 => Some(Numerology::Mu5),
            6 => Some(Numerology::Mu6),
            _ => None,
        }
    }

    /// Subcarrier spacing in kHz: `15 · 2^µ`.
    pub(crate) const fn scs_khz(self) -> u32 {
        15 << self.mu()
    }

    /// Slot duration: `1 ms / 2^µ`. Exact in nanoseconds for every µ
    /// (1 000 000 ns is divisible by 2⁶).
    pub const fn slot_duration(self) -> Duration {
        Duration::from_nanos(1_000_000 >> self.mu())
    }

    /// Offset of symbol `index` (0–13) from the start of its slot.
    ///
    /// Computed as `slot · index / 14` with integer rounding so that
    /// `symbol_offset(14)` is exactly one slot.
    pub fn symbol_offset(self, index: u32) -> Duration {
        assert!(index <= SYMBOLS_PER_SLOT, "symbol index out of range");
        Duration::from_nanos(
            self.slot_duration().as_nanos() * u64::from(index) / u64::from(SYMBOLS_PER_SLOT),
        )
    }

    /// Slots per 1 ms subframe: `2^µ`.
    pub const fn slots_per_subframe(self) -> u32 {
        1 << self.mu()
    }

    /// Slots per 10 ms radio frame.
    pub const fn slots_per_frame(self) -> u32 {
        self.slots_per_subframe() * SUBFRAMES_PER_FRAME
    }

    /// Whether this numerology may be used in the given frequency range
    /// (TR 38.913 / TS 38.211: µ0–µ2 in FR1, µ2–µ6 in FR2).
    pub const fn valid_in(self, fr: FrequencyRange) -> bool {
        match fr {
            FrequencyRange::Fr1 => self.mu() <= 2,
            FrequencyRange::Fr2 => self.mu() >= 2,
        }
    }
}

impl core::fmt::Display for Numerology {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "µ{} ({} kHz)", self.mu(), self.scs_khz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scs_doubles_per_mu() {
        assert_eq!(Numerology::Mu0.scs_khz(), 15);
        assert_eq!(Numerology::Mu1.scs_khz(), 30);
        assert_eq!(Numerology::Mu2.scs_khz(), 60);
        assert_eq!(Numerology::Mu3.scs_khz(), 120);
        assert_eq!(Numerology::Mu6.scs_khz(), 960);
    }

    #[test]
    fn slot_durations_match_standard() {
        assert_eq!(Numerology::Mu0.slot_duration(), Duration::from_millis(1));
        assert_eq!(Numerology::Mu1.slot_duration(), Duration::from_micros(500));
        assert_eq!(Numerology::Mu2.slot_duration(), Duration::from_micros(250));
        assert_eq!(Numerology::Mu3.slot_duration(), Duration::from_micros(125));
        // The paper's §1: "slots as low as 15.625 µs" (µ6).
        assert_eq!(Numerology::Mu6.slot_duration(), Duration::from_nanos(15_625));
    }

    #[test]
    fn symbol_offsets_cover_slot_exactly() {
        for nu in Numerology::ALL {
            assert_eq!(nu.symbol_offset(0), Duration::ZERO);
            assert_eq!(nu.symbol_offset(SYMBOLS_PER_SLOT), nu.slot_duration());
            // Offsets strictly increase.
            for i in 0..SYMBOLS_PER_SLOT {
                assert!(nu.symbol_offset(i + 1) > nu.symbol_offset(i), "{nu} sym {i}");
            }
        }
    }

    #[test]
    fn slots_per_frame() {
        assert_eq!(Numerology::Mu0.slots_per_frame(), 10);
        assert_eq!(Numerology::Mu1.slots_per_frame(), 20);
        assert_eq!(Numerology::Mu2.slots_per_frame(), 40);
        assert_eq!(Numerology::Mu6.slots_per_frame(), 640);
    }

    #[test]
    fn fr_validity_split() {
        use FrequencyRange::*;
        assert!(Numerology::Mu0.valid_in(Fr1));
        assert!(!Numerology::Mu0.valid_in(Fr2));
        // µ2 is the overlap: valid in both ranges.
        assert!(Numerology::Mu2.valid_in(Fr1));
        assert!(Numerology::Mu2.valid_in(Fr2));
        assert!(!Numerology::Mu3.valid_in(Fr1));
        assert!(Numerology::Mu6.valid_in(Fr2));
    }

    #[test]
    fn from_mu_roundtrip() {
        for nu in Numerology::ALL {
            assert_eq!(Numerology::from_mu(nu.mu()), Some(nu));
        }
        assert_eq!(Numerology::from_mu(7), None);
    }

    #[test]
    #[should_panic(expected = "symbol index out of range")]
    fn symbol_offset_out_of_range() {
        Numerology::Mu0.symbol_offset(15);
    }
}
