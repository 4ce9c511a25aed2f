//! Predefined slot formats (TS 38.213 Table 11.1.1-1, paper §2 / Fig 1c).
//!
//! In the *Slot Format* configuration the gNB signals one of a fixed set of
//! per-slot symbol layouts via DCI format 2-0, trading the Mini-Slot's
//! flexibility for lower signalling overhead. This module carries formats
//! 0–45 of the standard's table — the single-run D…F…U layouts. Formats
//! 46–55 (the half-slot repeating layouts) are intentionally omitted: they
//! are not exercised by any of the paper's experiments, and carrying an
//! unverified transcription would be worse than an explicit gap.

use crate::numerology::SYMBOLS_PER_SLOT;

/// Per-symbol characterization within a slot format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymbolKind {
    /// Downlink symbol.
    Downlink,
    /// Uplink symbol.
    Uplink,
    /// Flexible symbol (usable as guard, or dynamically assigned).
    Flexible,
}

impl SymbolKind {
    /// Single-letter label: D, U or F.
    pub(crate) fn letter(self) -> char {
        match self {
            SymbolKind::Downlink => 'D',
            SymbolKind::Uplink => 'U',
            SymbolKind::Flexible => 'F',
        }
    }
}

/// One slot format: 14 symbol kinds plus its standard index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotFormat {
    /// Index in TS 38.213 Table 11.1.1-1.
    pub index: u8,
    /// The 14 symbol kinds.
    pub symbols: [SymbolKind; SYMBOLS_PER_SLOT as usize],
}

/// Builds a single-run format: `d` leading DL symbols, then flexible
/// symbols, then `u` trailing UL symbols.
const fn run(index: u8, d: u8, u: u8) -> SlotFormat {
    let mut symbols = [SymbolKind::Flexible; SYMBOLS_PER_SLOT as usize];
    let mut i = 0;
    while i < d as usize {
        symbols[i] = SymbolKind::Downlink;
        i += 1;
    }
    let mut j = 0;
    while j < u as usize {
        symbols[SYMBOLS_PER_SLOT as usize - 1 - j] = SymbolKind::Uplink;
        j += 1;
    }
    SlotFormat { index, symbols }
}

impl SlotFormat {
    /// Formats 0–45 of TS 38.213 Table 11.1.1-1, encoded as
    /// (leading DL count, trailing UL count) with flexible in between.
    pub const TABLE: &'static [SlotFormat] = &[
        run(0, 14, 0),
        run(1, 0, 14),
        run(2, 0, 0),
        run(3, 13, 0),
        run(4, 12, 0),
        run(5, 11, 0),
        run(6, 10, 0),
        run(7, 9, 0),
        run(8, 0, 1),
        run(9, 0, 2),
        run(10, 0, 13),
        run(11, 0, 12),
        run(12, 0, 11),
        run(13, 0, 10),
        run(14, 0, 9),
        run(15, 0, 8),
        run(16, 1, 0),
        run(17, 2, 0),
        run(18, 3, 0),
        run(19, 1, 1),
        run(20, 2, 1),
        run(21, 3, 1),
        run(22, 1, 2),
        run(23, 2, 2),
        run(24, 3, 2),
        run(25, 1, 3),
        run(26, 2, 3),
        run(27, 3, 3),
        run(28, 12, 1),
        run(29, 11, 1),
        run(30, 10, 1),
        run(31, 11, 2),
        run(32, 10, 2),
        run(33, 9, 2),
        run(34, 1, 12),
        run(35, 2, 11),
        run(36, 3, 10),
        run(37, 1, 11),
        run(38, 2, 10),
        run(39, 3, 9),
        run(40, 1, 10),
        run(41, 2, 9),
        run(42, 3, 8),
        run(43, 9, 1),
        run(44, 6, 3),
        run(45, 6, 4),
    ];

    /// Looks up a format by its standard index.
    pub fn by_index(index: u8) -> Option<SlotFormat> {
        SlotFormat::TABLE.iter().copied().find(|f| f.index == index)
    }

    /// Number of downlink symbols.
    pub fn dl_symbols(&self) -> u32 {
        self.symbols.iter().filter(|&&s| s == SymbolKind::Downlink).count() as u32
    }

    /// Number of uplink symbols.
    pub fn ul_symbols(&self) -> u32 {
        self.symbols.iter().filter(|&&s| s == SymbolKind::Uplink).count() as u32
    }

    /// Number of flexible symbols.
    pub fn flexible_symbols(&self) -> u32 {
        SYMBOLS_PER_SLOT - self.dl_symbols() - self.ul_symbols()
    }

    /// The 14-letter layout string, e.g. `"DDDDDDDDDDDDDF"`.
    pub fn letters(&self) -> String {
        self.symbols.iter().map(|s| s.letter()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_46_formats_with_matching_indices() {
        assert_eq!(SlotFormat::TABLE.len(), 46);
        for (i, f) in SlotFormat::TABLE.iter().enumerate() {
            assert_eq!(f.index as usize, i);
        }
    }

    #[test]
    fn canonical_formats() {
        assert_eq!(SlotFormat::by_index(0).unwrap().letters(), "DDDDDDDDDDDDDD");
        assert_eq!(SlotFormat::by_index(1).unwrap().letters(), "UUUUUUUUUUUUUU");
        assert_eq!(SlotFormat::by_index(2).unwrap().letters(), "FFFFFFFFFFFFFF");
        assert_eq!(SlotFormat::by_index(28).unwrap().letters(), "DDDDDDDDDDDDFU");
        assert_eq!(SlotFormat::by_index(19).unwrap().letters(), "DFFFFFFFFFFFFU");
        assert_eq!(SlotFormat::by_index(45).unwrap().letters(), "DDDDDDFFFFUUUU");
    }

    #[test]
    fn symbol_counts_sum_to_fourteen() {
        for f in SlotFormat::TABLE {
            assert_eq!(
                f.dl_symbols() + f.ul_symbols() + f.flexible_symbols(),
                SYMBOLS_PER_SLOT,
                "format {}",
                f.index
            );
        }
    }

    #[test]
    fn dl_ul_never_adjacent_without_gap() {
        // Every format with both DL and UL has at least one flexible symbol
        // between them (the guard requirement of paper §2).
        for f in SlotFormat::TABLE {
            if f.dl_symbols() > 0 && f.ul_symbols() > 0 {
                assert!(f.flexible_symbols() >= 1, "format {}", f.index);
            }
        }
    }

    #[test]
    fn dl_is_prefix_ul_is_suffix() {
        for f in SlotFormat::TABLE {
            let letters = f.letters();
            let d = f.dl_symbols() as usize;
            let u = f.ul_symbols() as usize;
            assert!(letters[..d].chars().all(|c| c == 'D'), "format {}", f.index);
            assert!(letters[14 - u..].chars().all(|c| c == 'U'), "format {}", f.index);
        }
    }

    #[test]
    fn unknown_index_is_none() {
        assert_eq!(SlotFormat::by_index(46), None);
        assert_eq!(SlotFormat::by_index(255), None);
    }
}
