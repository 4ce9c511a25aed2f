//! Resource grid and transport-block sizing (TS 38.211 §4.4, TS 38.214
//! §5.1.3 simplified).
//!
//! The grid tracks which physical resource blocks (PRBs) of a slot are
//! allocated to which RNTI, and computes how many information bits an
//! allocation carries — which is what the MAC scheduler needs to size
//! grants and what the radio model needs to convert "a transport block" to
//! "a number of samples".

use crate::modulation::Modulation;
use crate::numerology::SYMBOLS_PER_SLOT;

/// Subcarriers per PRB.
pub(crate) const SUBCARRIERS_PER_PRB: u32 = 12;

/// Carrier-level grid dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CarrierConfig {
    /// Number of PRBs in the carrier (e.g. 51 for 20 MHz at 30 kHz SCS,
    /// 273 for 100 MHz at 30 kHz).
    pub prbs: u32,
    /// Symbols per slot lost to control/reference signals (PDCCH + DMRS),
    /// on average. Typically 2–3.
    pub overhead_symbols: u32,
}

impl CarrierConfig {
    /// The paper's testbed scale: a B210-class ~20 MHz FR1 carrier.
    pub fn testbed_20mhz() -> CarrierConfig {
        CarrierConfig { prbs: 51, overhead_symbols: 2 }
    }

    /// Data resource elements available in `symbols` symbols of one PRB.
    pub fn res_per_prb(&self, symbols: u32) -> u32 {
        symbols.saturating_sub(self.overhead_symbols) * SUBCARRIERS_PER_PRB
    }

    /// Approximate transport block size in *bits* for an allocation of
    /// `prbs` PRBs over `symbols` symbols at the given modulation and code
    /// rate (TS 38.214 §5.1.3.2 without the quantisation ladder; adequate
    /// for scheduling and latency purposes, documented in DESIGN.md).
    pub fn transport_block_bits(
        &self,
        prbs: u32,
        symbols: u32,
        modulation: Modulation,
        code_rate: f64,
    ) -> u64 {
        assert!(prbs <= self.prbs, "allocation exceeds carrier");
        assert!(symbols <= SYMBOLS_PER_SLOT, "allocation exceeds slot");
        assert!((0.0..=1.0).contains(&code_rate), "code rate out of range");
        let re = u64::from(self.res_per_prb(symbols)) * u64::from(prbs);
        let raw = re as f64 * f64::from(modulation.bits_per_symbol()) * code_rate;
        // Round down to a whole byte, as TBs are byte-aligned in practice.
        ((raw as u64) / 8) * 8
    }
}

/// Per-slot PRB allocation map.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceGrid {
    carrier: CarrierConfig,
    /// `owners[prb]` = RNTI holding that PRB, or `None`.
    owners: Vec<Option<u16>>,
}

/// Errors from grid allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridError {
    /// Not enough contiguous free PRBs.
    Insufficient {
        /// PRBs requested.
        requested: u32,
        /// Largest free contiguous run available.
        largest_free_run: u32,
    },
}

impl core::fmt::Display for GridError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GridError::Insufficient { requested, largest_free_run } => write!(
                f,
                "requested {requested} contiguous PRBs but largest free run is {largest_free_run}"
            ),
        }
    }
}

impl std::error::Error for GridError {}

/// A successful allocation: a contiguous PRB range owned by one RNTI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// Owner RNTI.
    pub rnti: u16,
    /// First PRB index.
    pub first_prb: u32,
    /// Number of PRBs.
    pub prbs: u32,
}

impl ResourceGrid {
    /// Creates an empty grid for the carrier.
    pub fn new(carrier: CarrierConfig) -> ResourceGrid {
        ResourceGrid { carrier, owners: vec![None; carrier.prbs as usize] }
    }

    /// Number of free PRBs.
    pub fn free_prbs(&self) -> u32 {
        self.owners.iter().filter(|o| o.is_none()).count() as u32
    }

    /// Largest contiguous run of free PRBs.
    pub fn largest_free_run(&self) -> u32 {
        let mut best = 0u32;
        let mut run = 0u32;
        for o in &self.owners {
            if o.is_none() {
                run += 1;
                best = best.max(run);
            } else {
                run = 0;
            }
        }
        best
    }

    /// Allocates `prbs` contiguous PRBs to `rnti` (first fit).
    pub fn allocate(&mut self, rnti: u16, prbs: u32) -> Result<Allocation, GridError> {
        if prbs == 0 {
            return Ok(Allocation { rnti, first_prb: 0, prbs: 0 });
        }
        let n = self.owners.len();
        let want = prbs as usize;
        let mut start = 0usize;
        while start + want <= n {
            if self.owners[start..start + want].iter().all(Option::is_none) {
                for o in &mut self.owners[start..start + want] {
                    *o = Some(rnti);
                }
                return Ok(Allocation { rnti, first_prb: start as u32, prbs });
            }
            start += 1;
        }
        Err(GridError::Insufficient { requested: prbs, largest_free_run: self.largest_free_run() })
    }

    /// Releases every PRB owned by `rnti`.
    pub fn release(&mut self, rnti: u16) {
        for o in &mut self.owners {
            if *o == Some(rnti) {
                *o = None;
            }
        }
    }

    /// Clears the whole grid (new slot).
    pub fn clear(&mut self) {
        self.owners.fill(None);
    }

    /// Owner of a PRB.
    pub fn owner(&self, prb: u32) -> Option<u16> {
        self.owners[prb as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tbs_scales_with_everything() {
        let c = CarrierConfig::testbed_20mhz();
        let base = c.transport_block_bits(10, 14, Modulation::Qpsk, 0.5);
        assert!(base > 0);
        assert!(c.transport_block_bits(20, 14, Modulation::Qpsk, 0.5) > base);
        assert!(c.transport_block_bits(10, 14, Modulation::Qam64, 0.5) > base);
        assert!(c.transport_block_bits(10, 14, Modulation::Qpsk, 0.9) > base);
        assert!(c.transport_block_bits(10, 7, Modulation::Qpsk, 0.5) < base);
    }

    #[test]
    fn tbs_is_byte_aligned() {
        let c = CarrierConfig::testbed_20mhz();
        for prbs in [1, 7, 51] {
            let bits = c.transport_block_bits(prbs, 14, Modulation::Qam16, 0.6);
            assert_eq!(bits % 8, 0);
        }
    }

    #[test]
    fn tbs_known_value() {
        // 10 PRB × (14−2) symbols × 12 SC = 1440 RE; QPSK (2 b) @ rate 0.5
        // = 1440 bits, byte-aligned already.
        let c = CarrierConfig::testbed_20mhz();
        assert_eq!(c.transport_block_bits(10, 14, Modulation::Qpsk, 0.5), 1_440);
    }

    #[test]
    fn overhead_consumes_whole_allocation() {
        let c = CarrierConfig { prbs: 51, overhead_symbols: 14 };
        assert_eq!(c.transport_block_bits(51, 14, Modulation::Qam256, 1.0), 0);
    }

    #[test]
    fn allocate_first_fit_and_release() {
        let mut g = ResourceGrid::new(CarrierConfig::testbed_20mhz());
        let a = g.allocate(17, 20).unwrap();
        assert_eq!(a.first_prb, 0);
        let b = g.allocate(23, 20).unwrap();
        assert_eq!(b.first_prb, 20);
        assert_eq!(g.free_prbs(), 11);
        assert_eq!(g.owner(5), Some(17));
        g.release(17);
        assert_eq!(g.free_prbs(), 31);
        // Freed space is reused.
        let c = g.allocate(99, 20).unwrap();
        assert_eq!(c.first_prb, 0);
    }

    #[test]
    fn allocate_fails_with_fragmentation_info() {
        let mut g = ResourceGrid::new(CarrierConfig { prbs: 10, overhead_symbols: 2 });
        g.allocate(1, 4).unwrap(); // 0..4
        g.allocate(2, 2).unwrap(); // 4..6
        g.release(1);
        // Free: 0..4 and 6..10 — largest run 4.
        let err = g.allocate(3, 5).unwrap_err();
        assert_eq!(err, GridError::Insufficient { requested: 5, largest_free_run: 4 });
    }

    #[test]
    fn zero_prb_allocation_is_noop() {
        let mut g = ResourceGrid::new(CarrierConfig::testbed_20mhz());
        let a = g.allocate(5, 0).unwrap();
        assert_eq!(a.prbs, 0);
        assert_eq!(g.free_prbs(), 51);
    }

    #[test]
    fn clear_resets() {
        let mut g = ResourceGrid::new(CarrierConfig::testbed_20mhz());
        g.allocate(1, 51).unwrap();
        assert_eq!(g.free_prbs(), 0);
        g.clear();
        assert_eq!(g.free_prbs(), 51);
    }

    #[test]
    #[should_panic(expected = "exceeds carrier")]
    fn tbs_rejects_oversized_allocation() {
        CarrierConfig::testbed_20mhz().transport_block_bits(52, 14, Modulation::Qpsk, 0.5);
    }
}
