//! Per-layer processing-time models, calibrated to the paper's Table 2.
//!
//! | layer | mean (µs) | std (µs) |
//! |-------|-----------|----------|
//! | SDAP  |      4.65 |     6.71 |
//! | PDCP  |      8.29 |     8.99 |
//! | RLC   |      4.12 |     8.37 |
//! | MAC   |     55.21 |    16.31 |
//! | PHY   |     41.55 |    10.83 |
//!
//! (RLC-q, the 484 µs queue-wait row, is *not* a processing time — it is
//! protocol latency and emerges from the scheduler simulation.)
//!
//! Table 2's std exceeding the mean on three rows is the signature of a
//! right-skewed service time — a fast common path plus OS-scheduling tails —
//! which the log-normal family reproduces ([`sim::Dist::lognormal_us`]).

use sim::{Dist, Duration, SimRng};

/// Processing-time distributions for one node's layer stack.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTimings {
    /// SDAP processing per packet.
    pub sdap: Dist,
    /// PDCP processing per packet (numbering + ciphering).
    pub pdcp: Dist,
    /// RLC processing per packet (segmentation bookkeeping, not queueing).
    pub rlc: Dist,
    /// MAC processing per scheduling round (multiplexing + scheduling).
    pub mac: Dist,
    /// PHY processing per transport block (see also
    /// [`phy::timing::PhyTimingModel`] for the size-dependent variant).
    pub phy: Dist,
}

impl LayerTimings {
    /// The gNB of the paper's testbed (Table 2).
    pub fn gnb_table2() -> LayerTimings {
        LayerTimings {
            sdap: Dist::lognormal_us(4.65, 6.71),
            pdcp: Dist::lognormal_us(8.29, 8.99),
            rlc: Dist::lognormal_us(4.12, 8.37),
            mac: Dist::lognormal_us(55.21, 16.31),
            phy: Dist::lognormal_us(41.55, 10.83),
        }
    }

    /// The UE modem (SIM8200-class): substantially slower than the gNB,
    /// reflecting §7's observation that "the UE needs more time for
    /// processing than gNB" (embedded modem cores vs the i7) — one of the
    /// three reasons §7 gives for the uplink's larger latency in Fig 6.
    pub fn ue_modem() -> LayerTimings {
        LayerTimings {
            sdap: Dist::lognormal_us(20.0, 14.0),
            pdcp: Dist::lognormal_us(35.0, 20.0),
            rlc: Dist::lognormal_us(20.0, 16.0),
            mac: Dist::lognormal_us(180.0, 45.0),
            phy: Dist::lognormal_us(350.0, 80.0),
        }
    }

    /// Deterministic timings (analytical cross-checks): every layer takes
    /// exactly `d`.
    pub(crate) fn constant(d: Duration) -> LayerTimings {
        let c = Dist::Constant(d);
        LayerTimings { sdap: c.clone(), pdcp: c.clone(), rlc: c.clone(), mac: c.clone(), phy: c }
    }

    /// Zero-cost timings (protocol-latency-only studies).
    pub fn zero() -> LayerTimings {
        Self::constant(Duration::ZERO)
    }

    /// Sum of one traversal of SDAP+PDCP+RLC (the "upper layer" walk of the
    /// paper's Fig 3, sampled).
    pub fn sample_upper(&self, rng: &mut SimRng) -> Duration {
        self.sdap.sample(rng) + self.pdcp.sample(rng) + self.rlc.sample(rng)
    }

    /// Mean of one full-stack traversal (all five layers).
    pub fn mean_total(&self) -> Duration {
        self.sdap.mean() + self.pdcp.mean() + self.rlc.mean() + self.mac.mean() + self.phy.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::StreamingStats;

    #[test]
    fn table2_means_match() {
        let t = LayerTimings::gnb_table2();
        assert_eq!(t.sdap.mean(), Duration::from_micros_f64(4.65));
        assert_eq!(t.pdcp.mean(), Duration::from_micros_f64(8.29));
        assert_eq!(t.rlc.mean(), Duration::from_micros_f64(4.12));
        assert_eq!(t.mac.mean(), Duration::from_micros_f64(55.21));
        assert_eq!(t.phy.mean(), Duration::from_micros_f64(41.55));
    }

    #[test]
    fn sampled_std_matches_table2() {
        let t = LayerTimings::gnb_table2();
        let mut rng = SimRng::from_seed(0);
        let mut st = StreamingStats::new();
        for _ in 0..200_000 {
            st.push(t.pdcp.sample(&mut rng).as_micros_f64());
        }
        assert!((st.mean() - 8.29).abs() < 0.2, "mean {}", st.mean());
        assert!((st.std() - 8.99).abs() < 0.8, "std {}", st.std());
    }

    #[test]
    fn total_processing_is_well_under_a_slot() {
        // §7's conclusion: "the results showing low processing time ...
        // requirements can be achieved" — the whole stack costs ~114 µs
        // on average, well under even a 0.25 ms slot.
        let t = LayerTimings::gnb_table2();
        assert!(t.mean_total() < Duration::from_micros(250));
        assert!(t.mean_total() > Duration::from_micros(80));
    }

    #[test]
    fn ue_slower_than_gnb() {
        assert!(LayerTimings::ue_modem().mean_total() > LayerTimings::gnb_table2().mean_total());
    }

    #[test]
    fn constant_and_zero() {
        let mut rng = SimRng::from_seed(1);
        let c = LayerTimings::constant(Duration::from_micros(10));
        assert_eq!(c.sample_upper(&mut rng), Duration::from_micros(30));
        assert_eq!(LayerTimings::zero().mean_total(), Duration::ZERO);
    }
}
