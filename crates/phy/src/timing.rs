//! PHY processing-time model.
//!
//! In a software gNB the PHY is the FFT/channel-estimation/(de)coding work
//! per slot. The paper's Table 2 measures it at mean 41.55 µs, σ 10.83 µs
//! on the testbed's Intel i7. The model here is a calibrated base
//! distribution plus an optional per-byte term (bigger transport blocks
//! take longer to (de)code — the paper's §5 note that FR2's "large signal
//! bandwidth amplif\[ies\] the processing-based latency").

use sim::{Dist, Duration, SimRng};

/// Processing-time model for one PHY direction (encode or decode).
#[derive(Debug, Clone, PartialEq)]
pub struct PhyTimingModel {
    /// Fixed per-slot work (FFTs, channel estimation, control decoding).
    pub base: Dist,
    /// Additional cost per payload byte (coding/rate matching).
    pub per_byte: Duration,
}

impl PhyTimingModel {
    /// gNB PHY calibrated to Table 2 of the paper (mean 41.55 µs,
    /// σ 10.83 µs), with a small per-byte term chosen so that a typical
    /// ping-sized payload stays within the measured distribution.
    pub fn gnb_table2() -> PhyTimingModel {
        PhyTimingModel { base: Dist::lognormal_us(41.55, 10.83), per_byte: Duration::from_nanos(2) }
    }

    /// UE modem PHY: slower than the gNB (paper §7: "the UE needs more time
    /// for processing than gNB"). Calibrated at roughly 3× the gNB cost,
    /// matching the UL-vs-DL asymmetry of Fig 6.
    pub fn ue_modem() -> PhyTimingModel {
        PhyTimingModel { base: Dist::lognormal_us(120.0, 30.0), per_byte: Duration::from_nanos(4) }
    }

    /// A deterministic model (for analytical cross-checks and tests).
    pub fn constant(d: Duration) -> PhyTimingModel {
        PhyTimingModel { base: Dist::Constant(d), per_byte: Duration::ZERO }
    }

    /// Samples the processing time for a payload of `bytes` bytes.
    pub fn sample(&self, bytes: usize, rng: &mut SimRng) -> Duration {
        self.base.sample(rng) + self.per_byte * bytes as u64
    }

    /// Mean processing time for a payload of `bytes` bytes.
    pub fn mean(&self, bytes: usize) -> Duration {
        self.base.mean() + self.per_byte * bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::StreamingStats;

    #[test]
    fn constant_model_is_deterministic() {
        let m = PhyTimingModel::constant(Duration::from_micros(40));
        let mut rng = SimRng::from_seed(0);
        assert_eq!(m.sample(0, &mut rng), Duration::from_micros(40));
        assert_eq!(m.sample(100, &mut rng), Duration::from_micros(40));
        assert_eq!(m.mean(5), Duration::from_micros(40));
    }

    #[test]
    fn per_byte_term_scales() {
        let m = PhyTimingModel {
            base: Dist::Constant(Duration::from_micros(10)),
            per_byte: Duration::from_nanos(100),
        };
        let mut rng = SimRng::from_seed(1);
        assert_eq!(m.sample(1000, &mut rng), Duration::from_micros(110));
    }

    #[test]
    fn gnb_model_matches_table2() {
        let m = PhyTimingModel::gnb_table2();
        let mut rng = SimRng::from_seed(2);
        let mut st = StreamingStats::new();
        for _ in 0..100_000 {
            st.push(m.sample(64, &mut rng).as_micros_f64());
        }
        // 64-byte payload adds 0.128 µs — still within tolerance of the
        // Table 2 targets.
        assert!((st.mean() - 41.55).abs() < 1.5, "mean {}", st.mean());
        assert!((st.std() - 10.83).abs() < 1.5, "std {}", st.std());
    }

    #[test]
    fn ue_is_slower_than_gnb() {
        assert!(PhyTimingModel::ue_modem().mean(0) > PhyTimingModel::gnb_table2().mean(0));
    }
}
