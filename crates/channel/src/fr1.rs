//! FR1 (sub-6 GHz) link model: SNR with shadowing → packet error rate.
//!
//! The PER curve is the standard logistic ("waterfall") approximation of a
//! coded link: below a threshold SNR the block error rate saturates at 1,
//! above it it falls off exponentially. This is the granularity at which
//! the paper treats channel reliability ("the unpredictable nature of the
//! wireless channel, which can lead to packet loss", §6) — individual
//! packet losses that the RLC/HARQ machinery must recover, paying latency.

use sim::faults::GeChain;
use sim::SimRng;
use telemetry::{metric, Telemetry};

/// Configuration of an FR1 link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fr1LinkConfig {
    /// Mean SNR at the receiver, dB.
    pub mean_snr_db: f64,
    /// Log-normal shadowing standard deviation, dB.
    pub shadowing_std_db: f64,
    /// SNR at which the PER is 50 % for the MCS in use, dB.
    pub waterfall_snr_db: f64,
    /// Steepness of the PER waterfall, dB per decade-ish (larger = sharper).
    pub waterfall_slope: f64,
    /// Error floor (residual PER at arbitrarily high SNR — implementation
    /// losses; keeps reliability numbers honest at the 1e-5 scale).
    pub error_floor: f64,
}

impl Fr1LinkConfig {
    /// A healthy private-5G indoor link: high SNR, mild shadowing, PER in
    /// the 1e-3…1e-4 range before retransmissions.
    pub fn indoor_good() -> Fr1LinkConfig {
        Fr1LinkConfig {
            mean_snr_db: 25.0,
            shadowing_std_db: 3.0,
            waterfall_snr_db: 5.0,
            waterfall_slope: 1.2,
            error_floor: 1e-5,
        }
    }

    /// A cell-edge link: loss is frequent enough that HARQ/RLC latency
    /// matters.
    pub fn cell_edge() -> Fr1LinkConfig {
        Fr1LinkConfig {
            mean_snr_db: 8.0,
            shadowing_std_db: 4.0,
            waterfall_snr_db: 5.0,
            waterfall_slope: 1.2,
            error_floor: 1e-5,
        }
    }

    /// An ideal lossless link (analytical baselines and protocol tests).
    pub fn lossless() -> Fr1LinkConfig {
        Fr1LinkConfig {
            mean_snr_db: 60.0,
            shadowing_std_db: 0.0,
            waterfall_snr_db: 5.0,
            waterfall_slope: 1.2,
            error_floor: 0.0,
        }
    }

    /// Packet error rate at a given instantaneous SNR.
    pub(crate) fn per_at_snr(&self, snr_db: f64) -> f64 {
        let x = (snr_db - self.waterfall_snr_db) * self.waterfall_slope;
        let logistic = 1.0 / (1.0 + x.exp());
        (logistic + self.error_floor).min(1.0)
    }
}

/// One packet's loss outcome, split by mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LossSample {
    /// The packet was lost (by either mechanism).
    pub lost: bool,
    /// The burst overlay (alone) caused the loss — `false` when the base
    /// SNR/PER draw already lost the packet.
    pub burst: bool,
}

/// A stateful FR1 link.
///
/// The base loss process is memoryless (per-packet SNR draw); an optional
/// Gilbert–Elliott *burst overlay* ([`Fr1Link::set_burst`]) adds the
/// correlated loss that interference and deep fades produce. The overlay
/// chain carries its own RNG stream, so enabling it never perturbs the
/// base draws — a link with the overlay disabled is byte-identical to one
/// that never had it.
#[derive(Debug, Clone)]
pub struct Fr1Link {
    config: Fr1LinkConfig,
    burst: Option<GeChain>,
    transmissions: u64,
    losses: u64,
    tel: Telemetry,
}

impl Fr1Link {
    /// Creates a link.
    pub fn new(config: Fr1LinkConfig) -> Fr1Link {
        Fr1Link { config, burst: None, transmissions: 0, losses: 0, tel: Telemetry::disabled() }
    }

    /// Attaches a telemetry handle (`channel/*` loss counters).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Installs a Gilbert–Elliott burst-loss overlay.
    pub fn set_burst(&mut self, chain: GeChain) {
        self.burst = Some(chain);
    }

    /// Builder form of [`Fr1Link::set_burst`].
    pub fn with_burst(mut self, chain: GeChain) -> Fr1Link {
        self.set_burst(chain);
        self
    }

    /// Draws the instantaneous SNR (mean + Gaussian shadowing in dB).
    pub(crate) fn sample_snr_db(&self, rng: &mut SimRng) -> f64 {
        if self.config.shadowing_std_db == 0.0 {
            return self.config.mean_snr_db;
        }
        // Box-Muller from two uniforms (keeps the dependency surface small).
        let u1 = rng.uniform01().max(1e-12);
        let u2 = rng.uniform01();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos();
        self.config.mean_snr_db + z * self.config.shadowing_std_db
    }

    /// Simulates one packet transmission; returns `true` when the packet is
    /// lost.
    pub fn packet_lost(&mut self, rng: &mut SimRng) -> bool {
        self.sample_loss(rng).lost
    }

    /// Simulates one packet transmission, reporting which mechanism lost
    /// it. The base SNR/PER draw always runs (it consumes `rng` exactly as
    /// [`Fr1Link::packet_lost`] always has); the overlay chain advances on
    /// its own stream afterwards.
    pub(crate) fn sample_loss(&mut self, rng: &mut SimRng) -> LossSample {
        self.transmissions += 1;
        let snr = self.sample_snr_db(rng);
        let base_lost = rng.chance(self.config.per_at_snr(snr));
        let burst_lost = match self.burst.as_mut() {
            Some(chain) => chain.step(),
            None => false,
        };
        let lost = base_lost || burst_lost;
        self.tel.add(metric::CHANNEL_PKT, 1);
        if lost {
            self.losses += 1;
            self.tel.add(metric::CHANNEL_PKT_LOST, 1);
        }
        LossSample { lost, burst: burst_lost && !base_lost }
    }

    /// Observed loss fraction so far.
    pub fn observed_loss_rate(&self) -> f64 {
        if self.transmissions == 0 {
            0.0
        } else {
            self.losses as f64 / self.transmissions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_curve_is_monotone_decreasing() {
        let c = Fr1LinkConfig::indoor_good();
        let mut prev = 1.1;
        for snr10 in -100..400 {
            let per = c.per_at_snr(snr10 as f64 / 10.0);
            assert!(per <= prev + 1e-12, "PER rose at {}", snr10 as f64 / 10.0);
            assert!((0.0..=1.0).contains(&per));
            prev = per;
        }
    }

    #[test]
    fn per_saturates_at_extremes() {
        let c = Fr1LinkConfig::indoor_good();
        assert!(c.per_at_snr(-30.0) > 0.999);
        assert!(c.per_at_snr(40.0) < 1e-4);
        // High-SNR PER bottoms out at the error floor.
        assert!(c.per_at_snr(60.0) >= c.error_floor);
    }

    #[test]
    fn waterfall_midpoint() {
        let c = Fr1LinkConfig::indoor_good();
        let per = c.per_at_snr(c.waterfall_snr_db);
        assert!((per - 0.5).abs() < 0.01, "PER at waterfall = {per}");
    }

    #[test]
    fn lossless_never_loses() {
        let mut link = Fr1Link::new(Fr1LinkConfig::lossless());
        let mut rng = SimRng::from_seed(0);
        for _ in 0..10_000 {
            assert!(!link.packet_lost(&mut rng));
        }
        assert_eq!(link.observed_loss_rate(), 0.0);
    }

    #[test]
    fn indoor_loss_rate_is_small_but_nonzero() {
        let mut link = Fr1Link::new(Fr1LinkConfig::indoor_good());
        let mut rng = SimRng::from_seed(1);
        for _ in 0..200_000 {
            link.packet_lost(&mut rng);
        }
        let rate = link.observed_loss_rate();
        assert!(rate > 0.0, "expected some loss");
        assert!(rate < 0.01, "indoor link too lossy: {rate}");
    }

    #[test]
    fn cell_edge_lossier_than_indoor() {
        let mut edge = Fr1Link::new(Fr1LinkConfig::cell_edge());
        let mut good = Fr1Link::new(Fr1LinkConfig::indoor_good());
        let mut rng_e = SimRng::from_seed(2);
        let mut rng_g = SimRng::from_seed(2);
        for _ in 0..100_000 {
            edge.packet_lost(&mut rng_e);
            good.packet_lost(&mut rng_g);
        }
        assert!(edge.observed_loss_rate() > 10.0 * good.observed_loss_rate());
    }

    #[test]
    fn burst_overlay_adds_correlated_loss_without_touching_base_draws() {
        use sim::faults::{GeChain, GilbertElliott};
        let params =
            GilbertElliott { p_enter_bad: 0.05, p_exit_bad: 0.3, loss_good: 0.0, loss_bad: 0.9 };
        let master = SimRng::from_seed(4);
        let mut plain = Fr1Link::new(Fr1LinkConfig::indoor_good());
        let mut bursty = Fr1Link::new(Fr1LinkConfig::indoor_good())
            .with_burst(GeChain::new(params, master.stream("burst")));
        let mut rng_p = SimRng::from_seed(4).stream("air");
        let mut rng_b = SimRng::from_seed(4).stream("air");
        let mut base_only = 0u32;
        let mut burst_only = 0u32;
        for _ in 0..50_000 {
            let p = plain.sample_loss(&mut rng_p);
            let b = bursty.sample_loss(&mut rng_b);
            // Overlay draws come from the chain's own stream: the base
            // outcome is identical packet-by-packet.
            assert_eq!(b.lost && !b.burst, p.lost, "base loss perturbed by overlay");
            base_only += u32::from(p.lost);
            burst_only += u32::from(b.burst);
        }
        assert!(
            burst_only > 10 * base_only.max(1),
            "overlay dominated: {burst_only} vs {base_only}"
        );
        let expected = params.mean_loss();
        let observed = burst_only as f64 / 50_000.0;
        assert!(
            (observed - expected).abs() < 0.02,
            "burst loss {observed:.3} vs stationary {expected:.3}"
        );
    }

    #[test]
    fn lossless_link_with_burst_loses_only_bursts() {
        use sim::faults::{GeChain, GilbertElliott};
        let params =
            GilbertElliott { p_enter_bad: 0.1, p_exit_bad: 0.4, loss_good: 0.0, loss_bad: 1.0 };
        let master = SimRng::from_seed(5);
        let mut link = Fr1Link::new(Fr1LinkConfig::lossless())
            .with_burst(GeChain::new(params, master.stream("burst")));
        let mut rng = SimRng::from_seed(5);
        let mut losses = 0u32;
        for _ in 0..10_000 {
            let s = link.sample_loss(&mut rng);
            assert_eq!(s.lost, s.burst, "lossless base cannot lose packets");
            losses += u32::from(s.lost);
        }
        assert!(losses > 500, "burst overlay should fire: {losses}");
        assert!(link.observed_loss_rate() > 0.0);
    }

    #[test]
    fn shadowing_spreads_snr() {
        let link = Fr1Link::new(Fr1LinkConfig::indoor_good());
        let mut rng = SimRng::from_seed(3);
        let mut st = sim::StreamingStats::new();
        for _ in 0..50_000 {
            st.push(link.sample_snr_db(&mut rng));
        }
        assert!((st.mean() - 25.0).abs() < 0.1);
        assert!((st.std() - 3.0).abs() < 0.1);
    }
}
