//! OS-scheduling jitter: the spikes of Fig 5 and the non-determinism §6
//! blames for reliability loss.
//!
//! A software radio's sample-submission thread competes with the rest of
//! the machine for the CPU. Most submissions see only scheduler noise; an
//! occasional one lands while the thread is preempted and pays tens of
//! microseconds extra. We model this as a two-state Markov-modulated
//! process: a *calm* state adding small log-normal noise, and a *preempted*
//! state adding a large spike, with geometric dwell in each state (bursts
//! of consecutive late submissions are what real traces show — one preempted
//! quantum delays several adjacent transfers).

use sim::{Dist, Duration, SimRng};

/// Configuration of the jitter process.
#[derive(Debug, Clone, PartialEq)]
pub struct OsJitterConfig {
    /// Noise added in the calm state.
    pub calm_noise: Dist,
    /// Extra delay added in the preempted state.
    pub spike: Dist,
    /// Probability of entering the preempted state on a given submission.
    pub spike_enter: f64,
    /// Probability of *staying* preempted on the next submission.
    pub spike_stay: f64,
}

impl OsJitterConfig {
    /// A general-purpose (non-real-time) kernel, calibrated so spikes land
    /// in the +20…+90 µs band of Fig 5 and occur on a few percent of
    /// submissions.
    pub(crate) fn general_purpose_os() -> OsJitterConfig {
        OsJitterConfig {
            calm_noise: Dist::lognormal_us(2.0, 1.5),
            spike: Dist::lognormal_us(45.0, 20.0),
            spike_enter: 0.03,
            spike_stay: 0.30,
        }
    }

    /// A PREEMPT_RT-style real-time kernel: same calm noise, spikes an
    /// order of magnitude rarer and smaller (the §6 mitigation:
    /// "using... real-time kernel for the OS in software-based 5G").
    pub fn real_time_os() -> OsJitterConfig {
        OsJitterConfig {
            calm_noise: Dist::lognormal_us(2.0, 1.0),
            spike: Dist::lognormal_us(8.0, 3.0),
            spike_enter: 0.003,
            spike_stay: 0.10,
        }
    }

    /// No jitter at all (dedicated hardware / analytical baselines).
    pub fn none() -> OsJitterConfig {
        OsJitterConfig {
            calm_noise: Dist::zero(),
            spike: Dist::zero(),
            spike_enter: 0.0,
            spike_stay: 0.0,
        }
    }
}

/// The stateful jitter process.
#[derive(Debug, Clone)]
pub struct JitterProcess {
    config: OsJitterConfig,
    preempted: bool,
    spikes_seen: u64,
    draws: u64,
}

impl JitterProcess {
    /// Creates the process in the calm state.
    pub(crate) fn new(config: OsJitterConfig) -> JitterProcess {
        JitterProcess { config, preempted: false, spikes_seen: 0, draws: 0 }
    }

    /// Draws the jitter for one submission and advances the Markov state.
    pub(crate) fn sample(&mut self, rng: &mut SimRng) -> Duration {
        self.draws += 1;
        let stay_p = if self.preempted { self.config.spike_stay } else { self.config.spike_enter };
        self.preempted = rng.chance(stay_p);
        let noise = self.config.calm_noise.sample(rng);
        if self.preempted {
            self.spikes_seen += 1;
            noise + self.config.spike.sample(rng)
        } else {
            noise
        }
    }

    /// Whether the last draw was in the preempted state.
    pub fn is_preempted(&self) -> bool {
        self.preempted
    }

    /// Fraction of draws so far that were spikes.
    pub fn spike_fraction(&self) -> f64 {
        if self.draws == 0 {
            0.0
        } else {
            self.spikes_seen as f64 / self.draws as f64
        }
    }

    /// Stationary spike probability implied by the configuration.
    pub fn stationary_spike_probability(&self) -> f64 {
        let e = self.config.spike_enter;
        let s = self.config.spike_stay;
        if e == 0.0 {
            return 0.0;
        }
        // Two-state chain: P(spike) = e / (e + 1 - s).
        e / (e + 1.0 - s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_config_is_silent() {
        let mut j = JitterProcess::new(OsJitterConfig::none());
        let mut rng = SimRng::from_seed(0);
        for _ in 0..100 {
            assert_eq!(j.sample(&mut rng), Duration::ZERO);
        }
        assert_eq!(j.spike_fraction(), 0.0);
    }

    #[test]
    fn spike_fraction_matches_stationary_probability() {
        let mut j = JitterProcess::new(OsJitterConfig::general_purpose_os());
        let mut rng = SimRng::from_seed(1);
        for _ in 0..200_000 {
            j.sample(&mut rng);
        }
        let expected = j.stationary_spike_probability();
        assert!(
            (j.spike_fraction() - expected).abs() < 0.005,
            "observed {} vs stationary {expected}",
            j.spike_fraction()
        );
    }

    #[test]
    fn spikes_are_large_and_calm_is_small() {
        let cfg = OsJitterConfig::general_purpose_os();
        let mut j = JitterProcess::new(cfg);
        let mut rng = SimRng::from_seed(2);
        let mut calm_max = Duration::ZERO;
        let mut spike_min = Duration::MAX;
        for _ in 0..100_000 {
            let d = j.sample(&mut rng);
            if j.is_preempted() {
                spike_min = spike_min.min(d);
            } else {
                calm_max = calm_max.max(d);
            }
        }
        // Typical spike clearly exceeds typical calm noise. The calm
        // bound leaves headroom for the lognormal's extreme tail: at
        // 100k draws the observed max sits near the z ≈ 4.8 quantile
        // (~40 µs), which is still well under the 45 µs mean spike.
        assert!(spike_min > Duration::from_micros(5), "spike_min {spike_min}");
        assert!(calm_max < Duration::from_micros(50), "calm_max {calm_max}");
    }

    #[test]
    fn rt_kernel_has_fewer_smaller_spikes() {
        let mut gp = JitterProcess::new(OsJitterConfig::general_purpose_os());
        let mut rt = JitterProcess::new(OsJitterConfig::real_time_os());
        let mut rng_gp = SimRng::from_seed(3);
        let mut rng_rt = SimRng::from_seed(3);
        let mut sum_gp = Duration::ZERO;
        let mut sum_rt = Duration::ZERO;
        for _ in 0..50_000 {
            sum_gp += gp.sample(&mut rng_gp);
            sum_rt += rt.sample(&mut rng_rt);
        }
        // Both kernels share the ~2 µs calm noise; the RT kernel removes
        // most of the spike contribution on top of it.
        assert!(sum_rt * 10 < sum_gp * 6, "RT {sum_rt} vs GP {sum_gp}");
        assert!(rt.spike_fraction() < gp.spike_fraction() / 3.0);
    }

    #[test]
    fn bursts_occur() {
        // With spike_stay = 0.3, back-to-back spikes must appear.
        let mut j = JitterProcess::new(OsJitterConfig::general_purpose_os());
        let mut rng = SimRng::from_seed(4);
        let mut prev = false;
        let mut bursts = 0u32;
        for _ in 0..100_000 {
            j.sample(&mut rng);
            if j.is_preempted() && prev {
                bursts += 1;
            }
            prev = j.is_preempted();
        }
        assert!(bursts > 50, "bursts {bursts}");
    }

    #[test]
    fn deterministic_under_seed() {
        let mk = || {
            let mut j = JitterProcess::new(OsJitterConfig::general_purpose_os());
            let mut rng = SimRng::from_seed(42);
            (0..1000).map(|_| j.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }
}
