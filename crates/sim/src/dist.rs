//! Service-time and inter-arrival distributions.
//!
//! Software packet-processing latencies are non-negative and right-skewed
//! (a fast common path plus an OS-scheduling tail), which the paper's
//! Table 2 shows clearly: several layers have a standard deviation larger
//! than their mean. The log-normal family captures exactly this shape and
//! can be calibrated directly from a measured `(mean, std)` pair, so it is
//! the default model for every processing stage in the workspace.

use rand_distr::{Distribution, Exp, Gamma, LogNormal};

use crate::rng::SimRng;
use crate::time::Duration;

/// A distribution over non-negative time spans.
#[derive(Debug, Clone, PartialEq)]
pub enum Dist {
    /// Always exactly this value (deterministic hardware pipelines).
    Constant(Duration),
    /// Uniform on `[lo, hi]` (e.g. packet arrival offset within a period).
    Uniform { lo: Duration, hi: Duration },
    /// Log-normal with the given *linear-scale* mean and standard
    /// deviation (calibrated measurements, e.g. the paper's Table 2).
    LogNormalMeanStd { mean: Duration, std: Duration },
    /// Gamma with the given linear-scale mean and standard deviation —
    /// a lighter-tailed alternative used in ablations of the jitter model.
    GammaMeanStd { mean: Duration, std: Duration },
    /// Exponential with the given mean (Poisson arrivals).
    Exponential { mean: Duration },
    /// A base distribution plus a constant floor, for stages with a hard
    /// minimum cost (bus setup time, DMA descriptor programming, ...).
    Shifted { floor: Duration, body: Box<Dist> },
}

impl Dist {
    /// A distribution that is always zero.
    pub const fn zero() -> Dist {
        Dist::Constant(Duration::ZERO)
    }

    /// Log-normal calibrated so that the *sampled values* (not the logs)
    /// have approximately the given mean and standard deviation.
    pub fn lognormal_us(mean_us: f64, std_us: f64) -> Dist {
        Dist::LogNormalMeanStd {
            mean: Duration::from_micros_f64(mean_us),
            std: Duration::from_micros_f64(std_us),
        }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut SimRng) -> Duration {
        match self {
            Dist::Constant(d) => *d,
            Dist::Uniform { lo, hi } => {
                assert!(hi >= lo, "Uniform: hi < lo");
                let span = hi.as_nanos() - lo.as_nanos();
                if span == 0 {
                    *lo
                } else {
                    // Uniform over [lo, hi] inclusive at ns resolution.
                    let off = rng.uniform01() * (span as f64 + 1.0);
                    Duration::from_nanos(lo.as_nanos() + (off as u64).min(span))
                }
            }
            Dist::LogNormalMeanStd { mean, std } => {
                let (mu, sigma) = lognormal_params(mean.as_micros_f64(), std.as_micros_f64());
                if sigma == 0.0 {
                    return *mean;
                }
                let ln = LogNormal::new(mu, sigma).expect("lognormal params");
                Duration::from_micros_f64(ln.sample(rng))
            }
            Dist::GammaMeanStd { mean, std } => {
                let m = mean.as_micros_f64();
                let s = std.as_micros_f64();
                if m <= 0.0 {
                    return Duration::ZERO;
                }
                if s <= 0.0 {
                    return *mean;
                }
                let shape = (m / s).powi(2);
                let scale = s * s / m;
                let g = Gamma::new(shape, scale).expect("gamma params");
                Duration::from_micros_f64(g.sample(rng))
            }
            Dist::Exponential { mean } => {
                let m = mean.as_micros_f64();
                if m <= 0.0 {
                    return Duration::ZERO;
                }
                let e = Exp::new(1.0 / m).expect("exp param");
                Duration::from_micros_f64(e.sample(rng))
            }
            Dist::Shifted { floor, body } => *floor + body.sample(rng),
        }
    }

    /// The distribution's theoretical mean (exact for every variant).
    pub fn mean(&self) -> Duration {
        match self {
            Dist::Constant(d) => *d,
            Dist::Uniform { lo, hi } => Duration::from_nanos((lo.as_nanos() + hi.as_nanos()) / 2),
            Dist::LogNormalMeanStd { mean, .. } => *mean,
            Dist::GammaMeanStd { mean, .. } => *mean,
            Dist::Exponential { mean } => *mean,
            Dist::Shifted { floor, body } => *floor + body.mean(),
        }
    }
}

/// Converts a linear-scale `(mean, std)` to log-normal `(mu, sigma)`.
///
/// If `X ~ LogNormal(mu, sigma)` then `E[X] = exp(mu + sigma²/2)` and
/// `Var[X] = (exp(sigma²) − 1)·exp(2mu + sigma²)`; inverting gives the
/// formulas below.
fn lognormal_params(mean: f64, std: f64) -> (f64, f64) {
    if mean <= 0.0 {
        return (f64::NEG_INFINITY, 0.0);
    }
    if std <= 0.0 {
        return (mean.ln(), 0.0);
    }
    let cv2 = (std / mean).powi(2);
    let sigma2 = (1.0 + cv2).ln();
    let mu = mean.ln() - sigma2 / 2.0;
    (mu, sigma2.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::StreamingStats;

    fn sample_stats(d: &Dist, n: usize, seed: u64) -> StreamingStats {
        let mut rng = SimRng::from_seed(seed);
        let mut st = StreamingStats::new();
        for _ in 0..n {
            st.push(d.sample(&mut rng).as_micros_f64());
        }
        st
    }

    #[test]
    fn constant_is_constant() {
        let d = Dist::Constant(Duration::from_micros(42));
        let mut rng = SimRng::from_seed(0);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), Duration::from_micros(42));
        }
        assert_eq!(d.mean(), Duration::from_micros(42));
    }

    #[test]
    fn uniform_within_bounds_and_mean() {
        let d = Dist::Uniform { lo: Duration::from_micros(100), hi: Duration::from_micros(300) };
        let mut rng = SimRng::from_seed(1);
        for _ in 0..10_000 {
            let s = d.sample(&mut rng);
            assert!(s >= Duration::from_micros(100) && s <= Duration::from_micros(300));
        }
        let st = sample_stats(&d, 20_000, 2);
        assert!((st.mean() - 200.0).abs() < 2.0, "mean {}", st.mean());
    }

    #[test]
    fn uniform_degenerate() {
        let d = Dist::Uniform { lo: Duration::from_micros(5), hi: Duration::from_micros(5) };
        let mut rng = SimRng::from_seed(1);
        assert_eq!(d.sample(&mut rng), Duration::from_micros(5));
    }

    #[test]
    fn lognormal_matches_calibration() {
        // Table 2's PDCP row: mean 8.29 µs, std 8.99 µs (std > mean — the
        // skewed case the family was chosen for).
        let d = Dist::lognormal_us(8.29, 8.99);
        let st = sample_stats(&d, 200_000, 3);
        assert!((st.mean() - 8.29).abs() < 0.25, "mean {}", st.mean());
        assert!((st.std() - 8.99).abs() < 0.9, "std {}", st.std());
    }

    #[test]
    fn lognormal_zero_std_is_constant() {
        let d = Dist::lognormal_us(10.0, 0.0);
        let mut rng = SimRng::from_seed(4);
        assert_eq!(d.sample(&mut rng), Duration::from_micros(10));
    }

    #[test]
    fn gamma_matches_calibration() {
        let d =
            Dist::GammaMeanStd { mean: Duration::from_micros(50), std: Duration::from_micros(20) };
        let st = sample_stats(&d, 100_000, 5);
        assert!((st.mean() - 50.0).abs() < 0.7, "mean {}", st.mean());
        assert!((st.std() - 20.0).abs() < 0.7, "std {}", st.std());
    }

    #[test]
    fn exponential_mean() {
        let d = Dist::Exponential { mean: Duration::from_micros(250) };
        let st = sample_stats(&d, 100_000, 6);
        assert!((st.mean() - 250.0).abs() < 5.0, "mean {}", st.mean());
    }

    #[test]
    fn shifted_adds_floor() {
        let d = Dist::Shifted {
            floor: Duration::from_micros(100),
            body: Box::new(Dist::Exponential { mean: Duration::from_micros(10) }),
        };
        let mut rng = SimRng::from_seed(7);
        for _ in 0..1_000 {
            assert!(d.sample(&mut rng) >= Duration::from_micros(100));
        }
        assert_eq!(d.mean(), Duration::from_micros(110));
    }

    #[test]
    fn lognormal_params_roundtrip() {
        let (mu, sigma) = lognormal_params(100.0, 50.0);
        let mean = (mu + sigma * sigma / 2.0).exp();
        let var = ((sigma * sigma).exp() - 1.0) * (2.0 * mu + sigma * sigma).exp();
        assert!((mean - 100.0).abs() < 1e-9);
        assert!((var.sqrt() - 50.0).abs() < 1e-9);
    }
}
