//! Service-time and inter-arrival distributions.
//!
//! Software packet-processing latencies are non-negative and right-skewed
//! (a fast common path plus an OS-scheduling tail), which the paper's
//! Table 2 shows clearly: several layers have a standard deviation larger
//! than their mean. The log-normal family captures exactly this shape and
//! can be calibrated directly from a measured `(mean, std)` pair, so it is
//! the default model for every processing stage in the workspace.

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
    /// Exponential with the given mean (Poisson arrivals).
    Exponential { mean: Duration },
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
                Duration::from_micros_f64((mu + sigma * standard_normal(rng)).exp())
            }
            Dist::Exponential { mean } => {
                let m = mean.as_micros_f64();
                if m <= 0.0 {
                    return Duration::ZERO;
                }
                Duration::from_micros_f64(exponential(rng, 1.0 / m))
            }
        }
    }

    /// The distribution's theoretical mean (exact for every variant).
    pub fn mean(&self) -> Duration {
        match self {
            Dist::Constant(d) => *d,
            Dist::Uniform { lo, hi } => Duration::from_nanos((lo.as_nanos() + hi.as_nanos()) / 2),
            Dist::LogNormalMeanStd { mean, .. } => *mean,
            Dist::Exponential { mean } => *mean,
        }
    }
}

/// A standard normal draw by Box–Muller (the cosine output of the pair):
/// `u1` is `1 − uniform01`, in `(0, 1]`, so its logarithm is finite.
fn standard_normal(rng: &mut SimRng) -> f64 {
    let u1 = 1.0 - rng.uniform01();
    let u2 = rng.uniform01();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// An exponential draw with rate `lambda` by inversion, on `1 − uniform01`
/// in `(0, 1]`. It divides by the rate, as the committed artifacts' draws
/// did: multiplying by the mean can round the last bit differently.
fn exponential(rng: &mut SimRng, lambda: f64) -> f64 {
    -(1.0 - rng.uniform01()).ln() / lambda
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
    use crate::rng::tests::pin;
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
    fn normal_matches_moments() {
        let mut rng = SimRng::from_seed(2);
        let mut st = StreamingStats::new();
        for _ in 0..200_000 {
            st.push(3.0 + 2.0 * standard_normal(&mut rng));
        }
        assert!((st.mean() - 3.0).abs() < 0.02, "mean {}", st.mean());
        assert!((st.std() - 2.0).abs() < 0.02, "std {}", st.std());
    }

    #[test]
    fn exponential_mean() {
        let d = Dist::Exponential { mean: Duration::from_micros(250) };
        let st = sample_stats(&d, 100_000, 6);
        assert!((st.mean() - 250.0).abs() < 5.0, "mean {}", st.mean());
    }

    /// The samplers' float results before `Duration::from_micros_f64`
    /// rounds them to whole ns, pinned bit for bit (`f64::to_bits`) as
    /// `(first draw, FNV-1a fold of the first 64)`: `rng::tests::golden_draws`
    /// pins the rounded samples only, so a last-bit change to the
    /// arithmetic or to the host's `ln`/`cos`/`exp` passes it and fails
    /// here. The log-normal is Table 2's PDCP row, as there; the
    /// exponential's mean is 250 µs. Each value also rounds to the sample
    /// `Dist::sample` draws from the same generator.
    #[test]
    fn golden_float_bits() {
        let lognormal = Dist::lognormal_us(8.29, 8.99);
        let (mu, sigma) = lognormal_params(8.29, 8.99);
        let exp_mean = Dist::Exponential { mean: Duration::from_micros(250) };
        let lambda = 1.0 / 250.0;
        // Per seed: standard normal, exponential, log-normal.
        let expected = [
            (
                0,
                [
                    (0xc006_3542_27b3_dda6, 0x688e_7949_f271_a019),
                    (0x408f_4745_dc3a_4f6b, 0xdc4e_d730_9a49_2cf7),
                    (0x3fdf_1b5f_3dd2_51d1, 0x8238_ca0a_fe92_e175),
                ],
            ),
            (
                2024,
                [
                    (0xbfeb_c6b3_8f38_af5e, 0x0f10_5274_8c6c_39c3),
                    (0x4077_356b_4fe6_eefd, 0x3782_ef9e_9bb0_01fd),
                    (0x4004_e9c2_d8fb_5a4f, 0x80fc_fd23_a74b_8243),
                ],
            ),
        ];
        for (seed, want) in expected {
            let rng = SimRng::from_seed(seed);
            let got = [
                pin(&rng, |r| standard_normal(r).to_bits()),
                pin(&rng, |r| exponential(r, lambda).to_bits()),
                pin(&rng, |r| (mu + sigma * standard_normal(r)).exp().to_bits()),
            ];
            assert_eq!(got, want, "float bits at seed {seed}");
            let (mut a, mut b) = (rng.clone(), rng.clone());
            for _ in 0..64 {
                let us = exponential(&mut a, lambda);
                assert_eq!(Duration::from_micros_f64(us), exp_mean.sample(&mut b));
            }
            let (mut a, mut b) = (rng.clone(), rng);
            for _ in 0..64 {
                let us = (mu + sigma * standard_normal(&mut a)).exp();
                assert_eq!(Duration::from_micros_f64(us), lognormal.sample(&mut b));
            }
        }
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
