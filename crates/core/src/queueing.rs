//! Closed-form M/D/1 queueing bound — the analytical cross-check for the
//! open-loop overload sweep.
//!
//! The downlink of `stack::overload` is, to first order, a single
//! deterministic server: every DL slot carries a fixed number of packets,
//! so the per-packet service time is effectively constant and Poisson
//! arrivals see an M/D/1 queue. Pollaczek–Khinchine gives its mean
//! queueing wait exactly:
//!
//! ```text
//! Wq = ρ · S / (2 · (1 − ρ))        ρ = λ · S < 1
//! ```
//!
//! The simulated stack is *not* a literal M/D/1 server — service happens
//! in slot-sized batches gated by the TDD pattern, so a packet also waits
//! for its slot boundary even at ρ → 0. The [`Md1Model::wait_band`]
//! tolerance band therefore pads the P-K mean with a pattern-period
//! allowance and a factor-of-two envelope; a sub-saturation sweep point
//! whose measured mean wait escapes that band indicates a real regression
//! (a stalled queue, a lost slot), not model noise.

use sim::Duration;

/// An M/D/1 queue: Poisson arrivals at `lambda_pps`, deterministic service
/// at `mu_pps` packets per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Md1Model {
    /// Arrival rate λ (packets per second).
    pub lambda_pps: f64,
    /// Service rate μ (packets per second).
    pub mu_pps: f64,
}

impl Md1Model {
    /// Creates the model. `mu_pps` must be positive.
    pub fn new(lambda_pps: f64, mu_pps: f64) -> Md1Model {
        assert!(mu_pps > 0.0, "service rate must be positive");
        assert!(lambda_pps >= 0.0, "arrival rate cannot be negative");
        Md1Model { lambda_pps, mu_pps }
    }

    /// Utilisation ρ = λ/μ.
    pub(crate) fn rho(&self) -> f64 {
        self.lambda_pps / self.mu_pps
    }

    /// Pollaczek–Khinchine mean queueing wait (time from arrival to start
    /// of service). `None` at or past saturation, where no stationary
    /// distribution exists.
    pub fn mean_wait(&self) -> Option<Duration> {
        let rho = self.rho();
        if rho >= 1.0 {
            return None;
        }
        let service_s = 1.0 / self.mu_pps;
        let wq_s = rho * service_s / (2.0 * (1.0 - rho));
        Some(Duration::from_micros_f64(wq_s * 1e6))
    }

    /// The acceptance band for a measured sub-saturation mean wait:
    /// `[0, 2·Wq + allowance]`, where `allowance` absorbs the slot/TDD
    /// quantisation the ideal M/D/1 server does not see (pass the duplex
    /// pattern period). `None` at or past saturation.
    pub fn wait_band(&self, allowance: Duration) -> Option<(Duration, Duration)> {
        let wq = self.mean_wait()?;
        Some((Duration::ZERO, wq * 2 + allowance))
    }

    /// `true` when `measured` falls inside [`wait_band`](Self::wait_band).
    /// Saturated models accept anything: the bound only constrains the
    /// stationary regime.
    pub fn wait_in_band(&self, measured: Duration, allowance: Duration) -> bool {
        match self.wait_band(allowance) {
            Some((lo, hi)) => measured >= lo && measured <= hi,
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pk_formula_known_values() {
        // ρ = 0.5, S = 1 ms → Wq = 0.5·1ms / (2·0.5) = 0.5 ms.
        let m = Md1Model::new(500.0, 1000.0);
        assert_eq!(m.mean_wait().unwrap(), Duration::from_micros(500));
        // ρ → 0 → Wq → 0.
        let light = Md1Model::new(1.0, 1000.0);
        assert!(light.mean_wait().unwrap() < Duration::from_micros(1));
    }

    #[test]
    fn saturation_has_no_stationary_wait() {
        assert_eq!(Md1Model::new(1000.0, 1000.0).mean_wait(), None);
        assert_eq!(Md1Model::new(1500.0, 1000.0).mean_wait(), None);
        assert!(Md1Model::new(1500.0, 1000.0).wait_in_band(Duration::from_secs(10), Duration::ZERO));
    }

    #[test]
    fn wait_grows_with_rho() {
        let mu = 1000.0;
        let mut last = Duration::ZERO;
        for lambda in [100.0, 300.0, 500.0, 700.0, 900.0, 990.0] {
            let wq = Md1Model::new(lambda, mu).mean_wait().unwrap();
            assert!(wq > last, "Wq must grow with ρ");
            last = wq;
        }
    }

    #[test]
    fn band_admits_slot_quantisation() {
        let m = Md1Model::new(100.0, 1000.0);
        let allowance = Duration::from_millis(2);
        // Wq ≈ 56 µs, but a DDDU packet can wait most of a pattern period.
        assert!(m.wait_in_band(Duration::from_micros(1900), allowance));
        assert!(!m.wait_in_band(Duration::from_millis(10), allowance));
    }
}
