//! The §6 analysis: deadline misses read off an observed latency
//! distribution, and predicted in closed form under chaos injection. The
//! margin-vs-reliability sweep runs a radio head, in `radio::reliability`.

use sim::{Duration, LatencyRecorder};

/// Fraction of samples exceeding `deadline` — the deadline-miss probability
/// of an observed latency distribution.
pub fn deadline_miss_probability(rec: &mut LatencyRecorder, deadline: Duration) -> f64 {
    1.0 - rec.fraction_within(deadline)
}

/// A first-order analytical model of the deadline-miss probability under
/// chaos injection, used to cross-check the `repro chaos` sweep: a ping
/// survives only if it dodges the baseline latency tail, the burst-loss
/// process (which must defeat every HARQ transmission to cost a recovery
/// round), and the protocol-level faults (SR loss, grant withholding,
/// storms, spikes) that push it past its deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosMissModel {
    /// Miss probability of the fault-free configuration (its latency tail).
    pub base_miss: f64,
    /// Per-transmission burst-loss probability (Gilbert–Elliott mean).
    pub burst_loss: f64,
    /// HARQ transmissions available per transport block.
    pub harq_budget: u32,
    /// Probability a protocol fault alone pushes the ping past its
    /// deadline.
    pub protocol_miss: f64,
}

impl ChaosMissModel {
    /// Predicted deadline-miss probability: the complement of surviving
    /// every independent hazard. Treats one full HARQ-budget wipe-out as a
    /// miss (the RLC recovery round trip exceeds any URLLC deadline).
    pub fn miss_probability(&self) -> f64 {
        let burst_kill = self.burst_loss.clamp(0.0, 1.0).powi(self.harq_budget.max(1) as i32);
        let survive = (1.0 - self.base_miss.clamp(0.0, 1.0))
            * (1.0 - burst_kill)
            * (1.0 - self.protocol_miss.clamp(0.0, 1.0));
        1.0 - survive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_probability_from_recorder() {
        let mut rec = LatencyRecorder::new();
        for i in 1..=100u64 {
            rec.record(Duration::from_micros(i * 10));
        }
        let p = deadline_miss_probability(&mut rec, Duration::from_micros(500));
        assert!((p - 0.5).abs() < 1e-9);
        assert_eq!(deadline_miss_probability(&mut rec, Duration::from_millis(10)), 0.0);
    }

    #[test]
    fn chaos_model_is_monotone_and_bounded() {
        let at = |burst: f64, proto: f64| {
            ChaosMissModel {
                base_miss: 0.01,
                burst_loss: burst,
                harq_budget: 4,
                protocol_miss: proto,
            }
            .miss_probability()
        };
        // No faults: the model collapses to the baseline tail.
        assert!((at(0.0, 0.0) - 0.01).abs() < 1e-12);
        // Monotone in each hazard.
        let mut prev = 0.0;
        for i in 0..=10 {
            let p = at(i as f64 / 10.0, 0.0);
            assert!(p >= prev - 1e-12, "burst step {i}");
            assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
        assert!(at(0.3, 0.2) > at(0.3, 0.1));
        // Certain loss with any budget is a certain miss.
        assert!((at(1.0, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chaos_model_harq_budget_suppresses_bursts() {
        let with_budget = |b: u32| {
            ChaosMissModel { base_miss: 0.0, burst_loss: 0.5, harq_budget: b, protocol_miss: 0.0 }
                .miss_probability()
        };
        assert!((with_budget(1) - 0.5).abs() < 1e-12);
        assert!((with_budget(4) - 0.0625).abs() < 1e-12);
        assert!(with_budget(8) < with_budget(4));
    }
}
