//! The §6 analysis: non-deterministic latency as a *reliability* problem.
//!
//! URLLC's 99.999 % is not only about channel loss: if the time to prepare
//! and submit samples to the radio fluctuates (OS scheduling, Fig 5's
//! spikes), a scheduler margin that is usually sufficient occasionally is
//! not — the slot is corrupted and the packet lost. "These scheduling
//! delays, if not accounted for with sufficient margin, can cause packet
//! loss and reliability issues."
//!
//! [`margin_sweep`] quantifies the §6 trade: larger margins raise
//! reliability (fewer radio underruns) but add their full length to every
//! packet's latency.

use radio::{RadioHead, RadioHeadConfig};
use sim::{Duration, LatencyRecorder, SimRng};

/// Fraction of samples exceeding `deadline` — the deadline-miss probability
/// of an observed latency distribution.
pub fn deadline_miss_probability(rec: &mut LatencyRecorder, deadline: Duration) -> f64 {
    1.0 - rec.fraction_within(deadline)
}

/// One point of the margin-vs-reliability trade-off curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityPoint {
    /// Scheduler margin: time budgeted between the scheduling decision and
    /// the air time for PHY preparation plus radio submission.
    pub margin: Duration,
    /// Fraction of transmissions whose samples made the air time.
    pub reliability: f64,
    /// Mean unused margin (time the radio sat ready early): the latency
    /// price paid for the reliability.
    pub mean_slack: Duration,
}

/// Sweeps scheduler margins against a radio head's stochastic submission
/// time (Monte Carlo, deterministic under `seed`).
///
/// `prep` is the deterministic PHY/MAC preparation time preceding the
/// submission; `samples` the per-slot sample count. Margins are evaluated
/// in parallel; each point seeds its own head and RNG stream, so the curve
/// is bit-identical regardless of worker count.
pub fn margin_sweep(
    head_config: &RadioHeadConfig,
    prep: Duration,
    samples: u64,
    margins: &[Duration],
    trials: u32,
    seed: u64,
) -> Vec<ReliabilityPoint> {
    sim::parallel::run_shards(margins.len(), |i| {
        let margin = margins[i];
        let mut head = RadioHead::new(head_config.clone());
        let mut rng = SimRng::from_seed(seed).stream("margin-sweep");
        let mut on_time = 0u64;
        let mut slack_sum = Duration::ZERO;
        for _ in 0..trials {
            let cost = prep + head.tx_radio_latency(samples, &mut rng);
            if cost <= margin {
                on_time += 1;
                slack_sum += margin - cost;
            }
        }
        ReliabilityPoint {
            margin,
            reliability: on_time as f64 / f64::from(trials),
            mean_slack: if on_time == 0 { Duration::ZERO } else { slack_sum / on_time },
        }
    })
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

/// The smallest margin in `points` achieving `target` reliability, if any.
pub fn min_margin_for(points: &[ReliabilityPoint], target: f64) -> Option<Duration> {
    points.iter().filter(|p| p.reliability >= target).map(|p| p.margin).min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio::RadioHeadConfig;

    fn margins_us(list: &[u64]) -> Vec<Duration> {
        list.iter().map(|&u| Duration::from_micros(u)).collect()
    }

    #[test]
    fn reliability_is_monotone_in_margin() {
        let pts = margin_sweep(
            &RadioHeadConfig::usrp_b210(true),
            Duration::from_micros(100),
            11_520,
            &margins_us(&[400, 600, 800, 1_000, 1_500]),
            5_000,
            42,
        );
        for w in pts.windows(2) {
            assert!(w[1].reliability >= w[0].reliability, "{w:?}");
        }
        // Too small a margin: everything misses. Generous: everything fits.
        assert_eq!(pts[0].reliability, 0.0);
        assert!(pts.last().unwrap().reliability > 0.999);
    }

    #[test]
    fn b210_needs_roughly_a_slot_of_margin() {
        // §7: "the transmission must always be delayed for one slot"
        // (0.5 ms) for the ~500 µs USB radio — at five nines the margin
        // exceeds one 0.5 ms slot (hence the one-slot delay plus headroom).
        let pts = margin_sweep(
            &RadioHeadConfig::usrp_b210(true),
            Duration::from_micros(100),
            11_520,
            &margins_us(&[500, 600, 700, 800, 900, 1_000]),
            20_000,
            1,
        );
        let needed = min_margin_for(&pts, 0.999).expect("some margin suffices");
        assert!(
            needed >= Duration::from_micros(600) && needed <= Duration::from_micros(1_000),
            "needed {needed}"
        );
    }

    #[test]
    fn rt_pcie_rig_needs_far_less() {
        let pts = margin_sweep(
            &RadioHeadConfig::pcie_low_latency(),
            Duration::from_micros(50),
            5_760,
            &margins_us(&[60, 80, 100, 120, 150, 200]),
            20_000,
            2,
        );
        let needed = min_margin_for(&pts, 0.999).expect("some margin suffices");
        assert!(needed <= Duration::from_micros(200), "needed {needed}");
    }

    #[test]
    fn an_rt_kernel_needs_no_more_margin_than_a_gp_one_on_the_same_bus() {
        // §6: an RT kernel needs a smaller five-nines margin than a GP
        // kernel on the same B210.
        let margins: Vec<Duration> = (1..=30).map(|i| Duration::from_micros(i * 50)).collect();
        let sweep = |cfg: &RadioHeadConfig| {
            margin_sweep(cfg, Duration::from_micros(100), 11_520, &margins, 10_000, 5)
        };
        let gp_cfg = RadioHeadConfig::usrp_b210(true);
        let mut rt_cfg = gp_cfg.clone();
        rt_cfg.jitter = radio::OsJitterConfig::real_time_os();
        let gp_need = min_margin_for(&sweep(&gp_cfg), 0.9999).expect("gp margin");
        let rt_need = min_margin_for(&sweep(&rt_cfg), 0.9999).expect("rt margin");
        assert!(rt_need <= gp_need, "RT {rt_need} vs GP {gp_need}");
    }

    #[test]
    fn slack_grows_with_margin() {
        let pts = margin_sweep(
            &RadioHeadConfig::pcie_low_latency(),
            Duration::ZERO,
            5_760,
            &margins_us(&[150, 300, 600]),
            2_000,
            3,
        );
        assert!(pts[2].mean_slack > pts[1].mean_slack);
        assert!(pts[1].mean_slack > pts[0].mean_slack);
    }

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
    fn min_margin_none_when_unreachable() {
        let pts = vec![ReliabilityPoint {
            margin: Duration::from_micros(10),
            reliability: 0.5,
            mean_slack: Duration::ZERO,
        }];
        assert_eq!(min_margin_for(&pts, 0.999), None);
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

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            margin_sweep(
                &RadioHeadConfig::usrp_b210(false),
                Duration::ZERO,
                8_000,
                &margins_us(&[500, 700]),
                1_000,
                9,
            )
        };
        assert_eq!(run(), run());
    }
}
