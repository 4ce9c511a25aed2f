//! The §6 margin-vs-reliability trade. If the time to prepare and submit
//! samples fluctuates (OS scheduling, Fig 5's spikes), a scheduler margin
//! that usually suffices occasionally does not: the slot is corrupted and
//! the packet lost. [`margin_sweep`] quantifies the trade on a
//! [`RadioHead`]: larger margins raise reliability (fewer underruns) but
//! add their full length to every packet's latency.

use sim::{Duration, SimRng};

use crate::{RadioHead, RadioHeadConfig};

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

/// The smallest margin in `points` achieving `target` reliability, if any.
pub fn min_margin_for(points: &[ReliabilityPoint], target: f64) -> Option<Duration> {
    points.iter().filter(|p| p.reliability >= target).map(|p| p.margin).min()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        rt_cfg.jitter = crate::OsJitterConfig::real_time_os();
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
    fn min_margin_none_when_unreachable() {
        let pts = vec![ReliabilityPoint {
            margin: Duration::from_micros(10),
            reliability: 0.5,
            mean_slack: Duration::ZERO,
        }];
        assert_eq!(min_margin_for(&pts, 0.999), None);
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
