//! URLLC/eMBB coexistence — the research direction the paper's §1 notes
//! ("many research papers assume the availability of URLLC and focus on
//! the coexistence of it alongside other services, e.g. eMBB"), as an
//! experiment on this stack.
//!
//! Background eMBB traffic keeps the downlink slots busy. Two arms for the
//! URLLC packets that arrive on top, both expressed as ordinary
//! [`ran::sched`] scheduling policies on the slot frame's per-packet walk
//! (`crate::frame`; there is no bespoke coexistence fork):
//!
//! * **Queue** ([`PolicySpec::Fcfs`] over the capacity eMBB leaves) —
//!   URLLC competes for the residual capacity; as the eMBB load grows,
//!   URLLC packets spill into later and later slots.
//! * **Preempt** ([`PolicySpec::PreemptivePriority`] with the eMBB share
//!   as the standing downlink background) — URLLC punctures the eMBB
//!   allocation (the mini-slot preemption of the coexistence literature):
//!   its latency stays flat, and the cost appears as erased eMBB bytes,
//!   read back from [`Scheduler::punctured_bytes`].

use ran::sched::{AccessMode, PolicySpec, Scheduler, SchedulerConfig};
use sim::{Dist, Duration, Instant, LatencyRecorder, SimRng};

use crate::config::StackConfig;
use crate::frame;

/// One point of the coexistence sweep.
#[derive(Debug, Clone)]
pub struct CoexistencePoint {
    /// Fraction of each DL slot's capacity consumed by eMBB.
    pub embb_load: f64,
    /// The scheduling policy that served URLLC at this point.
    pub policy: PolicySpec,
    /// URLLC downlink latency (RLC enqueue → transmission end).
    pub latency: LatencyRecorder,
    /// eMBB bytes erased by preemption (0 under the queueing arm).
    pub embb_bytes_lost: u64,
}

/// Sweeps eMBB load for one arm: `packets` URLLC downlink packets with
/// Poisson arrivals share the cell with a constant eMBB backlog. With
/// `preempt` false URLLC queues behind eMBB (FCFS over the leftover
/// capacity); with `preempt` true it punctures the eMBB allocation.
pub fn coexistence_sweep(
    preempt: bool,
    loads: &[f64],
    packets: u64,
    seed: u64,
) -> Vec<CoexistencePoint> {
    let base = StackConfig::testbed_dddu(AccessMode::GrantFree, true);
    loads
        .iter()
        .map(|&load| {
            assert!((0.0..=1.0).contains(&load), "load is a fraction");
            let full_capacity = base.slot_capacity_bytes();
            let urllc_bytes = base.grant_bytes();
            let (policy, capacity) = if preempt {
                // eMBB virtually occupies its share of every DL slot;
                // priority-0 URLLC punctures through it and the scheduler
                // bills the erased bytes.
                let background = ((full_capacity as f64) * load) as usize;
                (PolicySpec::PreemptivePriority { dl_background: background }, full_capacity)
            } else {
                // eMBB consumes its share of every slot before URLLC asks.
                let left = ((full_capacity as f64) * (1.0 - load)) as usize;
                assert!(
                    left >= urllc_bytes,
                    "eMBB load {load} leaves {left} B — below one URLLC packet; \
                     the Queue policy cannot serve it at all (use Preempt)"
                );
                (PolicySpec::Fcfs, left)
            };
            let mut sched = Scheduler::new(SchedulerConfig {
                dl_slot_capacity: capacity,
                policy,
                ..SchedulerConfig::ideal(base.duplex.clone(), AccessMode::GrantFree)
            });
            // Poisson arrivals: a single stream yields them in time order,
            // and the scheduler draws no RNG, so sampling interleaved with
            // serving keeps the draw sequence.
            let mut rng = SimRng::from_seed(seed).stream("coexistence");
            let inter = Dist::Exponential { mean: Duration::from_millis(2) };
            let arrivals = (0..packets).scan(Instant::ZERO, |t, _| {
                *t += inter.sample(&mut rng);
                Some(*t)
            });
            CoexistencePoint {
                embb_load: load,
                policy,
                latency: serve_urllc(&base, &mut sched, arrivals),
                embb_bytes_lost: sched.punctured_bytes(),
            }
        })
        .collect()
}

/// Serves URLLC packets arriving at `arrivals`, in time order, on `sched`
/// and records each one's latency (a seam: tests pass exact instants).
fn serve_urllc(
    base: &StackConfig,
    sched: &mut Scheduler,
    arrivals: impl Iterator<Item = Instant>,
) -> LatencyRecorder {
    let bytes = base.grant_bytes();
    let air = base.data_air_time(bytes);
    let mut latency = LatencyRecorder::new();
    frame::serve_packets(
        sched,
        arrivals.map(|t| (t, 1, t)),
        |sched, rnti, t| sched.on_dl_data(rnti, bytes, t),
        |_, dl, arrival| latency.record(dl.tx_start + air - arrival),
    )
    .expect("the scheduler assigns only what was submitted");
    latency
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean(p: &CoexistencePoint) -> f64 {
        let mut rec = p.latency.clone();
        rec.summary().mean_us
    }

    #[test]
    fn queue_latency_grows_with_embb_load() {
        // At 85 % load a DDDU slot fits ~one URLLC packet; arrivals every
        // 2 ms against ~1 serviceable packet per 0.5 ms slot group start
        // spilling across slots.
        let pts = coexistence_sweep(false, &[0.0, 0.5, 0.85], 500, 1);
        let means: Vec<f64> = pts.iter().map(mean).collect();
        assert!(means[1] >= means[0] * 0.9, "{means:?}"); // 50 % load: still fits
        assert!(means[2] > 1.2 * means[0], "heavy load must queue: {means:?}");
        assert!(pts.iter().all(|p| p.embb_bytes_lost == 0));
        assert!(pts.iter().all(|p| p.policy == PolicySpec::Fcfs));
    }

    #[test]
    #[should_panic(expected = "cannot serve")]
    fn queue_policy_rejects_saturating_load() {
        coexistence_sweep(false, &[0.99], 10, 1);
    }

    #[test]
    fn preemption_keeps_urllc_flat_and_charges_embb() {
        let pts = coexistence_sweep(true, &[0.0, 0.5, 0.99], 500, 2);
        let means: Vec<f64> = pts.iter().map(mean).collect();
        assert!(
            (means[2] - means[0]).abs() < 0.05 * means[0],
            "preemptive latency should be load-independent: {means:?}"
        );
        // At ≤ 50 % load the free share absorbs the packet: nothing erased.
        assert_eq!(pts[0].embb_bytes_lost, 0);
        assert_eq!(pts[1].embb_bytes_lost, 0);
        // At 99 % load nearly every URLLC byte punctures eMBB.
        assert!(pts[2].embb_bytes_lost > 0);
    }

    #[test]
    fn preemption_charge_matches_per_packet_formula() {
        // Every packet punctures independently, so the scheduler's ledger
        // must equal the closed-form per-packet charge: the URLLC bytes
        // that do not fit in the slot's free share.
        let base = StackConfig::testbed_dddu(AccessMode::GrantFree, true);
        let full = base.slot_capacity_bytes();
        let urllc = base.grant_bytes();
        let load = 0.9;
        let free = full - ((full as f64) * load) as usize;
        let pts = coexistence_sweep(true, &[load], 200, 7);
        assert_eq!(pts[0].latency.count(), 200);
        assert_eq!(pts[0].embb_bytes_lost, 200 * urllc.saturating_sub(free) as u64);
    }

    #[test]
    fn policies_agree_when_cell_is_idle() {
        let q = &coexistence_sweep(false, &[0.0], 300, 3)[0];
        let p = &coexistence_sweep(true, &[0.0], 300, 3)[0];
        assert!((mean(q) - mean(p)).abs() < 1e-9);
    }

    #[test]
    fn all_packets_served() {
        for preempt in [false, true] {
            let pts = coexistence_sweep(preempt, &[0.7], 400, 4);
            assert_eq!(pts[0].latency.count(), 400, "preempt={preempt}");
        }
    }
}
