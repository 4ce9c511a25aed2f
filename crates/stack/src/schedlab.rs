//! The scheduler/slicing laboratory — a policy × load × slice-mix sweep
//! over the [`ran::sched`] policy layer (ROADMAP scheduler-lab item).
//!
//! SimURLLC-style experiment: three traffic classes (URLLC / eMBB / mMTC)
//! offer Poisson downlink load against one cell's slot machinery, and
//! every [`PolicySpec`] in the set orders the same arrival trace. The lab
//! measures what the *policy* changes — per-class p50/p99/p999 latency
//! and deadline-miss rate — with everything else (arrivals, capacity,
//! slot pattern) held byte-identical across policies.
//!
//! ## Determinism
//!
//! Every (policy, load, mix) point is one shard of
//! [`sim::parallel::run_shards`] and draws its arrivals from
//! `stream_indexed("sched-point", i)` of the master seed; policies draw
//! no randomness at all. The report vector is assembled in point-index
//! order, so the sweep is byte-identical at any worker count.
//!
//! ## The closed-form preemption bound
//!
//! [`PreemptionBoundModel`] caps preemptive URLLC latency analytically:
//! a packet waits at most one slot for the next scheduling boundary,
//! the scheduler needs its lead plus the gap to the next DL-capable
//! slot, and preemption removes queueing behind other classes — so only
//! the packet's own air time remains. The lab's tests assert the
//! simulated maximum stays under this bound.

use std::collections::VecDeque;

use ran::sched::{
    AccessMode, EmergencyBurst, PolicySpec, RequestTag, Rnti, Scheduler, SliceShares, SlotDecision,
};
use sim::{Dist, Duration, Instant, Recording, SimRng};

use crate::config::StackConfig;
use crate::multicell::{dl_capacity_bytes_per_sec, slice_of};

/// One traffic class of a lab mix.
#[derive(Debug, Clone)]
pub struct LabClass {
    /// Label carried into the report and CSV (e.g. `"urllc"`).
    pub name: &'static str,
    /// Serving priority, 0 = highest. Also selects the slice (see
    /// `slice_of`): 0 → URLLC, 1 → eMBB, 2+ → mMTC.
    pub priority: u8,
    /// Bytes per packet as the scheduler sees them.
    pub packet_bytes: usize,
    /// This class's share of the offered byte rate.
    pub byte_share: f64,
    /// Per-packet delivery deadline (arrival → transmission end).
    pub deadline: Duration,
}

/// A slice mix: the class population plus an optional URLLC surge.
#[derive(Debug, Clone)]
pub struct LabMix {
    /// Label carried into the report and CSV (e.g. `"factory"`).
    pub name: &'static str,
    /// Traffic classes, byte shares summing to 1.
    pub classes: Vec<LabClass>,
    /// Optional emergency window: the URLLC arrival rate is multiplied by
    /// the burst magnitude inside it, and slice-aware policies get the
    /// same burst injected into their URLLC budget.
    pub emergency: Option<EmergencyBurst>,
}

/// The laboratory sweep: policies × loads × mixes, one shard per point.
#[derive(Debug, Clone)]
pub struct SchedLabConfig {
    /// Radio/slot parameters (and the master seed) shared by every point.
    pub stack: StackConfig,
    /// Policies under test.
    pub policies: Vec<PolicySpec>,
    /// Offered load as a fraction of downlink capacity (1.0 = saturated).
    pub loads: Vec<f64>,
    /// Slice mixes under test.
    pub mixes: Vec<LabMix>,
    /// Arrival window per point.
    pub horizon: Duration,
}

/// The URLLC-heavy factory-cell mix (tight deadlines, thin packets).
fn factory_mix() -> LabMix {
    LabMix {
        name: "factory",
        classes: vec![
            LabClass {
                name: "urllc",
                priority: 0,
                packet_bytes: 64,
                byte_share: 0.30,
                deadline: Duration::from_micros(2_500),
            },
            LabClass {
                name: "embb",
                priority: 1,
                packet_bytes: 400,
                byte_share: 0.50,
                deadline: Duration::from_millis(20),
            },
            LabClass {
                name: "mmtc",
                priority: 2,
                packet_bytes: 32,
                byte_share: 0.20,
                deadline: Duration::from_millis(50),
            },
        ],
        emergency: None,
    }
}

/// The broadband-dominated dense-urban mix.
fn urban_mix() -> LabMix {
    LabMix {
        name: "urban",
        classes: vec![
            LabClass {
                name: "urllc",
                priority: 0,
                packet_bytes: 64,
                byte_share: 0.10,
                deadline: Duration::from_micros(2_500),
            },
            LabClass {
                name: "embb",
                priority: 1,
                packet_bytes: 400,
                byte_share: 0.70,
                deadline: Duration::from_millis(20),
            },
            LabClass {
                name: "mmtc",
                priority: 2,
                packet_bytes: 32,
                byte_share: 0.20,
                deadline: Duration::from_millis(50),
            },
        ],
        emergency: None,
    }
}

/// The urban mix with an emergency URLLC surge mid-window (SimURLLC's
/// emergency events): 3× the URLLC arrival rate for 30 ms.
fn emergency_mix() -> LabMix {
    LabMix {
        emergency: Some(EmergencyBurst {
            start: Instant::ZERO + Duration::from_millis(50),
            duration: Duration::from_millis(30),
            magnitude: 3.0,
        }),
        name: "emergency",
        ..urban_mix()
    }
}

impl SchedLabConfig {
    /// The SimURLLC policy set over the §7 testbed: seven policies ×
    /// three loads × three mixes. Preemptive specs carry no standing
    /// background here — the eMBB they puncture is the mix's own explicit
    /// traffic, held as soft reservations.
    pub fn simurllc(seed: u64) -> SchedLabConfig {
        SchedLabConfig {
            stack: StackConfig::testbed_dddu(AccessMode::GrantFree, true).with_seed(seed),
            policies: vec![
                PolicySpec::Fcfs,
                PolicySpec::NonPreemptivePriority,
                PolicySpec::PreemptivePriority { dl_background: 0 },
                PolicySpec::RoundRobin,
                PolicySpec::EarliestDeadlineFirst,
                PolicySpec::HybridEdfPreemptive { dl_background: 0 },
                PolicySpec::SliceAware(SliceShares::even()),
            ],
            loads: vec![0.5, 0.8, 1.1],
            mixes: vec![factory_mix(), urban_mix(), emergency_mix()],
            horizon: Duration::from_millis(200),
        }
    }
}

/// Per-class outcome of one lab point.
#[derive(Debug, Clone, PartialEq)]
pub struct LabClassReport {
    /// Class label.
    pub class: &'static str,
    /// Packets offered (every lab arrival is eventually assigned).
    pub count: u64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// 99.9th-percentile latency, µs.
    pub p999_us: f64,
    /// Largest observed latency, µs.
    pub max_us: f64,
    /// Fraction of packets past their class deadline.
    pub miss_rate: f64,
}

/// One (policy, load, mix) point of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LabPointReport {
    /// Policy label ([`PolicySpec::name`]).
    pub policy: &'static str,
    /// Offered load fraction.
    pub load: f64,
    /// Mix label.
    pub mix: &'static str,
    /// Per-class outcomes, in mix order.
    pub classes: Vec<LabClassReport>,
    /// Soft-reservation bytes punctured by preemptive policies (0 for
    /// non-preemptive ones).
    pub punctured_bytes: u64,
}

/// Runs one (policy, load, mix) point: pre-samples the class arrival
/// processes, then drives the scheduler slot by slot, feeding arrivals at
/// each boundary and attributing assignments back to classes through
/// per-class FIFO ledgers (exact: every policy is seq-stable within a
/// class, so per-class service order is arrival order).
fn run_point(
    cfg: &SchedLabConfig,
    spec: &PolicySpec,
    load: f64,
    mix: &LabMix,
    index: u64,
) -> LabPointReport {
    let stack = &cfg.stack;
    // Slice-aware budgets honour the mix's emergency window.
    let spec = match (*spec, mix.emergency) {
        (PolicySpec::SliceAware(mut s), Some(e)) => {
            s.emergency = Some(e);
            PolicySpec::SliceAware(s)
        }
        (other, _) => other,
    };
    let mut sched = Scheduler::new(stack.clone().with_policy(spec).scheduler_config());

    let rng = SimRng::from_seed(stack.seed).stream_indexed("sched-point", index);
    let offered_bps = load * dl_capacity_bytes_per_sec(stack);
    let horizon = Instant::ZERO + cfg.horizon;

    // Pre-sample every class's Poisson arrivals (the scheduler draws no
    // RNG, so sampling up front changes nothing), then merge by time with
    // class index as the tie-break — a deterministic single trace every
    // policy replays identically.
    let mut arrivals: Vec<(Instant, usize)> = Vec::new();
    for (ci, class) in mix.classes.iter().enumerate() {
        let mut r = rng.stream_indexed("class", ci as u64);
        let pps = (offered_bps * class.byte_share / class.packet_bytes as f64).max(1e-9);
        let base_mean = Duration::from_micros_f64(1e6 / pps);
        let mut t = Instant::ZERO;
        loop {
            // The emergency window multiplies the URLLC rate (divides the
            // mean inter-arrival) while it is active.
            let factor = match mix.emergency {
                Some(e) if class.priority == 0 => e.factor_at(t),
                _ => 1.0,
            };
            let mean = Duration::from_micros_f64(base_mean.as_micros_f64() / factor);
            t += Dist::Exponential { mean }.sample(&mut r);
            if t >= horizon {
                break;
            }
            arrivals.push((t, ci));
        }
    }
    arrivals.sort_by_key(|&(t, ci)| (t, ci));

    let mut pending: Vec<VecDeque<Instant>> = mix.classes.iter().map(|_| VecDeque::new()).collect();
    let mut recs: Vec<Recording> = mix.classes.iter().map(|_| Recording::fixed()).collect();
    let mut misses: Vec<u64> = vec![0; mix.classes.len()];

    let mut next = 0usize;
    let mut slot = 0u64;
    let mut decision = SlotDecision::default();
    while next < arrivals.len() {
        slot += 1;
        let now = stack.duplex.slot_start(slot);
        while next < arrivals.len() && arrivals[next].0 < now {
            let (t, ci) = arrivals[next];
            let class = &mix.classes[ci];
            sched.on_dl_data_tagged(
                ci as Rnti,
                class.packet_bytes,
                t,
                RequestTag {
                    priority: class.priority,
                    deadline: Some(t + class.deadline),
                    slice: slice_of(class.priority),
                },
            );
            pending[ci].push_back(t);
            next += 1;
        }
        // Every request ready before the boundary is assigned this round
        // (first-fit probes forward until a slot has room), so the loop
        // ends exactly when the trace is exhausted.
        sched.run_slot_into(slot, &mut decision);
        for a in &decision.dl_assignments {
            let ci = a.rnti as usize;
            // Within a class every policy orders by seq (stable sorts +
            // seq tie-break), so assignment order is arrival order.
            let arrival = pending[ci].pop_front().expect("per-class FIFO ledger in sync");
            let latency = a.dl.tx_start + stack.data_air_time(a.bytes) - arrival;
            recs[ci].record(latency);
            if latency > mix.classes[ci].deadline {
                misses[ci] += 1;
            }
        }
    }

    let classes = mix
        .classes
        .iter()
        .enumerate()
        .map(|(ci, class)| {
            let rec = &mut recs[ci];
            let count = rec.count();
            LabClassReport {
                class: class.name,
                count,
                p50_us: rec.try_quantile_us(0.5).unwrap_or(0.0),
                p99_us: rec.try_quantile_us(0.99).unwrap_or(0.0),
                p999_us: rec.try_quantile_us(0.999).unwrap_or(0.0),
                max_us: rec.max_us(),
                miss_rate: misses[ci] as f64 / count.max(1) as f64,
            }
        })
        .collect();
    LabPointReport {
        policy: spec.name(),
        load,
        mix: mix.name,
        classes,
        punctured_bytes: sched.punctured_bytes(),
    }
}

/// Runs the whole sweep, one shard per (policy, load, mix) point, and
/// returns the reports in point order (policy-major, then load, then
/// mix) — byte-identical at any worker count.
pub fn run_sched_lab(cfg: &SchedLabConfig) -> Vec<LabPointReport> {
    let mut points: Vec<(&PolicySpec, f64, &LabMix)> = Vec::new();
    for p in &cfg.policies {
        for &l in &cfg.loads {
            for m in &cfg.mixes {
                points.push((p, l, m));
            }
        }
    }
    sim::parallel::run_shards(points.len(), |i| {
        let (p, l, m) = points[i];
        run_point(cfg, p, l, m, i as u64)
    })
}

/// Closed-form cap on URLLC latency under a preemptive policy.
#[derive(Debug, Clone, Copy)]
pub struct PreemptionBoundModel {
    /// Worst boundary-to-transmission-start gap across the TDD period
    /// (scheduler lead + wait for the next DL-capable slot).
    pub worst_dispatch: Duration,
    /// The full bound: one slot of boundary wait + worst dispatch + the
    /// packet's own air time.
    pub bound: Duration,
}

impl PreemptionBoundModel {
    /// Builds the bound for `urllc_bytes`-byte packets on `stack`. A
    /// packet arriving anywhere in the TDD period waits at most one slot
    /// for the next scheduling boundary; the scheduler then needs its
    /// data lead plus the gap to the next DL-capable slot; preemption
    /// sees through every other class's soft reservations, so no queueing
    /// term remains. Valid while URLLC's own (hard) bytes never fill a
    /// slot — the regime every lab load point stays in.
    pub fn new(stack: &StackConfig, urllc_bytes: usize) -> PreemptionBoundModel {
        let sc = stack.scheduler_config();
        let slot = stack.duplex.slot_duration();
        let period_slots = (stack.duplex.pattern_period().as_nanos() / slot.as_nanos()).max(1);
        let mut worst = Duration::ZERO;
        for b in 0..period_slots {
            let boundary = stack.duplex.slot_start(b);
            let op = stack.duplex.next_dl_opportunity(boundary.saturating_add(sc.lead));
            worst = worst.max(op.tx_start - boundary);
        }
        PreemptionBoundModel {
            worst_dispatch: worst,
            bound: slot + worst + stack.data_air_time(urllc_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cut-down grid that still exercises multiple policies.
    fn small(policies: Vec<PolicySpec>) -> SchedLabConfig {
        let mut cfg = SchedLabConfig::simurllc(23);
        cfg.policies = policies;
        cfg.loads = vec![0.8];
        cfg.mixes = vec![factory_mix()];
        cfg.horizon = Duration::from_millis(60);
        cfg
    }

    fn urllc(p: &LabPointReport) -> &LabClassReport {
        p.classes.iter().find(|c| c.class == "urllc").unwrap()
    }

    #[test]
    fn default_grid_covers_the_required_sweep() {
        let cfg = SchedLabConfig::simurllc(1);
        assert!(cfg.policies.len() >= 5, "{} policies", cfg.policies.len());
        assert!(cfg.loads.len() >= 3);
        assert!(cfg.mixes.len() >= 3);
        // Policy labels are unique (they key the CSV).
        let mut names: Vec<_> = cfg.policies.iter().map(PolicySpec::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cfg.policies.len());
    }

    #[test]
    fn sweep_is_worker_count_invariant() {
        let cfg = small(vec![PolicySpec::Fcfs, PolicySpec::EarliestDeadlineFirst]);
        sim::parallel::set_jobs(1);
        let a = run_sched_lab(&cfg);
        sim::parallel::set_jobs(2);
        let b = run_sched_lab(&cfg);
        sim::parallel::set_jobs(0);
        assert_eq!(a, b);
    }

    #[test]
    fn every_arrival_is_served_exactly_once() {
        let cfg = small(vec![PolicySpec::RoundRobin]);
        let pts = run_sched_lab(&cfg);
        assert_eq!(pts.len(), 1);
        // Same trace, different policy: identical per-class counts.
        let cfg2 = small(vec![PolicySpec::Fcfs]);
        let pts2 = run_sched_lab(&cfg2);
        for (a, b) in pts[0].classes.iter().zip(&pts2[0].classes) {
            assert!(a.count > 0, "class {} served nothing", a.class);
            assert_eq!(a.count, b.count, "class {}", a.class);
        }
    }

    #[test]
    fn preemption_beats_queueing_for_urllc_under_saturation() {
        let mut cfg = small(vec![
            PolicySpec::NonPreemptivePriority,
            PolicySpec::PreemptivePriority { dl_background: 0 },
        ]);
        cfg.loads = vec![1.1];
        let pts = run_sched_lab(&cfg);
        let queued = urllc(&pts[0]);
        let preempted = urllc(&pts[1]);
        assert!(
            preempted.p99_us < queued.p99_us,
            "preemptive p99 {} should beat non-preemptive {}",
            preempted.p99_us,
            queued.p99_us
        );
        assert!(pts[1].punctured_bytes > 0, "saturation must puncture");
        assert_eq!(pts[0].punctured_bytes, 0);
    }

    #[test]
    fn simulated_preemptive_urllc_stays_under_the_closed_form_bound() {
        let mut cfg = small(vec![
            PolicySpec::PreemptivePriority { dl_background: 0 },
            PolicySpec::HybridEdfPreemptive { dl_background: 0 },
        ]);
        cfg.loads = vec![0.8, 1.1];
        let urllc_bytes = cfg.mixes[0].classes[0].packet_bytes;
        let bound = PreemptionBoundModel::new(&cfg.stack, urllc_bytes);
        assert!(bound.bound > Duration::ZERO);
        for p in run_sched_lab(&cfg) {
            let c = urllc(&p);
            assert!(
                c.max_us <= bound.bound.as_micros_f64() + 1e-6,
                "{} at load {}: max {} µs exceeds bound {} µs",
                p.policy,
                p.load,
                c.max_us,
                bound.bound.as_micros_f64()
            );
        }
    }

    #[test]
    fn emergency_burst_raises_urllc_traffic() {
        let mut cfg = SchedLabConfig::simurllc(5);
        cfg.policies = vec![PolicySpec::SliceAware(SliceShares::even())];
        cfg.loads = vec![0.8];
        cfg.horizon = Duration::from_millis(100);
        cfg.mixes = vec![urban_mix()];
        let calm = run_sched_lab(&cfg);
        cfg.mixes = vec![emergency_mix()];
        let surged = run_sched_lab(&cfg);
        assert!(
            urllc(&surged[0]).count > urllc(&calm[0]).count,
            "surge {} vs calm {}",
            urllc(&surged[0]).count,
            urllc(&calm[0]).count
        );
    }
}
