//! City-scale multi-cell downlink simulation.
//!
//! The paper's feasibility question ("is 0.5 ms / five-nines close or
//! distant?") is only answered at scale: one cell with a few hundred
//! closed-loop UEs never reaches the queueing and scheduler-contention
//! regimes where URLLC actually fails. This module simulates an N-gNB
//! topology where every cell owns its own slot clock and a heterogeneous
//! UE population (count × arrival rate × packet size × priority ×
//! deadline, per-cell mix), and fans the cells across [`sim::parallel`]
//! shards with *cells as the shard boundary*.
//!
//! ## The loop is slot-driven
//!
//! Between two DL slot starts a cell does nothing but append arrivals to
//! its per-class queues, and classes share neither a queue nor an RNG
//! stream, so the order of arrivals *across* classes cannot matter. A cell
//! therefore keeps no event queue: each class has one
//! [`sim::ArrivalCursor`], and every slot start first pops each cursor up
//! to `now` (an arrival exactly on the boundary belongs to that slot; one
//! at the horizon is never offered), then serves the slot, then steps to
//! the next DL opportunity while a cursor is armed or a queue is non-empty.
//!
//! ## How 10⁵–10⁶ UEs fit in fixed memory
//!
//! Two deliberate collapses keep the engine's footprint independent of
//! both the UE count and the packet count:
//!
//! * **Arrivals are aggregated per class.** The superposition of `n`
//!   independent Poisson processes of rate `λ` is a Poisson process of
//!   rate `n·λ`, exactly — so a class of 55 000 sensors is one arrival
//!   cursor, not 55 000 of them. The UE count still matters: it sets the
//!   aggregate rate and inflates the gNB's per-packet scheduling/decode
//!   work ("higher number of UEs might increase the processing times
//!   noticeably", §7).
//! * **Latency is recorded fixed-memory.** Every class records into a
//!   [`Recording::fixed`] log-linear histogram (≤ 6.25 % relative
//!   quantile error) instead of the sample-hoarding exact recorder — a
//!   million-packet cell costs the same bytes as a thousand-packet cell.
//!
//! Queues are bounded ([`MulticellConfig::queue_cap`]); a full class
//! queue tail-drops, so even an over-saturated hotspot cell runs in
//! constant space and every offered packet is accounted for:
//! `offered == delivered + dropped + in_flight`.
//!
//! ## Determinism
//!
//! Cell `i` draws all its randomness from `stream_indexed("cell", i)` of
//! the master seed and shares no state with its neighbours, so the shard
//! reduction (index order) is byte-identical at any worker count.

use ran::sched::{PolicySpec, RequestTag, Rnti, SchedItem, Slice};
use sim::{ArrivalCursor, Dist, Duration, Instant, Recording, SimRng};

use crate::config::StackConfig;
use crate::node::StackError;

/// One homogeneous slice of a cell's UE population.
#[derive(Debug, Clone)]
pub struct UeClass {
    /// Label carried into the report and CSV (e.g. `"urllc"`).
    pub name: &'static str,
    /// Attached UEs of this class.
    pub count: u64,
    /// Mean inter-packet interval *per UE* (Poisson). The engine serves
    /// the aggregate process of rate `count / mean_interval`.
    pub mean_interval: Duration,
    /// Application payload bytes per packet.
    pub packet_bytes: usize,
    /// Serving priority: lower value is served first within a slot.
    pub priority: u8,
    /// Per-class delivery deadline (arrival → decoded at the UE).
    pub deadline: Duration,
}

/// One gNB and its population mix.
#[derive(Debug, Clone)]
pub struct CellConfig {
    /// The population served by this cell, in any order (the engine sorts
    /// by priority).
    pub classes: Vec<UeClass>,
}

impl CellConfig {
    /// Total attached UEs.
    pub(crate) fn n_ues(&self) -> u64 {
        self.classes.iter().map(|c| c.count).sum()
    }
}

/// The multi-cell experiment: shared radio parameters, per-cell mixes.
#[derive(Debug, Clone)]
pub struct MulticellConfig {
    /// Radio/slot parameters shared by every cell (capacity, duplexing,
    /// processing models). The seed is the master seed.
    pub stack: StackConfig,
    /// One entry per gNB.
    pub cells: Vec<CellConfig>,
    /// Arrival window. Slots keep running past it until every queue
    /// drains (bounded; leftovers surface as `in_flight`).
    pub horizon: Duration,
    /// Per-class bound on queued packets — the fixed-memory guarantee for
    /// over-saturated cells. A full queue tail-drops.
    pub queue_cap: usize,
    /// Fractional growth of per-packet gNB scheduling/decode work per
    /// attached UE in the cell (§7's population cost). Multi-cell default
    /// is gentler than `multi_ue`'s because populations here
    /// reach 10⁵ per cell.
    pub sched_scaling_per_ue: f64,
    /// Scheduling policy every cell orders its class queues with each
    /// slot. The class list is pre-sorted by priority, so the default
    /// `Fcfs` identity *is* strict priority — the historic behaviour,
    /// byte for byte; other policies genuinely reorder service. Each cell
    /// builds its own [`ran::sched::Policy`] value from it.
    pub policy: PolicySpec,
}

impl MulticellConfig {
    /// Total attached UEs across every cell.
    pub fn total_ues(&self) -> u64 {
        self.cells.iter().map(CellConfig::n_ues).sum()
    }

    /// A dense-urban deployment: `n_cells` gNBs, `ues_per_cell` UEs each,
    /// mixed 2 % URLLC / 10 % video / 88 % mMTC sensors. Per-UE rates are
    /// derived from a target downlink utilisation, so growing the
    /// population reshapes *who* the traffic comes from without
    /// overrunning the cell by construction; every fourth cell is a
    /// hotspot offered twice its capacity (the regime where tails die).
    pub fn dense_urban(n_cells: usize, ues_per_cell: u64, seed: u64) -> MulticellConfig {
        let stack =
            StackConfig::testbed_dddu(ran::sched::AccessMode::GrantBased, true).with_seed(seed);
        let capacity_bps = dl_capacity_bytes_per_sec(&stack);
        let cells = (0..n_cells)
            .map(|i| {
                // Hotspots run well past saturation; the rest sit at a
                // busy but stable load.
                let rho = if i % 4 == 0 { 2.0 } else { 0.55 };
                let offered_bps = rho * capacity_bps;
                // Byte-rate shares of the mix (URLLC is thin but critical).
                let mk = |name, ue_frac: f64, byte_share: f64, bytes: usize, prio, deadline| {
                    let count = ((ues_per_cell as f64 * ue_frac).round() as u64).max(1);
                    let pps = (offered_bps * byte_share / bytes as f64).max(1e-9);
                    let per_ue_interval_us = count as f64 / pps * 1e6;
                    UeClass {
                        name,
                        count,
                        mean_interval: Duration::from_micros_f64(per_ue_interval_us),
                        packet_bytes: bytes,
                        priority: prio,
                        deadline,
                    }
                };
                CellConfig {
                    classes: vec![
                        mk("urllc", 0.02, 0.10, 64, 0, Duration::from_millis(2)),
                        mk("video", 0.10, 0.60, 1200, 1, Duration::from_millis(20)),
                        mk("sensor", 0.88, 0.30, 32, 2, Duration::from_millis(100)),
                    ],
                }
            })
            .collect();
        MulticellConfig {
            stack,
            cells,
            horizon: Duration::from_millis(400),
            queue_cap: 4096,
            sched_scaling_per_ue: 1e-5,
            policy: PolicySpec::Fcfs,
        }
    }
}

/// Maps a class's serving priority onto the slice taxonomy slice-aware
/// policies consult (0 = URLLC, 1 = broadband, everything else = massive
/// machine-type).
pub(crate) fn slice_of(priority: u8) -> Slice {
    match priority {
        0 => Slice::Urllc,
        1 => Slice::Embb,
        _ => Slice::Mmtc,
    }
}

/// Mean downlink capacity in bytes/s under the configured duplex pattern.
pub(crate) fn dl_capacity_bytes_per_sec(stack: &StackConfig) -> f64 {
    let slot_s = stack.duplex.slot_duration().as_micros_f64() / 1e6;
    let period = stack.duplex.pattern_period();
    let period_slots = (period.as_nanos() / stack.duplex.slot_duration().as_nanos()).max(1);
    let dl_frac = stack.duplex.dl_slots_per_period() as f64 / period_slots as f64;
    stack.slot_capacity_bytes() as f64 * dl_frac / slot_s
}

/// Per-class outcome within one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassReport {
    /// Class label (from [`UeClass::name`]).
    pub name: &'static str,
    /// UEs behind this class.
    pub ues: u64,
    /// Packets offered within the horizon.
    pub offered: u64,
    /// Packets delivered (on time or late).
    pub delivered: u64,
    /// Deliveries past the class deadline.
    pub late: u64,
    /// Tail drops at the bounded class queue.
    pub dropped: u64,
    /// Packets still queued when the drain window closed.
    pub in_flight: u64,
    /// Delivered-packet latency, fixed-memory ([`Recording::fixed`]).
    pub latency: Recording,
}

impl ClassReport {
    /// Deadline-miss rate: (late + dropped + stranded) / offered.
    pub fn miss_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        (self.late + self.dropped + self.in_flight) as f64 / self.offered as f64
    }
}

/// One cell's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Cell index (shard index).
    pub cell: usize,
    /// Total attached UEs.
    pub n_ues: u64,
    /// Per-class outcomes, in serving-priority order.
    pub classes: Vec<ClassReport>,
    /// Peak total queued packets across all class queues, sampled *after*
    /// each slot's service: what a slot left behind, not what it found.
    pub peak_queue: usize,
    /// Peak pending work items: armed arrival cursors plus the slot clock
    /// (at most `classes + 1`, whatever the population).
    pub peak_events: usize,
    /// DL slots processed (arrival window + drain).
    pub total_slots: u64,
}

impl CellReport {
    /// Packets offered across every class.
    pub fn offered(&self) -> u64 {
        self.classes.iter().map(|c| c.offered).sum()
    }

    /// `true` when every offered packet is accounted for exactly once.
    pub fn conserved(&self) -> bool {
        self.classes.iter().all(|c| c.offered == c.delivered + c.dropped + c.in_flight)
    }

    /// All-class latency recording (commutative histogram merge).
    pub fn latency(&self) -> Recording {
        let mut all = Recording::fixed();
        for c in &self.classes {
            all.merge(&c.latency);
        }
        all
    }

    /// All-class deadline-miss rate.
    pub fn miss_rate(&self) -> f64 {
        let offered: u64 = self.classes.iter().map(|c| c.offered).sum();
        if offered == 0 {
            return 0.0;
        }
        let missed: u64 = self.classes.iter().map(|c| c.late + c.dropped + c.in_flight).sum();
        missed as f64 / offered as f64
    }

    /// Bytes held by this report's recordings — the fixed-memory
    /// assertion hook (everything else in the report is scalar).
    pub(crate) fn recording_mem_bytes(&self) -> usize {
        self.classes.iter().map(|c| c.latency.mem_bytes()).sum()
    }
}

/// The whole topology's outcome.
#[derive(Debug, Clone)]
pub struct MulticellReport {
    /// One report per cell, in cell order.
    pub cells: Vec<CellReport>,
}

impl MulticellReport {
    /// Aggregate per-class outcomes across every cell (classes are merged
    /// by name; histogram merges are commutative, totals are sums).
    pub fn aggregate_classes(&self) -> Vec<ClassReport> {
        let mut agg: Vec<ClassReport> = Vec::new();
        for cell in &self.cells {
            for c in &cell.classes {
                match agg.iter_mut().find(|a| a.name == c.name) {
                    Some(a) => {
                        a.ues += c.ues;
                        a.offered += c.offered;
                        a.delivered += c.delivered;
                        a.late += c.late;
                        a.dropped += c.dropped;
                        a.in_flight += c.in_flight;
                        a.latency.merge(&c.latency);
                    }
                    None => agg.push(c.clone()),
                }
            }
        }
        agg
    }

    /// Topology-wide latency recording.
    pub fn latency(&self) -> Recording {
        let mut all = Recording::fixed();
        for cell in &self.cells {
            all.merge(&cell.latency());
        }
        all
    }

    /// Topology-wide deadline-miss rate.
    pub fn miss_rate(&self) -> f64 {
        let offered: u64 = self.cells.iter().map(CellReport::offered).sum();
        if offered == 0 {
            return 0.0;
        }
        let missed: f64 = self.cells.iter().map(|c| c.miss_rate() * c.offered() as f64).sum();
        missed / offered as f64
    }

    /// Total recording bytes across the topology.
    pub fn recording_mem_bytes(&self) -> usize {
        self.cells.iter().map(CellReport::recording_mem_bytes).sum()
    }
}

/// Validates one cell's mix and runs it to completion. Pure function of
/// `(config, cell index)` — the shard closure of [`run_multicell`].
fn run_cell(config: &MulticellConfig, cell_idx: usize) -> Result<CellReport, StackError> {
    let rng = SimRng::from_seed(config.stack.seed).stream_indexed("cell", cell_idx as u64);
    // Serve in priority order; ties broken by config order (stable sort).
    let mut classes: Vec<&UeClass> = config.cells[cell_idx].classes.iter().collect();
    classes.sort_by_key(|c| c.priority);
    let arrivals = classes
        .iter()
        .enumerate()
        .map(|(ci, c)| {
            // Aggregate Poisson: n independent rate-λ processes merge into
            // one rate-n·λ process, exactly.
            let mean = Duration::from_micros_f64(c.mean_interval.as_micros_f64() / c.count as f64);
            // An empty class (÷0 saturates to zero) or a rate past ~2·10⁹
            // pps would keep its arrival cursor at one instant forever:
            // the drain at the first slot would never finish.
            if mean == Duration::ZERO {
                return Err(StackError::Diverged(format!(
                    "cell {cell_idx} class {:?}: {} UEs every {:?} is an aggregate \
                     inter-arrival of 0 ns",
                    c.name, c.count, c.mean_interval
                )));
            }
            // Keyed by class index, not priority: equal-priority classes
            // must not share a stream.
            Ok(ArrivalCursor::new(
                Dist::Exponential { mean },
                rng.stream_indexed("class-arrivals", ci as u64),
                Instant::ZERO + config.horizon,
            ))
        })
        .collect::<Result<Vec<_>, _>>()?;
    serve_cell(config, cell_idx, &classes, arrivals)
}

/// The slot-driven loop of one cell: `classes` in serving order,
/// `arrivals[ci]` the aggregate source of class `ci` (a parameter so tests
/// can place arrivals on exact instants).
fn serve_cell(
    config: &MulticellConfig,
    cell_idx: usize,
    classes: &[&UeClass],
    mut arrivals: Vec<ArrivalCursor>,
) -> Result<CellReport, StackError> {
    let stack = &config.stack;
    let drain_limit = Instant::ZERO + config.horizon + stack.duplex.pattern_period() * 4096;
    let n_ues = config.cells[cell_idx].n_ues();

    // Each cell runs its own policy value (the round-robin cursor is
    // per-cell state, exactly like a real gNB scheduler's).
    let mut policy = config.policy.build();
    let mut class_seq = 0u64;

    // gNB per-packet work grows with the attached population (§7).
    let decode = {
        let base = stack.gnb_timings.mean_total();
        Duration::from_micros_f64(
            base.as_micros_f64() * (1.0 + config.sched_scaling_per_ue * n_ues as f64),
        )
    };

    // Per-class state: bounded FIFO of arrival instants and the outcome
    // counters.
    let mut queues: Vec<std::collections::VecDeque<Instant>> =
        classes.iter().map(|_| std::collections::VecDeque::new()).collect();
    // Bytes of each class's head packet already sent in earlier slots.
    let mut head_sent: Vec<usize> = vec![0; classes.len()];
    let mut reports: Vec<ClassReport> = classes
        .iter()
        .map(|c| ClassReport {
            name: c.name,
            ues: c.count,
            offered: 0,
            delivered: 0,
            late: 0,
            dropped: 0,
            in_flight: 0,
            latency: Recording::fixed(),
        })
        .collect();
    let slot_bytes = stack.slot_capacity_bytes();
    let mut peak_queue = 0usize;
    // Cursors only ever disarm, so the start is the peak.
    let peak_events = arrivals.iter().filter(|a| a.is_armed()).count() + 1;
    let mut total_slots = 0u64;
    let mut order: Vec<SchedItem> = Vec::with_capacity(classes.len());
    let mut op = stack.duplex.next_dl_opportunity(Instant::ZERO);

    loop {
        let now = op.tx_start;
        // Between two slot boundaries a cell only appends arrivals to its
        // class queues, and classes share no state, so each class catches
        // up to the boundary on its own.
        for (ci, source) in arrivals.iter_mut().enumerate() {
            while let Some(t) = source.pop_due(now) {
                reports[ci].offered += 1;
                if queues[ci].len() >= config.queue_cap {
                    // Tail drop: the fixed-memory guarantee for cells
                    // offered more than they can serve.
                    reports[ci].dropped += 1;
                } else {
                    queues[ci].push_back(t);
                }
            }
        }

        total_slots += 1;
        let mut budget = slot_bytes;
        let mut sent = 0usize;
        // The policy picks this slot's class service order. Each class is
        // one item tagged with its priority, slice, and the head packet's
        // absolute deadline (what EDF keys on).
        order.clear();
        order.extend(classes.iter().enumerate().map(|(ci, class)| SchedItem {
            rnti: ci as Rnti,
            bytes: class.packet_bytes + 32,
            ready: now,
            tag: RequestTag {
                priority: class.priority,
                deadline: queues[ci].front().map(|&a| a + class.deadline),
                slice: slice_of(class.priority),
            },
            seq: class_seq + ci as u64,
        }));
        class_seq += classes.len() as u64;
        policy.order(now, &mut order);
        for item in &order {
            let ci = item.rnti as usize;
            let class = classes[ci];
            let wire = class.packet_bytes + 32; // layer overheads
            while budget > 0 {
                let Some(&arrival) = queues[ci].front() else { break };
                // RLC segmentation: a packet larger than the remaining
                // slot budget sends what fits and resumes next slot
                // (`head_sent` carries over), so video-sized SDUs span
                // slots instead of wedging behind a budget they can never
                // meet.
                let take = (wire - head_sent[ci]).min(budget);
                budget -= take;
                sent += take;
                head_sent[ci] += take;
                if head_sent[ci] < wire {
                    break; // slot exhausted mid-packet
                }
                head_sent[ci] = 0;
                queues[ci].pop_front();
                // Delivery: slot TX start + air time of everything sent so
                // far this slot + population-inflated decode.
                let done = now + stack.data_air_time(sent) + decode;
                let latency = done - arrival;
                reports[ci].delivered += 1;
                if latency > class.deadline {
                    reports[ci].late += 1;
                }
                reports[ci].latency.record(latency);
            }
        }
        let depth: usize = queues.iter().map(|q| q.len()).sum();
        peak_queue = peak_queue.max(depth);
        if depth == 0 && !arrivals.iter().any(ArrivalCursor::is_armed) {
            break;
        }
        op = stack.duplex.next_dl_opportunity(stack.duplex.slot_start(op.slot + 1));
        if op.tx_start > drain_limit {
            // Drain budget exhausted: a wedged cell surfaces as
            // in_flight > 0, not a hang.
            break;
        }
    }

    for (ci, q) in queues.iter().enumerate() {
        reports[ci].in_flight = q.len() as u64;
    }
    let report = CellReport {
        cell: cell_idx,
        n_ues,
        classes: reports,
        peak_queue,
        peak_events,
        total_slots,
    };
    if !report.conserved() {
        return Err(StackError::Diverged(format!(
            "cell {cell_idx} lost packets: offered != delivered + dropped + in_flight"
        )));
    }
    Ok(report)
}

/// Runs every cell, one shard per cell, and assembles the topology
/// report in cell order. Worker-count invariant: cells share no state and
/// each draws from its own indexed RNG stream.
pub fn run_multicell(config: &MulticellConfig) -> Result<MulticellReport, StackError> {
    let outs = sim::parallel::run_shards(config.cells.len(), |i| run_cell(config, i));
    let cells = outs.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(MulticellReport { cells })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sim::EventQueue;

    fn small() -> MulticellConfig {
        let mut cfg = MulticellConfig::dense_urban(4, 1000, 7);
        cfg.horizon = Duration::from_millis(100);
        cfg
    }

    #[test]
    fn packets_are_conserved_per_class_and_cell() {
        let report = run_multicell(&small()).expect("runs");
        assert_eq!(report.cells.len(), 4);
        for cell in &report.cells {
            assert!(cell.conserved(), "cell {}: {cell:?}", cell.cell);
            assert!(cell.offered() > 0, "cell {} offered nothing", cell.cell);
        }
    }

    #[test]
    fn equal_priority_classes_draw_independent_arrivals() {
        // Two classes identical in everything but name: a shared arrival
        // stream would offer both the exact same packets.
        let mut cfg = small();
        let twin = |name| UeClass {
            name,
            count: 100,
            mean_interval: Duration::from_millis(10),
            packet_bytes: 64,
            priority: 1,
            deadline: Duration::from_millis(10),
        };
        cfg.cells = vec![CellConfig { classes: vec![twin("a"), twin("b")] }];
        let report = run_multicell(&cfg).expect("runs");
        let [a, b] = &report.cells[0].classes[..] else { panic!("two classes") };
        assert!(a.offered > 500 && b.offered > 500, "{} / {}", a.offered, b.offered);
        assert_ne!(a.offered, b.offered);
        assert_ne!(a.latency, b.latency);
    }

    #[test]
    fn a_class_whose_aggregate_interval_rounds_to_zero_is_rejected() {
        // Either way the exponential sampler would return 0 ns forever and
        // the arrival would re-arm ahead of the slot clock: the run must
        // fail up front instead of spinning at one instant.
        for (count, mean_interval) in
            [(0, Duration::from_millis(10)), (10_000_000_000, Duration::from_secs(1))]
        {
            let mut cfg = MulticellConfig::dense_urban(1, 100, 1);
            cfg.cells[0].classes[2].count = count;
            cfg.cells[0].classes[2].mean_interval = mean_interval;
            let err = run_multicell(&cfg).expect_err("a 0 ns inter-arrival cannot run");
            let StackError::Diverged(msg) = &err else { panic!("{err:?}") };
            assert!(msg.contains("cell 0") && msg.contains("sensor"), "{msg}");
        }
    }

    #[test]
    fn hotspot_cells_miss_more_than_stable_cells() {
        let report = run_multicell(&small()).expect("runs");
        // dense_urban makes cell 0 a hotspot (ρ=2.0) and cells 1..3
        // stable (ρ=0.55): the overload must show up in the miss rate.
        let hot = report.cells[0].miss_rate();
        let cool = report.cells[1].miss_rate();
        assert!(hot > cool, "hotspot {hot} vs stable {cool}");
        assert!(hot > 0.01, "a cell offered 2x capacity must shed load: {hot}");
    }

    #[test]
    fn priority_protects_urllc_in_hotspots() {
        let report = run_multicell(&small()).expect("runs");
        let hot = &report.cells[0];
        let by_name = |n: &str| hot.classes.iter().find(|c| c.name == n).unwrap();
        // URLLC is served first: even in the overloaded cell its miss
        // rate stays below the best-effort classes'.
        assert!(
            by_name("urllc").miss_rate() < by_name("sensor").miss_rate(),
            "urllc {} vs sensor {}",
            by_name("urllc").miss_rate(),
            by_name("sensor").miss_rate()
        );
    }

    #[test]
    fn deterministic_per_seed_and_worker_count_invariant() {
        let cfg = small();
        sim::parallel::set_jobs(1);
        let a = run_multicell(&cfg).expect("runs");
        sim::parallel::set_jobs(2);
        let b = run_multicell(&cfg).expect("runs");
        sim::parallel::set_jobs(0);
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.offered(), cb.offered());
            assert_eq!(ca.latency(), cb.latency());
            for (ka, kb) in ca.classes.iter().zip(&cb.classes) {
                assert_eq!(ka.latency, kb.latency, "cell {} class {}", ca.cell, ka.name);
            }
        }
    }

    #[test]
    fn explicit_priority_policy_matches_the_default() {
        // The class list is pre-sorted by priority, so the FCFS identity
        // and an explicit stable priority sort are the same permutation:
        // the reports must agree exactly.
        let mut p = small();
        p.policy = PolicySpec::NonPreemptivePriority;
        let a = run_multicell(&small()).expect("runs");
        let b = run_multicell(&p).expect("runs");
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            for (ka, kb) in ca.classes.iter().zip(&cb.classes) {
                assert_eq!(ka.latency, kb.latency, "cell {} class {}", ca.cell, ka.name);
                assert_eq!(
                    (ka.offered, ka.delivered, ka.late, ka.dropped),
                    (kb.offered, kb.delivered, kb.late, kb.dropped)
                );
            }
        }
    }

    #[test]
    fn round_robin_reorders_hotspot_service() {
        let mut rr = small();
        rr.policy = PolicySpec::RoundRobin;
        let base = run_multicell(&small()).expect("runs");
        let alt = run_multicell(&rr).expect("runs");
        let by =
            |cell: &CellReport, n: &str| cell.classes.iter().find(|c| c.name == n).unwrap().clone();
        // Rotating the head of line hands sensors air time URLLC used to
        // claim first: in the saturated hotspot URLLC can only do worse.
        assert!(by(&alt.cells[0], "urllc").miss_rate() >= by(&base.cells[0], "urllc").miss_rate());
        // And the rotation must actually change some class outcome.
        assert!(alt.cells.iter().zip(&base.cells).any(|(x, y)| x
            .classes
            .iter()
            .zip(&y.classes)
            .any(|(cx, cy)| cx.latency != cy.latency)));
        for cell in &alt.cells {
            assert!(cell.conserved(), "cell {}: {cell:?}", cell.cell);
        }
    }

    #[test]
    fn event_queue_stays_tiny_regardless_of_population() {
        // The aggregation collapse: 100× the UEs, same pending-event
        // bound (classes + 1).
        let small_pop = run_multicell(&{
            let mut c = MulticellConfig::dense_urban(2, 1000, 3);
            c.horizon = Duration::from_millis(50);
            c
        })
        .expect("runs");
        let large_pop = run_multicell(&{
            let mut c = MulticellConfig::dense_urban(2, 100_000, 3);
            c.horizon = Duration::from_millis(50);
            c
        })
        .expect("runs");
        for r in small_pop.cells.iter().chain(&large_pop.cells) {
            assert!(r.peak_events <= 4, "events ballooned: {}", r.peak_events);
        }
        assert!(large_pop.cells[0].n_ues >= 100_000);
    }

    /// The aggregate Poisson gap `run_cell` gives a class.
    fn exponential_gap(c: &UeClass) -> Dist {
        let per_ue = c.mean_interval.as_micros_f64();
        Dist::Exponential { mean: Duration::from_micros_f64(per_ue / c.count as f64) }
    }

    /// One class whose packets arrive on every slot boundary of the DDDU
    /// testbed (0.5 ms, 1.0 ms, …), deadline just under one slot: a packet
    /// is on time exactly when the slot it arrived on served it.
    fn one_arrival_per_slot_boundary(horizon_slots: u64) -> MulticellConfig {
        let mut cfg = MulticellConfig::dense_urban(1, 100, 1);
        let slot = cfg.stack.duplex.slot_duration();
        cfg.horizon = slot * horizon_slots;
        cfg.cells[0].classes = vec![UeClass {
            name: "tick",
            count: 1,
            mean_interval: slot,
            packet_bytes: 64,
            priority: 0,
            deadline: slot - Duration::from_nanos(1),
        }];
        cfg
    }

    fn every_slot(c: &UeClass) -> Dist {
        Dist::Constant(c.mean_interval)
    }

    /// The slot-driven loop over that one ticking class (a constant gap
    /// draws nothing, so any RNG stream will do).
    fn ticking_cell(config: &MulticellConfig) -> CellReport {
        let tick = &config.cells[0].classes[0];
        let horizon = Instant::ZERO + config.horizon;
        let arrivals = vec![ArrivalCursor::new(every_slot(tick), SimRng::from_seed(0), horizon)];
        serve_cell(config, 0, &[tick], arrivals).expect("conserved")
    }

    #[test]
    fn an_arrival_on_a_slot_start_is_served_by_that_slot() {
        let cfg = one_arrival_per_slot_boundary(4);
        let duplex = &cfg.stack.duplex;
        for slot in [1, 2, 4] {
            let at = duplex.slot_start(slot);
            assert_eq!(duplex.next_dl_opportunity(at).tx_start, at, "DL slot {slot} starts late");
        }
        let cell = ticking_cell(&cfg);
        let tick = &cell.classes[0];
        // Arrivals at 0.5, 1.0 and 1.5 ms. The first two sit exactly on a
        // DL slot's `tx_start` and leave in it; the third lands on the
        // pattern's U slot and waits a whole slot for the next D.
        assert_eq!((tick.offered, tick.delivered, tick.late), (3, 3, 1), "{tick:?}");
        // Slots 0, 1, 2 and 4; nothing was ever left queued after one.
        assert_eq!((cell.total_slots, cell.peak_queue, cell.peak_events), (4, 0, 2));
        assert_eq!(cell, event_queue_cell(&cfg, 0, every_slot));
    }

    #[test]
    fn an_arrival_at_the_horizon_is_never_offered() {
        // Horizon = 2.0 ms: the fourth tick lands exactly on it. A `<=`
        // disarm test would offer it (slot 4 starts at 2.0 ms and is run).
        let cell = ticking_cell(&one_arrival_per_slot_boundary(4));
        assert_eq!(cell.classes[0].offered, 3);
        // One nanosecond later it is inside the window.
        let mut longer = one_arrival_per_slot_boundary(4);
        longer.horizon += Duration::from_nanos(1);
        let cell = ticking_cell(&longer);
        assert_eq!(cell.classes[0].offered, 4);
        assert_eq!(cell, event_queue_cell(&longer, 0, every_slot));
    }

    /// A random class: aggregate gap 2–400 µs, so a 50 ms horizon stays
    /// under ~25 000 packets a class while covering idle, busy and
    /// saturated cells against a slot that carries a few kilobytes.
    fn arb_class() -> impl Strategy<Value = UeClass> {
        (1u64..5000, 2u64..400, 16usize..1500, 0u8..4, 100u64..50_000).prop_map(
            |(count, gap_us, packet_bytes, priority, deadline_us)| UeClass {
                name: "",
                count,
                mean_interval: Duration::from_micros(gap_us * count),
                packet_bytes,
                priority,
                deadline: Duration::from_micros(deadline_us),
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn slot_driven_loop_equals_the_event_queue_loop(
            classes in prop::collection::vec(arb_class(), 1..6),
            queue_cap in 1usize..65,
            horizon_us in 1_000u64..50_001,
            seed in any::<u64>(),
            policy in 0usize..4,
        ) {
            let mut classes = classes;
            for (class, name) in classes.iter_mut().zip(["a", "b", "c", "d", "e"]) {
                class.name = name;
            }
            let mut cfg = MulticellConfig::dense_urban(1, 100, seed);
            cfg.cells[0].classes = classes;
            cfg.queue_cap = queue_cap;
            cfg.horizon = Duration::from_micros(horizon_us);
            cfg.policy = [
                PolicySpec::Fcfs,
                PolicySpec::NonPreemptivePriority,
                PolicySpec::RoundRobin,
                PolicySpec::EarliestDeadlineFirst,
            ][policy];
            let new = run_cell(&cfg, 0).expect("runs");
            let old = event_queue_cell(&cfg, 0, exponential_gap);
            // Field for field, so a failure names what moved.
            for (n, o) in new.classes.iter().zip(&old.classes) {
                prop_assert_eq!(
                    (n.name, n.offered, n.delivered, n.late, n.dropped, n.in_flight),
                    (o.name, o.offered, o.delivered, o.late, o.dropped, o.in_flight)
                );
                prop_assert_eq!(&n.latency, &o.latency);
            }
            prop_assert_eq!(
                (new.peak_queue, new.peak_events, new.total_slots),
                (old.peak_queue, old.peak_events, old.total_slots)
            );
            prop_assert_eq!(new, old);
        }
    }

    /// Events on the oracle's queue: one self-rescheduling aggregate
    /// arrival per class, plus the slot clock.
    #[derive(Debug, Clone, Copy)]
    enum Ev {
        /// Aggregate arrival for class `usize` (index into the sorted mix).
        Arrival(usize),
        /// A DL slot boundary (payload: the global slot index).
        Slot(u64),
    }

    /// The oracle: the loop this module ran before it went slot-driven — one
    /// heap event per packet on a `sim::EventQueue`, arrivals at priority 0
    /// ahead of the slot clock at priority 1 — kept statement for statement.
    /// `gap_of` is the only addition (the arrival distribution of a class),
    /// so the tie tests can run it on exact instants too.
    fn event_queue_cell(
        config: &MulticellConfig,
        cell_idx: usize,
        gap_of: fn(&UeClass) -> Dist,
    ) -> CellReport {
        let stack = &config.stack;
        let cell = &config.cells[cell_idx];
        let rng = SimRng::from_seed(stack.seed).stream_indexed("cell", cell_idx as u64);
        let horizon = Instant::ZERO + config.horizon;
        let drain_limit = horizon + stack.duplex.pattern_period() * 4096;
        let n_ues = cell.n_ues();

        // Serve in priority order; ties broken by config order (stable sort).
        let mut classes: Vec<&UeClass> = cell.classes.iter().collect();
        classes.sort_by_key(|c| c.priority);

        // Each cell runs its own policy value (the round-robin cursor is
        // per-cell state, exactly like a real gNB scheduler's).
        let mut policy = config.policy.build();
        let mut class_seq = 0u64;

        // gNB per-packet work grows with the attached population (§7).
        let decode = {
            let base = stack.gnb_timings.mean_total();
            Duration::from_micros_f64(
                base.as_micros_f64() * (1.0 + config.sched_scaling_per_ue * n_ues as f64),
            )
        };

        // Per-class state: bounded FIFO of arrival instants, arrival sampler,
        // and the outcome counters.
        let mut queues: Vec<std::collections::VecDeque<Instant>> =
            classes.iter().map(|_| std::collections::VecDeque::new()).collect();
        // Bytes of each class's head packet already sent in earlier slots.
        let mut head_sent: Vec<usize> = vec![0; classes.len()];
        let mut reports: Vec<ClassReport> = classes
            .iter()
            .map(|c| ClassReport {
                name: c.name,
                ues: c.count,
                offered: 0,
                delivered: 0,
                late: 0,
                dropped: 0,
                in_flight: 0,
                latency: Recording::fixed(),
            })
            .collect();
        let mut samplers: Vec<(Dist, SimRng)> = classes
            .iter()
            .enumerate()
            .map(|(ci, c)| (gap_of(c), rng.stream_indexed("class-arrivals", ci as u64)))
            .collect();

        let mut queue: EventQueue<Ev> = EventQueue::new();
        for (ci, (dist, r)) in samplers.iter_mut().enumerate() {
            let first = Instant::ZERO + dist.sample(r);
            if first < horizon {
                // Arrivals outrank the slot event at the same instant so a
                // packet arriving exactly on a boundary is eligible for it.
                queue.push_with_priority(first, 0, Ev::Arrival(ci));
            }
        }
        let op0 = stack.duplex.next_dl_opportunity(Instant::ZERO);
        queue.push_with_priority(op0.tx_start, 1, Ev::Slot(op0.slot));

        let slot_bytes = stack.slot_capacity_bytes();
        let mut peak_queue = 0usize;
        let mut peak_events = 0usize;
        let mut total_slots = 0u64;

        while let Some((now, ev)) = queue.pop() {
            peak_events = peak_events.max(queue.len() + 1);
            match ev {
                Ev::Arrival(ci) => {
                    reports[ci].offered += 1;
                    if queues[ci].len() >= config.queue_cap {
                        // Tail drop: the fixed-memory guarantee for cells
                        // offered more than they can serve.
                        reports[ci].dropped += 1;
                    } else {
                        queues[ci].push_back(now);
                    }
                    let (dist, r) = &mut samplers[ci];
                    let next = now + dist.sample(r);
                    if next < horizon {
                        queue.push_with_priority(next, 0, Ev::Arrival(ci));
                    }
                }
                Ev::Slot(slot) => {
                    total_slots += 1;
                    let mut budget = slot_bytes;
                    let mut sent = 0usize;
                    // The policy picks this slot's class service order. Each
                    // class is one item tagged with its priority, slice, and
                    // the head packet's absolute deadline (what EDF keys on).
                    let mut order: Vec<SchedItem> = classes
                        .iter()
                        .enumerate()
                        .map(|(ci, class)| SchedItem {
                            rnti: ci as Rnti,
                            bytes: class.packet_bytes + 32,
                            ready: now,
                            tag: RequestTag {
                                priority: class.priority,
                                deadline: queues[ci].front().map(|&a| a + class.deadline),
                                slice: slice_of(class.priority),
                            },
                            seq: class_seq + ci as u64,
                        })
                        .collect();
                    class_seq += classes.len() as u64;
                    policy.order(now, &mut order);
                    for item in &order {
                        let ci = item.rnti as usize;
                        let class = classes[ci];
                        let wire = class.packet_bytes + 32; // layer overheads
                        while budget > 0 {
                            let Some(&arrival) = queues[ci].front() else { break };
                            // RLC segmentation: a packet larger than the
                            // remaining slot budget sends what fits and
                            // resumes next slot (`head_sent` carries over),
                            // so video-sized SDUs span slots instead of
                            // wedging behind a budget they can never meet.
                            let take = (wire - head_sent[ci]).min(budget);
                            budget -= take;
                            sent += take;
                            head_sent[ci] += take;
                            if head_sent[ci] < wire {
                                break; // slot exhausted mid-packet
                            }
                            head_sent[ci] = 0;
                            queues[ci].pop_front();
                            // Delivery: slot TX start + air time of everything
                            // sent so far this slot + population-inflated
                            // decode.
                            let done = now + stack.data_air_time(sent) + decode;
                            let latency = done - arrival;
                            reports[ci].delivered += 1;
                            if latency > class.deadline {
                                reports[ci].late += 1;
                            }
                            reports[ci].latency.record(latency);
                        }
                    }
                    let depth: usize = queues.iter().map(|q| q.len()).sum();
                    peak_queue = peak_queue.max(depth);
                    let backlog = depth > 0;
                    if !queue.is_empty() || backlog {
                        let after = stack.duplex.slot_start(slot + 1);
                        let op = stack.duplex.next_dl_opportunity(after);
                        if op.tx_start <= drain_limit {
                            queue.push_with_priority(op.tx_start, 1, Ev::Slot(op.slot));
                        } else {
                            // Drain budget exhausted: a wedged cell surfaces
                            // as in_flight > 0, not a hang.
                            break;
                        }
                    }
                }
            }
        }

        for (ci, q) in queues.iter().enumerate() {
            reports[ci].in_flight = q.len() as u64;
        }
        CellReport { cell: cell_idx, n_ues, classes: reports, peak_queue, peak_events, total_slots }
    }
}
