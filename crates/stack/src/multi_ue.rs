//! Multi-UE uplink scalability — the paper's §9 open problem, as an
//! experiment.
//!
//! §5 establishes that grant-free access is the low-latency choice but
//! "cannot scale to many UEs as these pre-allocated resources are limited
//! and can be wasted if there are no uplink packets"; §9 asks how latency
//! behaves as the UE population grows. This module simulates `n` UEs
//! sharing one cell's uplink:
//!
//! * **Grant-free**: every UE owns a share of each UL opportunity. Once
//!   the per-slot capacity is exhausted (`n · grant > capacity`), UEs are
//!   rotated across opportunities round-robin, multiplying their access
//!   period — latency grows in capacity-quantised steps. Opportunities a
//!   UE owns but does not use are *wasted* (the §5 cost).
//! * **Grant-based**: SRs are one bit and effectively never contend, but
//!   the granted data transmissions share the same slot capacity, and the
//!   per-round scheduler work grows with the attached population (§7:
//!   "higher number of UEs might increase the processing times
//!   noticeably").

use ran::sched::{AccessMode, Rnti, Scheduler, SchedulerConfig, SlotDecision};
use sim::{Dist, Duration, EventQueue, Instant, Recording, SimRng};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::config::StackConfig;
use crate::node::StackError;

/// UEs per sub-shard when a grant-free population point is split across
/// workers (mirrors `BATCH_PINGS` for ping batches): big enough to
/// amortise per-shard setup, small enough that one 256-UE point becomes
/// several units of work instead of one wall-time-dominating shard.
const SUB_SHARD_UES: usize = 64;

/// Configuration of the scalability experiment.
#[derive(Debug, Clone)]
pub struct MultiUeConfig {
    /// The single-UE system configuration to scale.
    pub base: StackConfig,
    /// Number of attached UEs.
    pub n_ues: usize,
    /// Mean interval between uplink packets per UE (Poisson).
    pub mean_interval: Duration,
    /// Packets per UE to simulate.
    pub packets_per_ue: u64,
    /// Fractional growth of gNB scheduling/decoding work per attached UE
    /// (0.01 = +1 % per UE).
    pub sched_scaling_per_ue: f64,
}

impl MultiUeConfig {
    /// A testbed-based scalability setup.
    pub fn testbed(access: AccessMode, n_ues: usize) -> MultiUeConfig {
        MultiUeConfig {
            base: StackConfig::testbed_dddu(access, true),
            n_ues,
            mean_interval: Duration::from_millis(20),
            packets_per_ue: 60,
            sched_scaling_per_ue: 0.01,
        }
    }
}

/// Result of a scalability run.
#[derive(Debug, Clone)]
pub struct MultiUeResult {
    /// UE population.
    pub n_ues: usize,
    /// One-way uplink latency across all UEs (arrival → decoded at gNB).
    /// Recorded fixed-memory ([`Recording::fixed`]): this is a scale path,
    /// and per-sample storage would grow with `n_ues × packets_per_ue`.
    pub ul: Recording,
    /// Grant-free only: fraction of owned transmission opportunities that
    /// carried no data (the wasted pre-allocation of §5).
    pub wasted_fraction: Option<f64>,
    /// Grant-free only: how many UL opportunities each UE must wait
    /// between its owned ones (1 = every opportunity).
    pub rotation_period: Option<u64>,
}

/// Runs the experiment. A configuration whose load cannot drain its own
/// scheduler (or whose opportunity rotation never cycles) surfaces as
/// `StackError::Diverged` instead of aborting the whole sweep.
pub fn run_multi_ue(config: &MultiUeConfig) -> Result<MultiUeResult, StackError> {
    match config.base.access {
        AccessMode::GrantFree => run_grant_free(config),
        AccessMode::GrantBased => run_grant_based(config),
    }
}

/// Schedules Poisson arrivals for UEs `ue_start..ue_start + ue_len` on one
/// event queue. Per-UE times ascend and UEs are pushed in index order, so
/// the queue pops in `(time, UE)` order. Grant-based needs that order: its
/// one scheduler sees SRs as they arrive across the population. Grant-free
/// only needs each UE's stream keyed by its *global* index, so any
/// partition of the population draws the same arrivals.
fn arrival_queue(
    config: &MultiUeConfig,
    rng: &SimRng,
    ue_start: usize,
    ue_len: usize,
) -> EventQueue<usize> {
    let mut queue = EventQueue::new();
    for ue in ue_start..ue_start + ue_len {
        let mut r = rng.stream_indexed("ue-arrivals", ue as u64);
        let inter = Dist::Exponential { mean: config.mean_interval };
        // Random phase so UEs are not synchronised.
        let mut t = Instant::ZERO
            + Dist::Uniform { lo: Duration::ZERO, hi: config.mean_interval }.sample(&mut r);
        for _ in 0..config.packets_per_ue {
            t += inter.sample(&mut r);
            queue.push(t, ue);
        }
    }
    queue
}

/// Mean UE-side prep (upper layers + MAC + PHY) for latency accounting.
fn ue_prep(config: &MultiUeConfig) -> Duration {
    config.base.ue_timings.mean_total()
}

/// Mean gNB-side decode (PHY..SDAP), inflated by the population.
fn gnb_decode(config: &MultiUeConfig) -> Duration {
    let base = config.base.gnb_timings.mean_total();
    Duration::from_micros_f64(
        base.as_micros_f64() * (1.0 + config.sched_scaling_per_ue * config.n_ues as f64),
    )
}

/// Partial grant-free result for one UE range. Every field merges
/// commutatively (histogram buckets, a per-UE-keyed used count, a max), so
/// any partition of the population into spans reduces to the identical
/// [`MultiUeResult`].
struct GrantFreeSpan {
    ul: Recording,
    used: u64,
    horizon: Instant,
}

/// Runs the grant-free experiment for UEs `ue_start..ue_start + ue_len`.
/// Each arrival's latency is a pure function of its own arrival time and
/// the (population-derived) rotation parameters — no shared scheduler
/// state — which is what makes the per-UE split sound.
fn grant_free_span(
    config: &MultiUeConfig,
    rng: &SimRng,
    ue_start: usize,
    ue_len: usize,
) -> Result<GrantFreeSpan, StackError> {
    let duplex = &config.base.duplex;
    let capacity = config.base.slot_capacity_bytes();
    let grant = config.base.grant_bytes();
    let per_slot_ues = (capacity / grant).max(1);
    // Rotation: how many UL opportunities pass between a UE's owned ones.
    let rotation = config.n_ues.div_ceil(per_slot_ues).max(1) as u64;

    let prep = ue_prep(config);
    let decode = gnb_decode(config);
    let mut ul = Recording::fixed();
    // (ue, ordinal) pairs are keyed by the UE, and every arrival of a UE
    // lands in its own span — so per-span dedup equals global dedup.
    let mut used_pairs: BTreeSet<(usize, u64)> = BTreeSet::new();
    let mut horizon = Instant::ZERO;

    let mut queue = arrival_queue(config, rng, ue_start, ue_len);
    while let Some((arrival, ue)) = queue.pop() {
        let ready = arrival + prep;
        // The UE's owned opportunities are every `rotation`-th UL
        // opportunity, offset by its index.
        let mut op = duplex.next_ul_opportunity(ready);
        let mut op_index = op.slot; // opportunity counting via slot index
        let residue = ue as u64 % rotation;
        // Walk forward until the opportunity index matches the UE's turn.
        let mut guard = 0;
        while ul_op_ordinal(duplex, op_index) % rotation != residue {
            op = duplex.next_ul_opportunity(duplex.slot_start(op.slot + 1));
            op_index = op.slot;
            guard += 1;
            if guard >= 10_000 {
                return Err(StackError::Diverged(format!(
                    "rotation search found no owned opportunity for ue {ue} \
                     (rotation {rotation}) within 10000 slots"
                )));
            }
        }
        let done = op.tx_start + config.base.data_air_time(config.base.payload_bytes + 32) + decode;
        ul.record(done - arrival);
        used_pairs.insert((ue, ul_op_ordinal(duplex, op.slot)));
        horizon = horizon.max(done);
    }
    Ok(GrantFreeSpan { ul, used: used_pairs.len() as u64, horizon })
}

/// Assembles the full grant-free result from merged spans.
fn grant_free_result(
    config: &MultiUeConfig,
    ul: Recording,
    used: u64,
    horizon: Instant,
) -> MultiUeResult {
    let capacity = config.base.slot_capacity_bytes();
    let grant = config.base.grant_bytes();
    let per_slot_ues = (capacity / grant).max(1);
    let rotation = config.n_ues.div_ceil(per_slot_ues).max(1) as u64;
    // Owned-but-unused opportunities: each UE owns one opportunity per
    // rotation period over the whole horizon.
    let total_ul_ops = count_ul_ops(&config.base.duplex, horizon);
    let owned_per_ue = total_ul_ops / rotation;
    let owned_total = owned_per_ue * config.n_ues as u64;
    let wasted = owned_total.saturating_sub(used);
    MultiUeResult {
        n_ues: config.n_ues,
        ul,
        wasted_fraction: Some(if owned_total == 0 {
            0.0
        } else {
            wasted as f64 / owned_total as f64
        }),
        rotation_period: Some(rotation),
    }
}

fn run_grant_free(config: &MultiUeConfig) -> Result<MultiUeResult, StackError> {
    let rng = SimRng::from_seed(config.base.seed);
    let mut ul = Recording::fixed();
    let mut used = 0u64;
    let mut horizon = Instant::ZERO;
    for (start, len) in sim::parallel::shard_ranges(config.n_ues as u64, SUB_SHARD_UES as u64) {
        let span = grant_free_span(config, &rng, start as usize, len as usize)?;
        ul.merge(&span.ul);
        used += span.used;
        horizon = horizon.max(span.horizon);
    }
    Ok(grant_free_result(config, ul, used, horizon))
}

/// Ordinal of the UL opportunity carried by `slot` (how many UL-capable
/// slots precede it).
fn ul_op_ordinal(duplex: &phy::duplex::Duplex, slot: u64) -> u64 {
    match duplex {
        phy::duplex::Duplex::Fdd { .. } => slot,
        phy::duplex::Duplex::Tdd(c) => {
            let per = c.slots_per_period();
            let ul_per_period = (0..per).filter(|&s| c.slot_kind(s).has_ul()).count() as u64;
            let full = slot / per;
            let within = (0..(slot % per)).filter(|&s| c.slot_kind(s).has_ul()).count() as u64;
            full * ul_per_period + within
        }
    }
}

/// Number of UL opportunities up to `horizon`.
fn count_ul_ops(duplex: &phy::duplex::Duplex, horizon: Instant) -> u64 {
    let slots = horizon.as_nanos() / duplex.slot_duration().as_nanos();
    ul_op_ordinal(duplex, slots)
}

fn run_grant_based(config: &MultiUeConfig) -> Result<MultiUeResult, StackError> {
    // The scheduler addresses UEs by RNTI: a larger population would alias
    // UE 65 536 + k onto UE k, merging their SR queues and arrival ledgers.
    let rntis = Rnti::MAX as usize + 1;
    if config.n_ues > rntis {
        return Err(StackError::Diverged(format!(
            "{} grant-based UEs exceed the {rntis} RNTIs one cell can address",
            config.n_ues
        )));
    }
    let duplex = config.base.duplex.clone();
    let mut sched_cfg: SchedulerConfig = config.base.scheduler_config();
    sched_cfg.access = AccessMode::GrantBased;
    let mut sched = Scheduler::new(sched_cfg);
    let prep = ue_prep(config);
    let decode = gnb_decode(config);
    // Scheduler work grows with the population: SR decode inflates too.
    let sr_decode = Duration::from_micros_f64(
        100.0 * (1.0 + config.sched_scaling_per_ue * config.n_ues as f64),
    );
    let rng = SimRng::from_seed(config.base.seed);
    let mut ul = Recording::fixed();
    // FIFO of outstanding arrivals per UE, so grants (possibly served in a
    // later round than they were requested) are attributed correctly.
    let mut outstanding: BTreeMap<Rnti, VecDeque<Instant>> = BTreeMap::new();
    let air = config.base.data_air_time(config.base.payload_bytes + 32);

    // A grant for an RNTI that never sent an SR, or for a UE whose every
    // outstanding packet was already served, means the scheduler's grant
    // queue and our arrival ledger have diverged — reachable when a
    // saturated scheduler re-issues grants past its own bookkeeping, so
    // it surfaces as a typed error instead of a panic.
    let serve = |decision: &SlotDecision,
                 outstanding: &mut BTreeMap<Rnti, VecDeque<Instant>>,
                 ul: &mut Recording|
     -> Result<(), StackError> {
        for grant in &decision.ul_grants {
            let queue = outstanding.get_mut(&grant.rnti).ok_or_else(|| {
                StackError::Diverged(format!(
                    "scheduler granted rnti {} which never requested uplink",
                    grant.rnti
                ))
            })?;
            let arrival = queue.pop_front().ok_or_else(|| {
                StackError::Diverged(format!(
                    "scheduler over-granted rnti {}: no outstanding packet",
                    grant.rnti
                ))
            })?;
            ul.record(grant.ul.tx_start + air + decode - arrival);
        }
        Ok(())
    };

    let mut last_boundary = 0u64;
    let mut decision = SlotDecision::default();
    let mut queue = arrival_queue(config, &rng, 0, config.n_ues);
    while let Some((arrival, ue)) = queue.pop() {
        let ready = arrival + prep;
        // SR: one bit in the next UL opportunity (no contention).
        let sr_op = duplex.next_ul_opportunity(ready);
        let sr_visible = sr_op.tx_start + duplex.numerology().symbol_offset(1) + sr_decode;
        outstanding.entry(ue as Rnti).or_default().push_back(arrival);
        sched.on_sr(ue as Rnti, sr_visible);
        // Keep scheduler invocations monotone.
        let boundary = (duplex.slot_index_at(sr_visible) + 1).max(last_boundary);
        last_boundary = boundary;
        sched.run_slot_into(boundary, &mut decision);
        serve(&decision, &mut outstanding, &mut ul)?;
    }
    // Flush any SRs deferred past the last boundary.
    let mut guard = 0;
    while sched.backlog().0 > 0 {
        last_boundary += 1;
        sched.run_slot_into(last_boundary, &mut decision);
        serve(&decision, &mut outstanding, &mut ul)?;
        guard += 1;
        if guard >= 100_000 {
            return Err(StackError::Diverged(format!(
                "scheduler holds {} SRs it cannot drain within 100000 flush rounds \
                 ({} UEs over-saturate the cell)",
                sched.backlog().0,
                config.n_ues,
            )));
        }
    }

    Ok(MultiUeResult { n_ues: config.n_ues, ul, wasted_fraction: None, rotation_period: None })
}

/// Sweeps the UE population, returning one result per point. The sweep is
/// bit-identical regardless of worker count. The first diverging point
/// fails the whole sweep (points are independent, so one divergence means
/// the configuration itself is bad, not the neighbours).
///
/// Sharding is two-level: grant-free points split into `SUB_SHARD_UES`
/// UE ranges (the way ping batches split into `BATCH_PINGS`), so the
/// largest population no longer occupies one worker for the whole sweep
/// while the rest idle. The split is sound because a grant-free arrival's
/// latency depends only on its own UE's stream and the population-derived
/// rotation — spans merge commutatively into the identical result.
/// Grant-based points stay whole: their scheduler state is shared across
/// every arrival of the run.
pub fn scalability_sweep(
    access: AccessMode,
    populations: &[usize],
    seed: u64,
) -> Result<Vec<MultiUeResult>, StackError> {
    enum Shard {
        Whole(usize),
        Span { point: usize, start: usize, len: usize },
    }
    enum Out {
        Whole(MultiUeResult),
        Span(GrantFreeSpan),
    }
    let configs: Vec<MultiUeConfig> = populations
        .iter()
        .map(|&n| {
            let mut cfg = MultiUeConfig::testbed(access, n);
            cfg.base = cfg.base.with_seed(seed);
            cfg
        })
        .collect();
    let mut shards = Vec::new();
    for (point, &n) in populations.iter().enumerate() {
        match access {
            AccessMode::GrantFree => {
                for (start, len) in sim::parallel::shard_ranges(n as u64, SUB_SHARD_UES as u64) {
                    shards.push(Shard::Span { point, start: start as usize, len: len as usize });
                }
            }
            AccessMode::GrantBased => shards.push(Shard::Whole(point)),
        }
    }
    let mut results: Vec<Option<MultiUeResult>> = Vec::new();
    results.resize_with(populations.len(), || None);
    let partial: Vec<(Recording, u64, Instant)> =
        populations.iter().map(|_| (Recording::fixed(), 0u64, Instant::ZERO)).collect();
    // Reduced in shard-index order as the shards land; the first error in
    // that order wins and the shards after it are dropped unread.
    let (results, partial, status) = sim::parallel::fold_shards_with(
        sim::parallel::jobs(),
        shards.len(),
        |i| match shards[i] {
            Shard::Whole(point) => run_multi_ue(&configs[point]).map(|r| (point, Out::Whole(r))),
            Shard::Span { point, start, len } => {
                let cfg = &configs[point];
                let rng = SimRng::from_seed(cfg.base.seed);
                grant_free_span(cfg, &rng, start, len).map(|s| (point, Out::Span(s)))
            }
        },
        (results, partial, Ok(())),
        |(results, partial, status), out| match out {
            _ if status.is_err() => {}
            Err(e) => *status = Err(e),
            Ok((point, Out::Whole(r))) => results[point] = Some(r),
            Ok((point, Out::Span(s))) => {
                let acc = &mut partial[point];
                acc.0.merge(&s.ul);
                acc.1 += s.used;
                acc.2 = acc.2.max(s.horizon);
            }
        },
    );
    status?;
    Ok(results
        .into_iter()
        .zip(partial)
        .zip(&configs)
        .map(|((whole, (ul, used, horizon)), cfg)| match whole {
            Some(r) => r,
            None => grant_free_result(cfg, ul, used, horizon),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_free_latency_is_flat_then_grows() {
        let results =
            scalability_sweep(AccessMode::GrantFree, &[1, 4, 16, 64, 256], 1).expect("converges");
        let means: Vec<f64> = results
            .iter()
            .map(|r| {
                let mut rec = r.ul.clone();
                rec.summary().mean_us
            })
            .collect();
        // Few UEs: everyone fits each opportunity — statistically identical
        // latency (the difference is arrival-sampling noise).
        assert!((means[0] - means[1]).abs() < 250.0, "{means:?}");
        // Many UEs: rotation forces multi-period waits.
        assert!(means[4] > 2.0 * means[0], "{means:?}");
        // Rotation period reflects the capacity quantisation.
        assert_eq!(results[0].rotation_period, Some(1));
        assert!(results[4].rotation_period.unwrap() > 1);
    }

    #[test]
    fn grant_free_wastes_resources_at_low_load_and_rotates_at_high_load() {
        // §5's two costs, visible at the two ends of the sweep: with few
        // UEs most pre-allocated opportunities idle (waste); with many UEs
        // the rotation period grows (latency). You cannot win both.
        let results =
            scalability_sweep(AccessMode::GrantFree, &[1, 32, 128], 2).expect("converges");
        let waste: Vec<f64> = results.iter().map(|r| r.wasted_fraction.unwrap()).collect();
        assert!(waste[0] > 0.8, "sparse traffic should idle most allocations: {waste:?}");
        assert!(waste[0] > waste[2], "saturation uses up the pool: {waste:?}");
        assert!(results[2].rotation_period.unwrap() > 4 * results[0].rotation_period.unwrap());
    }

    #[test]
    fn grant_based_scales_more_gracefully_but_starts_higher() {
        // Compare within the stable-load region (the cell carries ~3.5
        // grants/ms; 48 UEs at one packet per 20 ms offer ~2.4/ms).
        let gf = scalability_sweep(AccessMode::GrantFree, &[1, 48], 3).expect("converges");
        let gb = scalability_sweep(AccessMode::GrantBased, &[1, 48], 3).expect("converges");
        let mean = |r: &MultiUeResult| {
            let mut rec = r.ul.clone();
            rec.summary().mean_us
        };
        // Single UE: grant-free is faster (no handshake).
        assert!(mean(&gf[0]) < mean(&gb[0]), "gf {} gb {}", mean(&gf[0]), mean(&gb[0]));
        // Large population: grant-free degrades far more than grant-based.
        let gf_growth = mean(&gf[1]) / mean(&gf[0]);
        let gb_growth = mean(&gb[1]) / mean(&gb[0]);
        assert!(
            gf_growth > 1.5 * gb_growth,
            "gf growth {gf_growth:.2} vs gb growth {gb_growth:.2}"
        );
    }

    #[test]
    fn both_access_modes_converge_from_one_to_64_ues() {
        for access in [AccessMode::GrantFree, AccessMode::GrantBased] {
            let results = scalability_sweep(access, &[1, 16, 64], 5).expect("sweep converges");
            let counts: Vec<u64> = results.iter().map(|r| r.ul.count()).collect();
            assert_eq!(counts, [60, 16 * 60, 64 * 60], "{access:?}");
        }
    }

    #[test]
    fn grant_based_rejects_a_population_past_the_rnti_space() {
        // Fails before any arrival is sampled, so the test is instant.
        let cfg = MultiUeConfig::testbed(AccessMode::GrantBased, Rnti::MAX as usize + 2);
        let err = run_multi_ue(&cfg).expect_err("UE 65536 would alias UE 0");
        assert!(matches!(&err, StackError::Diverged(m) if m.contains("65537")), "{err:?}");
    }

    #[test]
    fn all_packets_are_recorded() {
        let mut cfg = MultiUeConfig::testbed(AccessMode::GrantFree, 8);
        cfg.packets_per_ue = 20;
        let r = run_multi_ue(&cfg).expect("converges");
        assert_eq!(r.ul.count(), 8 * 20);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = scalability_sweep(AccessMode::GrantFree, &[16], 9).expect("converges");
        let b = scalability_sweep(AccessMode::GrantFree, &[16], 9).expect("converges");
        assert_eq!(a[0].wasted_fraction, b[0].wasted_fraction);
        let (mut ra, mut rb) = (a[0].ul.clone(), b[0].ul.clone());
        assert_eq!(ra.summary(), rb.summary());
    }
}
