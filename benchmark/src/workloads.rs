//! The five end-to-end workloads. Each is an in-process batch run of one
//! public engine entry point at a fixed input size; a repetition returns
//! the simulated statistics a user of the laboratory would read, a digest
//! of them, and fails if its conservation ledger or its guards do not hold.

use bytes::Bytes;
use ran::sched::AccessMode;
use sim::{Duration, FaultPlan, LogLinearHistogram, Recording};
use stack::{
    run_multicell, run_parallel, run_parallel_opts, run_sched_lab, ExperimentResult,
    MulticellConfig, SchedLabConfig, StackConfig, UeStack,
};
use telemetry::Telemetry;

use crate::measure::Digest;

/// A named workload: what it counts and why it is in the set.
pub struct Workload {
    pub name: &'static str,
    /// The unit of work `units_per_s` counts.
    pub unit: &'static str,
    /// One line, copied into `BENCHMARK.json`.
    pub why: &'static str,
    /// The longer rationale printed by `--list`.
    pub stresses: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "ping_small",
        unit: "ping",
        why: "64 B testbed pings through the full byte path, telemetry dark: per-packet fixed cost (Gold warm-up, per-TB allocations) dominates",
        stresses: "stack::pipeline -> node -> ran::{sdap,pdcp,rlc,mac} -> phy::transport -> radio -> corenet; \
                   2x(transport encode+decode) and 4x PDCP cipher per ping",
    },
    Workload {
        name: "ping_large",
        unit: "ping",
        why: "1000 B pings in one transport block: the same layers as ping_small with per-byte cost (scrambling, modulation) dominating",
        stresses: "phy::transport at ~3/4 of host time, PDCP cipher next; a warm-up cache barely moves it, \
                   word-width scrambling moves it most",
    },
    Workload {
        name: "ping_chaos_lit",
        unit: "ping",
        why: "64 B pings under FaultPlan::chaos(0.4) with telemetry recording: fault recovery paths and the telemetry write side",
        stresses: "sim::faults, SR/RACH/HARQ/RRC recovery in ran, journal + flight recorder + registry in telemetry",
    },
    Workload {
        name: "sched_grid",
        unit: "packet",
        why: "7 policies x 3 loads x 3 mixes through Scheduler::run_slot with no byte path: policy sorts and backlog growth at load 1.1",
        stresses: "ran::sched::Scheduler::run_slot, the seven SchedulingPolicy::order sorts, exponential arrivals, \
                   fixed-memory recording",
    },
    Workload {
        name: "city_multicell",
        unit: "packet",
        why: "10^6 UEs in 8 cells for 100 simulated seconds: pure substrate (event queue, aggregated arrivals, histogram record) in fixed memory",
        stresses: "sim::EventQueue, sim::dist/rng, Recording::Fixed, the multicell priority slot loop with \
                   head_sent segmentation, tail drop in the rho=2.0 hotspots",
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Full-size inputs are divided by this in `--quick` mode.
pub const QUICK_DIVISOR: u64 = 50;

/// Pings per full-size repetition of the 64 B workloads.
pub const SMALL_PINGS: u64 = 15_000;
/// Pings per full-size repetition of `ping_large`.
pub const LARGE_PINGS: u64 = 2_000;
const LARGE_PAYLOAD: usize = 1_000;
const LIT_TRACES: usize = 64;
const LIT_JOURNAL: usize = 65_536;
const SCHED_POINTS: usize = 7 * 3 * 3;
const CITY_CELLS: usize = 8;
const CITY_UES_PER_CELL: u64 = 125_000;

/// A workload with its configuration built: everything a repetition needs.
pub enum Prepared {
    Ping { cfg: StackConfig, pings: u64, lit: bool },
    Sched(SchedLabConfig),
    City(MulticellConfig),
}

/// What one repetition produced, in simulated terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rep {
    /// Units of work completed (pings or packets).
    pub units: u64,
    /// 99th-percentile latency in simulated microseconds.
    pub sim_p99_us: f64,
    /// Share of units that met their simulated deadline.
    pub sim_on_time_share: f64,
    /// Digest of the simulated statistics and counts.
    pub digest: u64,
}

/// The stack configuration, ping count and telemetry switch of a ping
/// workload; `None` for the two packet workloads.
pub fn ping_config(name: &str, seed: u64) -> Option<(StackConfig, u64, bool)> {
    let testbed = StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(seed);
    match name {
        "ping_small" => Some((testbed, SMALL_PINGS, false)),
        "ping_large" => {
            let mut cfg = testbed;
            cfg.payload_bytes = LARGE_PAYLOAD;
            // The testbed slot holds 918 B at code rate 0.5, which would
            // split the payload over two transport blocks and make this a
            // segmentation workload. Rate 0.6 gives a 1101 B slot; on the
            // host path the code rate sets nothing but that capacity.
            cfg.code_rate = 0.6;
            Some((cfg, LARGE_PINGS, false))
        }
        "ping_chaos_lit" => Some((testbed.with_faults(FaultPlan::chaos(0.4)), SMALL_PINGS, true)),
        _ => None,
    }
}

/// Builds the configuration of workload `name` keyed by `seed` and checks
/// the guards that do not need a run.
pub fn prepare(name: &str, seed: u64, quick: bool) -> Result<Prepared, String> {
    let div = if quick { QUICK_DIVISOR } else { 1 };
    if let Some((cfg, pings, lit)) = ping_config(name, seed) {
        if name == "ping_large" {
            guard_single_large_tb(&cfg)?;
        }
        return Ok(Prepared::Ping { cfg, pings: pings / div, lit });
    }
    match name {
        "sched_grid" => {
            let mut cfg = SchedLabConfig::simurllc(seed);
            cfg.horizon = Duration::from_millis(1_000 / div);
            Ok(Prepared::Sched(cfg))
        }
        "city_multicell" => {
            let mut cfg = MulticellConfig::dense_urban(CITY_CELLS, CITY_UES_PER_CELL, seed);
            cfg.horizon = Duration::from_millis(100_000 / div);
            if cfg.total_ues() != 1_000_000 {
                return Err(format!("city_multicell attaches {} UEs, not 10^6", cfg.total_ues()));
            }
            Ok(Prepared::City(cfg))
        }
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// `ping_large` must put its whole payload in one transport block, or it
/// would measure segmentation instead of per-byte cost.
fn guard_single_large_tb(cfg: &StackConfig) -> Result<(), String> {
    let payload = Bytes::from(vec![0xA5u8; cfg.payload_bytes]);
    let pdus = UeStack::new(0x4601, cfg.seed)
        .encode_uplink(&payload, cfg.grant_bytes())
        .map_err(|e| format!("ping_large guard: {e}"))?;
    let [pdu] = pdus.as_slice() else {
        return Err(format!("ping_large payload was split into {} MAC PDUs", pdus.len()));
    };
    if pdu.len() < LARGE_PAYLOAD || pdu.len() > cfg.slot_capacity_bytes() {
        return Err(format!(
            "ping_large transport block is {} B (slot holds {} B)",
            pdu.len(),
            cfg.slot_capacity_bytes()
        ));
    }
    let shch = phy::transport::ShChConfig { modulation: cfg.modulation, c_init: 1 };
    match phy::transport::encode(shch, pdu).1 {
        1 => Ok(()),
        n => Err(format!("ping_large transport block was cut into {n} code blocks")),
    }
}

impl Prepared {
    /// Runs one repetition. `Err` marks the repetition as failed: a typed
    /// error from the engine, a broken conservation ledger, or a guard
    /// showing the workload did not exercise what it claims to.
    pub fn run(&self) -> Result<Rep, String> {
        match self {
            Prepared::Ping { cfg, pings, lit: false } => {
                ping_rep(run_parallel(cfg, *pings), *pings)
            }
            Prepared::Ping { cfg, pings, lit: true } => {
                let tel = Telemetry::new(LIT_JOURNAL);
                let result = run_parallel_opts(cfg, *pings, LIT_TRACES, Some(&tel));
                if tel.journal_events().is_empty() {
                    return Err("ping_chaos_lit left the journal empty".into());
                }
                if tel.flight_exemplars().is_empty() {
                    return Err("ping_chaos_lit retained no flight exemplar".into());
                }
                if result.attribution.miss_probability() <= 0.0 {
                    return Err("ping_chaos_lit missed no deadline: the faults did not bite".into());
                }
                ping_rep(result, *pings)
            }
            Prepared::Sched(cfg) => sched_rep(cfg),
            Prepared::City(cfg) => city_rep(cfg),
        }
    }
}

fn ping_rep(mut r: ExperimentResult, pings: u64) -> Result<Rep, String> {
    let a = r.attribution;
    if a.lost + a.on_time + a.late != pings {
        return Err(format!(
            "ping ledger broken: {} lost + {} on time + {} late != {pings}",
            a.lost, a.on_time, a.late
        ));
    }
    if r.rtt.count() + a.lost != pings || r.integrity_failures != 0 {
        return Err(format!(
            "{} round trips recorded, {} lost, {} integrity failures for {pings} pings",
            r.rtt.count(),
            a.lost,
            r.integrity_failures
        ));
    }
    let p99 = r.rtt.quantile_us(0.99);
    let mut d = Digest::new();
    d.count("pings", pings);
    d.count("on_time", a.on_time);
    d.count("late", a.late);
    d.count("lost", a.lost);
    d.stat("rtt_p50_us", r.rtt.quantile_us(0.5));
    d.stat("rtt_p99_us", p99);
    d.stat("rtt_max_us", r.rtt.quantile_us(1.0));
    d.stat("ul_p99_us", r.ul.quantile_us(0.99));
    d.stat("dl_p99_us", r.dl.quantile_us(0.99));
    d.count("harq_retx", r.harq_retx);
    d.count("sr_retx", r.sr_retx);
    d.count("rach_recoveries", r.rach_recoveries);
    d.count("grants_withheld", r.grants_withheld);
    d.count("rlf", r.rlf.len() as u64);
    d.count("recovered", r.recovered);
    d.count("path_failovers", r.path_failovers);
    d.count("metric_keys", r.telemetry.metric_keys as u64);
    d.count("journal_events", r.telemetry.journal_events as u64);
    Ok(Rep {
        units: pings,
        sim_p99_us: p99,
        sim_on_time_share: a.on_time as f64 / pings as f64,
        digest: d.value(),
    })
}

fn sched_rep(cfg: &SchedLabConfig) -> Result<Rep, String> {
    let points = run_sched_lab(cfg);
    if points.len() != SCHED_POINTS {
        return Err(format!("sched_grid ran {} points, not {SCHED_POINTS}", points.len()));
    }
    let mut d = Digest::new();
    let (mut packets, mut missed, mut urllc_p99_sum) = (0u64, 0.0f64, 0.0f64);
    for p in &points {
        d.count(p.policy, p.punctured_bytes);
        for c in &p.classes {
            if c.count == 0 {
                return Err(format!(
                    "sched_grid class {} of {}/{} is empty",
                    c.class, p.policy, p.mix
                ));
            }
            packets += c.count;
            missed += c.miss_rate * c.count as f64;
            if c.class == "urllc" {
                urllc_p99_sum += c.p99_us;
            }
            d.count(c.class, c.count);
            d.stat("p50_us", c.p50_us);
            d.stat("p99_us", c.p99_us);
            d.stat("max_us", c.max_us);
            d.stat("miss_rate", c.miss_rate);
        }
    }
    Ok(Rep {
        units: packets,
        sim_p99_us: urllc_p99_sum / points.len() as f64,
        sim_on_time_share: 1.0 - missed / packets as f64,
        digest: d.value(),
    })
}

fn city_rep(cfg: &MulticellConfig) -> Result<Rep, String> {
    let report = run_multicell(cfg).map_err(|e| format!("city_multicell: {e}"))?;
    let mut d = Digest::new();
    let mut offered = 0u64;
    for cell in &report.cells {
        if !cell.conserved() {
            return Err(format!("cell {} lost track of a packet", cell.cell));
        }
        if cell.peak_events > 4 {
            return Err(format!("cell {} held {} events at once", cell.cell, cell.peak_events));
        }
        offered += cell.offered();
        d.count("slots", cell.total_slots);
        d.count("peak_queue", cell.peak_queue as u64);
        for c in &cell.classes {
            d.count(c.name, c.offered);
            d.count("delivered", c.delivered);
            d.count("late", c.late);
            d.count("dropped", c.dropped);
            d.count("in_flight", c.in_flight);
        }
    }
    let mem = report.recording_mem_bytes();
    if mem >= 1 << 20 {
        return Err(format!("city_multicell recordings hold {mem} B, not under 1 MiB"));
    }
    let mut latency = report.latency();
    let miss = report.miss_rate();
    d.stat("p99_us", latency.quantile_us(0.99));
    d.stat("miss_rate", miss);
    let p99 = interpolated_quantile_us(&latency, 0.99).ok_or("city_multicell delivered nothing")?;
    Ok(Rep { units: offered, sim_p99_us: p99, sim_on_time_share: 1.0 - miss, digest: d.value() })
}

/// The `q`-quantile of a fixed-memory recording in microseconds, placed
/// inside its histogram bucket by linear interpolation. The program's own
/// quantile is the bucket's lower edge, which with 10^7 samples behind a
/// saturated hotspot queue is the same number for every seed; the reported
/// metric should follow the counts.
fn interpolated_quantile_us(rec: &Recording, q: f64) -> Option<f64> {
    let h = rec.as_fixed().filter(|h| h.count() > 0)?;
    let (lo, hi) = LogLinearHistogram::bucket_bounds(LogLinearHistogram::index_of(h.quantile(q)));
    let below = if lo == 0 { 0.0 } else { h.fraction_le(lo - 1) };
    let upto = h.fraction_le(hi - 1);
    let within = if upto > below { ((q - below) / (upto - below)).clamp(0.0, 1.0) } else { 0.0 };
    Some((lo as f64 + (hi - lo) as f64 * within) / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantile_moves_within_the_bucket() {
        // 1000 samples in one wide bucket, then a tail above it.
        let fill = |tail: u64| {
            let mut rec = Recording::fixed();
            for _ in 0..1000 {
                rec.record(Duration::from_nanos(1 << 20));
            }
            for _ in 0..tail {
                rec.record(Duration::from_nanos(1 << 30));
            }
            rec
        };
        let (lo, hi) = LogLinearHistogram::bucket_bounds(LogLinearHistogram::index_of(1 << 20));
        let light = interpolated_quantile_us(&fill(5), 0.99).unwrap();
        let heavy = interpolated_quantile_us(&fill(9), 0.99).unwrap();
        assert!(heavy > light, "a heavier tail pushes the p99 rank up inside the bucket");
        for v in [light, heavy] {
            assert!(v * 1e3 >= lo as f64 && v * 1e3 <= hi as f64, "{v} us outside [{lo}, {hi}) ns");
        }
        assert_eq!(interpolated_quantile_us(&Recording::fixed(), 0.99), None);
        assert_eq!(interpolated_quantile_us(&Recording::exact(), 0.99), None);
    }
}
