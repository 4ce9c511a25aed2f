//! The one metric table. `--list`, the run output and `BENCHMARK.json` are
//! all rendered from it; a unit test keeps the committed `BENCHMARK.json`
//! equal to [`benchmark_json`].

use std::fmt::Write as _;

use crate::workloads::WORKLOADS;

/// How long one run measures, copied into `BENCHMARK.json` and used as the
/// default for `--seconds`.
pub const RUN_SECONDS: u64 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One row of the table.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// End-to-end metrics that repeat exactly for a fixed seed: two runs
    /// of one commit must agree to the last digit.
    pub exact: bool,
    /// The module measured (`end_to_end` for the whole program).
    pub layer: &'static str,
    /// What the metric is, or — per layer — which end-to-end metric it
    /// should move on which workload.
    pub moves: &'static str,
}

fn e2e(
    name: &str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
    moves: &'static str,
) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        bound: Some(bound),
        exact,
        layer: "end_to_end",
        moves,
    }
}

fn layer(layer: &'static str, name: &str, unit: &'static str, moves: &'static str) -> Metric {
    let better = if unit == "MB/s" || unit == "ratio" { Better::Higher } else { Better::Lower };
    Metric { name: name.into(), unit, better, bound: None, exact: false, layer, moves }
}

/// The hops of `stack::pipeline` whose host time is reported per workload.
pub const PIPELINE_HOPS: [&str; 8] = [
    "gnb_walk_up",
    "ue_rx_up",
    "dl_walk_down",
    "app_down",
    "dl_prep",
    "backbone",
    "ul_access",
    "dl_sched",
];

/// The hops that cost several times more under `ping_chaos_lit` than dark
/// and fault-free: where the fault gates, the SR retries and the lit
/// telemetry act. (`rlf_recovery` never runs at chaos intensity 0.4.)
pub const CHAOS_HOPS: [&str; 3] = ["gnb_radio", "ul_access", "sr_decode"];

// What each group of layer metrics should move (choosing-metrics section 3).
const PHY_SMALL: &str = "units_per_s on ping_small and ping_chaos_lit (4 transport calls per ping, <= ~44% share); none on sched_grid, city_multicell";
const PHY_LARGE: &str =
    "units_per_s on ping_large (~74% share in phy::transport); none on sched_grid, city_multicell";
const PHY_ALLOC: &str = "allocs_per_unit and alloc_bytes_per_unit on the three ping workloads";
const PDCP: &str =
    "units_per_s on ping_small (~25% via the per-COUNT Gold warm-up) and ping_large (~14%)";
const RAN_MINOR: &str = "units_per_s on the ping workloads, under 2% each: recorded to catch regressions, not to promise gains";
const SCHED: &str = "units_per_s on sched_grid (q1000 governs the load-1.1 points, q10/q100 the rest); none on city_multicell";
const SCHED_SLOT: &str =
    "units_per_s on sched_grid; the ping workloads at well under 1% (dl_sched + ul_sched hops)";
const EDGE: &str =
    "units_per_s on the ping workloads, ~1% each (backbone, gnb_radio, radio_ring hops)";
const SIM_CITY: &str =
    "units_per_s on city_multicell (~125 ns/packet in total, so these are the workload)";
const SIM_SCHED: &str = "units_per_s on sched_grid";
const SIM_PING: &str = "units_per_s on the ping workloads, a few percent";
const SIM_PAR: &str =
    "no end-to-end metric (all are single-worker); the cost and gain of sim::parallel";
const TEL_LIT: &str =
    "units_per_s, allocs_per_unit and peak_rss_mb on ping_chaos_lit only (the lit-vs-dark gap)";
const TEL_DARK: &str = "units_per_s on ping_small and ping_large: the zero-perturbation tax";
const CORE: &str =
    "no workload (closed forms are sub-millisecond); baseline for a Table-1-wide sweep";
const NODE_SMALL: &str = "units_per_s on ping_small; with phy.transport.*.b64 should add up to the four big pipeline hops";
const NODE_LARGE: &str = "units_per_s on ping_large; with phy.transport.*.b1000 should add up to the four big pipeline hops";
const HOP: &str =
    "the hop a byte-path change names must account for the units_per_s change on that workload";
const HOP_CHAOS: &str = "units_per_s on ping_chaos_lit only: fault gates, SR retries and lit telemetry; dark workloads must not move";
const ENGINE_SPLIT: &str = "explains units_per_s on sched_grid / city_multicell by load point";
const ENGINE_OTHER: &str =
    "no end-to-end metric: evidence that an engine without a workload got no slower";

/// The table: end-to-end metrics first, then per-layer metrics by layer.
pub fn table() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut t = vec![
        e2e("units_per_s", "units/s", Higher, 0.25, false,
            "host time: units of work / wall time of the fastest timed repetition, one worker"),
        e2e("setup_s", "s", Lower, 0.25, false,
            "host time: configuration build + engine construction + one warm-up repetition, median of three"),
        e2e("peak_rss_mb", "MB", Lower, 0.15, false, "VmHWM of the process at exit"),
        e2e("allocs_per_unit", "count", Lower, 0.01, true,
            "heap allocations per unit of work in a timed repetition (counting global allocator)"),
        e2e("alloc_bytes_per_unit", "B", Lower, 0.01, true,
            "heap bytes requested per unit of work in a timed repetition"),
        e2e("sim_p99_us", "us", Lower, 0.20, true,
            "simulated time: 99th-percentile latency the laboratory reports (sched_grid: mean urllc p99 over the 63 points)"),
        e2e("sim_on_time_share", "share", Higher, 0.05, true,
            "simulated: share of units that met their deadline"),
    ];

    for (name, unit, moves) in [
        ("phy.crc24a.b64.ns_per_op", "ns/op", PHY_SMALL),
        ("phy.crc24a.b1000.ns_per_op", "ns/op", PHY_LARGE),
        ("phy.gold.new.ns_per_op", "ns/op", PHY_SMALL),
        ("phy.gold.scramble.b64.ns_per_op", "ns/op", PHY_SMALL),
        ("phy.gold.scramble.b1000.ns_per_op", "ns/op", PHY_LARGE),
        ("phy.modulate_qpsk.b1000.ns_per_op", "ns/op", PHY_LARGE),
        ("phy.demodulate_qpsk.b1000.ns_per_op", "ns/op", PHY_LARGE),
        ("phy.transport.encode.b64.ns_per_op", "ns/op", PHY_SMALL),
        ("phy.transport.encode.b1000.ns_per_op", "ns/op", PHY_LARGE),
        ("phy.transport.decode.b64.ns_per_op", "ns/op", PHY_SMALL),
        ("phy.transport.decode.b1000.ns_per_op", "ns/op", PHY_LARGE),
        ("phy.transport.encode.b1000.mb_per_s", "MB/s", PHY_LARGE),
        ("phy.transport.decode.b1000.mb_per_s", "MB/s", PHY_LARGE),
        ("phy.transport.roundtrip.b64.allocs_per_op", "count", PHY_ALLOC),
        ("phy.transport.roundtrip.b1000.alloc_bytes_per_op", "B", PHY_ALLOC),
    ] {
        t.push(layer("phy", name, unit, moves));
    }

    for (name, moves) in [
        ("ran.pdcp.tx_encode.b64.ns_per_op", PDCP),
        ("ran.pdcp.tx_encode.b1000.ns_per_op", PDCP),
        ("ran.pdcp.rx_decode.b64.ns_per_op", PDCP),
        ("ran.pdcp.rx_decode.b1000.ns_per_op", PDCP),
        ("ran.rlc_um.segment_reassemble.b64.ns_per_op", RAN_MINOR),
        ("ran.rlc_um.segment_reassemble.b1000.ns_per_op", RAN_MINOR),
        ("ran.rlc_am.tx_rx_ack.b64.ns_per_op", RAN_MINOR),
        ("ran.mac.mux_demux.b64.ns_per_op", RAN_MINOR),
        ("ran.mac.mux_demux.b1000.ns_per_op", RAN_MINOR),
        ("ran.sdap.encode_decode.b64.ns_per_op", RAN_MINOR),
    ] {
        t.push(layer("ran", name, "ns/op", moves));
    }

    for (name, moves) in [
        ("ran.sched.order.fcfs.q1000.ns_per_op", SCHED),
        ("ran.sched.order.edf.q10.ns_per_op", SCHED),
        ("ran.sched.order.edf.q100.ns_per_op", SCHED),
        ("ran.sched.order.edf.q1000.ns_per_op", SCHED),
        ("ran.sched.order.slice_aware.q1000.ns_per_op", SCHED),
        ("ran.sched.run_slot.fcfs.q100.ns_per_op", SCHED_SLOT),
        ("ran.sched.run_slot.fcfs.q1000.ns_per_op", SCHED_SLOT),
        ("ran.sched.run_slot.preemptive.q100.ns_per_op", SCHED_SLOT),
    ] {
        t.push(layer("ran::sched", name, "ns/op", moves));
    }

    t.push(layer("corenet", "corenet.gtpu.encode_decode.b64.ns_per_op", "ns/op", EDGE));
    t.push(layer("corenet", "corenet.gtpu.encode_decode.b1000.ns_per_op", "ns/op", EDGE));
    t.push(layer("radio", "radio.head.submit.ns_per_op", "ns/op", EDGE));

    for (name, unit, moves) in [
        ("sim.event_queue.push_pop.d4.ns_per_op", "ns/op", SIM_CITY),
        ("sim.event_queue.push_pop.d1024.ns_per_op", "ns/op", SIM_PING),
        ("sim.stats.exact_record.ns_per_op", "ns/op", SIM_PING),
        ("sim.stats.fixed_record.ns_per_op", "ns/op", SIM_CITY),
        ("sim.stats.exact_quantile.n100k.us_per_op", "us/op", SIM_PING),
        ("sim.stats.exact_merge.n100k.us_per_op", "us/op", SIM_PING),
        ("sim.arrivals.poisson_next.ns_per_op", "ns/op", SIM_CITY),
        ("sim.arrivals.mmpp_next.ns_per_op", "ns/op", ENGINE_OTHER),
        ("sim.dist.lognormal_sample.ns_per_op", "ns/op", SIM_PING),
        ("sim.rng.stream_indexed.ns_per_op", "ns/op", SIM_SCHED),
        ("sim.parallel.dispatch.ns_per_shard", "ns/shard", SIM_PAR),
        ("sim.parallel.ping_small.speedup_2w", "ratio", SIM_PAR),
    ] {
        t.push(layer("sim", name, unit, moves));
    }

    for (name, unit, moves) in [
        ("telemetry.handle.dark_count.ns_per_op", "ns/op", TEL_DARK),
        ("telemetry.handle.lit_record.ns_per_op", "ns/op", TEL_LIT),
        ("telemetry.journal.push.ns_per_op", "ns/op", TEL_LIT),
        ("telemetry.flight.insert.ns_per_op", "ns/op", TEL_LIT),
        (
            "telemetry.profiler.scope.ns_per_op",
            "ns/op",
            "the stack.pipeline.* figures of the traced pass only",
        ),
        ("telemetry.snapshot.us_per_op", "us/op", TEL_LIT),
    ] {
        t.push(layer("telemetry", name, unit, moves));
    }

    t.push(layer("core", "core.worst_case.table1.us_per_op", "us/op", CORE));
    t.push(layer("core", "core.design.search.us_per_op", "us/op", CORE));

    for op in ["ue_encode_uplink", "gnb_decode_uplink", "gnb_encode_downlink", "ue_decode_downlink"]
    {
        for (size, moves) in [("b64", NODE_SMALL), ("b1000", NODE_LARGE)] {
            t.push(layer(
                "stack::node",
                &format!("stack.node.{op}.{size}.ns_per_op"),
                "ns/op",
                moves,
            ));
        }
    }

    for workload in ["ping_small", "ping_large"] {
        for hop in PIPELINE_HOPS {
            let name = format!("stack.pipeline.{hop}.{workload}.us_per_ping");
            t.push(layer("stack::pipeline", &name, "us/ping", HOP));
        }
    }
    for hop in CHAOS_HOPS {
        let name = format!("stack.pipeline.{hop}.ping_chaos_lit.us_per_ping");
        t.push(layer("stack::pipeline", &name, "us/ping", HOP_CHAOS));
    }

    for (name, moves) in [
        ("stack.overload.ns_per_packet", ENGINE_OTHER),
        ("stack.handover.ns_per_packet", ENGINE_OTHER),
        ("stack.multi_ue.ns_per_packet", ENGINE_OTHER),
        ("stack.coexistence.ns_per_packet", ENGINE_OTHER),
        ("stack.schedlab.load050.ns_per_packet", ENGINE_SPLIT),
        ("stack.schedlab.load080.ns_per_packet", ENGINE_SPLIT),
        ("stack.schedlab.load110.ns_per_packet", ENGINE_SPLIT),
        ("stack.multicell.rho055.ns_per_packet", ENGINE_SPLIT),
        ("stack.multicell.rho200.ns_per_packet", ENGINE_SPLIT),
    ] {
        t.push(layer("stack", name, "ns/packet", moves));
    }

    t.push(layer(
        "benchmark",
        "trace.overhead_pct",
        "%",
        "(untraced - traced) / untraced units_per_s of the named workload: the only cost of the traced pass",
    ));
    t
}

pub fn end_to_end() -> Vec<Metric> {
    table().into_iter().filter(|m| m.bound.is_some()).collect()
}

pub fn per_layer() -> Vec<Metric> {
    table().into_iter().filter(|m| m.bound.is_none()).collect()
}

/// The program the driver starts; the arguments of one run follow it.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `s` as a JSON string.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number as JSON, with all the digits it was measured to.
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "a metric value must be a finite number");
    format!("{v}")
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let command: Vec<String> = COMMAND.iter().map(|s| quote(s)).collect();
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
        .collect();
    let e2e = end_to_end()
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(&m.name),
                quote(m.unit),
                quote(m.better.label()),
                m.bound.expect("end-to-end metrics carry a bound"),
            )
        })
        .collect();
    let layers = per_layer()
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(&m.name),
                quote(m.unit),
                quote(m.better.label()),
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        list(workloads),
        list(e2e),
        list(layers),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn legal_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn legal_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn committed_benchmark_json_is_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json(),
            "BENCHMARK.json is stale: regenerate it with --emit-benchmark-json"
        );
    }

    #[test]
    fn the_table_meets_the_contract() {
        let all = table();
        let names: BTreeSet<&str> = all.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
        for m in &all {
            assert!(legal_name(&m.name), "illegal metric name {:?}", m.name);
            assert!(legal_unit(m.unit), "illegal unit {:?} on {}", m.unit, m.name);
            assert!(!m.moves.is_empty() && !m.layer.is_empty());
        }
        let e2e = end_to_end();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&per_layer().len()));
        for m in &e2e {
            let bound = m.bound.unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = e2e.iter().map(|m| m.bound.unwrap()).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");

        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in WORKLOADS {
            assert!(legal_name(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{} why", w.name);
            assert!(!names.contains(w.name), "{} names a workload and a metric", w.name);
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}
