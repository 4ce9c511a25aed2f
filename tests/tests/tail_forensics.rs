//! Tail-forensics invariants, end to end:
//!
//! * the **zero-perturbation** contract — attaching the host wall-time
//!   [`telemetry::Profiler`] changes no simulated result, because the
//!   profiler reads only the host clock and records into its own sink;
//! * the **worker-invariance** contract — the flight recorder's JSON
//!   (the byte source of `results/tail_exemplars.json`) is identical at
//!   1 and 2 workers, because worst-K retention merges under a total
//!   order;
//! * the **decomposition** acceptance gate — exemplar hop spans diffed
//!   against the p50 baseline explain ≥95 % of the tail gap.

use proptest::prelude::*;
use ran::sched::AccessMode;
use sim::FaultPlan;
use stack::{
    decompose_tail, run_parallel_profiled, run_parallel_workers, PingExperiment, StackConfig,
    TailBaseline, BATCH_PINGS,
};
use telemetry::{Profiler, Telemetry};

const PINGS: u64 = 40;

fn chaos_cfg(seed: u64, intensity: f64) -> StackConfig {
    StackConfig::testbed_dddu(AccessMode::GrantBased, true)
        .with_seed(seed)
        .with_faults(FaultPlan::chaos(intensity))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Profiler-on and dark runs produce bit-identical simulated results:
    /// same samples, same attribution, same fault counters.
    #[test]
    fn profiled_and_dark_runs_are_bit_identical(
        seed in 1u64..500,
        step in 0u32..7,
    ) {
        let intensity = f64::from(step) * 0.1;
        let dark = PingExperiment::new(chaos_cfg(seed, intensity)).run(PINGS);
        let prof = Profiler::new();
        let mut exp = PingExperiment::new(chaos_cfg(seed, intensity));
        exp.attach_profiler(prof.clone());
        let lit = exp.run(PINGS);
        prop_assert!(prof.is_enabled());
        prop_assert_eq!(dark.rtt.samples_us(), lit.rtt.samples_us());
        prop_assert_eq!(dark.ul.samples_us(), lit.ul.samples_us());
        prop_assert_eq!(dark.dl.samples_us(), lit.dl.samples_us());
        prop_assert_eq!(dark.attribution, lit.attribution);
        prop_assert_eq!(dark.rlf, lit.rlf);
        prop_assert_eq!(
            (dark.sr_retx, dark.rach_recoveries, dark.grants_withheld,
             dark.harq_retx, dark.harq_failures, dark.recovered),
            (lit.sr_retx, lit.rach_recoveries, lit.grants_withheld,
             lit.harq_retx, lit.harq_failures, lit.recovered)
        );
        // And the profiler did observe every dispatched hop.
        let hops: u64 = prof.snapshot().iter().map(|s| s.count).sum();
        prop_assert!(hops > 0, "an enabled profiler must record hop scopes");
    }
}

/// `tail_exemplars.json`'s byte source (the flight recorder's JSON) is
/// identical at 1 and 2 workers, profiler attached or not.
#[test]
fn flight_json_is_byte_identical_across_worker_counts() {
    let cfg = chaos_cfg(7, 0.4);
    let t1 = Telemetry::new(16_384);
    run_parallel_workers(&cfg, 256, 0, Some(&t1), 1);
    let t2 = Telemetry::new(16_384);
    run_parallel_workers(&cfg, 256, 0, Some(&t2), 2);
    assert!(!t1.flight_exemplars().is_empty(), "chaos run must retain exemplars");
    assert_eq!(t1.flight_json(), t2.flight_json());

    // A profiled pass changes host-side state only: same flight bytes.
    let t3 = Telemetry::new(16_384);
    let prof = Profiler::new();
    run_parallel_profiled(&cfg, 256, 0, Some(&t3), Some(&prof));
    assert_eq!(t1.flight_json(), t3.flight_json());
}

/// Six shards, one of them ragged, merged into a ring small enough to shed:
/// the journal window, its drop count, the registry and the flight recorder
/// are identical whichever order the shards finish in.
#[test]
fn lit_sinks_merge_across_shards_identically_at_any_worker_count() {
    let cfg = chaos_cfg(11, 0.4);
    let n = 5 * BATCH_PINGS + 17;
    let run = |workers| {
        let tel = Telemetry::new(4_096);
        run_parallel_workers(&cfg, n, 0, Some(&tel), workers);
        let mut window = Vec::new();
        tel.visit_journal(|e| window.push(*e));
        (window, tel.journal_dropped(), tel.snapshot(), tel.flight_json())
    };
    let one = run(1);
    assert!(one.1 > 0, "the ring must shed for the merge order to matter");
    assert!(!one.2.is_empty() && !one.3.is_empty());
    // `assert!` over `assert_eq!` for the bulky values: a failure should
    // name what differs, not print two 4 096-event windows.
    for workers in [2, 8] {
        let many = run(workers);
        assert!(one.0 == many.0, "journal window differs at {workers} workers");
        assert_eq!(one.1, many.1, "journal drops differ at {workers} workers");
        assert!(one.2 == many.2, "registry differs at {workers} workers");
        assert!(one.3 == many.3, "flight recorder differs at {workers} workers");
    }
}

/// The histogram buckets of an instrumented run carry exemplar ping ids,
/// and those too are worker-invariant.
#[test]
fn bucket_exemplars_are_worker_invariant() {
    let cfg = chaos_cfg(7, 0.3);
    let t1 = Telemetry::new(4_096);
    run_parallel_workers(&cfg, 256, 0, Some(&t1), 1);
    let t2 = Telemetry::new(4_096);
    run_parallel_workers(&cfg, 256, 0, Some(&t2), 2);
    let json1 = t1.snapshot().to_json();
    assert!(json1.contains("\"exemplars\""), "journey/rtt buckets must carry exemplars");
    assert_eq!(json1, t2.snapshot().to_json());
}

/// Acceptance: the flight recorder's exemplars, diffed hop-by-hop against
/// the p50 baseline, explain at least 95 % of the tail gap.
#[test]
fn tail_decomposition_covers_the_gap() {
    let cfg = chaos_cfg(7, 0.4);
    let tel = Telemetry::new(16_384);
    let mut exp = PingExperiment::new(cfg);
    exp.attach_telemetry(tel.clone());
    exp.keep_traces(256);
    let res = exp.run(256);
    let baseline = TailBaseline::from_traces(&res.traces);
    let d = decompose_tail(&tel.flight_exemplars(), &baseline);
    assert!(d.coverage >= 0.95, "covered {:.4}", d.coverage);
    assert!(!d.hops.is_empty());
}
