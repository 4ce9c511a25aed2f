//! Cross-layer telemetry backbone, end to end: instrumented runs are
//! bit-identical to dark runs (recording consumes no RNG draws and no sim
//! time), the registry spans the whole stack, the journal captures the
//! run's story, and the deadline-budget audit closes over real traces.

use proptest::prelude::*;
use ran::sched::AccessMode;
use sim::FaultPlan;
use stack::{ExperimentResult, PingExperiment, StackConfig};
use telemetry::{JournalEvent, Telemetry};

const PINGS: u64 = 40;

fn chaos_cfg(seed: u64, intensity: f64) -> StackConfig {
    StackConfig::testbed_dddu(AccessMode::GrantBased, true)
        .with_seed(seed)
        .with_faults(FaultPlan::chaos(intensity))
}

fn run_dark(cfg: StackConfig) -> ExperimentResult {
    PingExperiment::new(cfg).run(PINGS)
}

fn run_instrumented(cfg: StackConfig) -> (ExperimentResult, Telemetry) {
    let tel = Telemetry::new(16_384);
    let mut exp = PingExperiment::new_instrumented(cfg, tel.clone());
    (exp.run(PINGS), tel)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole invariant: switching telemetry on changes *nothing*
    /// observable — same samples, same attribution, same fault story —
    /// because recording draws no randomness and advances no clock.
    #[test]
    fn instrumented_and_dark_runs_are_bit_identical(
        seed in 1u64..500,
        step in 0u32..7,
    ) {
        let intensity = f64::from(step) * 0.1;
        let dark = run_dark(chaos_cfg(seed, intensity));
        let (lit, _tel) = run_instrumented(chaos_cfg(seed, intensity));
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
    }
}

/// The acceptance gate: one instrumented chaotic run populates at least
/// 12 distinct metric keys spanning at least 6 layer crates.
#[test]
fn registry_spans_the_stack() {
    let (res, tel) = run_instrumented(chaos_cfg(7, 0.2));
    let snap = tel.snapshot();
    assert!(snap.len() >= 12, "only {} metric keys: {}", snap.len(), snap.render());
    let layers = snap.layers();
    assert!(layers.len() >= 6, "only {} layers: {layers:?}", layers.len());
    for expected in ["corenet", "mac", "pdcp", "phy", "radio", "rlc", "sdap"] {
        assert!(layers.contains(&expected), "layer {expected} missing from {layers:?}");
    }
    // Counter cross-checks against the experiment's own bookkeeping.
    assert_eq!(snap.counter("mac", "sr_retx"), Some(res.sr_retx).filter(|&n| n > 0));
    assert_eq!(snap.counter("corenet", "ul_gpdu"), Some(PINGS));
    // The summary embedded in the result agrees with the live handle.
    assert_eq!(res.telemetry.metric_keys, snap.len());
    assert!(res.telemetry.journal_events > 0);
}

/// The journal tells the run's story in stage spans: every completed ping
/// contributes its uplink APP span, timestamps are sim-time-ordered per
/// ping, and fault injections appear as typed events.
#[test]
fn journal_captures_stage_spans_and_faults() {
    let (res, tel) = run_instrumented(chaos_cfg(7, 0.3));
    let events = tel.journal_events();
    assert!(!events.is_empty());
    let mut stage_pings = std::collections::BTreeSet::new();
    let mut faults = 0u64;
    for e in &events {
        match e {
            JournalEvent::Stage { ping, start, end, .. } => {
                assert!(start <= end, "inverted span in {e:?}");
                stage_pings.insert(*ping);
            }
            JournalEvent::FaultInjected { .. } => faults += 1,
            _ => {}
        }
    }
    let completed = res.attribution.on_time + res.attribution.late;
    assert!(
        stage_pings.len() as u64 >= completed,
        "{} pings with spans < {completed} completed",
        stage_pings.len()
    );
    assert!(faults > 0, "chaos at 0.3 injected no journalled faults");
    assert_eq!(tel.journal_dropped(), 0);
}

/// The deadline-budget audit holds its identities on real instrumented
/// traces and lands its shares in the registry under `audit/*`.
#[test]
fn audit_closes_over_instrumented_traces() {
    let cfg = chaos_cfg(7, 0.2);
    let tel = Telemetry::new(4096);
    let mut exp = PingExperiment::new_instrumented(cfg.clone(), tel.clone());
    exp.keep_traces(PINGS as usize);
    let res = exp.run(PINGS);
    let audits = stack::audit_traces(&res.traces, &cfg, &tel);
    assert_eq!(audits.len(), res.traces.len());
    for a in &audits {
        assert!(a.recovery_within_bound, "{}", a.render());
        let terms: sim::Duration = a.terms().iter().map(|(_, d)| *d).sum();
        assert_eq!(terms, (a.rtt - a.residual) + a.overlap);
    }
    let snap = tel.snapshot();
    assert!(snap.get("audit", "residual_us").is_some(), "audit shares missing:\n{}", snap.render());
    assert!(snap.render().contains("audit/term_us{protocol}"));
}

/// A disabled handle is free: no events, no metrics, still summarisable.
#[test]
fn disabled_telemetry_is_inert() {
    let cfg = chaos_cfg(3, 0.2);
    let tel = Telemetry::disabled();
    let mut exp = PingExperiment::new_instrumented(cfg, tel.clone());
    let res = exp.run(PINGS);
    assert!(!tel.is_enabled());
    assert!(tel.snapshot().is_empty());
    assert!(tel.journal_events().is_empty());
    assert_eq!(res.telemetry.metric_keys, 0);
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("a source directory") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The program records by `MetricId`: outside its test modules, no file
/// of the workspace's crates or examples hands the telemetry handle a
/// string key. The string forms are for the benchmark and the tests.
#[test]
fn program_code_records_by_metric_id_only() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("the workspace");
    let mut files = Vec::new();
    for dir in ["crates", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 50, "found only {} source files under {}", files.len(), root.display());
    let mut offenders = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("a readable source file");
        // Program code ends where the file's test module begins.
        let test_module = text
            .match_indices("#[cfg(test)]")
            .map(|(at, _)| at)
            .find(|&at| text[at + "#[cfg(test)]".len()..].trim_start().starts_with("mod "));
        let program = &text[..test_module.unwrap_or(text.len())];
        let code: String = program
            .lines()
            .filter(|line| !line.trim_start().starts_with("//"))
            .flat_map(str::split_whitespace)
            .collect();
        for call in [".count(\"", ".record(\"", ".record_labeled(\"", ".record_with_exemplar(\""] {
            if code.contains(call) {
                offenders.push(format!("{}: {call}", file.display()));
            }
        }
    }
    assert!(offenders.is_empty(), "string metric keys in program code: {offenders:#?}");
}
