//! Drives the built benchmark in `--quick` mode (1/50 size, two
//! repetitions, wall-time floor off): every workload, untraced and traced,
//! must run clean and print a result the driver can read.

use std::path::Path;
use std::process::{Command, Output};

const WORKLOADS: [&str; 5] =
    ["ping_small", "ping_large", "ping_chaos_lit", "sched_grid", "city_multicell"];

/// Runs the benchmark from the repository root, where it writes its traces.
fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_urllc-benchmark"))
        .args(args)
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
        .output()
        .expect("the benchmark binary starts")
}

fn last_line(out: &Output) -> String {
    assert!(out.status.success(), "exit {}: {}", out.status, String::from_utf8_lossy(&out.stderr));
    String::from_utf8_lossy(&out.stdout).lines().last().expect("some output").to_string()
}

#[test]
fn every_workload_runs_clean_in_quick_mode() {
    for w in WORKLOADS {
        let line = last_line(&bench(&["--workload", w, "--seed", "7", "--quick"]));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{w}: {line}");
        assert!(
            line.contains("\"failed\": 0, \"metrics\": {\"units_per_s\": {\"value\": "),
            "{w}: {line}"
        );
        for metric in
            ["setup_s", "peak_rss_mb", "allocs_per_unit", "sim_p99_us", "sim_on_time_share"]
        {
            assert!(line.contains(&format!("\"{metric}\": {{\"value\": ")), "{w} lacks {metric}");
        }
    }
}

#[test]
fn a_traced_quick_pass_emits_every_layer_metric_and_a_span_file() {
    let line = last_line(&bench(&["--workload", "ping_large", "--quick", "--trace", "1"]));
    assert!(line.starts_with("{\"correct\": true"), "{line}");
    let listed = String::from_utf8_lossy(&bench(&["--list"]).stdout).to_string();
    let names: Vec<&str> = listed
        .lines()
        .skip_while(|l| !l.starts_with("per-layer metrics"))
        .skip(1)
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert!(names.len() > 80, "--list shows only {} per-layer metrics", names.len());
    for name in names {
        assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "traced pass lacks {name}");
    }
    assert!(!line.contains("\"units_per_s\""), "a traced pass reports per-layer metrics only");

    let trace = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/trace-ping_large.json");
    let spans = std::fs::read_to_string(trace).expect("the traced pass wrote its span file");
    for needle in
        ["\"name\": \"ping_large\"", "\"name\": \"setup\"", "\"name\": \"rep.0\"", "\"parent\": 0"]
    {
        assert!(spans.contains(needle), "span file lacks {needle}");
    }
}

#[test]
fn selfcheck_agrees_with_itself_in_quick_mode() {
    let out = bench(&["--selfcheck", "--workload", "sched_grid", "--quick"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success() && text.contains("the two sets agree"), "{text}");
}

#[test]
fn bad_invocations_fail_without_a_result() {
    for args in [&["--workload", "no_such_workload"][..], &["--seconds", "0"], &[]] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("\"correct\""),
            "{args:?} printed a result"
        );
    }
}
