//! The repository's benchmark. One command runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds N] [--trace [0|1]] [--quick]
//! ```
//!
//! It prints every metric by name with unit, direction and bound, checks
//! the outputs, and ends with one JSON line for the driver. `--list`
//! prints the metric table, `--selfcheck` compares two sets of runs of the
//! same code, `--emit-benchmark-json` prints `BENCHMARK.json`.
//!
//! Every layer is measured from outside, by timing calls into public
//! functions; nothing in the program is changed to be measured.

mod layers;
mod measure;
mod metrics;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use measure::{median, peak_rss_mb, quartiles, CountingAlloc};
use metrics::{json_number, quote, Metric, RUN_SECONDS};
use workloads::{prepare, Prepared, Rep, Workload, WORKLOADS};

#[global_allocator]
pub static ALLOC: CountingAlloc = CountingAlloc::new();

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed repetitions of a full-size run, however short `--seconds`.
const MIN_REPS: usize = 5;
/// A full-size repetition shorter than this measures start-up and the
/// shared box's scheduler, not the program.
const MIN_REP_WALL: Duration = Duration::from_millis(500);
/// Untraced/traced repetition pairs of a traced pass.
const TRACE_PAIRS: usize = 3;
/// Where the traced pass writes, relative to the working directory (the
/// repository root).
const OUT_DIR: &str = "benchmark/out";
const DEFAULT_SEED: u64 = 2024;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    mode: Mode,
}

enum Mode {
    Run,
    List,
    SelfCheck,
    EmitBenchmarkJson,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
        mode: Mode::Run,
    };
    let mut it = argv.iter().peekable();
    let number = |flag: &str, v: Option<&String>| -> Result<u64, String> {
        let v = v.ok_or(format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("{flag} takes a whole number, not {v:?}"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => a.workload = Some(it.next().ok_or("--workload needs a name")?.clone()),
            "--seed" => a.seed = number("--seed", it.next())?,
            "--seconds" => a.seconds = number("--seconds", it.next())?,
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    a.trace = false;
                }
                Some("1") => {
                    it.next();
                    a.trace = true;
                }
                _ => a.trace = true,
            },
            "--quick" => a.quick = true,
            "--list" => a.mode = Mode::List,
            "--selfcheck" => a.mode = Mode::SelfCheck,
            "--emit-benchmark-json" => a.mode = Mode::EmitBenchmarkJson,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(1..=60).contains(&a.seconds) {
        return Err(format!("--seconds must be 1 to 60, not {}", a.seconds));
    }
    Ok(a)
}

const USAGE: &str =
    "usage: urllc-benchmark --workload <name> [--seed N] [--seconds N] [--trace [0|1]] [--quick]
       urllc-benchmark --list | --emit-benchmark-json
       urllc-benchmark --selfcheck [--workload <name>] [--seed N] [--seconds N] [--quick]";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    measure::pin_malloc_thresholds();
    // Every end-to-end number is taken with one worker: the box is shared
    // and has two cores.
    sim::parallel::set_jobs(1);
    let outcome = match args.mode {
        Mode::List => {
            print!("{}", list());
            Ok(true)
        }
        Mode::EmitBenchmarkJson => {
            print!("{}", metrics::benchmark_json());
            Ok(true)
        }
        Mode::SelfCheck => selfcheck(&args),
        Mode::Run => match args.workload.as_deref().and_then(workloads::find) {
            None => Err(format!(
                "--workload must be one of: {}",
                WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
            )),
            Some(w) if args.trace => run_traced(w, &args),
            Some(w) => run_untraced(w, &args),
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// The metric table and the workload rationale, as text.
fn list() -> String {
    let mut out = String::from("workloads:\n");
    for w in WORKLOADS {
        let _ = writeln!(
            out,
            "  {:<15} [{}] {}\n{:18}stresses: {}",
            w.name, w.unit, w.why, "", w.stresses
        );
    }
    out.push_str("\nend-to-end metrics (every workload, untraced run):\n");
    for m in metrics::end_to_end() {
        let _ = writeln!(
            out,
            "  {:<21} {:<8} {:<6} bound {:>4.0}%{}  {}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound.unwrap_or(0.0) * 100.0,
            if m.exact { " exact per seed" } else { "" },
            m.moves
        );
    }
    out.push_str("\nper-layer metrics (traced run only; no bound):\n");
    for m in metrics::per_layer() {
        let _ = writeln!(
            out,
            "  {:<55} {:<9} {:<6} [{}] moves {}",
            m.name,
            m.unit,
            m.better.label(),
            m.layer,
            m.moves
        );
    }
    out
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(correct: bool, attempted: u64, failed: u64, values: &[(&Metric, f64)]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(m, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                json_number(*v),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Builds the workload and runs the warm-up repetition: one set-up.
fn set_up(w: &Workload, args: &Args) -> Result<(Prepared, Rep), String> {
    let prepared = prepare(w.name, args.seed, args.quick)?;
    let warm = prepared.run().map_err(|e| format!("warm-up repetition failed: {e}"))?;
    Ok((prepared, warm))
}

/// The rate of the fastest repetition. Interference on the shared box only
/// ever slows a repetition down, in bursts that last seconds, so the fastest
/// one is the steadiest estimate of what the program can do (NOISE.md).
fn fastest(rates: &[f64]) -> f64 {
    rates.iter().copied().fold(0.0, f64::max)
}

/// One repetition after the warm-up: its wall time and whether it
/// reproduced the warm-up's result. A panic is a failed repetition.
fn timed_rep(prepared: &Prepared, reference: &Rep, quick: bool) -> (Duration, Result<(), String>) {
    let start = Instant::now();
    let rep = catch_unwind(AssertUnwindSafe(|| prepared.run()));
    let wall = start.elapsed();
    let verdict = match rep {
        Err(_) => Err("the repetition panicked".to_string()),
        Ok(Err(e)) => Err(e),
        Ok(Ok(rep)) if rep != *reference => Err(format!(
            "digest {:#018x} differs from the warm-up's {:#018x}: the run is not deterministic",
            rep.digest, reference.digest
        )),
        Ok(Ok(_)) if !quick && wall < MIN_REP_WALL => Err(format!(
            "took {:.3} s, under the {:.1} s floor: the workload shrank",
            wall.as_secs_f64(),
            MIN_REP_WALL.as_secs_f64()
        )),
        Ok(Ok(_)) => Ok(()),
    };
    (wall, verdict)
}

/// The untraced run: every end-to-end metric.
fn run_untraced(w: &Workload, args: &Args) -> Result<bool, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let (prepared, warm) = set_up(w, args)?;
        setups.push(start.elapsed().as_secs_f64());
        if let Some((_, earlier)) = &last {
            if *earlier != warm {
                return Err("two set-ups of one seed disagree: the run is not deterministic".into());
            }
        }
        last = Some((prepared, warm));
    }
    let (prepared, reference) = last.expect("SETUPS is at least one");

    let (min_reps, window) = if args.quick {
        (2, Duration::ZERO)
    } else {
        (MIN_REPS, Duration::from_secs(args.seconds))
    };
    let mut rates = Vec::new();
    let (mut allocs, mut alloc_bytes) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let timed = Instant::now();
    while rates.len() < min_reps || timed.elapsed() < window {
        let before = ALLOC.count();
        let (wall, verdict) = timed_rep(&prepared, &reference, args.quick);
        let spent = ALLOC.count().since(before);
        attempted += reference.units;
        if let Err(e) = verdict {
            failed += reference.units;
            eprintln!("repetition {} failed: {e}", rates.len());
        }
        let units = reference.units as f64;
        rates.push(units / wall.as_secs_f64());
        allocs.push(spent.allocs as f64 / units);
        alloc_bytes.push(spent.bytes as f64 / units);
    }

    let values = [
        ("units_per_s", fastest(&rates)),
        ("setup_s", median(&setups)),
        ("peak_rss_mb", peak_rss_mb()?),
        ("allocs_per_unit", median(&allocs)),
        ("alloc_bytes_per_unit", median(&alloc_bytes)),
        ("sim_p99_us", reference.sim_p99_us),
        ("sim_on_time_share", reference.sim_on_time_share),
    ];
    let table = metrics::end_to_end();
    let values: Vec<(&Metric, f64)> = table
        .iter()
        .map(|m| {
            let v = values
                .iter()
                .find(|(name, _)| *name == m.name)
                .expect("every end-to-end metric is measured");
            (m, v.1)
        })
        .collect();

    println!(
        "workload {} seed {}: {} timed repetitions of {} {}s each, one worker ({} cores){}",
        w.name,
        args.seed,
        rates.len(),
        reference.units,
        w.unit,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if args.quick { ", QUICK size: not a measurement" } else { "" },
    );
    print_values(&values);
    let (q1, q3) = quartiles(&rates);
    println!(
        "units_per_s over the repetitions: min {:.1}  q1 {q1:.1}  median {:.1}  q3 {q3:.1}  max {:.1}",
        rates.iter().copied().fold(f64::INFINITY, f64::min),
        median(&rates),
        fastest(&rates),
    );
    let each: Vec<String> = rates.iter().map(|r| format!("{r:.1}")).collect();
    println!("units_per_s of each repetition: {}", each.join(" "));
    println!("ops_attempted {attempted}  ops_failed {failed}");
    println!("sim_digest {:#018x}", reference.digest);
    println!("the model is not validated by this benchmark: the repository holds no reference results to compare with");
    println!("{}", result_line(failed == 0, attempted, failed, &values));
    Ok(failed == 0)
}

fn print_values(values: &[(&Metric, f64)]) {
    for (m, v) in values {
        let bound = m.bound.map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
        let better = m.better.label();
        println!(
            "  {:<55} {:>18} {:<9} {better} is better{bound}",
            m.name,
            json_number(*v),
            m.unit
        );
    }
}

/// The traced pass: the workload once more with spans around every
/// repetition, then every per-layer loop. Emits the per-layer metrics and
/// writes the spans to `benchmark/out/trace-<workload>.json`.
fn run_traced(w: &'static Workload, args: &Args) -> Result<bool, String> {
    let mut tr = trace::Tracer::new(w.name);
    tr.enter("setup");
    let (prepared, reference) = set_up(w, args)?;
    tr.exit();

    // Untraced and traced repetitions alternate, so drift on the shared
    // box lands on both sides of the overhead figure.
    let pairs = if args.quick { 1 } else { TRACE_PAIRS };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    for i in 0..pairs {
        for with_span in [false, true] {
            if with_span {
                tr.enter(&format!("rep.{i}"));
            }
            let (wall, verdict) = timed_rep(&prepared, &reference, args.quick);
            if with_span {
                tr.exit();
            }
            attempted += reference.units;
            if let Err(e) = verdict {
                failed += reference.units;
                eprintln!(
                    "repetition {i} ({}) failed: {e}",
                    if with_span { "traced" } else { "untraced" }
                );
            }
            let rate = reference.units as f64 / wall.as_secs_f64();
            if with_span { &mut traced } else { &mut plain }.push(rate);
        }
    }
    let overhead_pct = (fastest(&plain) - fastest(&traced)) / fastest(&plain) * 100.0;

    let budget = Duration::from_millis(if args.quick { 2 } else { 6 * args.seconds });
    let mut measured = layers::measure_all(&mut tr, budget, args.seed, args.quick)?;
    measured.push(("trace.overhead_pct".into(), overhead_pct));

    let table = metrics::per_layer();
    if let Some((stray, _)) =
        measured.iter().find(|(name, _)| !table.iter().any(|m| m.name == *name))
    {
        return Err(format!("{stray} was measured but is not in the metric table"));
    }
    let values: Vec<(&Metric, f64)> = table
        .iter()
        .map(|m| {
            measured
                .iter()
                .find(|(name, _)| *name == m.name)
                .map(|(_, v)| (m, *v))
                .ok_or(format!("{} is in the metric table but was not measured", m.name))
        })
        .collect::<Result<_, _>>()?;

    let rows: Vec<(String, f64, &'static str)> =
        values.iter().map(|(m, v)| (m.name.clone(), *v, m.unit)).collect();
    let file = format!("{OUT_DIR}/trace-{}.json", w.name);
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&file, tr.finish().to_json(&rows)))
        .map_err(|e| format!("writing {file}: {e}"))?;

    println!("workload {} seed {}: traced pass, spans in {file}", w.name, args.seed);
    print_values(&values);
    println!("ops_attempted {attempted}  ops_failed {failed}");
    println!("sim_digest {:#018x}", reference.digest);
    println!("{}", result_line(failed == 0, attempted, failed, &values));
    Ok(failed == 0)
}

/// What `--selfcheck` reads back from one child run.
struct ChildRun {
    correct: bool,
    failed: u64,
    digest: String,
    values: Vec<f64>,
}

/// Reads a child run's output: the `sim_digest` line and, from the last
/// line, the fields [`result_line`] wrote.
fn parse_child(stdout: &str, table: &[Metric]) -> Option<ChildRun> {
    let digest = stdout.lines().find_map(|l| l.strip_prefix("sim_digest "))?.to_string();
    let line = stdout.lines().last()?;
    let after = |key: &str| line.split_once(key).map(|(_, rest)| rest);
    let number = |rest: &str| rest[..rest.find([',', '}'])?].trim().parse::<f64>().ok();
    let values = table
        .iter()
        .map(|m| number(after(&format!("{}: {{\"value\": ", quote(&m.name)))?))
        .collect::<Option<Vec<f64>>>()?;
    Some(ChildRun {
        correct: after("\"correct\": ")?.starts_with("true"),
        failed: number(after("\"failed\": ")?)? as u64,
        digest,
        values,
    })
}

/// Runs the selected workloads (all by default) as two sets of child
/// processes, back to back, and compares the sets: exact metrics and the
/// digest must be equal, the rest within their bounds.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let selected: Vec<&Workload> = match &args.workload {
        Some(name) => vec![workloads::find(name).ok_or(format!("unknown workload {name:?}"))?],
        None => WORKLOADS.iter().collect(),
    };
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let table = metrics::end_to_end();
    let mut sets: Vec<Vec<ChildRun>> = Vec::new();
    for set in 0..2 {
        let mut runs = Vec::new();
        for w in &selected {
            eprintln!("selfcheck: set {set}, {}", w.name);
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()]);
            cmd.args(["--seconds", &args.seconds.to_string()]);
            if args.quick {
                cmd.arg("--quick");
            }
            let out = cmd.output().map_err(|e| format!("starting a child run: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let run = parse_child(&stdout, &table).ok_or(format!(
                "{}: the child run printed no result (exit {})",
                w.name, out.status
            ))?;
            runs.push(run);
        }
        sets.push(runs);
    }

    let mut ok = true;
    for (i, w) in selected.iter().enumerate() {
        let (a, b) = (&sets[0][i], &sets[1][i]);
        let mut complain = |what: String| {
            println!("FAIL {:<15} {what}", w.name);
            ok = false;
        };
        if !(a.correct && b.correct) || a.failed + b.failed != 0 {
            complain(format!("ops_failed {} and {}", a.failed, b.failed));
        }
        if a.digest != b.digest {
            complain(format!("sim_digest {} vs {}", a.digest, b.digest));
        }
        for (m, (&x, &y)) in table.iter().zip(a.values.iter().zip(&b.values)) {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let apart = (x - y).abs() / x.abs();
            // Without the size floor a quick run's times are all noise.
            let within = if m.exact { x == y } else { args.quick || apart <= bound };
            let verdict = if within { "ok  " } else { "FAIL" };
            println!(
                "{verdict} {:<15} {:<21} {:>16} {:>16} {:<8} apart {:>7.3}%  bound {}",
                w.name,
                m.name,
                json_number(x),
                json_number(y),
                m.unit,
                apart * 100.0,
                if m.exact { "exact".to_string() } else { format!("{:.0}%", bound * 100.0) },
            );
            ok &= within;
        }
    }
    println!("selfcheck: {}", if ok { "the two sets agree" } else { "the two sets DISAGREE" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_and_human_spellings_of_trace_both_parse() {
        let a =
            args(&["--workload", "ping_small", "--seed", "7", "--seconds", "3", "--trace", "1"])
                .unwrap();
        assert!(
            a.trace && a.seed == 7 && a.seconds == 3 && a.workload.as_deref() == Some("ping_small")
        );
        assert!(!args(&["--trace", "0", "--workload", "x"]).unwrap().trace);
        let bare = args(&["--trace", "--workload", "x"]).unwrap();
        assert!(bare.trace && bare.workload.as_deref() == Some("x"));
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed", "many"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    #[test]
    fn a_result_line_reads_back() {
        let table = metrics::end_to_end();
        let values: Vec<(&Metric, f64)> =
            table.iter().enumerate().map(|(i, m)| (m, 1.5 + i as f64)).collect();
        let out =
            format!("noise\nsim_digest 0x00000000deadbeef\n{}", result_line(true, 30, 0, &values));
        let run = parse_child(&out, &table).unwrap();
        assert!(run.correct && run.failed == 0 && run.digest == "0x00000000deadbeef");
        assert_eq!(run.values, values.iter().map(|(_, v)| *v).collect::<Vec<_>>());
        assert!(parse_child("no result here", &table).is_none());
    }
}
