//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro <figure>|all [--pings N]     # figures: the `FIGURES` table below
//! repro trace [--perfetto out.json]  # Perfetto/Chrome trace of the journey
//! repro <cmd> --jobs N               # worker count
//! ```
//!
//! Each figure is a function from the options to a [`Report`]: the text it
//! prints, the files it leaves under `results/` (CSV tables through the one
//! writer `to_csv`), its `claim: YES|NO` self-checks and its latency
//! distributions. Figures print and write nothing themselves; `main` alone
//! prints each report, writes its files, audits them against the figure's
//! declared artifacts and exits 1 on a failed check or a missing or
//! unwritable artifact. `repro all` also writes `BENCH_repro.json` (every
//! figure's latency quantiles) and `stdout.txt` (every figure's text), so
//! every number a figure prints is byte-gated. Host wall time — each
//! figure's, and `profile`'s hottest stages — goes to stderr only.
//! Simulation sweeps run on the deterministic work-sharded engine
//! (`sim::parallel`): every artifact except the host-timed `profile.csv` is
//! byte-identical regardless of `--jobs`. Experiment↔module mapping is in
//! DESIGN.md §5; paper-vs-measured numbers are recorded in EXPERIMENTS.md.

use std::env;
use std::fmt::Write as _;
use std::path::Path;

use radio::reliability::{margin_sweep, min_margin_for};
use radio::{InterfaceKind, RadioHead, RadioHeadConfig};
use ran::sched::AccessMode;
use sim::{ArrivalProcess, Duration, FaultPlan, SimRng};
use stack::{
    run_mobility, run_mobility_profiled, run_overload, run_overload_profiled, service_capacity_pps,
    DropReason, HopId, MobilityConfig, MobilityReport, NullHook, OverloadConfig, OverloadReport,
    PingExperiment, StackConfig,
};
use urllc_bench::report::{ascii_histogram, ascii_series, bench_json, Report};
use urllc_core::feasibility::{feasibility_table, paper_table1};
use urllc_core::model::{ConfigUnderTest, ProcessingBudget};
use urllc_core::worst_case::{worst_case, Direction};
use urllc_core::DesignSearch;

/// `println!` into a report's text.
macro_rules! outln {
    ($r:expr, $($arg:tt)*) => {{
        let _ = writeln!($r.text, $($arg)*);
    }};
}

/// `print!` into a report's text.
macro_rules! out {
    ($r:expr, $($arg:tt)*) => {{
        let _ = write!($r.text, $($arg)*);
    }};
}

/// The `trace` figure's artifact, unless `--perfetto` renames it.
const TRACE_ARTIFACT: &str = "trace_perfetto.json";

/// The options a figure can read.
#[derive(Debug)]
struct Args {
    pings: u64,
    /// File name the `trace` figure writes (`--perfetto`).
    perfetto: String,
}

/// One regenerated table/figure: its subcommand, how to run it, and the
/// `results/` files its report must hold.
struct Figure {
    name: &'static str,
    run: fn(&Args) -> Report,
    artifacts: &'static [&'static str],
}

/// Every figure, in `repro all` order. Dispatch, `all`, the usage text and
/// the artifact audit all read this table.
const FIGURES: &[Figure] = &[
    Figure { name: "table1", run: table1, artifacts: &["table1.csv"] },
    Figure { name: "table2", run: table2, artifacts: &["table2.csv"] },
    Figure { name: "fig1", run: fig1, artifacts: &[] },
    Figure { name: "fig2", run: fig2, artifacts: &[] },
    Figure { name: "fig3", run: fig3, artifacts: &[] },
    Figure { name: "fig4", run: fig4, artifacts: &[] },
    Figure { name: "fig5", run: fig5, artifacts: &["fig5.csv"] },
    Figure { name: "fig6", run: fig6, artifacts: &["fig6.csv"] },
    Figure { name: "fr2", run: fr2, artifacts: &[] },
    Figure { name: "reliability", run: reliability, artifacts: &[] },
    Figure { name: "design", run: design, artifacts: &[] },
    Figure { name: "formats", run: formats, artifacts: &[] },
    Figure { name: "scale", run: scale, artifacts: &["scale.csv"] },
    Figure { name: "multicell", run: multicell, artifacts: &["multicell.csv"] },
    Figure { name: "harq", run: harq, artifacts: &[] },
    Figure { name: "rach", run: rach, artifacts: &[] },
    Figure { name: "sixg", run: sixg, artifacts: &[] },
    Figure { name: "coexist", run: coexist, artifacts: &["coexist.csv"] },
    Figure { name: "sched", run: sched, artifacts: &["sched.csv"] },
    Figure { name: "chaos", run: chaos, artifacts: &["chaos.csv"] },
    Figure { name: "recovery", run: recovery, artifacts: &["recovery.csv"] },
    Figure { name: "overload", run: overload, artifacts: &["overload.csv"] },
    Figure { name: "handover", run: handover, artifacts: &["handover.csv"] },
    Figure { name: "metrics", run: metrics, artifacts: &["metrics.csv", "metrics.json"] },
    Figure { name: "trace", run: trace, artifacts: &[TRACE_ARTIFACT] },
    Figure {
        name: "profile",
        run: profile,
        artifacts: &["profile.csv", "tail_exemplars.json", "tail_perfetto.json"],
    },
];

/// A parsed command line.
#[derive(Debug)]
struct Cli {
    /// `all` or a [`FIGURES`] name.
    command: String,
    args: Args,
    jobs: usize,
}

/// Parses `repro`'s arguments (without the program name). Every malformed
/// command line is an `Err` naming the problem, before any figure runs.
fn parse(argv: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cmd = None;
    let mut args = Args { pings: 5_000, perfetto: TRACE_ARTIFACT.into() };
    let mut jobs = sim::parallel::jobs();
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("`{arg}` needs a value"));
        match arg.as_str() {
            "--pings" => args.pings = value()?.parse().map_err(|_| "`--pings` takes a count")?,
            "--jobs" => match value()?.parse() {
                Ok(n) if n > 0 => jobs = n,
                _ => return Err("`--jobs` takes a positive count".into()),
            },
            // A file name only: the trace is written under `results/`.
            "--perfetto" => match value()? {
                name if Path::new(&name).file_name() == Some(name.as_ref()) => args.perfetto = name,
                _ => return Err("`--perfetto` takes a file name".into()),
            },
            _ if arg.starts_with('-') || cmd.is_some() => {
                return Err(format!("unexpected `{arg}`"))
            }
            _ => cmd = Some(arg),
        }
    }
    let command = cmd.unwrap_or_else(|| "all".into());
    if command != "all" && !FIGURES.iter().any(|f| f.name == command) {
        return Err(format!("unknown subcommand `{command}`"));
    }
    Ok(Cli { command, args, jobs })
}

/// Prints `problem` and the usage text (generated from [`FIGURES`]); exits 2.
fn usage(problem: &str) -> ! {
    let figures: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    eprintln!(
        "{problem}\nusage: repro {}|all [--pings N] [--perfetto out.json] [--jobs N]",
        figures.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let cli = match parse(env::args().skip(1)) {
        Ok(cli) => cli,
        Err(problem) => usage(&problem),
    };
    sim::parallel::set_jobs(cli.jobs);
    let all = cli.command == "all";
    let mut failures = 0;
    let mut reports = Vec::new();
    for fig in FIGURES.iter().filter(|f| all || f.name == cli.command) {
        // Host wall time is for the reader only: no artifact records it.
        let t = std::time::Instant::now();
        let report = (fig.run)(&cli.args);
        eprintln!("[{}: {:.1} ms]", fig.name, t.elapsed().as_secs_f64() * 1e3);
        print!("{}", report.text);
        eprint!("{}", report.stderr);
        failures += write_files(&report.files);
        // A figure that silently stops writing an artifact would pass every
        // downstream byte-compare by omission: audit what each one declared.
        for artifact in fig.artifacts {
            let file = if *artifact == TRACE_ARTIFACT { &cli.args.perfetto } else { *artifact };
            if !report.files.iter().any(|(name, _)| name == file) {
                eprintln!("MISSING: `{}` did not write results/{file}", fig.name);
                failures += 1;
            }
        }
        for check in report.checks.iter().filter(|c| !c.holds) {
            eprintln!("FAILED: `{}` does not hold: {}", fig.name, check.claim);
            failures += 1;
        }
        reports.push((fig.name, report));
    }
    // Only a full run holds every figure; one figure alone would overwrite
    // the committed documents with a fragment.
    if all {
        let bench = bench_json(reports.iter().map(|(name, r)| (*name, r)));
        let stdout = reports.iter().map(|(_, r)| r.text.as_str()).collect();
        failures +=
            write_files(&[("BENCH_repro.json".into(), bench), ("stdout.txt".into(), stdout)]);
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

/// Writes `files` under `results/` (creating it), printing
/// `[saved <path>]` for each, and returns how many could not be written.
fn write_files(files: &[(String, String)]) -> usize {
    let mut failed = 0;
    for (name, contents) in files {
        let path = Path::new("results").join(name);
        match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, contents)) {
            Ok(()) => println!("[saved {}]", path.display()),
            Err(e) => {
                eprintln!("[failed to save {name}: {e}]");
                failed += 1;
            }
        }
    }
    failed
}

/// Table 1: feasibility of the 0.5 ms deadline across minimal configs.
fn table1(_: &Args) -> Report {
    let mut rep = Report::new("Table 1 — 0.5 ms feasibility of minimal configurations");
    let table = feasibility_table(&ProcessingBudget::zero());
    out!(rep, "{}", table.render());
    rep.check("matches the published Table 1", table.verdicts() == paper_table1());
    let rows: Vec<Vec<String>> = table
        .cells
        .iter()
        .map(|c| {
            vec![
                c.direction.label().into(),
                c.config.into(),
                format!("{:.1}", c.worst.latency.as_micros_f64()),
                c.feasible.to_string(),
            ]
        })
        .collect();
    rep.table("table1.csv", "direction,config,worst_case_us,feasible", &rows);
    rep
}

/// Table 2: gNB per-layer processing/queuing times from the testbed sim.
fn table2(a: &Args) -> Report {
    let mut rep = Report::new("Table 2 — gNB layer processing and queuing time");
    let cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(42);
    let mut res = stack::run_parallel(&cfg, a.pings);
    rep.bench("rtt", &mut res.rtt);
    let paper = [
        ("SDAP", 4.65, 6.71),
        ("PDCP", 8.29, 8.99),
        ("RLC", 4.12, 8.37),
        ("RLC-q", 484.20, 89.46),
        ("MAC", 55.21, 16.31),
        ("PHY", 41.55, 10.83),
    ];
    let measured = [
        ("SDAP", &res.layers.sdap),
        ("PDCP", &res.layers.pdcp),
        ("RLC", &res.layers.rlc),
        ("RLC-q", &res.layers.rlcq),
        ("MAC", &res.layers.mac),
        ("PHY", &res.layers.phy),
    ];
    outln!(rep, "layer        mean[us]    std[us]     paper mean  paper std");
    let mut rows = Vec::new();
    for ((name, st), (_, pm, ps)) in measured.iter().zip(paper.iter()) {
        outln!(rep, "{name:<8} {:>12.2} {:>10.2}   {:>12.2} {:>10.2}", st.mean(), st.std(), pm, ps);
        rows.push(vec![
            (*name).into(),
            format!("{:.2}", st.mean()),
            format!("{:.2}", st.std()),
            format!("{pm:.2}"),
            format!("{ps:.2}"),
        ]);
    }
    outln!(rep, "({} pings; integrity failures: {})", a.pings, res.integrity_failures);
    rep.table("table2.csv", "layer,mean_us,std_us,paper_mean_us,paper_std_us", &rows);
    rep
}

/// Fig 1: the three TDD configuration taxonomies, as slot diagrams.
fn fig1(_: &Args) -> Report {
    let mut rep = Report::new("Fig 1 — TDD configuration types");
    let dddu = phy::TddConfig::dddu_testbed();
    outln!(
        rep,
        "(a) Common Configuration   pattern {} @ {} slots:",
        dddu.letters(),
        dddu.numerology()
    );
    out!(rep, "    ");
    for s in 0..dddu.slots_per_period() {
        out!(rep, "[{}]", dddu.slot_kind(s).letter());
    }
    outln!(rep, "  (period {})", dddu.period());
    let dm = phy::TddConfig::dm_minimal();
    outln!(rep, "    minimal DM @ µ2: [D][M]  (mixed slot: 6 DL | 2 guard | 6 UL symbols)");
    outln!(rep, "    period {}", dm.period());

    let ms = phy::MiniSlotConfig::new(phy::Numerology::Mu2, phy::mini_slot::MiniSlotLen::Two);
    outln!(
        rep,
        "(b) Mini Slot              {} mini-slots of {} per slot after {} control symbols",
        ms.mini_slots_per_slot(),
        ms.mini_slot_duration(),
        ms.control_symbols
    );

    outln!(rep, "(c) Slot Format            TS 38.213 Table 11.1.1-1 (formats 0–45):");
    for idx in [0u8, 1, 2, 28, 45] {
        let f = phy::SlotFormat::by_index(idx).expect("format in table");
        outln!(rep, "    format {:>2}: {}", f.index, f.letters());
    }
    rep
}

/// Fig 2: the journey of a ping request, narrated from a real trace.
fn fig2(_: &Args) -> Report {
    let mut rep = Report::new("Fig 2 — journey of a ping request");
    let cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(7);
    let mut exp = PingExperiment::new(cfg);
    let res = exp.run(1);
    let t = &res.traces[0];
    outln!(rep, "steps ① – ⑦ (uplink) and ⑧ – ⑪ (downlink):");
    for (i, s) in t.ul.iter().enumerate() {
        outln!(rep, "  UL step {:>2}: {:<14} {:>9}", i + 1, s.label, format!("{}", s.duration()));
    }
    for (i, s) in t.dl.iter().enumerate() {
        outln!(rep, "  DL step {:>2}: {:<14} {:>9}", i + 1, s.label, format!("{}", s.duration()));
    }
    rep
}

/// Fig 3: the system-level latency timeline of one ping.
fn fig3(_: &Args) -> Report {
    let mut rep = Report::new("Fig 3 — system-level latency breakdown (testbed DDDU)");
    let cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(3);
    let mut exp = PingExperiment::new(cfg);
    let res = exp.run(1);
    out!(rep, "{}", res.traces[0].render());
    rep
}

/// Fig 4: worst-case timelines for the DM configuration.
fn fig4(_: &Args) -> Report {
    let mut rep = Report::new("Fig 4 — worst-case latency, DM configuration");
    let dm = ConfigUnderTest::TddCommon(phy::TddConfig::dm_minimal());
    for dir in Direction::TABLE1_ROWS {
        let wc = worst_case(&dm, dir, &ProcessingBudget::zero());
        outln!(
            rep,
            "{:<16} worst {:>9}  (deadline 500us: {})",
            dir.label(),
            format!("{}", wc.latency),
            if wc.latency <= Duration::from_micros(500) { "meets" } else { "VIOLATES" }
        );
        for e in &wc.timeline {
            outln!(rep, "    {:<16} at {:>10}", e.label, format!("{:?}", e.at));
        }
    }
    rep
}

/// Fig 5: sample-submission latency vs number of samples, USB2 vs USB3.
fn fig5(_: &Args) -> Report {
    let mut rep = Report::new("Fig 5 — radio sample-submission latency (OS + hardware)");
    // One shard per (interface, sample-count) point, each with its own head
    // and an RNG stream keyed by the point — the sweep is bit-identical at
    // any worker count.
    let points: Vec<(InterfaceKind, u64)> = [InterfaceKind::Usb2, InterfaceKind::Usb3]
        .into_iter()
        .flat_map(|kind| (2_000..=20_000).step_by(1_000).map(move |n| (kind, n as u64)))
        .collect();
    let draws = sim::parallel::run_shards(points.len(), |i| {
        let (kind, n) = points[i];
        let mut head = RadioHead::new(RadioHeadConfig {
            interface: radio::FronthaulInterface::of_kind(kind),
            ..RadioHeadConfig::usrp_b210(kind == InterfaceKind::Usb3)
        });
        let mut rng = SimRng::from_seed(5).stream(kind.name()).stream_indexed("samples", n);
        // A handful of draws per point: the paper plots raw per-submission
        // measurements including spikes.
        (0..5).map(|_| head.submit_latency(n, &mut rng).as_micros_f64()).collect::<Vec<f64>>()
    });
    let mut series: Vec<(&str, Vec<(f64, f64)>)> = Vec::new();
    let mut rows = Vec::new();
    for ((kind, n), lats) in points.iter().zip(&draws) {
        if series.last().map(|(name, _)| *name) != Some(kind.name()) {
            series.push((kind.name(), Vec::new()));
        }
        let pts = &mut series.last_mut().expect("series started").1;
        for &lat in lats {
            pts.push((*n as f64, lat));
            rows.push(vec![kind.name().into(), n.to_string(), format!("{lat:.1}")]);
        }
    }
    out!(
        rep,
        "{}",
        ascii_series(
            "submission latency vs samples",
            "number of samples",
            "latency µs",
            &series,
            60
        )
    );
    rep.table("fig5.csv", "interface,samples,latency_us", &rows);
    rep
}

/// Fig 6: one-way latency distributions, grant-based vs grant-free.
fn fig6(a: &Args) -> Report {
    let mut rep = Report::new("Fig 6 — one-way latency distributions (testbed DDDU)");
    let mut rows = Vec::new();
    for (panel, access) in
        [("(a) grant-based", AccessMode::GrantBased), ("(b) grant-free", AccessMode::GrantFree)]
    {
        let cfg = StackConfig::testbed_dddu(access, true).with_seed(6);
        let mut res = stack::run_parallel(&cfg, a.pings);
        for (dirname, rec) in [("Downlink", &res.dl), ("Uplink", &res.ul)] {
            let h = rec.histogram_ms(0.0, 8.0, 40);
            let pairs: Vec<(f64, f64)> = h.probabilities().collect();
            out!(
                rep,
                "{}",
                ascii_histogram(&format!("{panel} {dirname}"), "one-way latency [ms]", &pairs, 40)
            );
            for (x, p) in &pairs {
                rows.push(vec![panel.into(), dirname.into(), format!("{x:.2}"), format!("{p:.5}")]);
            }
        }
        let suffix = match access {
            AccessMode::GrantBased => "grant_based",
            AccessMode::GrantFree => "grant_free",
        };
        rep.bench(&format!("ul_{suffix}"), &mut res.ul);
        rep.bench(&format!("dl_{suffix}"), &mut res.dl);
        let ul = res.ul_summary();
        let dl = res.dl_summary();
        outln!(
            rep,
            "{panel}: UL mean {:.2} ms   DL mean {:.2} ms\n",
            ul.mean_us / 1_000.0,
            dl.mean_us / 1_000.0
        );
    }
    rep.table("fig6.csv", "panel,direction,latency_ms,probability", &rows);
    rep
}

/// Extension X1: the mmWave (FR2) blockage study.
fn fr2(_: &Args) -> Report {
    let mut rep = Report::new("X1 — FR2 mmWave sub-ms fraction under blockage");
    let busy = urllc_bench::fr2_study(channel::Fr2LinkConfig::busy_indoor(), 50_000, 1);
    let clear = urllc_bench::fr2_study(channel::Fr2LinkConfig::clear_static(), 50_000, 1);
    outln!(
        rep,
        "busy indoor : sub-1ms fraction {:.3}  mean {:.1} ms  p99 {:.1} ms",
        busy.sub_ms_fraction,
        busy.mean_us / 1_000.0,
        busy.p99_us / 1_000.0
    );
    outln!(
        rep,
        "clear static: sub-1ms fraction {:.3}  mean {:.1} ms  p99 {:.1} ms",
        clear.sub_ms_fraction,
        clear.mean_us / 1_000.0,
        clear.p99_us / 1_000.0
    );
    outln!(rep, "(paper cites 4.4 % sub-ms for deployed mmWave — the busy-indoor regime)");
    rep
}

/// Extension X2: scheduler margin vs reliability (§6).
fn reliability(_: &Args) -> Report {
    let mut rep = Report::new("X2 — scheduler margin vs radio reliability");
    let margins: Vec<Duration> = (4..=24).map(|i| Duration::from_micros(i * 50)).collect();
    for (name, cfg, prep) in [
        ("USRP B210 / USB3 / GP kernel", RadioHeadConfig::usrp_b210(true), 100u64),
        ("PCIe SDR / RT kernel", RadioHeadConfig::pcie_low_latency(), 50),
    ] {
        let pts = margin_sweep(&cfg, Duration::from_micros(prep), 11_520, &margins, 20_000, 8);
        outln!(rep, "{name}:");
        for p in pts.iter().filter(|p| p.reliability > 0.0 && p.reliability < 1.0) {
            outln!(
                rep,
                "  margin {:>7}  reliability {:.4}  mean slack {:>9}",
                format!("{}", p.margin),
                p.reliability,
                format!("{}", p.mean_slack)
            );
        }
        match min_margin_for(&pts, 0.99999) {
            Some(m) => outln!(rep, "  five-nines margin: {m}"),
            None => outln!(rep, "  five-nines margin: beyond swept range"),
        }
    }
    rep
}

/// §5 design-space search.
fn design(_: &Args) -> Report {
    let mut rep = Report::new("Design-space search (§5): feasible URLLC systems");
    let s = DesignSearch::run();
    out!(rep, "{}", s.render_feasible());
    rep
}

/// Extension X3: slot-format survey (standard formats repeated per slot).
fn formats(_: &Args) -> Report {
    let mut rep = Report::new("X3 — slot-format survey (TS 38.213 formats, repeated each slot)");
    let survey = urllc_core::format_survey(&ProcessingBudget::zero());
    out!(rep, "{}", urllc_core::formats::render_survey(&survey));
    outln!(
        rep,
        "(standard-defined per-slot D…U layouts reach mini-slot-class latency; \
         the cost is UL symbols reserved in every slot — the §9 efficiency trade)"
    );
    rep
}

/// Extension X4: multi-UE uplink scalability (§9).
fn scale(_: &Args) -> Report {
    let mut rep = Report::new("X4 — uplink latency and resource waste vs UE population (§9)");
    let populations = [1usize, 4, 16, 48, 96, 192];
    let mut rows = Vec::new();
    outln!(rep, "   UEs     GF mean [ms]       GF p99     GB mean [ms]       GB p99   GF waste");
    // One sweep call per access mode: the sweep itself fans the population
    // points across the worker pool.
    let mut gf_all = stack::scalability_sweep(AccessMode::GrantFree, &populations, 11)
        .expect("grant-free scalability sweep diverged");
    let mut gb_all = stack::scalability_sweep(AccessMode::GrantBased, &populations, 11)
        .expect("grant-based scalability sweep diverged");
    for (i, &n) in populations.iter().enumerate() {
        let gf = &mut gf_all[i];
        let gb = &mut gb_all[i];
        let gf_s = gf.ul.summary();
        let gb_s = gb.ul.summary();
        outln!(
            rep,
            "{n:>6} {:>16.2} {:>12.2} {:>16.2} {:>12.2} {:>9.1}%",
            gf_s.mean_us / 1_000.0,
            gf_s.p99_us / 1_000.0,
            gb_s.mean_us / 1_000.0,
            gb_s.p99_us / 1_000.0,
            gf.wasted_fraction.unwrap_or(0.0) * 100.0
        );
        rows.push(vec![
            n.to_string(),
            format!("{:.2}", gf_s.mean_us / 1_000.0),
            format!("{:.2}", gb_s.mean_us / 1_000.0),
            format!("{:.3}", gf.wasted_fraction.unwrap_or(0.0)),
        ]);
    }
    outln!(
        rep,
        "(grant-free wins while its pre-allocation fits the slot capacity, then its\n\
         rotation period multiplies; grant-based holds its handshake cost until the\n\
         grant queue itself saturates (~3.5 grants/ms here) and collapses. At low\n\
         load most grant-free allocations sit idle — the §5/§9 trade, quantified.)"
    );
    rep.table("scale.csv", "ues,gf_mean_ms,gb_mean_ms,gf_waste", &rows);
    rep
}

/// Extension X13: city-scale multi-cell sweep (ROADMAP item 1). Cells ×
/// per-cell population up to 10⁶ total UEs; every point runs the
/// dense-urban mix (2 % URLLC / 10 % video / 88 % sensors, every fourth
/// cell a 2× hotspot) with one shard per cell and fixed-memory recording.
fn multicell(_: &Args) -> Report {
    let mut rep = Report::new("X13 — multi-cell deadline misses at city scale");
    let points: [(usize, u64); 3] = [(4, 250), (8, 12_500), (16, 62_500)];
    let mut rows: Vec<Vec<String>> = Vec::new();
    outln!(rep, " cells       ues   offered   p50[ms]   p99[ms]  p999[ms]      miss  rec[KiB]");
    for (n_cells, per_cell) in points {
        let cfg = stack::MulticellConfig::dense_urban(n_cells, per_cell, 29);
        let report = stack::run_multicell(&cfg).expect("multicell topology diverged");
        let total_ues = cfg.total_ues();
        let q3 = |rec: &mut sim::Recording| {
            [0.5, 0.99, 0.999].map(|p| rec.try_quantile_us(p).unwrap_or(0.0) / 1_000.0)
        };
        let mut row =
            |cell: String, class: &str, ues: u64, offered: u64, q: [f64; 3], miss, peak| {
                let mut r = vec![n_cells.to_string(), per_cell.to_string(), total_ues.to_string()];
                r.extend([cell, class.into(), ues.to_string(), offered.to_string()]);
                r.extend(q.map(|ms| format!("{ms:.3}")));
                r.extend([format!("{miss:.5}"), peak]);
                rows.push(r);
            };
        // Per-cell rows (all classes merged): the per-cell tail is the
        // figure's point — aggregates hide the hotspots.
        for cell in &report.cells {
            let (name, q) = (format!("cell{}", cell.cell), q3(&mut cell.latency()));
            let peak = cell.peak_queue.to_string();
            row(name, "all", cell.n_ues, cell.offered(), q, cell.miss_rate(), peak);
        }
        // Aggregate per class, then the topology total.
        let mut agg_offered = 0u64;
        for class in report.aggregate_classes() {
            let mut c = class.clone();
            agg_offered += c.offered;
            let q = q3(&mut c.latency);
            row("agg".into(), c.name, c.ues, c.offered, q, c.miss_rate(), String::new());
        }
        let [p50, p99, p999] = q3(&mut report.latency());
        let miss = report.miss_rate();
        row("agg".into(), "all", total_ues, agg_offered, [p50, p99, p999], miss, String::new());
        outln!(
            rep,
            "{n_cells:>6} {total_ues:>9} {agg_offered:>9} {p50:>9.3} {p99:>9.3} {p999:>9.3} {miss:>9.5} {:>9.1}",
            report.recording_mem_bytes() as f64 / 1024.0
        );
    }
    outln!(
        rep,
        "(per-cell event queues stay O(classes) and recordings are log-linear\n\
         histograms, so the million-UE topology runs in the same memory — and\n\
         nearly the same wall time — as the thousand-UE one; the per-cell rows\n\
         show the failure is concentrated: stable cells meet every deadline\n\
         while the 2x hotspots shed their best-effort classes wholesale, and\n\
         only the population-inflated decode cost moves the aggregate p50)"
    );
    rep.table(
        "multicell.csv",
        "cells,ues_per_cell,total_ues,cell,class,ues,offered,p50_ms,p99_ms,p999_ms,miss_rate,\
         peak_queue",
        &rows,
    );
    rep
}

/// Extension X5: HARQ retransmission steps under channel loss (§8).
fn harq(a: &Args) -> Report {
    let mut rep = Report::new("X5 — HARQ retransmission steps under channel loss");
    let rtt = StackConfig::testbed_dddu(AccessMode::GrantFree, true).round_trips().0[1];
    outln!(rep, "UL HARQ round trip on the DDDU pattern: {rtt}");
    for (name, link) in [
        ("lossless", None),
        ("indoor good", Some(channel::Fr1LinkConfig::indoor_good())),
        ("cell edge", Some(channel::Fr1LinkConfig::cell_edge())),
    ] {
        let mut cfg = StackConfig::testbed_dddu(AccessMode::GrantFree, true).with_seed(13);
        cfg.link = link;
        let mut res = stack::run_parallel(&cfg, a.pings);
        let s = res.ul_summary();
        outln!(
            rep,
            "{name:<12} UL mean {:>7.2} ms  p99 {:>7.2} ms  max {:>7.2} ms  harq retx {:>5}  failures {:>3}",
            s.mean_us / 1_000.0,
            s.p99_us / 1_000.0,
            s.max_us / 1_000.0,
            res.harq_retx,
            res.harq_failures
        );
    }
    outln!(rep, "(latency climbs in round-trip quanta — the §8 \"steps of 0.5 ms\" effect, at\n this pattern's quantum)");
    rep
}

/// Extension X6: RACH contention — the latency cliff past SR failure (§9).
fn rach(_: &Args) -> Report {
    let mut rep = Report::new("X6 — random-access contention vs population");
    let cfg = ran::RachConfig::default();
    outln!(
        rep,
        "collision-free RACH worst case: {}  (vs the 0.5 ms URLLC budget)",
        cfg.uncontended_worst_case()
    );
    outln!(rep, "   UEs    success   collisions  mean lat [ms]   attempts");
    for n in [1usize, 8, 32, 128, 512, 2048] {
        let mut s = ran::simulate_contention(&cfg, n, 17);
        let mean = if s.latency.is_empty() { 0.0 } else { s.latency.summary().mean_us / 1_000.0 };
        outln!(
            rep,
            "{n:>6} {:>9.1}% {:>11.1}% {:>14.2} {:>10.2}",
            s.succeeded as f64 / n as f64 * 100.0,
            s.collision_rate * 100.0,
            mean,
            s.mean_attempts
        );
    }
    outln!(rep, "(even collision-free random access is ~an order of magnitude past 0.5 ms —\n why the SR budget matters, and why bursts push it further)");
    rep
}

/// Extension X7: the 6G target (0.1 ms one-way, §1) across numerologies.
fn sixg(_: &Args) -> Report {
    let mut rep = Report::new("X7 — the 6G 0.1 ms one-way target");
    use phy::mini_slot::{MiniSlotConfig, MiniSlotLen};
    use phy::Numerology;
    let deadline = Duration::from_micros(100);
    let candidates: Vec<(String, ConfigUnderTest)> = vec![
        ("DM @ u2 (FR1 floor)".into(), ConfigUnderTest::TddCommon(phy::TddConfig::dm_minimal())),
        ("FDD @ u2".into(), ConfigUnderTest::Fdd { numerology: Numerology::Mu2 }),
        (
            "mini-slot @ u2".into(),
            ConfigUnderTest::MiniSlot(MiniSlotConfig::new(Numerology::Mu2, MiniSlotLen::Two)),
        ),
        ("FDD @ u3 (FR2)".into(), ConfigUnderTest::Fdd { numerology: Numerology::Mu3 }),
        (
            "mini-slot @ u3 (FR2)".into(),
            ConfigUnderTest::MiniSlot(MiniSlotConfig::new(Numerology::Mu3, MiniSlotLen::Two)),
        ),
        ("FDD @ u5 (FR2)".into(), ConfigUnderTest::Fdd { numerology: Numerology::Mu5 }),
        (
            "mini-slot @ u6 (FR2)".into(),
            ConfigUnderTest::MiniSlot(MiniSlotConfig::new(Numerology::Mu6, MiniSlotLen::Two)),
        ),
    ];
    outln!(rep, "configuration                     GB-UL          GF-UL             DL");
    for (name, cfg) in &candidates {
        let w = |d| worst_case(cfg, d, &ProcessingBudget::zero()).latency;
        let row =
            [w(Direction::UplinkGrantBased), w(Direction::UplinkGrantFree), w(Direction::Downlink)];
        let mark = |l: Duration| format!("{}{}", l, if l <= deadline { " +" } else { " x" });
        outln!(rep, "{name:<24} {:>14} {:>14} {:>14}", mark(row[0]), mark(row[1]), mark(row[2]));
    }
    outln!(
        rep,
        "(slot-based FR1 cannot reach 0.1 ms; only FR2 numerologies or sub-slot\n\
         scheduling get there in protocol terms — and §5 already showed FR2's\n\
         reliability problem. The 6G target squeezes from both sides.)"
    );
    rep
}

/// Extension X8: URLLC/eMBB coexistence policies.
fn coexist(_: &Args) -> Report {
    let mut rep = Report::new("X8 — URLLC downlink latency under eMBB load");
    use stack::coexistence_sweep;
    let loads = [0.0, 0.3, 0.6, 0.85, 0.95];
    // Below this eMBB load the leftover capacity still fits one URLLC
    // packet, so the Queue policy remains servable at all.
    let queue_limit = 0.86;
    outln!(rep, "    load    queue mean [us]  preempt mean [us]    eMBB lost [B]");
    let mut rows = Vec::new();
    for &l in &loads {
        let queue_mean = (l <= queue_limit)
            .then(|| coexistence_sweep(false, &[l], 2_000, 21)[0].latency.summary().mean_us);
        let p = &mut coexistence_sweep(true, &[l], 2_000, 21)[0];
        let preempt_mean = p.latency.summary().mean_us;
        outln!(
            rep,
            "{l:>8.2} {:>18} {preempt_mean:>18.1} {:>16}",
            queue_mean.map_or("unservable".into(), |m| format!("{m:.1}")),
            p.embb_bytes_lost
        );
        // To the nanosecond, so the byte compare sees any moved sample; an
        // unservable queue arm leaves its cell empty.
        rows.push(vec![
            format!("{l:.2}"),
            queue_mean.map_or(String::new(), |m| format!("{m:.3}")),
            format!("{preempt_mean:.3}"),
            p.embb_bytes_lost.to_string(),
        ]);
    }
    outln!(rep, "(queueing behind eMBB erodes the URLLC budget as the cell fills; preemption\n keeps URLLC flat and bills eMBB instead — the §1 coexistence literature's trade)");
    rep.table("coexist.csv", "load,queue_mean_us,preempt_mean_us,embb_bytes_lost", &rows);
    rep
}

/// Extension X14: the scheduler/slicing laboratory — the SimURLLC policy
/// set (FCFS, priority ± preemption, round-robin, EDF ± preemption,
/// slice-aware) over load × slice-mix, one shard per point.
fn sched(_: &Args) -> Report {
    let mut rep = Report::new("X14 — scheduler/slicing laboratory");
    use stack::{run_sched_lab, SchedLabConfig};
    let cfg = SchedLabConfig::simurllc(23);
    let pts = run_sched_lab(&cfg);
    let mut rows = Vec::new();
    for p in &pts {
        for c in &p.classes {
            rows.push(vec![
                p.policy.to_string(),
                format!("{:.2}", p.load),
                p.mix.to_string(),
                c.class.to_string(),
                c.count.to_string(),
                format!("{:.1}", c.p50_us),
                format!("{:.1}", c.p99_us),
                format!("{:.1}", c.p999_us),
                format!("{:.6}", c.miss_rate),
                p.punctured_bytes.to_string(),
            ]);
        }
    }
    rep.table(
        "sched.csv",
        "policy,load,mix,class,count,p50_us,p99_us,p999_us,miss_rate,punctured_bytes",
        &rows,
    );
    // Console digest: URLLC under the factory mix at the saturating load.
    let top_load = cfg.loads.iter().copied().fold(0.0f64, f64::max);
    outln!(rep, "  policy (factory, peak)   p50 [us]   p99 [us]  p999 [us]       miss");
    for p in pts.iter().filter(|p| p.mix == "factory" && p.load == top_load) {
        if let Some(c) = p.classes.iter().find(|c| c.class == "urllc") {
            outln!(
                rep,
                "{:>24} {:>10.1} {:>10.1} {:>10.1} {:>10.4}",
                p.policy,
                c.p50_us,
                c.p99_us,
                c.p999_us,
                c.miss_rate
            );
        }
    }
    outln!(
        rep,
        "(same arrival trace under every policy: preemptive puncturing holds the URLLC\n \
         tail flat while every queueing policy lets backlog eat the 2.5 ms budget)"
    );
    rep
}

/// Chaos reliability sweep: deadline-miss probability under the unified
/// fault-injection plan, across fault intensity × scheduler margin, with a
/// first-order cross-check against [`urllc_core::reliability::ChaosMissModel`]
/// and a byte-identity check of the intensity-0 column against the fault-free
/// baseline.
fn chaos(a: &Args) -> Report {
    let mut rep = Report::new("Chaos — deadline misses under fault injection (intensity × margin)");
    let n = (a.pings / 5).max(200);
    let intensities = [0.0, 0.05, 0.1, 0.2, 0.4, 0.8];
    let margins: [u64; 3] = [1, 2, 3];
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut monotone = true;
    // Across the sweep: pings delivered via re-establishment, and the
    // worst cell's recovery-detour p50 and p99.
    let (mut recovered, mut worst_p50, mut worst_p99) = (0, 0.0f64, 0.0f64);
    for &m in &margins {
        let mut base_cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(6);
        base_cfg.sched_lead = base_cfg.duplex.slot_duration() * m;
        let deadline = base_cfg.deadline;
        let period = base_cfg.duplex.pattern_period();
        let margin_us = base_cfg.sched_lead.as_micros_f64();
        // Filled from the intensity-0 run of this margin.
        let mut base_miss = 0.0;
        let mut shift_window = 0.0;
        let mut prev_miss = -1.0;
        for &intensity in &intensities {
            let plan = sim::FaultPlan::chaos(intensity);
            let cfg = base_cfg.clone().with_faults(plan.clone());
            let mut res = stack::run_parallel(&cfg, n);
            let att = res.attribution;
            let miss = att.miss_probability();
            if intensity == 0.0 {
                base_miss = miss;
                if m == 2 {
                    // Identity check against a run of the untouched config —
                    // before fraction_within() below sorts the recorder.
                    let plain_res = stack::run_parallel(&base_cfg, n);
                    let identical = plain_res.rtt.samples_us() == res.rtt.samples_us()
                        && plain_res.ul.samples_us() == res.ul.samples_us()
                        && plain_res.dl.samples_us() == res.dl.samples_us()
                        && res.attribution.is_fault_free();
                    rep.check(
                        "intensity 0 reproduces the fault-free baseline byte for byte",
                        identical,
                    );
                }
                // Fraction of baseline pings one pattern-period of extra
                // protocol delay (SR retry, withheld grant) would push late.
                shift_window = res.rtt.fraction_within(deadline)
                    - res.rtt.fraction_within(deadline.saturating_sub(period));
            }
            if miss + 1e-9 < prev_miss {
                monotone = false;
            }
            prev_miss = miss;
            let p_protocol =
                plan.sr_loss.map_or(0.0, |g| g.prob) + plan.grant_withhold.map_or(0.0, |g| g.prob);
            let model = urllc_core::ChaosMissModel {
                base_miss,
                burst_loss: plan.channel_burst.map_or(0.0, |ge| ge.mean_loss()),
                harq_budget: base_cfg.harq_max_tx,
                protocol_miss: (p_protocol * shift_window).min(1.0),
            };
            let mean_rtt_ms = res.rtt.summary().mean_us / 1000.0;
            rep.bench(&format!("rtt_m{m}_i{intensity}"), &mut res.rtt);
            let (rec_p50, rec_p99) = (
                res.recovery.try_quantile_us(0.5).unwrap_or(0.0),
                res.recovery.try_quantile_us(0.99).unwrap_or(0.0),
            );
            recovered += res.recovered;
            worst_p50 = worst_p50.max(rec_p50);
            worst_p99 = worst_p99.max(rec_p99);
            outln!(
                rep,
                "margin {m} slots  intensity {intensity:>4.2}: miss {miss:.4} (model {:.4})  \
                 on-time {:>4} late {:>3} lost {:>3}  rlf {:>2} recovered {:>2}  \
                 mean RTT {mean_rtt_ms:.2} ms",
                model.miss_probability(),
                att.on_time,
                att.late,
                att.lost,
                res.rlf.len(),
                res.recovered,
            );
            rows.push(vec![
                format!("{intensity}"),
                m.to_string(),
                format!("{margin_us:.0}"),
                n.to_string(),
                format!("{miss:.6}"),
                format!("{:.6}", model.miss_probability()),
                att.on_time.to_string(),
                att.late.to_string(),
                att.lost.to_string(),
                res.rlf.len().to_string(),
                res.sr_retx.to_string(),
                res.rach_recoveries.to_string(),
                res.grants_withheld.to_string(),
                format!("{mean_rtt_ms:.3}"),
                res.recovered.to_string(),
                format!("{rec_p50:.1}"),
                format!("{rec_p99:.1}"),
            ]);
        }
    }
    rep.check("miss probability monotone in intensity at every margin", monotone);
    outln!(
        rep,
        "recovery across the sweep: {recovered} pings delivered via re-establishment \
         ({} cells); worst cell p50 {worst_p50:.0} µs, p99 {worst_p99:.0} µs",
        rows.len()
    );
    rep.table(
        "chaos.csv",
        "intensity,margin_slots,margin_us,pings,miss_prob,model_miss,on_time,late,lost,rlf,\
         sr_retx,rach_recoveries,grants_withheld,mean_rtt_ms,recovered,recovery_p50_us,\
         recovery_p99_us",
        &rows,
    );
    rep
}

/// Recovery study: RRC re-establishment after RLF under a seeded burst
/// plan, cross-checked against the closed-form
/// [`stack::RecoveryLatencyModel`], plus GTP-U path supervision
/// failing over the N3 backbone.
fn recovery(a: &Args) -> Report {
    let mut rep = Report::new("Recovery — RLF re-establishment and GTP-U path supervision");
    let n = (a.pings / 10).max(200);

    // (a) A burst-loss plan harsh enough to force RLF: HARQ and RLC
    // budgets small, long deep fades.
    let mut cfg = StackConfig::testbed_dddu(AccessMode::GrantFree, true).with_seed(9);
    cfg.harq_max_tx = 2;
    cfg.rlc_max_retx = 1;
    cfg.faults.channel_burst = Some(sim::GilbertElliott {
        p_enter_bad: 0.25,
        p_exit_bad: 0.5,
        loss_good: 0.05,
        loss_bad: 1.0,
    });
    let model = stack::RecoveryLatencyModel::from_config(&cfg);
    let mut res = stack::run_parallel_opts(&cfg, n, n as usize, None);

    if let Some(ev) = res.rlf.iter().find(|ev| ev.recovered) {
        outln!(
            rep,
            "ping {} hit RLF on its {} leg and completed via re-establishment — its trace:",
            ev.ping,
            if ev.dl { "downlink" } else { "uplink" }
        );
        out!(rep, "{}", res.traces[ev.ping as usize].render());
    }
    let unrecovered = res.rlf.iter().filter(|ev| !ev.recovered).count();
    outln!(
        rep,
        "{n} pings: {} RLF events, {} recovered, {} lost for good \
         (integrity failures: {})",
        res.rlf.len(),
        res.recovered,
        unrecovered,
        res.integrity_failures
    );
    rep.bench("rtt", &mut res.rtt);
    rep.bench("detour", &mut res.recovery);
    let p50 = res.recovery.try_quantile_us(0.5).unwrap_or(0.0);
    let p99 = res.recovery.try_quantile_us(0.99).unwrap_or(0.0);
    let max = if res.recovery.count() > 0 { res.recovery.summary().max_us } else { 0.0 };
    outln!(rep, "simulated recovery detour: p50 {p50:.0} µs  p99 {p99:.0} µs  max {max:.0} µs");
    outln!(
        rep,
        "closed-form worst case:    UL {}  DL {}  (control plane {})",
        model.worst_case(false),
        model.worst_case(true),
        model.control_plane
    );
    let bound_us = model.worst_case_any().as_micros_f64();
    let bounded = res.recovery.samples_us().iter().all(|&us| us <= bound_us);
    rep.check("every simulated detour within the closed form", bounded);

    // (b) N3 path outages: supervision detects, fails over, restores.
    let mut path_cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(10);
    path_cfg.faults.path_failure = Some(sim::PathFailureConfig { enter: 0.15, stay: 0.6 });
    let path_res = stack::run_parallel(&path_cfg, n);
    let restored = path_res
        .path_events
        .iter()
        .filter(|ev| ev.kind == corenet::PathEventKind::PathRestored)
        .count();
    outln!(
        rep,
        "N3 supervision over {n} pings: {} failovers, {} restorations, \
         probes sent {} / lost {}, detection charge {} per outage",
        path_res.path_failovers,
        restored,
        path_res.path_probes.0,
        path_res.path_probes.1,
        model.path_detection
    );

    let dur = |d: sim::Duration| format!("{:.1}", d.as_micros_f64());
    let rows = vec![
        vec!["model_control_plane_us".into(), dur(model.control_plane)],
        vec!["model_status_exchange_ul_us".into(), dur(model.status_exchange_ul)],
        vec!["model_status_exchange_dl_us".into(), dur(model.status_exchange_dl)],
        vec!["model_redelivery_ul_us".into(), dur(model.redelivery_ul)],
        vec!["model_redelivery_dl_us".into(), dur(model.redelivery_dl)],
        vec!["model_worst_case_ul_us".into(), dur(model.worst_case(false))],
        vec!["model_worst_case_dl_us".into(), dur(model.worst_case(true))],
        vec!["model_path_detection_us".into(), dur(model.path_detection)],
        vec!["sim_rlf_events".into(), res.rlf.len().to_string()],
        vec!["sim_recovered".into(), res.recovered.to_string()],
        vec!["sim_recovery_failures".into(), res.recovery_failures.to_string()],
        vec!["sim_recovery_p50_us".into(), format!("{p50:.1}")],
        vec!["sim_recovery_p99_us".into(), format!("{p99:.1}")],
        vec!["sim_recovery_max_us".into(), format!("{max:.1}")],
        vec!["sim_detours_bounded".into(), bounded.to_string()],
        vec!["sim_path_failovers".into(), path_res.path_failovers.to_string()],
        vec!["sim_path_probes_sent".into(), path_res.path_probes.0.to_string()],
        vec!["sim_path_probes_lost".into(), path_res.path_probes.1.to_string()],
    ];
    rep.table("recovery.csv", "quantity,value", &rows);
    rep
}

/// `repro overload` — the open-loop offered-load ladder: Poisson and bursty
/// (MMPP2) arrivals swept across ρ, with and without the SLO supervisor,
/// over an eMBB background. Each point runs as its own shard with a
/// point-indexed RNG stream, so `overload.csv` is byte-identical at any
/// `--jobs`. Sub-saturation Poisson points are cross-checked against the
/// closed-form M/D/1 mean queueing wait.
fn overload(_: &Args) -> Report {
    let mut rep = Report::new("Overload — offered-load ladder with typed drops and degradation");
    let stack = StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(11);
    let wire = stack.payload_bytes + 3; // + PDCP (2) + RLC (1) headers
    let mu = service_capacity_pps(&stack, wire);
    let horizon = Duration::from_millis(400);
    let period = stack.duplex.pattern_period();
    outln!(rep, "DL service capacity: {mu:.0} packets/s ({wire} B wire, {period} TDD pattern)");

    let rhos = [0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.1, 1.2, 1.4];
    let points: Vec<(&str, bool, f64)> = ["poisson", "mmpp"]
        .into_iter()
        .flat_map(|p| [false, true].map(move |slo| (p, slo)))
        .flat_map(|(p, slo)| rhos.map(move |rho| (p, slo, rho)))
        .collect();

    // One shard per ladder point; the per-point report plus the governed
    // supervisor's transition count.
    let reports: Vec<(OverloadReport, usize)> = sim::parallel::run_shards(points.len(), |i| {
        let (process, slo, rho) = points[i];
        let lambda = rho * mu;
        let arrivals = match process {
            "poisson" => ArrivalProcess::poisson_pps(lambda),
            _ => ArrivalProcess::bursty_pps(lambda, 8.0, 0.2, Duration::from_millis(2)),
        };
        let mut cfg = OverloadConfig::testbed(stack.clone(), arrivals, horizon);
        // Best-effort background competing for leftover slot budget.
        cfg.embb = Some((ArrivalProcess::poisson_pps(500.0), 1200));
        let rng = SimRng::from_seed(stack.seed).stream_indexed("overload", i as u64);
        let tel = telemetry::Telemetry::disabled();
        if slo {
            let mut sup = stack::SloSupervisor::new(stack::SloConfig::default());
            let r = run_overload(&cfg, &rng, &mut sup, &tel);
            (r, sup.transitions().len())
        } else {
            let mut hook = NullHook;
            (run_overload(&cfg, &rng, &mut hook, &tel), 0)
        }
    });

    let drops: String =
        DropReason::ALL.iter().map(|r| format!(",drop_{}", r.label().replace('-', "_"))).collect();
    let header = format!(
        "process,slo,rho,offered_pps,offered,delivered,goodput,miss_rate,p50_us,p99_us,p999_us,\
         mean_queue_us,md1_wq_us,in_band,in_flight{drops},peak_pdcp_pkts,peak_rlc_bytes,\
         peak_harq_tbs,degraded_frac,critical_frac,slo_transitions,embb_sent_bytes,embb_shed_bytes"
    );

    outln!(
        rep,
        " process  slo   rho   offered  goodput     miss  p99[us] queue[us]   md1[us]   drops   deg%  trans"
    );
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut md1_violations = 0usize;
    for ((process, slo, rho), (r, transitions)) in points.iter().zip(&reports) {
        let lambda = rho * mu;
        let model = urllc_core::Md1Model::new(lambda, mu);
        // The closed form assumes Poisson arrivals; bursty points get the
        // wait column for reference but are never judged against the band.
        let poisson = *process == "poisson";
        let wq_us = model.mean_wait().map(|w| w.as_micros_f64());
        let in_band = if poisson {
            let ok = model.wait_in_band(r.mean_queue_wait, period);
            if !ok {
                md1_violations += 1;
            }
            ok.to_string()
        } else {
            String::new()
        };
        let mut lat = r.latency.clone();
        let mut q = move |p: f64| lat.quantile_us(p);
        let deg = r.degraded_slots as f64 / r.total_slots.max(1) as f64;
        let crit = r.critical_slots as f64 / r.total_slots.max(1) as f64;
        outln!(
            rep,
            "{process:>8} {:>4} {rho:>5.2} {:>9.0} {:>8.3} {:>8.4} {:>9.1} {:>9.1} {:>7} {:>6} {:>5.1}% {:>5}",
            if *slo { "on" } else { "off" },
            lambda,
            r.goodput_ratio(),
            r.miss_rate(),
            q(0.99),
            r.mean_queue_wait.as_micros_f64(),
            wq_us.map_or("sat".into(), |w| format!("{w:.1}")),
            r.drops.total(),
            (deg + crit) * 100.0,
            transitions,
        );
        assert!(r.conserved(), "packet conservation violated at {process} rho {rho}");
        assert!(r.embb_conserved(), "eMBB byte ledger violated at {process} rho {rho}");
        let mut row = vec![
            (*process).to_string(),
            if *slo { "on".into() } else { "off".into() },
            format!("{rho:.2}"),
            format!("{lambda:.1}"),
            r.offered.to_string(),
            r.delivered.to_string(),
            format!("{:.5}", r.goodput_ratio()),
            format!("{:.5}", r.miss_rate()),
            format!("{:.1}", q(0.5)),
            format!("{:.1}", q(0.99)),
            format!("{:.1}", q(0.999)),
            format!("{:.1}", r.mean_queue_wait.as_micros_f64()),
            wq_us.map_or(String::new(), |w| format!("{w:.1}")),
            in_band,
            r.in_flight.to_string(),
        ];
        row.extend(DropReason::ALL.map(|reason| r.drops.get(reason).to_string()));
        row.extend([
            r.peak_pdcp_queue.to_string(),
            r.peak_rlc_bytes.to_string(),
            r.peak_harq_backlog.to_string(),
            format!("{deg:.4}"),
            format!("{crit:.4}"),
            transitions.to_string(),
            r.embb_sent_bytes.to_string(),
            r.embb_shed_bytes.to_string(),
        ]);
        rows.push(row);
    }
    rep.check("sub-saturation Poisson mean waits inside the M/D/1 band", md1_violations == 0);
    let governed_engaged = points
        .iter()
        .zip(&reports)
        .any(|((_, slo, rho), (r, _))| *slo && *rho > 1.0 && r.degraded_slots > 0);
    rep.check("SLO supervisor engaged past saturation", governed_engaged);
    rep.table("overload.csv", &header, &rows);
    rep
}

/// `repro handover` — the mobility chaos sweep: UE speed × A3
/// time-to-trigger × fault plan, one shard per point. Each point drives
/// the two-gNB shuttle of `stack::handover` and is judged against the
/// closed-form interruption model: packet conservation always, zero loss
/// and in-order delivery on the fault-free plans, and every interruption
/// window under `HandoverInterruptionModel::worst_case`.
fn handover(_: &Args) -> Report {
    let mut rep = Report::new("Handover — mobility sweep with Xn forwarding and fault taxonomy");
    let base = StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(17);
    let model = stack::HandoverInterruptionModel::from_config(&base);
    let bound_us = model.worst_case().as_micros_f64();
    outln!(
        rep,
        "closed-form interruption bounds [ms]: handover {:.2}  too-late {:.2}  too-early {:.2}  fwd-loss +{:.2}  worst {:.2}",
        model.handover.as_micros_f64() / 1_000.0,
        model.too_late.as_micros_f64() / 1_000.0,
        model.too_early.as_micros_f64() / 1_000.0,
        model.forwarding_recovery.as_micros_f64() / 1_000.0,
        bound_us / 1_000.0,
    );

    let speeds = [10.0f64, 30.0, 60.0];
    let ttts_ms = [0u64, 20, 80];
    let plans = ["none", "chaos"];
    let points: Vec<(f64, u64, &str)> = speeds
        .into_iter()
        .flat_map(|s| ttts_ms.map(move |t| (s, t)))
        .flat_map(|(s, t)| plans.map(move |p| (s, t, p)))
        .collect();

    // One shard per sweep point; the mobility report carries its own
    // conservation ledger and per-handover interruption samples.
    let mut reports: Vec<MobilityReport> = sim::parallel::run_shards(points.len(), |i| {
        let (speed, ttt_ms, plan) = points[i];
        let mut cfg = MobilityConfig::for_speed(base.clone(), speed, 3);
        cfg.stack.handover.time_to_trigger = Duration::from_millis(ttt_ms);
        let faults = match plan {
            "chaos" => FaultPlan::handover_chaos(1.0),
            _ => FaultPlan::none(),
        };
        cfg.stack = cfg.stack.with_seed(base.seed + i as u64).with_faults(faults);
        run_mobility(&cfg, None)
    });

    outln!(
        rep,
        " speed    ttt   plan  offered    ho  done  late early    pp   fwd  int99[us]  bound[us]"
    );
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut bound_violations = 0usize;
    let mut chaos_tally = [0u64; 4];
    for (&(speed, ttt_ms, plan), r) in points.iter().zip(reports.iter_mut()) {
        assert!(r.conserved(), "packet conservation violated at {speed} m/s ttt {ttt_ms} {plan}");
        if plan == "none" {
            assert_eq!(r.drops, 0, "fault-free plan dropped packets at {speed} m/s ttt {ttt_ms}");
            assert_eq!(
                r.out_of_order, 0,
                "fault-free plan reordered packets at {speed} m/s ttt {ttt_ms}"
            );
        } else {
            chaos_tally[0] += r.too_late;
            chaos_tally[1] += r.too_early;
            chaos_tally[2] += r.ping_pongs;
            chaos_tally[3] += r.forwarding_losses;
        }
        for &sample_us in r.interruption.samples_us() {
            if sample_us > bound_us {
                bound_violations += 1;
            }
        }
        let int_p50 = r.interruption.quantile_us(0.5);
        let int_p99 = r.interruption.quantile_us(0.99);
        let int_max = r.interruption.samples_us().iter().cloned().fold(0.0f64, f64::max);
        let lat_p50 = r.latency.quantile_us(0.5);
        let lat_p99 = r.latency.quantile_us(0.99);
        outln!(
            rep,
            "{speed:>6.0} {ttt_ms:>6} {plan:>6} {:>8} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5} {int_p99:>10.1} {bound_us:>10.1}",
            r.offered, r.handovers, r.completed, r.too_late, r.too_early, r.ping_pongs,
            r.forwarding_losses,
        );
        rows.push(vec![
            format!("{speed:.0}"),
            ttt_ms.to_string(),
            plan.to_string(),
            r.offered.to_string(),
            r.delivered.to_string(),
            r.in_flight.to_string(),
            r.drops.to_string(),
            r.out_of_order.to_string(),
            r.handovers.to_string(),
            r.completed.to_string(),
            r.too_late.to_string(),
            r.too_early.to_string(),
            r.ping_pongs.to_string(),
            r.forwarding_losses.to_string(),
            format!("{int_p50:.1}"),
            format!("{int_p99:.1}"),
            format!("{int_max:.1}"),
            format!("{bound_us:.1}"),
            format!("{lat_p50:.1}"),
            format!("{lat_p99:.1}"),
        ]);
    }
    rep.check("every interruption window within the closed-form bound", bound_violations == 0);
    rep.check("all four failure modes observed under chaos", chaos_tally.iter().all(|&n| n > 0));
    rep.table(
        "handover.csv",
        "speed_mps,ttt_ms,plan,offered,delivered,in_flight,drops,out_of_order,handovers,completed,\
         too_late,too_early,ping_pongs,forwarding_losses,interruption_p50_us,interruption_p99_us,\
         interruption_max_us,bound_us,latency_p50_us,latency_p99_us",
        &rows,
    );
    rep
}

/// `repro metrics` — one instrumented chaotic run; dumps the cross-layer
/// metrics registry, the per-ping deadline-budget audit and the telemetry
/// summary, and writes `metrics.csv` / `metrics.json`.
fn metrics(a: &Args) -> Report {
    let mut rep =
        Report::new("Metrics — cross-layer telemetry registry (instrumented chaotic run)");
    let n = a.pings.clamp(64, 1_000);
    let cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true)
        .with_seed(7)
        .with_faults(sim::FaultPlan::chaos(0.2));
    let tel = telemetry::Telemetry::new(4096);
    let mut res = stack::run_parallel_opts(&cfg, n, n as usize, Some(&tel));
    rep.bench("rtt", &mut res.rtt);

    let audits = stack::audit_traces(&res.traces, &cfg, &tel);
    let over = audits.iter().filter(|a| !a.recovery_within_bound).count();
    let snap = tel.snapshot();
    out!(rep, "{}", snap.render());
    outln!(
        rep,
        "{} metric keys across {} layers: {}",
        snap.len(),
        snap.layers().len(),
        snap.layers().join(", ")
    );
    outln!(rep, "audited {} pings: {} over the closed-form recovery bound", audits.len(), over);
    if let Some(worst) = audits.iter().max_by_key(|a| a.rtt) {
        outln!(rep, "slowest audited ping:\n  {}", worst.render());
    }
    outln!(rep, "{}", res.telemetry.render());
    rep.file("metrics.csv", snap.to_csv());
    rep.file("metrics.json", snap.to_json());
    rep
}

/// `repro trace [--perfetto out.json]` — one instrumented chaotic run;
/// exports the event journal as a Chrome trace-event / Perfetto JSON
/// document (load it at <https://ui.perfetto.dev>).
fn trace(args: &Args) -> Report {
    let mut rep = Report::new("Trace — Perfetto/Chrome trace-event export of the ping journey");
    let n = args.pings.clamp(8, 24);
    let cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true)
        .with_seed(7)
        .with_faults(sim::FaultPlan::chaos(0.2));
    let tel = telemetry::Telemetry::new(8192);
    let mut res = stack::run_parallel_opts(&cfg, n, 3, Some(&tel));
    rep.bench("rtt", &mut res.rtt);
    let events = perfetto(&mut rep, &args.perfetto, &tel, |_| true);
    outln!(
        rep,
        "{n} pings journalled {events} events ({} dropped by the ring)",
        tel.journal_dropped()
    );
    outln!(rep, "open the saved file at https://ui.perfetto.dev");
    rep
}

/// `repro profile` — tail forensics: the per-hop *host* wall-time profile
/// (`profile.csv`, host clock — excluded from the determinism compare),
/// the flight recorder's worst-K + forced exemplars with their p50-diff
/// tail decomposition (`tail_exemplars.json`, byte-deterministic at any
/// `--jobs`), and an exemplar-only Perfetto trace (`tail_perfetto.json`).
fn profile(a: &Args) -> Report {
    let mut rep =
        Report::new("Profile — per-hop wall-time profiler + tail-forensics flight recorder");
    let n = a.pings.clamp(64, 2_000);
    let prof = telemetry::Profiler::new();

    // Chaotic grant-based journey: every grant-based hop plus the fault
    // machinery under a harsh plan.
    let cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true)
        .with_seed(7)
        .with_faults(FaultPlan::chaos(0.4));
    let tel = telemetry::Telemetry::new(131_072);
    let mut res = stack::run_parallel_profiled(&cfg, n, n as usize, Some(&tel), Some(&prof));
    rep.bench("rtt", &mut res.rtt);

    // Recovery-heavy grant-free run: the UL-access and RLF-recovery hops
    // (same burst recipe as `repro recovery`).
    let mut rcfg = StackConfig::testbed_dddu(AccessMode::GrantFree, true).with_seed(31);
    rcfg.harq_max_tx = 2;
    rcfg.rlc_max_retx = 1;
    rcfg.faults.channel_burst = Some(sim::GilbertElliott {
        p_enter_bad: 0.3,
        p_exit_bad: 0.4,
        loss_good: 0.1,
        loss_bad: 1.0,
    });
    let rtel = telemetry::Telemetry::new(131_072);
    let mut rres = stack::run_parallel_profiled(&rcfg, n, n as usize, Some(&rtel), Some(&prof));
    rep.bench("recovery_rtt", &mut rres.rtt);

    // Engine wall time: a short governed overload pass at capacity...
    let ostack = StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(11);
    let wire = ostack.payload_bytes + 3;
    let mu = service_capacity_pps(&ostack, wire);
    let mut ocfg = OverloadConfig::testbed(
        ostack.clone(),
        ArrivalProcess::poisson_pps(mu),
        Duration::from_millis(100),
    );
    ocfg.embb = Some((ArrivalProcess::poisson_pps(500.0), 1200));
    let orng = SimRng::from_seed(ostack.seed).stream("profile-overload");
    let mut hook = NullHook;
    let odark = telemetry::Telemetry::disabled();
    let oreport = run_overload_profiled(&ocfg, &orng, &mut hook, &odark, &prof);
    // ...and a chaotic mobility pass (handover failures become forced
    // flight-recorder exemplars).
    let mut mcfg =
        MobilityConfig::for_speed(StackConfig::testbed_dddu(AccessMode::GrantBased, true), 30.0, 2);
    mcfg.stack = mcfg.stack.with_seed(23).with_faults(FaultPlan::handover_chaos(1.0));
    let mtel = telemetry::Telemetry::new(4_096);
    let mreport = run_mobility_profiled(&mcfg, Some(&mtel), &prof);

    // Per-hop coverage: every journey hop must have recorded self time.
    let stages = prof.snapshot();
    let covered: std::collections::BTreeSet<&str> = stages.iter().map(|s| s.stage).collect();
    let missing: Vec<&str> =
        HopId::ALL.iter().map(|h| h.name()).filter(|name| !covered.contains(name)).collect();
    outln!(
        rep,
        "hop coverage: {}/{} journey hops profiled{}",
        HopId::ALL.len() - missing.len(),
        HopId::ALL.len(),
        if missing.is_empty() {
            String::new()
        } else {
            format!("  (MISSING: {})", missing.join(", "))
        }
    );
    // Host time differs run to run: stderr only.
    let _ = writeln!(rep.stderr, "hottest stages (host wall time):");
    for s in stages.iter().take(8) {
        let _ = writeln!(
            rep.stderr,
            "  {:<24} count {:>8}  total {:>9.3} ms  p99 {:>8.1} µs",
            s.stage, s.count, s.total_ms, s.p99_us
        );
    }
    outln!(
        rep,
        "engines: overload delivered {}/{}; mobility {} handovers, {} forced exemplars",
        oreport.delivered,
        oreport.offered,
        mreport.handovers,
        mtel.flight_retained()
    );

    // Tail decomposition: diff each figure's exemplars against its own
    // p50 baseline and rank the hops'/faults' share of the gap.
    let ex1 = tel.flight_exemplars();
    let d1 = stack::decompose_tail(&ex1, &stack::TailBaseline::from_traces(&res.traces));
    let ex2 = rtel.flight_exemplars();
    let d2 = stack::decompose_tail(&ex2, &stack::TailBaseline::from_traces(&rres.traces));
    outln!(
        rep,
        "tail decomposition: chaos {} exemplars cover {:.1}% of the gap; recovery {} cover {:.1}%",
        d1.exemplars,
        d1.coverage * 100.0,
        d2.exemplars,
        d2.coverage * 100.0
    );

    rep.file("profile.csv", prof.to_csv());
    let doc = format!(
        "{{\n\"figures\": [\n\
         {{\"figure\": \"chaos\",\n\"decomposition\": {},\n\"flight\": {}}},\n\
         {{\"figure\": \"recovery\",\n\"decomposition\": {},\n\"flight\": {}}},\n\
         {{\"figure\": \"handover\",\n\"flight\": {}}}\n]\n}}\n",
        d1.to_json(),
        tel.flight_json(),
        d2.to_json(),
        rtel.flight_json(),
        mtel.flight_json(),
    );
    rep.file("tail_exemplars.json", doc);

    // Exemplar-only Perfetto trace: the chaos figure's journal filtered
    // to the retained pings.
    let keep: std::collections::BTreeSet<u64> = ex1.iter().map(|e| e.ping).collect();
    perfetto(&mut rep, "tail_perfetto.json", &tel, |ev| {
        ev.ping().is_some_and(|p| keep.contains(&p))
    });
    rep
}

/// Adds the journal events of `tel` that `keep` selects to `rep` as the
/// Chrome trace-event document `name` and returns how many it holds. The
/// visitor copies only those events out of the ring. A failed export (the
/// typed error tells formatting from I/O failures) goes to stderr and
/// leaves the file out, which fails `main`'s artifact audit.
fn perfetto(
    rep: &mut Report,
    name: &str,
    tel: &telemetry::Telemetry,
    keep: impl Fn(&telemetry::JournalEvent) -> bool,
) -> usize {
    let mut events = Vec::new();
    tel.visit_journal(|ev| {
        if keep(ev) {
            events.push(*ev);
        }
    });
    let mut buf = Vec::new();
    match telemetry::perfetto::export_chrome_trace(&mut buf, &events) {
        Ok(()) => rep.file(name, String::from_utf8(buf).expect("chrome trace is UTF-8")),
        Err(e) => {
            let _ = writeln!(rep.stderr, "[trace export to {name} failed: {e}]");
        }
    }
    events.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Figures whose size does not follow `--pings`. They take most of a
    /// debug `repro all`; the release `repro all` in CI gates their checks.
    const UNSCALED: &[&str] = &["scale", "overload", "handover"];

    /// `report` without what legitimately differs run to run: host time
    /// (stderr and `profile.csv`'s contents).
    fn deterministic(mut report: Report) -> Report {
        report.stderr.clear();
        for (name, contents) in &mut report.files {
            if name == "profile.csv" {
                contents.clear();
            }
        }
        report
    }

    #[test]
    fn every_figure_reports_the_same_at_one_and_two_workers_and_every_check_holds() {
        let args = Args { pings: 64, perfetto: TRACE_ARTIFACT.into() };
        let figures: Vec<&Figure> =
            FIGURES.iter().filter(|f| !UNSCALED.contains(&f.name)).collect();
        let run = |jobs| {
            sim::parallel::set_jobs(jobs);
            figures.iter().map(|f| deterministic((f.run)(&args))).collect::<Vec<Report>>()
        };
        let (one, two) = (run(1), run(2));
        sim::parallel::set_jobs(0);
        for ((fig, a), b) in figures.iter().zip(&one).zip(&two) {
            assert!(a == b, "`{}` reports differently at one and two workers", fig.name);
            for check in &a.checks {
                assert!(check.holds, "`{}`: {} does not hold", fig.name, check.claim);
            }
            let files: Vec<&str> = a.files.iter().map(|(name, _)| name.as_str()).collect();
            assert_eq!(files, fig.artifacts, "`{}` writes what it declares", fig.name);
        }
    }

    /// The malformed command lines `tests/cli.rs` runs the binary on.
    const REFUSED: &[&[&str]] = &[
        &["ratchet"],
        &["--compare"],
        &["--write"],
        &["--jobs", "0"],
        &["--pings", "abc"],
        &["table1", "--pings"],
        &["table1", "extra"],
        &["nosuchfig"],
    ];

    /// What the random command lines are drawn from.
    const TOKENS: &[&str] = &[
        "--pings",
        "--jobs",
        "--perfetto",
        "0",
        "2",
        "64",
        "-1",
        "abc",
        "all",
        "table1",
        "nosuchfig",
        "--",
        "",
    ];

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn the_refused_command_lines_are_errors() {
        // A trace name that would leave `results/` is refused too.
        let escapes: &[&[&str]] = &[
            &["--perfetto", "../out.json"],
            &["--perfetto", "/tmp/out.json"],
            &["--perfetto", ""],
        ];
        for line in REFUSED.iter().chain(escapes) {
            assert!(parse(argv(line)).is_err(), "{line:?} parsed");
        }
        assert_eq!(
            parse(argv(&["trace", "--perfetto", "out.json"])).unwrap().args.perfetto,
            "out.json"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::cases_from_env_or(512))]
        #[test]
        fn a_random_command_line_parses_to_a_runnable_command_or_an_error(
            picks in prop::collection::vec(0..TOKENS.len(), 0..8),
        ) {
            let line: Vec<&str> = picks.iter().map(|&i| TOKENS[i]).collect();
            if let Ok(cli) = parse(argv(&line)) {
                prop_assert!(cli.jobs > 0, "{line:?} parsed to {cli:?}");
                let known = FIGURES.iter().any(|f| f.name == cli.command);
                prop_assert!(cli.command == "all" || known, "{line:?} parsed to {cli:?}");
            }
        }
    }
}
