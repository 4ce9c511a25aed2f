//! ASCII plots and CSV output for the regenerated tables and figures,
//! plus the machine-readable `BENCH_repro.json` collector.

use std::fmt::Write as _;
use std::sync::Mutex;

use sim::LatencyRecorder;

/// Renders an ASCII bar histogram from `(x, probability)` pairs (the shape
/// of the paper's Fig 6 panels).
pub fn ascii_histogram(title: &str, xlabel: &str, pairs: &[(f64, f64)], width: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let max_p = pairs.iter().map(|(_, p)| *p).fold(0.0_f64, f64::max).max(1e-12);
    for (x, p) in pairs {
        if *p <= 0.0 {
            continue;
        }
        let bar = ((p / max_p) * width as f64).round() as usize;
        let _ = writeln!(out, "{x:8.2} | {:<width$} {p:.4}", "#".repeat(bar.max(1)));
    }
    let _ = writeln!(out, "{:>8}   ({xlabel})", "");
    out
}

/// Renders an ASCII scatter/line of `(x, y)` series (the shape of Fig 5):
/// one row per x, column position proportional to y.
pub fn ascii_series(
    title: &str,
    xlabel: &str,
    ylabel: &str,
    series: &[(&str, Vec<(f64, f64)>)],
    width: usize,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}   [y = {ylabel}]");
    let ymax = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|(_, y)| *y))
        .fold(0.0_f64, f64::max)
        .max(1e-12);
    for (name, pts) in series {
        let _ = writeln!(out, "-- {name}");
        for (x, y) in pts {
            let col = ((y / ymax) * width as f64).round() as usize;
            let _ = writeln!(out, "{x:10.0} | {:>col$}  {y:.1}", "*", col = col.max(1));
        }
    }
    let _ = writeln!(out, "{:>10}   ({xlabel})", "");
    out
}

/// Serialises rows as CSV (header + rows of equal arity).
pub fn to_csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", header.join(","));
    for row in rows {
        assert_eq!(row.len(), header.len(), "CSV row arity mismatch");
        let _ = writeln!(out, "{}", row.join(","));
    }
    out
}

/// Aggregate of the recovery columns of `chaos.csv`: how many pings
/// completed via RRC re-establishment across the sweep, and the worst
/// recovery-detour quantiles any cell observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosRecoverySummary {
    /// Data rows parsed (sweep cells).
    pub rows: usize,
    /// Sum of the `recovered` column: pings delivered via re-establishment.
    pub total_recovered: u64,
    /// Largest per-cell median recovery detour, µs.
    pub worst_p50_us: f64,
    /// Largest per-cell p99 recovery detour, µs.
    pub worst_p99_us: f64,
}

impl ChaosRecoverySummary {
    /// One-paragraph ASCII rendering for the chaos banner.
    pub fn render(&self) -> String {
        format!(
            "recovery across the sweep: {} pings delivered via re-establishment \
             ({} cells); worst cell p50 {:.0} µs, p99 {:.0} µs\n",
            self.total_recovered, self.rows, self.worst_p50_us, self.worst_p99_us
        )
    }
}

/// Parses the `recovered` / `recovery_p50_us` / `recovery_p99_us` columns
/// out of a chaos-sweep CSV (header + rows, as written by `repro chaos`).
/// Returns `None` if any of the three columns is missing or malformed.
pub fn summarize_chaos_recovery(csv: &str) -> Option<ChaosRecoverySummary> {
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next()?.split(',').collect();
    let col = |name: &str| header.iter().position(|h| *h == name);
    let (rec, p50, p99) = (col("recovered")?, col("recovery_p50_us")?, col("recovery_p99_us")?);
    let mut sum =
        ChaosRecoverySummary { rows: 0, total_recovered: 0, worst_p50_us: 0.0, worst_p99_us: 0.0 };
    for line in lines.filter(|l| !l.trim().is_empty()) {
        let fields: Vec<&str> = line.split(',').collect();
        sum.rows += 1;
        sum.total_recovered += fields.get(rec)?.parse::<u64>().ok()?;
        sum.worst_p50_us = sum.worst_p50_us.max(fields.get(p50)?.parse().ok()?);
        sum.worst_p99_us = sum.worst_p99_us.max(fields.get(p99)?.parse().ok()?);
    }
    Some(sum)
}

/// One latency distribution logged for `BENCH_repro.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Which figure/table produced it (`table2`, `fig6`, ...).
    pub figure: String,
    /// Which distribution within the figure (`rtt`, `ul`, ...).
    pub metric: String,
    /// Sample count.
    pub count: u64,
    /// Median, µs (0 when the recorder was empty).
    pub p50_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// 99.9th percentile, µs.
    pub p999_us: f64,
}

/// Wall-clock time of one `repro` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchWall {
    /// Subcommand name.
    pub figure: String,
    /// Wall time, ms, at `jobs` workers.
    pub wall_ms: f64,
    /// Worker count the subcommand ran with.
    pub jobs: usize,
    /// Wall time of the single-worker reference pass, ms (present only
    /// when `repro` ran with `--compare`).
    pub seq_wall_ms: Option<f64>,
}

static BENCH_RECORDS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());
static BENCH_WALL: Mutex<Vec<BenchWall>> = Mutex::new(Vec::new());

/// Logs a latency distribution under `figure`/`metric` for
/// `BENCH_repro.json`. Empty recorders log zero quantiles rather than
/// panicking (via [`LatencyRecorder::try_quantile_us`]).
pub fn bench_log(figure: &str, metric: &str, rec: &mut LatencyRecorder) {
    let q = |rec: &mut LatencyRecorder, p| rec.try_quantile_us(p).unwrap_or(0.0);
    let record = BenchRecord {
        figure: figure.to_string(),
        metric: metric.to_string(),
        count: rec.count(),
        p50_us: q(rec, 0.5),
        p99_us: q(rec, 0.99),
        p999_us: q(rec, 0.999),
    };
    BENCH_RECORDS.lock().expect("bench log poisoned").push(record);
}

/// Logs the wall time of one subcommand at `jobs` workers;
/// `seq_wall_ms` carries the single-worker reference time when the
/// subcommand was timed twice (`repro --compare`).
pub fn bench_wall(figure: &str, wall_ms: f64, jobs: usize, seq_wall_ms: Option<f64>) {
    BENCH_WALL.lock().expect("bench log poisoned").push(BenchWall {
        figure: figure.to_string(),
        wall_ms,
        jobs,
        seq_wall_ms,
    });
}

/// Records logged so far (cloned; the log keeps accumulating).
pub fn bench_records() -> Vec<BenchRecord> {
    BENCH_RECORDS.lock().expect("bench log poisoned").clone()
}

/// Number of distribution records logged so far.
pub fn bench_records_len() -> usize {
    BENCH_RECORDS.lock().expect("bench log poisoned").len()
}

/// Drops distribution records past `len` — used by `repro --compare` to
/// discard the duplicates logged by the single-worker reference pass.
pub fn bench_truncate(len: usize) {
    BENCH_RECORDS.lock().expect("bench log poisoned").truncate(len);
}

/// Clears both logs (tests).
pub fn bench_reset() {
    BENCH_RECORDS.lock().expect("bench log poisoned").clear();
    BENCH_WALL.lock().expect("bench log poisoned").clear();
}

/// Renders both logs as the `BENCH_repro.json` document (hand-rolled:
/// the workspace has no serialisation dependency).
pub fn bench_json() -> String {
    let mut out = String::from("{\n  \"distributions\": [");
    let records = BENCH_RECORDS.lock().expect("bench log poisoned");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {{\"figure\": \"{}\", \"metric\": \"{}\", \"count\": {}, \
             \"p50_us\": {:.3}, \"p99_us\": {:.3}, \"p999_us\": {:.3}}}",
            if i == 0 { "" } else { "," },
            r.figure,
            r.metric,
            r.count,
            r.p50_us,
            r.p99_us,
            r.p999_us,
        );
    }
    out.push_str("\n  ],\n  \"wall_ms\": [");
    let walls = BENCH_WALL.lock().expect("bench log poisoned");
    for (i, w) in walls.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {{\"figure\": \"{}\", \"wall_ms\": {:.3}, \"jobs\": {}",
            if i == 0 { "" } else { "," },
            w.figure,
            w.wall_ms,
            w.jobs,
        );
        if let Some(seq) = w.seq_wall_ms {
            let _ = write!(out, ", \"seq_wall_ms\": {seq:.3}");
        }
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Writes an artifact under `results/` (creating the directory), returning
/// the path written.
pub fn write_artifact(name: &str, contents: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_scales_bars() {
        let s = ascii_histogram("t", "ms", &[(1.0, 0.5), (2.0, 0.25), (3.0, 0.0)], 20);
        assert!(s.contains("1.00"));
        assert!(s.contains("####################")); // the max bar
        assert!(!s.contains("3.00")); // zero bins skipped
    }

    #[test]
    fn series_lists_all_points() {
        let s = ascii_series(
            "t",
            "samples",
            "µs",
            &[("USB 2.0", vec![(2000.0, 185.0), (20000.0, 400.0)])],
            30,
        );
        assert!(s.contains("USB 2.0"));
        assert!(s.contains("2000"));
        assert!(s.contains("400.0"));
    }

    #[test]
    fn csv_roundtrip_shape() {
        let csv =
            to_csv(&["a", "b"], &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]]);
        assert_eq!(csv, "a,b\n1,2\n3,4\n");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn csv_rejects_ragged_rows() {
        to_csv(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn chaos_recovery_summary_aggregates_the_new_columns() {
        let csv = "intensity,recovered,recovery_p50_us,recovery_p99_us,lost\n\
                   0.1,3,1200.5,2500.0,1\n\
                   0.4,7,1400.0,3100.25,2\n";
        let s = summarize_chaos_recovery(csv).expect("columns present");
        assert_eq!(s.rows, 2);
        assert_eq!(s.total_recovered, 10);
        assert_eq!(s.worst_p50_us, 1400.0);
        assert_eq!(s.worst_p99_us, 3100.25);
        assert!(s.render().contains("10 pings"));
    }

    #[test]
    fn bench_log_survives_empty_recorders_and_renders_json() {
        bench_reset();
        let mut empty = LatencyRecorder::default();
        bench_log("figX", "rtt", &mut empty);
        let mut filled = LatencyRecorder::default();
        for us in [100u64, 200, 300] {
            filled.record(sim::Duration::from_micros(us));
        }
        bench_log("figX", "ul", &mut filled);
        bench_wall("figX", 12.5, 2, Some(20.25));
        bench_wall("figY", 5.0, 1, None);
        let records = bench_records();
        assert_eq!(records.len(), 2);
        assert_eq!(bench_records_len(), 2);
        assert_eq!(records[0].count, 0);
        assert_eq!(records[0].p99_us, 0.0);
        assert_eq!(records[1].count, 3);
        assert!(records[1].p50_us >= 100.0);
        let json = bench_json();
        assert!(json.contains("\"distributions\""));
        assert!(json.contains("\"figure\": \"figX\""));
        assert!(json.contains("\"wall_ms\": 12.500, \"jobs\": 2, \"seq_wall_ms\": 20.250"));
        assert!(json.contains("\"wall_ms\": 5.000, \"jobs\": 1}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // --compare truncation: the reference pass's duplicates drop.
        bench_truncate(1);
        assert_eq!(bench_records_len(), 1);
        bench_reset();
        assert!(bench_records().is_empty());
    }

    #[test]
    fn chaos_recovery_summary_requires_the_columns() {
        assert_eq!(summarize_chaos_recovery("intensity,lost\n0.1,2\n"), None);
        // Malformed cells are an error, not silently zero.
        assert_eq!(
            summarize_chaos_recovery(
                "recovered,recovery_p50_us,recovery_p99_us\nnot-a-number,1.0,2.0\n"
            ),
            None
        );
    }
}
