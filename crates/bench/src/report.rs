//! ASCII plots and CSV output for the regenerated tables and figures,
//! plus the machine-readable `BENCH_repro.json` collector of latency
//! quantiles.

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

static BENCH_RECORDS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

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

/// Records logged so far (cloned; the log keeps accumulating).
pub fn bench_records() -> Vec<BenchRecord> {
    BENCH_RECORDS.lock().expect("bench log poisoned").clone()
}

/// Clears the log (tests).
pub fn bench_reset() {
    BENCH_RECORDS.lock().expect("bench log poisoned").clear();
}

/// Renders the log as the `BENCH_repro.json` document (hand-rolled: the
/// workspace has no serialisation dependency). Every row is a pure
/// function of the seeds, so the document is byte-identical run to run.
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
        let log = || {
            bench_reset();
            let mut empty = LatencyRecorder::default();
            bench_log("figX", "rtt", &mut empty);
            let mut filled = LatencyRecorder::default();
            for us in [100u64, 200, 300] {
                filled.record(sim::Duration::from_micros(us));
            }
            bench_log("figX", "ul", &mut filled);
            bench_json()
        };
        let json = log();
        let records = bench_records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].count, 0);
        assert_eq!(records[0].p99_us, 0.0);
        assert_eq!(records[1].count, 3);
        assert!(records[1].p50_us >= 100.0);
        assert!(json.starts_with("{\n  \"distributions\": [\n    {\"figure\": \"figX\""));
        assert!(json.ends_with("}\n  ]\n}\n"));
        assert!(!json.contains("wall_ms"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // The document is a pure function of the logged records.
        assert_eq!(log(), json);
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
