//! A figure's [`Report`], the ASCII plots and the one CSV writer it is
//! rendered with, and the machine-readable `BENCH_repro.json` document of
//! latency quantiles.

use std::fmt::Write as _;

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

/// What one figure found, as a value: `repro`'s `main` prints the text,
/// writes the files under `results/`, gates on the checks and gathers the
/// distributions into `BENCH_repro.json`. A figure itself prints and
/// writes nothing, so a test can run it and look at what it found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// What the figure prints to stdout, in order.
    pub text: String,
    /// What the figure prints to stderr: lines no artifact may record
    /// (host wall time), and why a file it should hold is missing.
    pub stderr: String,
    /// The files it leaves under `results/`, as `(name, contents)`.
    pub files: Vec<(String, String)>,
    /// Its self-checks, in the order it made them.
    pub checks: Vec<Check>,
    /// Its latency distributions for `BENCH_repro.json`, in order.
    pub distributions: Vec<BenchRecord>,
}

/// One self-check of a figure: a claim and whether it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What the figure claims (`matches the published Table 1`).
    pub claim: String,
    /// Whether the figure found it to hold.
    pub holds: bool,
}

impl Report {
    /// An empty report whose text opens with the figure's banner.
    pub fn new(title: &str) -> Report {
        Report {
            text: format!("\n==================== {title} ====================\n"),
            ..Report::default()
        }
    }

    /// Records a self-check and appends its `<claim>: YES|NO` line to the
    /// text at this point.
    pub fn check(&mut self, claim: &str, holds: bool) {
        let _ = writeln!(self.text, "{claim}: {}", if holds { "YES" } else { "NO" });
        self.checks.push(Check { claim: claim.to_owned(), holds });
    }

    /// Adds a file for `results/`.
    pub fn file(&mut self, name: &str, contents: String) {
        self.files.push((name.to_owned(), contents));
    }

    /// Adds a table for `results/`, rendered by [`to_csv`]: `header` is
    /// the CSV's first line as it appears in the file.
    pub fn table(&mut self, name: &str, header: &str, rows: &[Vec<String>]) {
        let header: Vec<&str> = header.split(',').collect();
        self.file(name, to_csv(&header, rows));
    }

    /// Logs a latency distribution under `metric` for `BENCH_repro.json`.
    /// An empty recorder logs zero quantiles rather than panicking (via
    /// [`LatencyRecorder::try_quantile_us`]).
    pub fn bench(&mut self, metric: &str, rec: &mut LatencyRecorder) {
        let mut q = |p| rec.try_quantile_us(p).unwrap_or(0.0);
        let (p50_us, p99_us, p999_us) = (q(0.5), q(0.99), q(0.999));
        self.distributions.push(BenchRecord {
            metric: metric.to_owned(),
            count: rec.count(),
            p50_us,
            p99_us,
            p999_us,
        });
    }
}

/// One latency distribution logged for `BENCH_repro.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
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

/// Renders the figures' distributions, in the order given, as the
/// `BENCH_repro.json` document (hand-rolled: the workspace has no
/// serialisation dependency). Every row is a pure function of the seeds,
/// so the document is byte-identical run to run.
pub fn bench_json<'a>(reports: impl IntoIterator<Item = (&'a str, &'a Report)>) -> String {
    let mut out = String::from("{\n  \"distributions\": [");
    let rows =
        reports.into_iter().flat_map(|(fig, r)| r.distributions.iter().map(move |b| (fig, b)));
    for (i, (figure, r)) in rows.enumerate() {
        let _ = write!(
            out,
            "{}\n    {{\"figure\": \"{figure}\", \"metric\": \"{}\", \"count\": {}, \
             \"p50_us\": {:.3}, \"p99_us\": {:.3}, \"p999_us\": {:.3}}}",
            if i == 0 { "" } else { "," },
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
    fn bench_log_survives_empty_recorders_and_renders_json() {
        let log = || {
            let mut r = Report::new("figX");
            r.bench("rtt", &mut LatencyRecorder::default());
            let mut filled = LatencyRecorder::default();
            for us in [100u64, 200, 300] {
                filled.record(sim::Duration::from_micros(us));
            }
            r.bench("ul", &mut filled);
            r
        };
        let report = log();
        let json = bench_json([("figX", &report), ("empty", &Report::new("t"))]);
        let records = &report.distributions;
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].count, 0);
        assert_eq!(records[0].p99_us, 0.0);
        assert_eq!(records[1].count, 3);
        assert!(records[1].p50_us >= 100.0);
        assert!(json.starts_with("{\n  \"distributions\": [\n    {\"figure\": \"figX\""));
        assert!(json.ends_with("}\n  ]\n}\n"));
        assert!(!json.contains("wall_ms"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // The document is a pure function of the reports.
        assert_eq!(bench_json([("figX", &log())]), json);
    }

    #[test]
    fn checks_keep_their_place_in_the_text() {
        let mut r = Report::new("Fig 0");
        r.text.push_str("before\n");
        r.check("holds", true);
        r.check("fails", false);
        r.table("t.csv", "a,b", &[vec!["1".into(), "2".into()]]);
        assert_eq!(
            r.text,
            "\n==================== Fig 0 ====================\nbefore\nholds: YES\nfails: NO\n"
        );
        let holds: Vec<bool> = r.checks.iter().map(|c| c.holds).collect();
        assert_eq!(holds, [true, false]);
        assert_eq!(r.files, [("t.csv".to_owned(), "a,b\n1,2\n".to_owned())]);
    }
}
