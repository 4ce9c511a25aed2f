//! Gating wall-time ratchet: compares the wall times logged in
//! `results/BENCH_repro.json` against the checked-in per-subcommand
//! baseline `ci/wall_baseline.json` and fails on regressions.
//!
//! Host wall time is noisy, so the baseline carries its own tolerance
//! band and a figure only *violates* the ratchet when it is slow by both
//! measures at once:
//!
//! ```text
//! current > baseline × max_ratio   AND   current − baseline > slack_ms
//! ```
//!
//! The ratio guard absorbs proportional noise on sub-millisecond
//! subcommands; the slack guard absorbs absolute scheduler jitter on the
//! long ones. A figure present in the baseline but missing from the
//! current run also gates — coverage cannot silently shrink.
//!
//! Parsing is line-oriented string scanning (the workspace has no
//! serialisation dependency): a wall entry is any line carrying both a
//! `"figure"` and a `"wall_ms"` key, which matches the `wall_ms` arrays of
//! both documents and skips `distributions` rows.

use std::fmt::Write as _;

/// The baseline's tolerance band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Multiplicative guard: a figure must exceed `baseline × max_ratio`.
    pub max_ratio: f64,
    /// Additive guard: and exceed the baseline by more than this many ms.
    pub slack_ms: f64,
}

/// One figure's wall time (from either document).
#[derive(Debug, Clone, PartialEq)]
pub struct WallEntry {
    /// Subcommand name (`table1`, `chaos`, ...).
    pub figure: String,
    /// Wall time, ms.
    pub wall_ms: f64,
}

/// The checked-in ratchet baseline: a tolerance band plus one reference
/// wall time per gated subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct RatchetBaseline {
    /// The tolerance band regressions are judged against.
    pub tolerance: Tolerance,
    /// Reference wall times.
    pub walls: Vec<WallEntry>,
}

/// One gating regression.
#[derive(Debug, Clone, PartialEq)]
pub struct RatchetViolation {
    /// Which subcommand regressed.
    pub figure: String,
    /// Its checked-in reference, ms.
    pub baseline_ms: f64,
    /// What this run measured, ms (0 when the figure went missing).
    pub current_ms: f64,
}

/// The ratchet verdict for one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RatchetReport {
    /// Figures checked against the baseline.
    pub checked: usize,
    /// Baseline figures absent from the current run (each also gates).
    pub missing: Vec<String>,
    /// Figures breaching the tolerance band.
    pub violations: Vec<RatchetViolation>,
}

impl RatchetReport {
    /// Whether the build passes the ratchet.
    pub fn ok(&self) -> bool {
        self.missing.is_empty() && self.violations.is_empty()
    }

    /// Human rendering for the CI log.
    pub fn render(&self, tol: &Tolerance) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "wall-time ratchet: {} figure(s) checked (gate: >{:.2}x AND >{:.0} ms over baseline)",
            self.checked, tol.max_ratio, tol.slack_ms
        );
        for m in &self.missing {
            let _ = writeln!(out, "  MISSING  {m}: in baseline but not in this run");
        }
        for v in &self.violations {
            let _ = writeln!(
                out,
                "  REGRESSION  {}: {:.1} ms vs baseline {:.1} ms ({:.2}x, +{:.1} ms)",
                v.figure,
                v.current_ms,
                v.baseline_ms,
                v.current_ms / v.baseline_ms.max(1e-9),
                v.current_ms - v.baseline_ms,
            );
        }
        if self.ok() {
            let _ = writeln!(out, "  PASS: every figure within the tolerance band");
        }
        out
    }
}

/// Extracts every `{"figure": ..., "wall_ms": ...}` line of `text` — the
/// `wall_ms` arrays of `BENCH_repro.json` and `ci/wall_baseline.json`.
pub fn parse_walls(text: &str) -> Vec<WallEntry> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(figure) = str_field(line, "figure") else { continue };
        let Some(wall_ms) = num_field(line, "wall_ms") else { continue };
        out.push(WallEntry { figure, wall_ms });
    }
    out
}

/// `"key": "value"` scanner (single line, no escapes — our own formats).
fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(line[start..start + end].to_string())
}

/// `"key": <number>` scanner.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

impl RatchetBaseline {
    /// Parses `ci/wall_baseline.json`. `None` when the tolerance keys or
    /// every wall entry are missing — a malformed baseline must fail the
    /// gate loudly, not pass vacuously.
    pub fn parse(text: &str) -> Option<RatchetBaseline> {
        let tolerance = Tolerance {
            max_ratio: num_field(text, "max_ratio")?,
            slack_ms: num_field(text, "slack_ms")?,
        };
        let walls = parse_walls(text);
        if walls.is_empty() {
            return None;
        }
        Some(RatchetBaseline { tolerance, walls })
    }

    /// Renders the baseline document (used to regenerate it after an
    /// intentional change: `repro ratchet --write`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(
            out,
            "  \"tolerance\": {{\"max_ratio\": {:.2}, \"slack_ms\": {:.1}}},",
            self.tolerance.max_ratio, self.tolerance.slack_ms
        );
        out.push_str("  \"wall_ms\": [");
        for (i, w) in self.walls.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"figure\": \"{}\", \"wall_ms\": {:.3}}}",
                if i == 0 { "" } else { "," },
                w.figure,
                w.wall_ms,
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Judges `current` (the wall entries of this run's
    /// `BENCH_repro.json`) against the baseline. When a figure logged
    /// several wall times (e.g. a `--compare` reference pass), the
    /// slowest one is judged — the conservative reading.
    pub fn check(&self, current: &[WallEntry]) -> RatchetReport {
        let mut report = RatchetReport::default();
        for base in &self.walls {
            let cur = current
                .iter()
                .filter(|w| w.figure == base.figure)
                .map(|w| w.wall_ms)
                .fold(f64::NEG_INFINITY, f64::max);
            if cur == f64::NEG_INFINITY {
                report.missing.push(base.figure.clone());
                continue;
            }
            report.checked += 1;
            let ratio_breach = cur > base.wall_ms * self.tolerance.max_ratio;
            let slack_breach = cur - base.wall_ms > self.tolerance.slack_ms;
            if ratio_breach && slack_breach {
                report.violations.push(RatchetViolation {
                    figure: base.figure.clone(),
                    baseline_ms: base.wall_ms,
                    current_ms: cur,
                });
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
  "tolerance": {"max_ratio": 2.50, "slack_ms": 400.0},
  "wall_ms": [
    {"figure": "table1", "wall_ms": 0.400},
    {"figure": "chaos", "wall_ms": 1500.000}
  ]
}
"#;

    fn bench_doc(table1: f64, chaos: f64) -> String {
        format!(
            "{{\n  \"distributions\": [\n    \
             {{\"figure\": \"table1\", \"metric\": \"rtt\", \"count\": 3, \
             \"p50_us\": 1.0, \"p99_us\": 2.0, \"p999_us\": 3.0}}\n  ],\n  \
             \"wall_ms\": [\n    \
             {{\"figure\": \"table1\", \"wall_ms\": {table1:.3}, \"jobs\": 2}},\n    \
             {{\"figure\": \"chaos\", \"wall_ms\": {chaos:.3}, \"jobs\": 2, \
             \"seq_wall_ms\": 2000.000}}\n  ]\n}}\n"
        )
    }

    #[test]
    fn parses_walls_but_not_distribution_rows() {
        let walls = parse_walls(&bench_doc(0.5, 1600.0));
        assert_eq!(walls.len(), 2, "distribution rows must not parse as walls");
        assert_eq!(walls[0].figure, "table1");
        assert_eq!(walls[1].wall_ms, 1600.0);
    }

    #[test]
    fn passes_at_baseline_and_under_the_band() {
        let base = RatchetBaseline::parse(BASELINE).expect("baseline parses");
        assert_eq!(base.tolerance, Tolerance { max_ratio: 2.5, slack_ms: 400.0 });
        // At baseline, 10x on a tiny figure (ratio breach, slack fine) and
        // +300 ms on a big one (slack fine): all pass.
        let report = base.check(&parse_walls(&bench_doc(4.0, 1800.0)));
        assert!(report.ok(), "{report:?}");
        assert_eq!(report.checked, 2);
        assert!(report.render(&base.tolerance).contains("PASS"));
    }

    #[test]
    fn fails_on_a_synthetic_regression() {
        let base = RatchetBaseline::parse(BASELINE).expect("baseline parses");
        // chaos at 2.7x and +2550 ms: both guards breached.
        let report = base.check(&parse_walls(&bench_doc(0.4, 4050.0)));
        assert!(!report.ok());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].figure, "chaos");
        assert!(report.render(&base.tolerance).contains("REGRESSION  chaos"));
    }

    #[test]
    fn missing_figures_gate() {
        let base = RatchetBaseline::parse(BASELINE).expect("baseline parses");
        let only_table1 = r#"{"wall_ms": [
    {"figure": "table1", "wall_ms": 0.400, "jobs": 2}
  ]}"#;
        let report = base.check(&parse_walls(only_table1));
        assert!(!report.ok());
        assert_eq!(report.missing, vec!["chaos".to_string()]);
    }

    #[test]
    fn compare_passes_judge_the_slowest_sample() {
        let base = RatchetBaseline::parse(BASELINE).expect("baseline parses");
        let two_samples = r#"{"wall_ms": [
    {"figure": "table1", "wall_ms": 0.400, "jobs": 2},
    {"figure": "table1", "wall_ms": 900.000, "jobs": 1},
    {"figure": "chaos", "wall_ms": 1500.000, "jobs": 2}
  ]}"#;
        let report = base.check(&parse_walls(two_samples));
        assert_eq!(report.violations.len(), 1, "the 900 ms sample must be judged");
        assert_eq!(report.violations[0].current_ms, 900.0);
    }

    #[test]
    fn malformed_baseline_is_rejected() {
        assert_eq!(RatchetBaseline::parse("{}"), None);
        assert_eq!(RatchetBaseline::parse("{\"tolerance\": {\"max_ratio\": 2.0}}"), None);
        // Round-trip: to_json reparses to the same baseline.
        let base = RatchetBaseline::parse(BASELINE).expect("baseline parses");
        assert_eq!(RatchetBaseline::parse(&base.to_json()), Some(base));
    }
}
