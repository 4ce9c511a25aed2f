//! Per-ping deadline-budget audit: attributing a simulated ping's elapsed
//! time to the closed-form model's budget terms.
//!
//! The paper's argument is that the 0.5 ms budget must be judged across
//! *every* latency source at once (§4). The stack simulation emits a
//! per-stage [`PingTrace`]; this module folds each trace onto the model's
//! terms — protocol, processing, radio, core, recovery — using the
//! canonical [`stage_labels`] classification, which is total over the
//! stage vocabulary, and reports two residual
//! quantities the closed-form analysis cannot see:
//!
//! * **residual** — wall-clock time covered by *no* stage span (e.g. the
//!   downlink N3 leg, which the trace attributes to no stage);
//! * **overlap** — stage time that runs concurrently with another stage
//!   (pipelined UE preparation under protocol waits), so the sum of the
//!   terms exceeds the wall clock.
//!
//! The invariants `union + residual = rtt` and
//! `Σ terms = union + overlap` hold exactly; each recovery share is also
//! checked against [`RecoveryLatencyModel::worst_case_any`] per observed
//! RLF, the cross-check of [`crate::recovery`].

use std::collections::BTreeMap;

use sim::{Duration, Instant};
use telemetry::{metric, MetricId, TailExemplar, Telemetry};

use crate::config::StackConfig;
use crate::journey::{PingTrace, StageSpan};
use crate::recovery::RecoveryLatencyModel;
use crate::stage_labels::{self, BudgetTerm};

/// One ping's elapsed time, attributed to the closed-form budget terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetAudit {
    /// Which ping was audited.
    pub ping: u64,
    /// Round-trip time (first stage start → last stage end).
    pub rtt: Duration,
    /// Protocol-imposed waits (slot alignment, SR/grant, scheduling,
    /// queueing).
    pub protocol: Duration,
    /// Software processing in either node's layer walk.
    pub processing: Duration,
    /// Air time and radio front-end.
    pub radio: Duration,
    /// Core-network traversal.
    pub core: Duration,
    /// RLF → recovered-bearer detour time.
    pub recovery: Duration,
    /// Wall-clock time covered by no stage span.
    pub residual: Duration,
    /// Stage time spent concurrently with other stages (pipelining), i.e.
    /// `Σ terms − covered wall clock`.
    pub overlap: Duration,
    /// Radio-link failures observed in the trace (RLF-detect spans).
    pub rlf_count: u64,
    /// Whether the recovery share respects the closed-form worst case
    /// (`recovery ≤ rlf_count × worst_case_any`). Vacuously true without
    /// RLFs.
    pub recovery_within_bound: bool,
}

impl BudgetAudit {
    /// Attributes one trace. Traces of lost pings (missing legs) audit the
    /// stages they accumulated before the loss.
    pub(crate) fn of_trace(trace: &PingTrace, model: &RecoveryLatencyModel) -> BudgetAudit {
        let spans: Vec<&StageSpan> = trace.ul.iter().chain(trace.dl.iter()).collect();
        let rtt = match (spans.first(), spans.last()) {
            (Some(first), Some(last)) => last.end - first.start,
            _ => Duration::ZERO,
        };
        let mut terms = [Duration::ZERO; 5];
        let mut rlf_count = 0u64;
        for s in &spans {
            terms[stage_labels::term(s.label) as usize] += s.duration();
            if s.label == stage_labels::RLF_DETECT {
                rlf_count += 1;
            }
        }
        let covered = union_duration(&spans);
        let total: Duration = terms.iter().copied().sum();
        let recovery = terms[BudgetTerm::Recovery as usize];
        BudgetAudit {
            ping: trace.id,
            rtt,
            protocol: terms[BudgetTerm::Protocol as usize],
            processing: terms[BudgetTerm::Processing as usize],
            radio: terms[BudgetTerm::Radio as usize],
            core: terms[BudgetTerm::Core as usize],
            recovery,
            residual: rtt.saturating_sub(covered),
            overlap: total.saturating_sub(covered),
            rlf_count,
            recovery_within_bound: recovery <= model.worst_case_any() * rlf_count,
        }
    }

    /// The share of every term, in [`BudgetTerm`] declaration order.
    pub fn terms(&self) -> [(BudgetTerm, Duration); 5] {
        [
            (BudgetTerm::Protocol, self.protocol),
            (BudgetTerm::Processing, self.processing),
            (BudgetTerm::Radio, self.radio),
            (BudgetTerm::Core, self.core),
            (BudgetTerm::Recovery, self.recovery),
        ]
    }

    /// One-line rendering for reports.
    pub fn render(&self) -> String {
        let mut line = format!("ping #{:<3} rtt {:>10}  ", self.ping, format!("{}", self.rtt));
        for (term, share) in self.terms() {
            line.push_str(&format!("{} {:>9}  ", term.label(), format!("{share}")));
        }
        line.push_str(&format!(
            "residual {:>9}  overlap {:>9}{}",
            format!("{}", self.residual),
            format!("{}", self.overlap),
            if self.recovery_within_bound { "" } else { "  RECOVERY OVER BOUND" },
        ));
        line
    }
}

/// Wall-clock length of the union of the spans' intervals.
fn union_duration(spans: &[&StageSpan]) -> Duration {
    union_intervals(spans.iter().map(|s| (s.start, s.end)).collect())
}

/// Wall-clock length of the union of arbitrary intervals.
fn union_intervals(mut intervals: Vec<(Instant, Instant)>) -> Duration {
    intervals.sort();
    let mut covered = Duration::ZERO;
    let mut current: Option<(Instant, Instant)> = None;
    for (start, end) in intervals {
        match current {
            Some((cs, ce)) if start <= ce => current = Some((cs, ce.max(end))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    covered
}

/// The `audit/term_us{…}` histogram of each budget term, indexed by
/// `BudgetTerm as usize`.
const TERM_METRICS: [MetricId; 5] = [
    metric::AUDIT_TERM_US_PROTOCOL,
    metric::AUDIT_TERM_US_PROCESSING,
    metric::AUDIT_TERM_US_RADIO,
    metric::AUDIT_TERM_US_CORE,
    metric::AUDIT_TERM_US_RECOVERY,
];

/// Audits every trace against the configuration's closed-form recovery
/// model, recording the per-term shares and residuals into `tel` as
/// `audit/*` metrics (`audit/recovery_over_bound` counts violations).
pub fn audit_traces(traces: &[PingTrace], cfg: &StackConfig, tel: &Telemetry) -> Vec<BudgetAudit> {
    let model = RecoveryLatencyModel::from_config(cfg);
    let audits: Vec<BudgetAudit> =
        traces.iter().map(|t| BudgetAudit::of_trace(t, &model)).collect();
    for a in &audits {
        for (term, share) in a.terms() {
            tel.observe(TERM_METRICS[term as usize], share);
        }
        tel.observe(metric::AUDIT_RESIDUAL_US, a.residual);
        tel.observe(metric::AUDIT_OVERLAP_US, a.overlap);
        if !a.recovery_within_bound {
            tel.add(metric::AUDIT_RECOVERY_OVER_BOUND, 1);
        }
    }
    audits
}

/// Pseudo-hop label for wall-clock time covered by no stage span (the
/// downlink N3 leg and similar gaps the trace attributes to nothing).
pub(crate) const RESIDUAL_LABEL: &str = "(residual)";

/// The p50 reference the tail decomposition diffs exemplars against:
/// per-stage-label median self time across a baseline population, plus the
/// median round-trip and median residual.
///
/// Medians are lower medians over *all* baseline pings with zeros included
/// for pings that never entered a stage — so fault-path labels (RLF
/// recovery, HARQ retransmissions) get a baseline near zero and their full
/// cost surfaces as tail excess.
#[derive(Debug, Clone)]
pub struct TailBaseline {
    /// Median round-trip time of the baseline population.
    pub p50_rtt: Duration,
    /// Median uncovered wall-clock share.
    pub p50_residual: Duration,
    labels: BTreeMap<&'static str, Duration>,
}

impl TailBaseline {
    /// Builds the baseline from kept traces (the same population whose
    /// histogram defines p50/p99/p999 for the figure under audit).
    pub fn from_traces(traces: &[PingTrace]) -> TailBaseline {
        let mut per_ping: Vec<BTreeMap<&'static str, u64>> = Vec::with_capacity(traces.len());
        let mut rtts: Vec<u64> = Vec::with_capacity(traces.len());
        let mut residuals: Vec<u64> = Vec::with_capacity(traces.len());
        let mut all_labels: BTreeMap<&'static str, ()> = BTreeMap::new();
        for t in traces {
            let spans: Vec<&StageSpan> = t.ul.iter().chain(t.dl.iter()).collect();
            let rtt = match (spans.first(), spans.last()) {
                (Some(first), Some(last)) => last.end - first.start,
                _ => Duration::ZERO,
            };
            let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
            for s in &spans {
                *totals.entry(s.label.as_str()).or_insert(0) += s.duration().as_nanos();
                all_labels.insert(s.label.as_str(), ());
            }
            rtts.push(rtt.as_nanos());
            residuals.push(rtt.saturating_sub(union_duration(&spans)).as_nanos());
            per_ping.push(totals);
        }
        let labels = all_labels
            .keys()
            .map(|&label| {
                let mut totals: Vec<u64> =
                    per_ping.iter().map(|m| m.get(label).copied().unwrap_or(0)).collect();
                (label, Duration::from_nanos(median(&mut totals)))
            })
            .collect();
        TailBaseline {
            p50_rtt: Duration::from_nanos(median(&mut rtts)),
            p50_residual: Duration::from_nanos(median(&mut residuals)),
            labels,
        }
    }

    /// Median self time of `label`, zero for labels the baseline never saw.
    pub(crate) fn label_p50(&self, label: &str) -> Duration {
        self.labels.get(label).copied().unwrap_or(Duration::ZERO)
    }
}

/// Lower median; zero for an empty slice.
fn median(values: &mut [u64]) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    values[(values.len() - 1) / 2]
}

/// One hop's (or fault class's) aggregate contribution to the tail gap.
#[derive(Debug, Clone)]
pub struct TailContribution {
    /// Stage label, [`RESIDUAL_LABEL`], or fault-kind label.
    pub label: &'static str,
    /// Summed excess over the p50 baseline across all exemplars.
    pub excess: Duration,
    /// `excess / gap` — fraction of the total tail gap this explains.
    pub share: f64,
}

/// Where the tail comes from: per-hop and per-fault-class excess over the
/// p50 baseline, aggregated across the flight recorder's exemplars.
///
/// Per exemplar the span union plus the residual equals the round trip
/// exactly, so summed hop excesses (residual pseudo-hop included) explain
/// at least the rtt−p50 gap whenever stage time only grows in the tail —
/// `coverage` reports the attained fraction, clamped to 1.
#[derive(Debug, Clone)]
pub struct TailDecomposition {
    /// Exemplars decomposed.
    pub exemplars: usize,
    /// Baseline median round trip.
    pub p50_rtt: Duration,
    /// Σ over exemplars of `rtt − p50_rtt` (the tail gap being explained).
    pub gap: Duration,
    /// Σ of per-exemplar explained excess, each capped at that exemplar's
    /// gap so over-attribution in one ping cannot mask a miss in another.
    pub explained: Duration,
    /// `explained / gap`, 1.0 when the gap is negligible (< 1 µs).
    pub coverage: f64,
    /// Per-hop contributions, largest excess first.
    pub hops: Vec<TailContribution>,
    /// Per-fault-class contributions (injected extra latency), largest
    /// first.
    pub faults: Vec<TailContribution>,
}

/// Diffs each exemplar's hop spans against the p50 baseline and ranks
/// every hop's and fault class's contribution to the tail gap.
pub fn decompose_tail(exemplars: &[TailExemplar], baseline: &TailBaseline) -> TailDecomposition {
    let mut gap_ns = 0u64;
    let mut explained_ns = 0u64;
    let mut hop_excess: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut fault_extra: BTreeMap<&'static str, u64> = BTreeMap::new();
    for ex in exemplars {
        let ex_gap = ex.rtt.saturating_sub(baseline.p50_rtt).as_nanos();
        gap_ns += ex_gap;
        let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &ex.spans {
            *totals.entry(s.label).or_insert(0) += s.duration().as_nanos();
        }
        let union = union_intervals(ex.spans.iter().map(|s| (s.start, s.end)).collect());
        let residual = ex.rtt.saturating_sub(union);
        *totals.entry(RESIDUAL_LABEL).or_insert(0) +=
            residual.saturating_sub(baseline.p50_residual).as_nanos();
        let mut ex_explained = 0u64;
        for (label, total_ns) in totals {
            let base = if label == RESIDUAL_LABEL {
                Duration::ZERO // already subtracted above
            } else {
                baseline.label_p50(label)
            };
            let excess = Duration::from_nanos(total_ns).saturating_sub(base).as_nanos();
            if excess > 0 {
                *hop_excess.entry(label).or_insert(0) += excess;
                ex_explained += excess;
            }
        }
        explained_ns += ex_explained.min(ex_gap);
        for &(kind, extra) in &ex.fault_extra {
            *fault_extra.entry(kind).or_insert(0) += extra.as_nanos();
        }
    }
    let share = |ns: u64| if gap_ns == 0 { 0.0 } else { ns as f64 / gap_ns as f64 };
    let ranked = |m: BTreeMap<&'static str, u64>| {
        let mut rows: Vec<TailContribution> = m
            .into_iter()
            .map(|(label, ns)| TailContribution {
                label,
                excess: Duration::from_nanos(ns),
                share: share(ns),
            })
            .collect();
        rows.sort_by(|a, b| b.excess.cmp(&a.excess).then(a.label.cmp(b.label)));
        rows
    };
    TailDecomposition {
        exemplars: exemplars.len(),
        p50_rtt: baseline.p50_rtt,
        gap: Duration::from_nanos(gap_ns),
        explained: Duration::from_nanos(explained_ns),
        coverage: if gap_ns < 1_000 { 1.0 } else { explained_ns as f64 / gap_ns as f64 },
        hops: ranked(hop_excess),
        faults: ranked(fault_extra),
    }
}

impl TailDecomposition {
    /// Hand-rolled JSON object (two-space indent, deterministic ordering)
    /// — the `"decomposition"` block of `results/tail_exemplars.json`.
    pub fn to_json(&self) -> String {
        let us = |d: Duration| format!("{:.3}", d.as_micros_f64());
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"exemplars\": {},\n", self.exemplars));
        s.push_str(&format!("  \"p50_rtt_us\": {},\n", us(self.p50_rtt)));
        s.push_str(&format!("  \"gap_us\": {},\n", us(self.gap)));
        s.push_str(&format!("  \"explained_us\": {},\n", us(self.explained)));
        s.push_str(&format!("  \"coverage\": {:.4},\n", self.coverage));
        let rows = |rows: &[TailContribution]| {
            rows.iter()
                .map(|r| {
                    format!(
                        "    {{\"label\": \"{}\", \"excess_us\": {}, \"share\": {:.4}}}",
                        r.label,
                        us(r.excess),
                        r.share
                    )
                })
                .collect::<Vec<_>>()
                .join(",\n")
        };
        let block = |name: &str, v: &[TailContribution]| {
            if v.is_empty() {
                format!("  \"{name}\": []")
            } else {
                format!("  \"{name}\": [\n{}\n  ]", rows(v))
            }
        };
        s.push_str(&block("hops", &self.hops));
        s.push_str(",\n");
        s.push_str(&block("faults", &self.faults));
        s.push_str("\n}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PingExperiment;
    use ran::sched::AccessMode;

    fn audited(cfg: StackConfig, pings: u64) -> Vec<BudgetAudit> {
        let mut exp = PingExperiment::new(cfg.clone());
        exp.keep_traces(pings as usize);
        let result = exp.run(pings);
        audit_traces(&result.traces, &cfg, &Telemetry::disabled())
    }

    #[test]
    fn each_term_records_into_its_labelled_histogram() {
        let audit = audited(StackConfig::testbed_dddu(AccessMode::GrantBased, true), 1)[0];
        for (term, _) in audit.terms() {
            let key = TERM_METRICS[term as usize].key();
            assert_eq!((key.layer, key.name, key.label), ("audit", "term_us", term.label()));
        }
    }

    #[test]
    fn clean_run_attributes_every_stage() {
        let cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(3);
        let audits = audited(cfg, 5);
        assert_eq!(audits.len(), 5);
        for a in &audits {
            assert_eq!(a.recovery, Duration::ZERO);
            assert!(a.rtt > Duration::ZERO);
            // The stage union can never exceed the wall clock, and the
            // residual (e.g. the downlink N3 leg) must stay well under it.
            assert!(a.residual < a.rtt, "{a:?}");
            assert!(a.recovery_within_bound);
        }
    }

    #[test]
    fn audit_identities_hold_exactly() {
        let cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(9);
        let model = RecoveryLatencyModel::from_config(&cfg);
        let mut exp = PingExperiment::new(cfg);
        exp.keep_traces(8);
        let result = exp.run(8);
        for trace in &result.traces {
            let a = BudgetAudit::of_trace(trace, &model);
            let spans: Vec<&StageSpan> = trace.ul.iter().chain(trace.dl.iter()).collect();
            let covered = union_duration(&spans);
            let total = a.protocol + a.processing + a.radio + a.core + a.recovery;
            assert_eq!(covered + a.residual, a.rtt);
            assert_eq!(total, covered + a.overlap);
        }
    }

    #[test]
    fn chaotic_run_keeps_recovery_under_the_closed_form_bound() {
        // A burst plan harsh enough to force RLFs in the kept traces
        // (same recipe as the `recovery` module's cross-check).
        let mut cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(31);
        cfg.harq_max_tx = 2;
        cfg.rlc_max_retx = 1;
        cfg.faults.channel_burst = Some(sim::GilbertElliott {
            p_enter_bad: 0.3,
            p_exit_bad: 0.4,
            loss_good: 0.1,
            loss_bad: 1.0,
        });
        let mut exp = PingExperiment::new(cfg.clone());
        exp.keep_traces(64);
        let result = exp.run(64);
        let audits = audit_traces(&result.traces, &cfg, &Telemetry::disabled());
        assert!(!audits.is_empty());
        let with_rlf = audits.iter().filter(|a| a.rlf_count > 0).count();
        for a in &audits {
            assert!(a.recovery_within_bound, "{}", a.render());
            if a.rlf_count == 0 {
                assert_eq!(a.recovery, Duration::ZERO);
            }
        }
        // The chaos preset at 0.3 must actually exercise the recovery path
        // in at least one kept trace for this seed.
        assert!(with_rlf > 0, "no RLF in {} kept traces", audits.len());
    }

    #[test]
    fn tail_decomposition_explains_the_gap_on_a_chaotic_run() {
        let mut cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(7);
        cfg.harq_max_tx = 2;
        cfg.rlc_max_retx = 1;
        cfg.faults.channel_burst = Some(sim::GilbertElliott {
            p_enter_bad: 0.3,
            p_exit_bad: 0.4,
            loss_good: 0.1,
            loss_bad: 1.0,
        });
        let tel = Telemetry::new(512);
        let mut exp = PingExperiment::new(cfg.clone());
        exp.attach_telemetry(tel.clone());
        exp.keep_traces(256);
        let result = exp.run(256);
        let baseline = TailBaseline::from_traces(&result.traces);
        let exemplars = tel.flight_exemplars();
        assert!(!exemplars.is_empty(), "chaos run must retain exemplars");
        let d = decompose_tail(&exemplars, &baseline);
        assert!(d.gap > Duration::ZERO, "worst-K exemplars sit above p50");
        assert!(d.coverage >= 0.95, "hop decomposition covers {:.4} < 0.95", d.coverage);
        assert!(!d.hops.is_empty());
        assert!(!d.faults.is_empty(), "chaos faults must attribute extra latency");
        // Shares rank hottest-first and the JSON rendering is stable.
        for w in d.hops.windows(2) {
            assert!(w[0].excess >= w[1].excess);
        }
        let json = d.to_json();
        assert!(json.contains("\"coverage\""));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn tail_decomposition_of_baseline_population_is_self_consistent() {
        // Decomposing exemplars drawn from the same fault-free population
        // leaves a tiny gap: coverage must clamp to 1 rather than divide
        // by near-zero noise.
        let cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(5);
        let tel = Telemetry::new(64);
        let mut exp = PingExperiment::new(cfg);
        exp.attach_telemetry(tel.clone());
        exp.keep_traces(32);
        let result = exp.run(32);
        let baseline = TailBaseline::from_traces(&result.traces);
        let exemplars = tel.flight_exemplars();
        let d = decompose_tail(&exemplars, &baseline);
        assert!(d.coverage >= 0.95, "self-decomposition covers {:.4}", d.coverage);
        assert!(d.explained <= d.gap, "per-exemplar capping bounds explained by gap");
    }

    #[test]
    fn empty_trace_audits_to_zero() {
        let model = RecoveryLatencyModel::from_config(&StackConfig::testbed_dddu(
            AccessMode::GrantFree,
            true,
        ));
        let a = BudgetAudit::of_trace(&PingTrace::new(7), &model);
        assert_eq!(a.rtt, Duration::ZERO);
        assert_eq!(a.residual, Duration::ZERO);
        assert!(a.recovery_within_bound);
    }
}
