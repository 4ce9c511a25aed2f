//! Host wall-time profiler: *where does real time go when we simulate?*
//!
//! [`Profiler`] is the measurement substrate for the speed program: a
//! cheap, cloneable handle recording **host** (`std::time::Instant`)
//! elapsed time per named stage into per-stage [`LogLinearHistogram`]s.
//! The stack's event driver opens one [`ProfScope`] around each hop
//! dispatch (keyed by the hop's name), and the overload/handover engines
//! scope their event kinds, so `repro profile` can emit per-hop
//! *self*-time — each dispatch is non-reentrant, so scope elapsed time is
//! self time.
//!
//! Host time is noise from the simulation's point of view, so the
//! profiler is kept strictly apart from [`crate::Telemetry`]: nothing it
//! records can reach a sim-time artifact, and a disabled handle (the
//! default) never calls the host clock at all. Dark, instrumented and
//! profiled runs therefore stay bit-identical — the zero-perturbation
//! invariant extends to the profiler.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant as HostInstant;

use crate::handle::recover_lock;
use crate::registry::LogLinearHistogram;

#[derive(Debug, Default)]
struct ProfilerInner {
    stages: BTreeMap<&'static str, LogLinearHistogram>,
}

/// Shared host wall-time sink; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    inner: Option<Arc<Mutex<ProfilerInner>>>,
}

impl Profiler {
    /// An enabled profiler.
    pub fn new() -> Profiler {
        Profiler { inner: Some(Arc::new(Mutex::new(ProfilerInner::default()))) }
    }

    /// A disabled handle: scopes are inert and never read the host clock.
    pub fn disabled() -> Profiler {
        Profiler::default()
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with<R>(&self, f: impl FnOnce(&mut ProfilerInner) -> R) -> Option<R> {
        self.inner.as_ref().map(|inner| f(&mut recover_lock(inner)))
    }

    /// Opens a scoped timer for `stage`; elapsed host time is recorded
    /// when the guard drops. Inert (no clock read) when disabled.
    pub fn scope(&self, stage: &'static str) -> ProfScope<'_> {
        ProfScope {
            prof: self,
            stage,
            start: if self.is_enabled() { Some(HostInstant::now()) } else { None },
        }
    }

    /// Records `ns` of host time against `stage` directly.
    pub(crate) fn record_ns(&self, stage: &'static str, ns: u64) {
        self.with(|p| p.stages.entry(stage).or_default().record(ns));
    }

    /// A fresh handle with the same enabled state — the per-shard sink of
    /// a parallel sweep. Shards record into their own sibling (no
    /// cross-thread lock contention inflating the very times being
    /// measured) and the reducer folds them back with
    /// [`absorb`](Self::absorb).
    pub fn sibling(&self) -> Profiler {
        if self.is_enabled() {
            Profiler::new()
        } else {
            Profiler::disabled()
        }
    }

    /// Folds another profiler's histograms into this one (bucket-wise, so
    /// the merge is commutative). No-op when either handle is disabled or
    /// both share one sink.
    pub fn absorb(&self, other: &Profiler) {
        let (Some(mine), Some(theirs)) = (self.inner.as_ref(), other.inner.as_ref()) else {
            return;
        };
        if Arc::ptr_eq(mine, theirs) {
            return;
        }
        let theirs = recover_lock(theirs);
        let mut mine = recover_lock(mine);
        for (&stage, h) in &theirs.stages {
            mine.stages.entry(stage).or_default().merge(h);
        }
    }

    /// Per-stage summaries, hottest (largest total time) first; ties break
    /// by stage name so the ordering is reproducible for equal totals.
    pub fn snapshot(&self) -> Vec<StageProfile> {
        let mut rows = self
            .with(|p| {
                p.stages
                    .iter()
                    .map(|(&stage, h)| StageProfile {
                        stage,
                        count: h.count(),
                        total_ms: h.mean() * h.count() as f64 / 1_000_000.0,
                        mean_us: h.mean() / 1_000.0,
                        p50_us: h.quantile(0.50) as f64 / 1_000.0,
                        p99_us: h.quantile(0.99) as f64 / 1_000.0,
                        max_us: h.max() as f64 / 1_000.0,
                    })
                    .collect::<Vec<_>>()
            })
            .unwrap_or_default();
        rows.sort_by(|a, b| b.total_ms.total_cmp(&a.total_ms).then(a.stage.cmp(b.stage)));
        rows
    }

    /// Host self-time CSV
    /// (`stage,count,total_ms,share,mean_us,p50_us,p99_us,max_us`), hottest
    /// stage first. `share` is the stage's fraction of all profiled time.
    /// Host times vary run to run, so this artifact is **excluded** from
    /// the CI determinism byte-compare.
    pub fn to_csv(&self) -> String {
        let rows = self.snapshot();
        let total: f64 = rows.iter().map(|r| r.total_ms).sum();
        let mut out = String::from("stage,count,total_ms,share,mean_us,p50_us,p99_us,max_us\n");
        for r in &rows {
            let share = if total > 0.0 { r.total_ms / total } else { 0.0 };
            out.push_str(&format!(
                "{},{},{:.3},{:.4},{:.3},{:.3},{:.3},{:.3}\n",
                r.stage, r.count, r.total_ms, share, r.mean_us, r.p50_us, r.p99_us, r.max_us
            ));
        }
        out
    }
}

/// One stage's host-time summary (times in host µs/ms).
#[derive(Debug, Clone, PartialEq)]
pub struct StageProfile {
    /// Stage name (a `HopId` name or an engine's event-kind label).
    pub stage: &'static str,
    /// Number of scoped timings.
    pub count: u64,
    /// Total host time across all timings, ms.
    pub total_ms: f64,
    /// Mean per timing, µs.
    pub mean_us: f64,
    /// Median per timing, µs.
    pub p50_us: f64,
    /// 99th percentile per timing, µs.
    pub p99_us: f64,
    /// Slowest single timing, µs.
    pub max_us: f64,
}

/// Scope guard returned by [`Profiler::scope`]; records elapsed host time
/// against its stage on drop.
#[derive(Debug)]
pub struct ProfScope<'a> {
    prof: &'a Profiler,
    stage: &'static str,
    start: Option<HostInstant>,
}

impl Drop for ProfScope<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.prof.record_ns(self.stage, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_inert() {
        let p = Profiler::disabled();
        {
            let _s = p.scope("hop");
        }
        p.record_ns("hop", 123);
        assert!(!p.is_enabled());
        assert!(p.snapshot().is_empty());
        assert_eq!(p.to_csv(), "stage,count,total_ms,share,mean_us,p50_us,p99_us,max_us\n");
    }

    #[test]
    fn scopes_record_and_clones_share_one_sink() {
        let p = Profiler::new();
        let c = p.clone();
        {
            let _s = c.scope("hop-a");
        }
        p.record_ns("hop-a", 1_000);
        p.record_ns("hop-b", 5_000_000);
        let rows = p.snapshot();
        assert_eq!(rows.len(), 2);
        // Hottest first: hop-b's 5 ms dominates.
        assert_eq!(rows[0].stage, "hop-b");
        assert_eq!(rows[0].count, 1);
        let a = rows.iter().find(|r| r.stage == "hop-a").unwrap();
        assert_eq!(a.count, 2);
        let csv = p.to_csv();
        assert!(csv.starts_with("stage,count,"));
        assert!(csv.contains("hop-b,1,"));
    }

    #[test]
    fn sibling_absorb_reduces_like_one_sink() {
        let parent = Profiler::new();
        let a = parent.sibling();
        let b = parent.sibling();
        a.record_ns("hop", 100);
        b.record_ns("hop", 200);
        b.record_ns("other", 50);
        parent.absorb(&a);
        parent.absorb(&b);
        let rows = parent.snapshot();
        let hop = rows.iter().find(|r| r.stage == "hop").unwrap();
        assert_eq!(hop.count, 2);
        assert_eq!(rows.iter().find(|r| r.stage == "other").unwrap().count, 1);
        // Absorbing self or a disabled handle is a no-op.
        parent.absorb(&parent.clone());
        parent.absorb(&Profiler::disabled());
        assert_eq!(parent.snapshot().iter().map(|r| r.count).sum::<u64>(), 3);
        assert!(!Profiler::disabled().sibling().is_enabled());
    }
}
