//! The cheap, cloneable [`Telemetry`] handle every layer records through.
//!
//! A handle is either *disabled* (the default — every call is a no-op on
//! a `None`, no allocation, no locking) or *enabled*, in which case all
//! clones share one registry + journal behind an `Arc<Mutex<..>>`. The
//! simulation is single-threaded, so the mutex is uncontended; it exists
//! so clones embedded in `Clone`able entities (PDCP, RLC, radio heads)
//! stay coherent without threading `&mut` borrows through every layer.
//!
//! Crucially, recording consumes **no RNG draws and no simulated time** —
//! an instrumented run and a dark run produce bit-identical results (the
//! determinism test in `tests/` holds this line).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use sim::{Duration, Instant};

use crate::flight::{FlightRecorder, TailExemplar, DEFAULT_FORCED_CAP, DEFAULT_WORST_K};
use crate::journal::{EventJournal, JournalEvent};
use crate::registry::{MetricKey, MetricsRegistry, MetricsSnapshot};

/// Times a telemetry/profiler mutex was found poisoned and recovered.
static POISON_RECOVERIES: AtomicU64 = AtomicU64::new(0);

/// Locks a telemetry-owned mutex, recovering from poisoning instead of
/// panicking: a shard that panicked mid-record leaves at worst one
/// half-written observation, which must not cascade into the merge path
/// and take the whole sweep down. Every recovery is counted (see
/// [`poison_recoveries`]) so it is observable rather than silent.
pub(crate) fn recover_lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| {
        POISON_RECOVERIES.fetch_add(1, Ordering::Relaxed);
        poisoned.into_inner()
    })
}

/// How many times a poisoned telemetry/profiler mutex was recovered
/// (process-wide, monotonic). Zero in a healthy run.
pub fn poison_recoveries() -> u64 {
    POISON_RECOVERIES.load(Ordering::Relaxed)
}

#[derive(Debug)]
struct TelemetryInner {
    registry: MetricsRegistry,
    journal: EventJournal,
    flight: FlightRecorder,
}

/// Shared telemetry sink; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<TelemetryInner>>>,
}

impl Telemetry {
    /// An enabled handle with a journal ring of `journal_capacity` events
    /// and an always-on flight recorder at the default retention
    /// ([`DEFAULT_WORST_K`] slowest + up to [`DEFAULT_FORCED_CAP`] forced).
    pub fn new(journal_capacity: usize) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(TelemetryInner {
                registry: MetricsRegistry::new(),
                journal: EventJournal::new(journal_capacity),
                flight: FlightRecorder::new(DEFAULT_WORST_K, DEFAULT_FORCED_CAP),
            }))),
        }
    }

    /// A disabled handle: every recording call is a no-op.
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with<R>(&self, f: impl FnOnce(&mut TelemetryInner) -> R) -> Option<R> {
        self.inner.as_ref().map(|inner| f(&mut recover_lock(inner)))
    }

    /// Adds `n` to counter `layer/name`.
    pub fn count(&self, layer: &'static str, name: &'static str, n: u64) {
        self.with(|t| t.registry.count(MetricKey::new(layer, name), n));
    }

    /// Records a duration into histogram `layer/name`.
    pub fn record(&self, layer: &'static str, name: &'static str, d: Duration) {
        self.with(|t| t.registry.record(MetricKey::new(layer, name), d));
    }

    /// Records a duration into histogram `layer/name`, attaching `ping`
    /// as an OpenMetrics-style bucket exemplar so the quantile report can
    /// name a concrete replayable ping per bucket.
    pub fn record_with_exemplar(
        &self,
        layer: &'static str,
        name: &'static str,
        d: Duration,
        ping: u64,
    ) {
        self.with(|t| {
            t.registry.record_ns_with_exemplar(MetricKey::new(layer, name), d.as_nanos(), ping)
        });
    }

    /// Records a duration into histogram `layer/name{label}`.
    pub fn record_labeled(
        &self,
        layer: &'static str,
        name: &'static str,
        label: &'static str,
        d: Duration,
    ) {
        self.with(|t| t.registry.record(MetricKey::labeled(layer, name, label), d));
    }

    /// Appends an event to the journal.
    pub fn journal(&self, event: JournalEvent) {
        self.with(|t| t.journal.push(event));
    }

    /// Journals one Fig-3 journey stage — the span-emission entry point
    /// used by the stack's telemetry decorator.
    pub fn journal_stage(
        &self,
        ping: u64,
        dl: bool,
        label: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.journal(JournalEvent::Stage { ping, dl, label, start, end });
    }

    /// Hands one completed ping's forensic record to the flight recorder.
    /// `forced` marks pings that must be retained regardless of rank
    /// (deadline miss, RLF, loss, handover failure).
    pub fn flight_record(&self, exemplar: TailExemplar, forced: bool) {
        self.with(|t| t.flight.observe(exemplar, forced));
    }

    /// The flight recorder's retained exemplars, slowest first (empty
    /// when disabled).
    pub fn flight_exemplars(&self) -> Vec<TailExemplar> {
        self.with(|t| t.flight.exemplars().into_iter().cloned().collect()).unwrap_or_default()
    }

    /// The flight recorder's deterministic JSON export (the
    /// `tail_exemplars.json` section body). Empty-recorder JSON when
    /// disabled.
    pub fn flight_json(&self) -> String {
        self.with(|t| t.flight.to_json()).unwrap_or_else(|| FlightRecorder::default().to_json())
    }

    /// Snapshot of all metrics (empty when disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.with(|t| t.registry.snapshot()).unwrap_or_default()
    }

    /// The journal's retained window, oldest first (empty when disabled).
    pub fn journal_events(&self) -> Vec<JournalEvent> {
        self.with(|t| t.journal.to_vec()).unwrap_or_default()
    }

    /// Events shed by journal overflow.
    pub fn journal_dropped(&self) -> u64 {
        self.with(|t| t.journal.dropped()).unwrap_or(0)
    }

    /// A fresh, empty handle with the same enabled state and journal
    /// capacity — the per-shard sink of a parallel sweep. Shards record
    /// into their own sibling (no cross-thread interleaving) and the
    /// reducer folds them back with [`absorb`](Self::absorb) in shard
    /// order, so the merged registry and journal are independent of worker
    /// count.
    pub fn sibling(&self) -> Telemetry {
        match self.with(|t| t.journal.capacity()) {
            Some(capacity) => Telemetry::new(capacity),
            None => Telemetry::disabled(),
        }
    }

    /// Folds another handle's registry and journal into this one: counters
    /// and histograms merge, gauges are last-write-wins, and `other`'s
    /// journal window is replayed into this ring in order (its own
    /// overflow drops carry over). No-op when either handle is disabled
    /// or both share one sink.
    pub fn absorb(&self, other: &Telemetry) {
        let (Some(mine), Some(theirs)) = (self.inner.as_ref(), other.inner.as_ref()) else {
            return;
        };
        if Arc::ptr_eq(mine, theirs) {
            return;
        }
        let theirs = recover_lock(theirs);
        let mut mine = recover_lock(mine);
        mine.registry.merge(&theirs.registry);
        mine.journal.absorb(&theirs.journal);
        mine.flight.merge(&theirs.flight);
    }

    /// Compact summary for embedding in experiment results.
    pub fn summary(&self) -> TelemetrySummary {
        self.with(|t| {
            let snap = t.registry.snapshot();
            TelemetrySummary {
                enabled: true,
                metric_keys: snap.len(),
                layers: snap.layers().iter().map(|s| s.to_string()).collect(),
                journal_events: t.journal.len(),
                journal_dropped: t.journal.dropped(),
            }
        })
        .unwrap_or_default()
    }
}

/// What an experiment reports about its telemetry collection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySummary {
    /// `false` when the run was dark (no handle attached).
    pub enabled: bool,
    /// Distinct metric keys recorded.
    pub metric_keys: usize,
    /// Distinct layer namespaces that recorded at least one metric.
    pub layers: Vec<String>,
    /// Journal events retained at run end.
    pub journal_events: usize,
    /// Journal events shed to ring overflow.
    pub journal_dropped: u64,
}

impl TelemetrySummary {
    /// One-line report form.
    pub fn render(&self) -> String {
        if !self.enabled {
            return "telemetry: off".to_string();
        }
        format!(
            "telemetry: {} keys across {} layers [{}], journal {} events ({} dropped)",
            self.metric_keys,
            self.layers.len(),
            self.layers.join(", "),
            self.journal_events,
            self.journal_dropped,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::Instant;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        t.count("mac", "harq_retx", 1);
        t.record("radio", "submit_us", Duration::from_micros(3));
        t.journal(JournalEvent::Marker { layer: "x", label: "y", at: Instant::ZERO });
        assert!(!t.is_enabled());
        assert!(t.snapshot().is_empty());
        assert!(t.journal_events().is_empty());
        assert_eq!(t.summary(), TelemetrySummary::default());
        assert_eq!(t.summary().render(), "telemetry: off");
    }

    #[test]
    fn clones_share_one_sink() {
        let t = Telemetry::new(16);
        let c = t.clone();
        c.count("mac", "harq_retx", 2);
        t.count("mac", "harq_retx", 3);
        c.journal(JournalEvent::Marker { layer: "sim", label: "tick", at: Instant::ZERO });
        assert_eq!(t.snapshot().counter("mac", "harq_retx"), Some(5));
        assert_eq!(t.journal_events().len(), 1);
        let s = t.summary();
        assert!(s.enabled);
        assert_eq!(s.metric_keys, 1);
        assert_eq!(s.layers, vec!["mac".to_string()]);
        assert_eq!(s.journal_events, 1);
        assert!(s.render().contains("1 keys"));
    }

    #[test]
    fn sibling_and_absorb_reduce_like_one_sink() {
        let parent = Telemetry::new(4);
        let shard_a = parent.sibling();
        let shard_b = parent.sibling();
        shard_a.count("mac", "harq_retx", 2);
        shard_b.count("mac", "harq_retx", 5);
        shard_a.record("radio", "submit_us", Duration::from_micros(10));
        shard_b.record("radio", "submit_us", Duration::from_micros(20));
        for i in 0..3u64 {
            shard_a.journal(JournalEvent::Marker {
                layer: "a",
                label: "m",
                at: Instant::from_micros(i),
            });
            shard_b.journal(JournalEvent::Marker {
                layer: "b",
                label: "m",
                at: Instant::from_micros(i),
            });
        }
        parent.absorb(&shard_a);
        parent.absorb(&shard_b);
        assert_eq!(parent.snapshot().counter("mac", "harq_retx"), Some(7));
        // Ring capacity 4: the six replayed markers shed the two oldest.
        let events = parent.journal_events();
        assert_eq!(events.len(), 4);
        assert_eq!(parent.journal_dropped(), 2);
        // Absorbing a disabled handle or the sink itself is a no-op.
        parent.absorb(&Telemetry::disabled());
        parent.absorb(&parent.clone());
        assert_eq!(parent.journal_events().len(), 4);
        // A disabled parent spawns disabled siblings.
        assert!(!Telemetry::disabled().sibling().is_enabled());
    }

    #[test]
    fn poisoned_mutex_recovers_and_is_counted() {
        let t = Telemetry::new(4);
        t.count("mac", "harq_retx", 1);
        // Poison the sink: panic while holding the lock on another thread.
        let t2 = t.clone();
        let before = poison_recoveries();
        let _ = std::thread::spawn(move || {
            t2.with(|_| panic!("shard dies mid-record"));
        })
        .join();
        // The handle keeps working instead of cascading the panic into
        // the merge path, and the recovery is observable.
        t.count("mac", "harq_retx", 2);
        assert_eq!(t.snapshot().counter("mac", "harq_retx"), Some(3));
        let parent = Telemetry::new(4);
        parent.absorb(&t);
        assert_eq!(parent.snapshot().counter("mac", "harq_retx"), Some(3));
        assert!(poison_recoveries() > before);
    }

    #[test]
    fn flight_recorder_reduces_through_sibling_absorb() {
        use crate::flight::{ExemplarOutcome, TailExemplar};
        let mk = |ping: u64, rtt_us: u64| TailExemplar {
            ping,
            rtt: Duration::from_micros(rtt_us),
            outcome: ExemplarOutcome::OnTime,
            fault: None,
            fault_extra: Vec::new(),
            drop_reason: None,
            max_queue_depth: 1,
            sched_rounds: 1,
            spans: Vec::new(),
        };
        let parent = Telemetry::new(4);
        let a = parent.sibling();
        let b = parent.sibling();
        a.flight_record(mk(1, 100), false);
        b.flight_record(mk(2, 900), true);
        parent.absorb(&a);
        parent.absorb(&b);
        let exs = parent.flight_exemplars();
        assert_eq!(exs.len(), 2);
        assert_eq!(exs[0].ping, 2); // slowest first
        assert!(parent.flight_json().contains("\"ping\":2"));
        assert!(Telemetry::disabled().flight_exemplars().is_empty());
        assert!(Telemetry::disabled().flight_json().contains("\"retained\": 0"));
    }

    #[test]
    fn labeled_keys_are_distinct() {
        let t = Telemetry::new(4);
        t.record("radio", "submit_us", Duration::from_micros(1));
        t.record_labeled("radio", "submit_us", "ue", Duration::from_micros(1));
        t.record_labeled("radio", "submit_us", "gnb", Duration::from_micros(2));
        assert_eq!(t.snapshot().len(), 3);
    }
}
