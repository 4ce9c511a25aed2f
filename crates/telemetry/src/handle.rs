//! The cheap, cloneable [`Telemetry`] handle every layer records through.
//!
//! A handle is either *disabled* (the default — every call is a no-op on
//! a `None`, no allocation, no locking) or *enabled*, in which case all
//! clones share one registry + journal behind an `Arc<Mutex<..>>`. The
//! simulation is single-threaded, so the mutex is uncontended; it exists
//! so clones embedded in `Clone`able entities (PDCP, RLC, radio heads)
//! stay coherent without threading `&mut` borrows through every layer.
//!
//! The program records by [`MetricId`] — [`Telemetry::add`],
//! [`Telemetry::observe`], [`Telemetry::observe_with_exemplar`] — naming a
//! key of the static vocabulary in [`crate::metric`], so a lit record is
//! the lock plus a store into the registry's dense slot. The string forms
//! ([`Telemetry::count`], [`Telemetry::record`] and their labelled and
//! exemplar variants) stay for keys outside the vocabulary, the benchmark's
//! and the tests'; they find the slot by hashing the strings. A caller
//! with several records to make at once takes the lock once through
//! [`Telemetry::batch`], as the ping experiment does for the journey it
//! flushes at the end of every ping.
//!
//! A parallel sweep gives each shard a [`Telemetry::sibling`] and folds it
//! back with [`Telemetry::absorb`], which empties the sibling but keeps its
//! storage: the next shard can record into the same sink, so a lit run
//! pays for its events rather than for regrowing a ring and its histograms
//! per shard. The registry treats an emptied histogram as absent, so a
//! recycled sink absorbs exactly as a fresh one does.
//!
//! Crucially, recording consumes **no RNG draws and no simulated time** —
//! an instrumented run and a dark run produce bit-identical results (the
//! determinism test in `tests/` holds this line).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use sim::Duration;

use crate::flight::{FlightRecorder, TailExemplar, DEFAULT_FORCED_CAP, DEFAULT_WORST_K};
use crate::journal::{EventJournal, JournalEvent};
use crate::metric::MetricId;
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

/// One telemetry sink: the registry, journal and flight recorder that a
/// handle and its clones share. [`Telemetry::batch`] lends it out under
/// one lock, for a caller with several records to make at once.
#[derive(Debug)]
pub struct Sink {
    registry: MetricsRegistry,
    journal: EventJournal,
    flight: FlightRecorder,
}

impl Sink {
    /// Adds `n` to counter `id`.
    pub fn add(&mut self, id: MetricId, n: u64) {
        self.registry.add(id.slot(), n);
    }

    /// Records a duration into histogram `id`.
    pub fn observe(&mut self, id: MetricId, d: Duration) {
        self.registry.observe_ns(id.slot(), d.as_nanos());
    }

    /// Records a duration into histogram `id`, attaching `ping` as an
    /// OpenMetrics-style bucket exemplar so the quantile report can name a
    /// concrete replayable ping per bucket.
    pub fn observe_with_exemplar(&mut self, id: MetricId, d: Duration, ping: u64) {
        self.registry.observe_ns_with_exemplar(id.slot(), d.as_nanos(), ping);
    }

    /// Appends an event to the journal.
    pub fn journal(&mut self, event: JournalEvent) {
        self.journal.push(event);
    }

    /// Offers one completed ping to the flight recorder; see
    /// [`Telemetry::flight_record`].
    pub fn flight_record(
        &mut self,
        ping: u64,
        rtt: Duration,
        forced: bool,
        build: impl FnOnce() -> TailExemplar,
    ) {
        self.flight.record(ping, rtt, forced, build);
    }

    /// The slot of the string key `layer/name{label}`.
    fn slot(&mut self, layer: &'static str, name: &'static str, label: &'static str) -> usize {
        self.registry.slot(MetricKey::labeled(layer, name, label))
    }
}

/// Shared telemetry sink; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Sink>>>,
}

impl Telemetry {
    /// An enabled handle with a journal ring of `journal_capacity` events
    /// and an always-on flight recorder at the default retention
    /// ([`DEFAULT_WORST_K`] slowest + up to [`DEFAULT_FORCED_CAP`] forced).
    pub fn new(journal_capacity: usize) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(Sink {
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

    /// Runs `f` on the sink under one lock and returns what it returns;
    /// `None`, without running `f`, when disabled. `f` must not record
    /// through a handle to the same sink: it holds the lock.
    pub fn batch<R>(&self, f: impl FnOnce(&mut Sink) -> R) -> Option<R> {
        self.inner.as_ref().map(|inner| f(&mut recover_lock(inner)))
    }

    /// Adds `n` to counter `id`.
    pub fn add(&self, id: MetricId, n: u64) {
        self.batch(|s| s.add(id, n));
    }

    /// Records a duration into histogram `id`.
    pub fn observe(&self, id: MetricId, d: Duration) {
        self.batch(|s| s.observe(id, d));
    }

    /// Records a duration into histogram `id` with `ping` as its bucket
    /// exemplar; see [`Sink::observe_with_exemplar`].
    pub fn observe_with_exemplar(&self, id: MetricId, d: Duration, ping: u64) {
        self.batch(|s| s.observe_with_exemplar(id, d, ping));
    }

    /// Adds `n` to counter `layer/name`, found by its strings: a
    /// vocabulary key lands in its id's slot, any other key in a slot of
    /// its own.
    pub fn count(&self, layer: &'static str, name: &'static str, n: u64) {
        self.batch(|s| {
            let slot = s.slot(layer, name, "");
            s.registry.add(slot, n);
        });
    }

    /// Records a duration into histogram `layer/name`, found by its
    /// strings as [`count`](Self::count) finds a counter.
    pub fn record(&self, layer: &'static str, name: &'static str, d: Duration) {
        self.record_labeled(layer, name, "", d);
    }

    /// Records a duration into histogram `layer/name`, attaching `ping` as
    /// its bucket exemplar.
    pub fn record_with_exemplar(
        &self,
        layer: &'static str,
        name: &'static str,
        d: Duration,
        ping: u64,
    ) {
        self.batch(|s| {
            let slot = s.slot(layer, name, "");
            s.registry.observe_ns_with_exemplar(slot, d.as_nanos(), ping);
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
        self.batch(|s| {
            let slot = s.slot(layer, name, label);
            s.registry.observe_ns(slot, d.as_nanos());
        });
    }

    /// Appends an event to the journal.
    pub fn journal(&self, event: JournalEvent) {
        self.batch(|s| s.journal(event));
    }

    /// Offers one completed ping, by id and round-trip time, to the flight
    /// recorder. `forced` marks pings that must be retained regardless of
    /// rank (deadline miss, RLF, loss, handover failure). `build` makes the
    /// ping's forensic record, and runs only if the recorder keeps it; it
    /// runs under the sink's lock, so it must not record.
    pub fn flight_record(
        &self,
        ping: u64,
        rtt: Duration,
        forced: bool,
        build: impl FnOnce() -> TailExemplar,
    ) {
        self.batch(|s| s.flight_record(ping, rtt, forced, build));
    }

    /// The flight recorder's retained exemplars, slowest first (empty
    /// when disabled).
    pub fn flight_exemplars(&self) -> Vec<TailExemplar> {
        self.batch(|t| t.flight.exemplars().into_iter().cloned().collect()).unwrap_or_default()
    }

    /// How many exemplars the flight recorder retains (what
    /// [`flight_exemplars`](Self::flight_exemplars) would copy), counted
    /// without copying them; zero when disabled.
    pub fn flight_retained(&self) -> usize {
        self.batch(|t| t.flight.exemplars().len()).unwrap_or(0)
    }

    /// The flight recorder's deterministic JSON export (the
    /// `tail_exemplars.json` section body). Empty-recorder JSON when
    /// disabled.
    pub fn flight_json(&self) -> String {
        self.batch(|t| t.flight.to_json()).unwrap_or_else(|| FlightRecorder::default().to_json())
    }

    /// Snapshot of all metrics (empty when disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.batch(|t| t.registry.snapshot()).unwrap_or_default()
    }

    /// Calls `f` on each event of the journal's retained window, oldest
    /// first, under the sink's lock and without copying the ring (never,
    /// when disabled). `f` must not record through a handle to the same
    /// sink: it holds the lock.
    pub fn visit_journal(&self, f: impl FnMut(&JournalEvent)) {
        self.batch(|t| t.journal.iter().for_each(f));
    }

    /// A copy of the journal's retained window, oldest first (empty when
    /// disabled).
    pub fn journal_events(&self) -> Vec<JournalEvent> {
        let mut events = Vec::with_capacity(self.batch(|t| t.journal.len()).unwrap_or(0));
        self.visit_journal(|e| events.push(*e));
        events
    }

    /// Events shed by journal overflow.
    pub fn journal_dropped(&self) -> u64 {
        self.batch(|t| t.journal.dropped()).unwrap_or(0)
    }

    /// A fresh, empty handle with the same enabled state, journal capacity
    /// and flight retention — the per-shard sink of a parallel sweep.
    /// Shards record into their own sibling (no cross-thread interleaving)
    /// and the reducer folds them back with [`absorb`](Self::absorb) in
    /// shard order, so the merged registry and journal are independent of
    /// worker count. The sibling's flight recorder carries this handle's
    /// current bars as floors (see `telemetry::flight`), so it is meant to
    /// be absorbed into this handle and no other.
    pub fn sibling(&self) -> Telemetry {
        let inner = self.batch(|t| Sink {
            registry: MetricsRegistry::new(),
            journal: EventJournal::new(t.journal.capacity()),
            flight: FlightRecorder::below(&t.flight),
        });
        Telemetry { inner: inner.map(|inner| Arc::new(Mutex::new(inner))) }
    }

    /// Folds another handle's registry and journal into this one: counters
    /// and histograms merge, and `other`'s journal window is appended to
    /// this ring in order (its own overflow drops carry over). No-op when
    /// either handle is disabled or both share one sink.
    ///
    /// `other` is left empty with its storage kept — the journal ring, each
    /// histogram's buckets, the flight buffers — and with floors taken from
    /// this handle as it stands now, exactly as [`sibling`](Self::sibling)
    /// would hand it out. So the next shard can record into it: it absorbs
    /// as a fresh sibling would, without growing everything from nothing.
    pub fn absorb(&self, other: &Telemetry) {
        let (Some(mine), Some(theirs)) = (self.inner.as_ref(), other.inner.as_ref()) else {
            return;
        };
        if Arc::ptr_eq(mine, theirs) {
            return;
        }
        let mut theirs = recover_lock(theirs);
        let mut mine = recover_lock(mine);
        mine.registry.merge(&theirs.registry);
        mine.journal.absorb(&theirs.journal);
        mine.flight.merge(&theirs.flight);
        theirs.registry.clear();
        theirs.journal.clear();
        theirs.flight.clear_below(&mine.flight);
    }

    /// Whether another clone of this enabled handle is alive. An absorbed
    /// sink is handed to a new shard only when it is not, so no stale clone
    /// can record into the next shard's telemetry.
    pub fn is_shared(&self) -> bool {
        self.inner.as_ref().is_some_and(|inner| Arc::strong_count(inner) > 1)
    }

    /// Compact summary for embedding in experiment results. It counts
    /// keys and layers off the registry's slots, without summarising a
    /// histogram, so a run can afford one per shard.
    pub fn summary(&self) -> TelemetrySummary {
        self.batch(|t| TelemetrySummary {
            enabled: true,
            metric_keys: t.registry.len(),
            layers: t.registry.layers(),
            journal_events: t.journal.len(),
            journal_dropped: t.journal.dropped(),
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
    pub layers: Vec<&'static str>,
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
        t.journal(JournalEvent::Marker { label: "y", at: Instant::ZERO });
        assert!(!t.is_enabled());
        assert!(t.snapshot().is_empty());
        assert!(t.journal_events().is_empty());
        t.visit_journal(|e| panic!("a disabled handle visited {e:?}"));
        assert_eq!(t.summary(), TelemetrySummary::default());
        assert_eq!(t.summary().render(), "telemetry: off");
    }

    #[test]
    fn clones_share_one_sink() {
        let t = Telemetry::new(16);
        let c = t.clone();
        c.count("mac", "harq_retx", 2);
        t.count("mac", "harq_retx", 3);
        c.journal(JournalEvent::Marker { label: "tick", at: Instant::ZERO });
        assert_eq!(t.snapshot().counter("mac", "harq_retx"), Some(5));
        assert_eq!(t.journal_events().len(), 1);
        let s = t.summary();
        assert!(s.enabled);
        assert_eq!(s.metric_keys, 1);
        assert_eq!(s.layers, vec!["mac"]);
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
            shard_a.journal(JournalEvent::Marker { label: "a", at: Instant::from_micros(i) });
            shard_b.journal(JournalEvent::Marker { label: "b", at: Instant::from_micros(i) });
        }
        parent.absorb(&shard_a);
        parent.absorb(&shard_b);
        assert_eq!(parent.snapshot().counter("mac", "harq_retx"), Some(7));
        // Ring capacity 4: the six replayed markers shed the two oldest.
        let events = parent.journal_events();
        assert_eq!(events.len(), 4);
        assert_eq!(parent.journal_dropped(), 2);
        // The visitor walks the same window, oldest first, in place.
        let mut visited = Vec::new();
        parent.visit_journal(|e| visited.push(*e));
        assert_eq!(visited, events);
        assert_eq!(events[0], JournalEvent::Marker { label: "a", at: Instant::from_micros(2) });
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
            t2.batch(|_| panic!("shard dies mid-record"));
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
        a.flight_record(1, Duration::from_micros(100), false, || mk(1, 100));
        b.flight_record(2, Duration::from_micros(900), true, || mk(2, 900));
        parent.absorb(&a);
        parent.absorb(&b);
        let exs = parent.flight_exemplars();
        assert_eq!(exs.len(), 2);
        assert_eq!(parent.flight_retained(), 2);
        assert_eq!(exs[0].ping, 2); // slowest first
        assert!(parent.flight_json().contains("\"ping\":2"));
        assert!(Telemetry::disabled().flight_exemplars().is_empty());
        assert_eq!(Telemetry::disabled().flight_retained(), 0);
        assert!(Telemetry::disabled().flight_json().contains("\"retained\": 0"));
    }

    mod recycling {
        use super::*;
        use crate::flight::{ExemplarOutcome, ExemplarSpan};
        use proptest::prelude::*;

        /// One recording call: `(kind, key, value, forced)`.
        type Op = (u8, usize, u64, bool);

        const KEYS: [(&str, &str); 3] =
            [("mac", "harq_retx"), ("radio", "submit_us"), ("journey", "rtt")];

        fn exemplar(ping: u64, rtt: Duration) -> TailExemplar {
            TailExemplar {
                ping,
                rtt,
                outcome: ExemplarOutcome::OnTime,
                fault: None,
                fault_extra: vec![("sr-loss", rtt)],
                drop_reason: None,
                max_queue_depth: 2,
                sched_rounds: 1,
                spans: vec![ExemplarSpan {
                    label: "RLC-q",
                    dl: true,
                    start: Instant::ZERO,
                    end: Instant::ZERO + rtt,
                }],
            }
        }

        /// Plays `ops` into `t`, op `i` naming ping `first_ping + i`.
        fn play(t: &Telemetry, ops: &[Op], first_ping: u64) {
            for (i, &(kind, key, value, forced)) in ops.iter().enumerate() {
                let (layer, name) = KEYS[key];
                let ping = first_ping + i as u64;
                match kind {
                    0 => t.count(layer, name, value % 7),
                    1 => t.record(layer, name, Duration::from_nanos(value)),
                    2 => t.record_with_exemplar(layer, name, Duration::from_nanos(value), ping),
                    3 => t.journal(JournalEvent::Marker {
                        label: name,
                        at: Instant::from_micros(value),
                    }),
                    _ => {
                        // Few distinct rtts, so ties fall to the ping id.
                        let rtt = Duration::from_micros(value % 64);
                        t.flight_record(ping, rtt, forced, || exemplar(ping, rtt));
                    }
                }
            }
        }

        fn op() -> impl Strategy<Value = Op> {
            (0u8..5, 0usize..KEYS.len(), 0u64..5_000_000, any::<bool>())
        }

        proptest! {
            #[test]
            fn a_recycled_sink_absorbs_like_a_fresh_one(
                capacity in 1usize..10,
                before in prop::collection::vec(op(), 0..400),
                first_life in prop::collection::vec(op(), 0..60),
                ops in prop::collection::vec(op(), 0..120),
            ) {
                // Two equal parents, each with a history of its own.
                let parents = [Telemetry::new(capacity), Telemetry::new(capacity)];
                for parent in &parents {
                    play(parent, &before, 0);
                }
                // A sink that lived once — overflowing its ring, and
                // recording a key nothing else touches — and was absorbed.
                // Under 64 flight records, its first parent gives it no floor.
                let first_parent = Telemetry::new(capacity);
                let recycled = first_parent.sibling();
                play(&recycled, &first_life, 1_000);
                recycled.record("first", "life", Duration::from_micros(3));
                first_parent.absorb(&recycled);
                let fresh = parents[1].sibling();
                play(&recycled, &ops, 2_000);
                play(&fresh, &ops, 2_000);
                prop_assert_eq!(recycled.summary(), fresh.summary());
                parents[0].absorb(&recycled);
                parents[1].absorb(&fresh);
                let [a, b] = &parents;
                prop_assert_eq!(a.snapshot(), b.snapshot());
                prop_assert_eq!(a.journal_events(), b.journal_events());
                prop_assert_eq!(a.journal_dropped(), b.journal_dropped());
                prop_assert_eq!(a.flight_json(), b.flight_json());
                prop_assert_eq!(a.summary(), b.summary());
            }
        }
    }

    #[test]
    fn an_id_and_its_strings_name_one_slot() {
        use crate::metric;
        let t = Telemetry::new(4);
        t.add(metric::MAC_HARQ_RETX, 2);
        t.count("mac", "harq_retx", 3);
        t.observe(metric::AUDIT_TERM_US_CORE, Duration::from_micros(1));
        t.record_labeled("audit", "term_us", "core", Duration::from_micros(2));
        t.batch(|s| s.observe_with_exemplar(metric::JOURNEY_RTT, Duration::from_micros(3), 9));
        t.record_with_exemplar("journey", "rtt", Duration::from_micros(4), 8);
        t.record("phy", "walk_us", Duration::from_micros(5));
        let snap = t.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap.counter("mac", "harq_retx"), Some(5));
        let counts: Vec<u64> = snap
            .rows
            .iter()
            .filter_map(|r| match &r.value {
                crate::registry::MetricValue::Histogram(h) => Some(h.count),
                _ => None,
            })
            .collect();
        assert_eq!(counts, vec![2, 2, 1]);
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
