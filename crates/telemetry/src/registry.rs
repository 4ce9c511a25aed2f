//! The metrics registry: counters and log-linear histograms keyed by
//! `(layer, name, label)`, stored in dense slots.
//!
//! Slot `i` of a fresh registry belongs to the `i`-th key of the static
//! vocabulary ([`crate::metric`]), so the program's records index an array
//! by a [`MetricId`](crate::MetricId) and compare no string. A key outside the vocabulary
//! (the benchmark's `phy/walk_us`, a test's key) gets a slot appended on
//! first use. That is one storage with two ways to find a slot: by id, or
//! by key, through the vocabulary and then the appended keys. A key index
//! remembers the slot of every key a registry was handed as strings, so
//! the string path hashes its key once and compares it once. A counter slot is present once touched,
//! even by `n = 0`; a histogram slot is present while it holds a value,
//! so a slot a recycled registry used in an earlier life is absent.
//! `snapshot()` sorts its rows by key, so every export is deterministically
//! ordered whatever order the slots were appended in.
//!
//! Histograms store nanosecond values in log-linear buckets
//! (HdrHistogram-style: [`sim::SUB_BUCKETS`] linear sub-buckets per power
//! of two), bounding the relative quantile error at `1/SUB_BUCKETS` while
//! keeping memory constant regardless of sample count.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

// The histogram itself lives in `sim::stats` (scale experiments record
// through it directly, behind `sim::Recording`); re-exported here so
// telemetry callers keep their established paths.
pub use sim::LogLinearHistogram;

use crate::metric::{self, KeyHash, VOCABULARY};

/// A `(layer, name, label)` metric key, e.g. `mac/harq_retx` or
/// `radio/submit_us{ue}`. The label discriminates instances of the same
/// metric (direction, node, link) and is empty for singleton metrics.
///
/// Keys compare in the byte order of `(layer, name, label)`, exactly as a
/// derived order would, but by hand: two empty strings compare by length
/// alone. The derived compare hands `"" == ""` to `memcmp` with `n = 0`
/// and a dangling pointer, which glibc answered in ≈ 150 ns on a 2-core
/// x86-64 host against ≈ 3 ns for `"a" == "a"`; every unlabelled key ends
/// in that compare.
#[derive(Debug, Clone, Copy)]
pub struct MetricKey {
    /// Layer namespace: `sdap`, `pdcp`, `rlc`, `mac`, `phy`, `radio`,
    /// `channel`, `rrc`, `corenet`, `audit`, ...
    pub layer: &'static str,
    /// Metric name within the layer.
    pub name: &'static str,
    /// Optional instance discriminator (empty when unused).
    pub label: &'static str,
}

impl MetricKey {
    /// An unlabeled key.
    #[cfg(test)]
    pub(crate) fn new(layer: &'static str, name: &'static str) -> MetricKey {
        MetricKey { layer, name, label: "" }
    }

    /// A labeled key.
    pub(crate) fn labeled(
        layer: &'static str,
        name: &'static str,
        label: &'static str,
    ) -> MetricKey {
        MetricKey { layer, name, label }
    }

    /// Canonical text form: `layer/name` or `layer/name{label}`.
    pub(crate) fn render(&self) -> String {
        if self.label.is_empty() {
            format!("{}/{}", self.layer, self.name)
        } else {
            format!("{}/{}{{{}}}", self.layer, self.name, self.label)
        }
    }
}

/// Byte order of two strings that never calls `memcmp` with `n = 0`.
fn cmp_str(a: &str, b: &str) -> Ordering {
    if a.is_empty() || b.is_empty() {
        a.len().cmp(&b.len())
    } else {
        a.cmp(b)
    }
}

/// Byte equality of two strings that never calls `memcmp` with `n = 0`.
fn eq_str(a: &str, b: &str) -> bool {
    a.len() == b.len() && (a.is_empty() || a == b)
}

impl PartialEq for MetricKey {
    fn eq(&self, other: &MetricKey) -> bool {
        eq_str(self.layer, other.layer)
            && eq_str(self.name, other.name)
            && eq_str(self.label, other.label)
    }
}

impl Eq for MetricKey {}

impl PartialOrd for MetricKey {
    fn partial_cmp(&self, other: &MetricKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MetricKey {
    fn cmp(&self, other: &MetricKey) -> Ordering {
        cmp_str(self.layer, other.layer)
            .then_with(|| cmp_str(self.name, other.name))
            .then_with(|| cmp_str(self.label, other.label))
    }
}

impl Hash for MetricKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.layer, self.name, self.label).hash(state);
    }
}

/// Point-in-time value of one metric, as exported in snapshots.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic event count.
    Counter(u64),
    /// Histogram summary (values recorded in ns, reported in µs).
    Histogram(HistogramSummary),
}

/// One exported bucket exemplar: the upper bound of its bucket plus the
/// exemplar's exact value and ping id (OpenMetrics `# {…}` style).
#[derive(Debug, Clone, PartialEq)]
pub struct ExemplarRow {
    /// Exclusive upper bound of the bucket, µs.
    pub le_us: f64,
    /// The exemplar's exact recorded value, µs.
    pub value_us: f64,
    /// The ping (packet id) that produced it.
    pub ping: u64,
}

/// Quantile summary of a [`LogLinearHistogram`], in microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Mean, µs.
    pub mean_us: f64,
    /// Median, µs.
    pub p50_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// 99.9th percentile, µs.
    pub p999_us: f64,
    /// Maximum, µs.
    pub max_us: f64,
    /// Bucket exemplars (empty for histograms recorded without ping ids).
    pub exemplars: Vec<ExemplarRow>,
}

impl HistogramSummary {
    fn from(h: &LogLinearHistogram) -> HistogramSummary {
        HistogramSummary {
            count: h.count(),
            mean_us: h.mean() / 1_000.0,
            p50_us: h.quantile(0.50) as f64 / 1_000.0,
            p99_us: h.quantile(0.99) as f64 / 1_000.0,
            p999_us: h.quantile(0.999) as f64 / 1_000.0,
            max_us: h.max() as f64 / 1_000.0,
            exemplars: h
                .exemplars()
                .map(|(idx, ex)| ExemplarRow {
                    le_us: LogLinearHistogram::bucket_bounds(idx).1 as f64 / 1_000.0,
                    value_us: ex.value as f64 / 1_000.0,
                    ping: ex.ping,
                })
                .collect(),
        }
    }
}

/// One exported `(key, value)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// The metric's key.
    pub key: MetricKey,
    /// Its value at snapshot time.
    pub value: MetricValue,
}

/// The registry all layers record into (behind the [`crate::Telemetry`]
/// handle); see the module docs. Slot `s` is vocabulary key `s` below
/// `VOCABULARY.len()` and appended key `s - VOCABULARY.len()` above it.
#[derive(Debug, Clone)]
pub(crate) struct MetricsRegistry {
    counters: Vec<Option<u64>>,
    histograms: Vec<LogLinearHistogram>,
    /// The keys outside the vocabulary, in the order their slots were
    /// appended.
    appended: Vec<MetricKey>,
    /// The slot of every key this registry was handed as strings.
    index: HashMap<MetricKey, usize, KeyHash>,
}

impl MetricsRegistry {
    /// An empty registry with a slot for every vocabulary key.
    pub(crate) fn new() -> MetricsRegistry {
        MetricsRegistry {
            counters: vec![None; VOCABULARY.len()],
            histograms: vec![LogLinearHistogram::default(); VOCABULARY.len()],
            appended: Vec::new(),
            index: HashMap::default(),
        }
    }

    /// The slot of `key`: its vocabulary id's, else its appended one,
    /// appended now if `key` is new. The index remembers the answer, so a
    /// key costs one hash lookup from its second use on.
    pub(crate) fn slot(&mut self, key: MetricKey) -> usize {
        if let Some(&slot) = self.index.get(&key) {
            return slot;
        }
        let slot = match metric::lookup(&key) {
            Some(id) => id.slot(),
            None => {
                self.counters.push(None);
                self.histograms.push(LogLinearHistogram::default());
                self.appended.push(key);
                self.counters.len() - 1
            }
        };
        self.index.insert(key, slot);
        slot
    }

    fn key(&self, slot: usize) -> MetricKey {
        match VOCABULARY.get(slot) {
            Some(&key) => key,
            None => self.appended[slot - VOCABULARY.len()],
        }
    }

    /// Adds `n` to the counter at `slot`.
    pub(crate) fn add(&mut self, slot: usize, n: u64) {
        *self.counters[slot].get_or_insert(0) += n;
    }

    /// Records `ns` into the histogram at `slot`.
    pub(crate) fn observe_ns(&mut self, slot: usize, ns: u64) {
        self.histograms[slot].record(ns);
    }

    /// Records `ns` into the histogram at `slot`, attaching `ping` as the
    /// bucket's exemplar (see [`LogLinearHistogram::record_with_exemplar`]).
    pub(crate) fn observe_ns_with_exemplar(&mut self, slot: usize, ns: u64, ping: u64) {
        self.histograms[slot].record_with_exemplar(ns, ping);
    }

    /// The present counters, by slot.
    fn live_counters(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counters.iter().enumerate().filter_map(|(slot, n)| n.map(|n| (slot, n)))
    }

    /// The histograms holding at least one value, by slot.
    fn live_histograms(&self) -> impl Iterator<Item = (usize, &LogLinearHistogram)> {
        self.histograms.iter().enumerate().filter(|(_, h)| h.count() > 0)
    }

    /// Number of distinct metric keys (a key that is both a counter and a
    /// histogram counts twice, as it has two rows).
    pub(crate) fn len(&self) -> usize {
        self.live_counters().count() + self.live_histograms().count()
    }

    /// The layers with at least one present metric, sorted and distinct.
    pub(crate) fn layers(&self) -> Vec<&'static str> {
        let slots = self.live_counters().map(|(slot, _)| slot);
        let slots = slots.chain(self.live_histograms().map(|(slot, _)| slot));
        let mut layers: Vec<&'static str> = slots.map(|slot| self.key(slot).layer).collect();
        layers.sort_unstable();
        layers.dedup();
        layers
    }

    /// Folds another registry into this one: counters add, histograms
    /// merge bucket-wise. Vocabulary slots pair by index, appended slots
    /// by key.
    pub(crate) fn merge(&mut self, other: &MetricsRegistry) {
        for (theirs, n) in other.live_counters() {
            let mine = self.slot_of(other, theirs);
            self.add(mine, n);
        }
        for (theirs, h) in other.live_histograms() {
            let mine = self.slot_of(other, theirs);
            self.histograms[mine].merge(h);
        }
    }

    /// The slot in this registry of `other`'s slot `theirs`.
    fn slot_of(&mut self, other: &MetricsRegistry, theirs: usize) -> usize {
        if theirs < VOCABULARY.len() {
            theirs
        } else {
            self.slot(other.key(theirs))
        }
    }

    /// Empties the registry for its next life: every counter goes, each
    /// histogram is cleared in place so its buckets' storage stays, and
    /// every appended key keeps its slot.
    pub(crate) fn clear(&mut self) {
        self.counters.fill(None);
        for h in self.histograms.iter_mut().filter(|h| h.count() > 0) {
            h.clear();
        }
    }

    /// A deterministic, key-ordered snapshot of every metric; a key that
    /// is both a counter and a histogram lists its counter first.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut rows: Vec<MetricRow> = Vec::with_capacity(self.len());
        rows.extend(
            self.live_counters()
                .map(|(slot, v)| MetricRow { key: self.key(slot), value: MetricValue::Counter(v) }),
        );
        rows.extend(self.live_histograms().map(|(slot, h)| MetricRow {
            key: self.key(slot),
            value: MetricValue::Histogram(HistogramSummary::from(h)),
        }));
        rows.sort_by_key(|a| a.key);
        MetricsSnapshot { rows }
    }
}

/// An ordered, self-describing export of the registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// All rows, sorted by key.
    pub rows: Vec<MetricRow>,
}

fn fmt_us(v: f64) -> String {
    format!("{v:.3}")
}

impl MetricsSnapshot {
    /// Number of metric keys.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no metrics were recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Distinct layer namespaces, sorted.
    pub fn layers(&self) -> Vec<&'static str> {
        let mut layers: Vec<&'static str> = self.rows.iter().map(|r| r.key.layer).collect();
        layers.sort_unstable();
        layers.dedup();
        layers
    }

    /// Looks up the value of `layer/name` (unlabeled).
    pub fn get(&self, layer: &str, name: &str) -> Option<&MetricValue> {
        self.rows
            .iter()
            .find(|r| r.key.layer == layer && r.key.name == name && r.key.label.is_empty())
            .map(|r| &r.value)
    }

    /// Counter value of `layer/name`, if it is a counter.
    pub fn counter(&self, layer: &str, name: &str) -> Option<u64> {
        match self.get(layer, name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Aligned plain-text table (the `repro metrics` output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = self.rows.iter().map(|r| r.key.render().len()).max().unwrap_or(0).max(24);
        for row in &self.rows {
            let key = row.key.render();
            match &row.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{key:<width$}  counter    {v}\n"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{key:<width$}  histogram  n={} mean={}us p50={}us p99={}us max={}us\n",
                        h.count,
                        fmt_us(h.mean_us),
                        fmt_us(h.p50_us),
                        fmt_us(h.p99_us),
                        fmt_us(h.max_us),
                    ));
                }
            }
        }
        out
    }

    /// CSV export (`key,kind,count,value,p50_us,p99_us,p999_us,max_us`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("key,kind,count,value,p50_us,p99_us,p999_us,max_us\n");
        for row in &self.rows {
            let key = row.key.render();
            match &row.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{key},counter,{v},{v},,,,\n"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{key},histogram,{},{},{},{},{},{}\n",
                        h.count,
                        fmt_us(h.mean_us),
                        fmt_us(h.p50_us),
                        fmt_us(h.p99_us),
                        fmt_us(h.p999_us),
                        fmt_us(h.max_us),
                    ));
                }
            }
        }
        out
    }

    /// JSON export (hand-rolled; the workspace has no JSON serializer).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\":[\n");
        for (i, row) in self.rows.iter().enumerate() {
            let key = row.key.render();
            let body = match &row.value {
                MetricValue::Counter(v) => {
                    format!("{{\"key\":\"{key}\",\"kind\":\"counter\",\"value\":{v}}}")
                }
                MetricValue::Histogram(h) => {
                    let exemplars = if h.exemplars.is_empty() {
                        String::new()
                    } else {
                        let rows: Vec<String> = h
                            .exemplars
                            .iter()
                            .map(|e| {
                                format!(
                                    "{{\"le_us\":{},\"value_us\":{},\"ping\":{}}}",
                                    fmt_us(e.le_us),
                                    fmt_us(e.value_us),
                                    e.ping
                                )
                            })
                            .collect();
                        format!(",\"exemplars\":[{}]", rows.join(","))
                    };
                    format!(
                        "{{\"key\":\"{key}\",\"kind\":\"histogram\",\"count\":{},\
                         \"mean_us\":{},\"p50_us\":{},\"p99_us\":{},\"p999_us\":{},\"max_us\":{}{exemplars}}}",
                        h.count,
                        fmt_us(h.mean_us),
                        fmt_us(h.p50_us),
                        fmt_us(h.p99_us),
                        fmt_us(h.p999_us),
                        fmt_us(h.max_us),
                    )
                }
            };
            out.push_str("  ");
            out.push_str(&body);
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    use sim::{BucketExemplar, SUB_BUCKETS};

    use crate::MetricId;

    fn count(reg: &mut MetricsRegistry, key: MetricKey, n: u64) {
        let slot = reg.slot(key);
        reg.add(slot, n);
    }

    fn record_ns(reg: &mut MetricsRegistry, key: MetricKey, ns: u64) {
        let slot = reg.slot(key);
        reg.observe_ns(slot, ns);
    }

    #[test]
    fn registry_merge_matches_sequential_recording() {
        let key = MetricKey::new("mac", "proc_us");
        let outside = MetricKey::new("sched", "backlog");
        let mut whole = MetricsRegistry::new();
        let mut left = MetricsRegistry::new();
        let mut right = MetricsRegistry::new();
        for ns in [100u64, 2_000, 300_000] {
            record_ns(&mut left, key, ns);
            record_ns(&mut whole, key, ns);
        }
        for ns in [5u64, 40_000] {
            record_ns(&mut right, key, ns);
            record_ns(&mut whole, key, ns);
        }
        count(&mut left, key, 2);
        count(&mut right, key, 3);
        count(&mut whole, key, 5);
        // An appended key only the right side has, and an appended counter
        // touched by zero only the left side has.
        count(&mut right, outside, 7);
        count(&mut whole, outside, 7);
        count(&mut left, MetricKey::new("a", "b"), 0);
        count(&mut whole, MetricKey::new("a", "b"), 0);
        left.merge(&right);
        assert_eq!(left.snapshot(), whole.snapshot());
    }

    #[test]
    fn histogram_merge_with_empty_sides() {
        let mut a = LogLinearHistogram::new();
        let mut b = LogLinearHistogram::new();
        a.merge(&b); // empty ⊕ empty
        assert_eq!(a.count(), 0);
        b.record(42);
        a.merge(&b); // empty ⊕ filled
        assert_eq!((a.count(), a.min(), a.max()), (1, 42, 42));
        a.merge(&LogLinearHistogram::new()); // filled ⊕ empty
        assert_eq!((a.count(), a.min(), a.max()), (1, 42, 42));
    }

    #[test]
    fn key_render_forms() {
        assert_eq!(MetricKey::new("mac", "harq_retx").render(), "mac/harq_retx");
        assert_eq!(MetricKey::labeled("radio", "submit_us", "ue").render(), "radio/submit_us{ue}");
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB_BUCKETS {
            let (lo, hi) = LogLinearHistogram::bucket_bounds(LogLinearHistogram::index_of(v));
            assert_eq!((lo, hi), (v, v + 1));
        }
    }

    #[test]
    fn bucket_indices_are_contiguous_across_octave_boundary() {
        assert_eq!(
            LogLinearHistogram::index_of(SUB_BUCKETS - 1) + 1,
            LogLinearHistogram::index_of(SUB_BUCKETS)
        );
    }

    #[test]
    fn quantiles_track_recorded_values() {
        let mut h = LogLinearHistogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1_000); // 1..=1000 µs in ns
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.50);
        // Log-linear resolution: within 1/16 of the true 500_000 ns.
        assert!((p50 as f64 - 500_000.0).abs() / 500_000.0 <= 1.0 / 16.0 + 1e-9, "p50={p50}");
        let p100 = h.quantile(1.0);
        assert!(p100 <= 1_000_000 && p100 as f64 >= 1_000_000.0 * (1.0 - 1.0 / 16.0));
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.min(), 1_000);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = LogLinearHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn registry_snapshot_is_ordered_and_complete() {
        let mut reg = MetricsRegistry::new();
        count(&mut reg, MetricKey::new("mac", "harq_retx"), 2);
        count(&mut reg, MetricKey::new("mac", "harq_retx"), 1);
        count(&mut reg, MetricKey::new("channel", "loss_events"), 1);
        record_ns(&mut reg, MetricKey::new("radio", "submit_us"), 7_000);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.layers(), vec!["channel", "mac", "radio"]);
        assert_eq!(snap.counter("mac", "harq_retx"), Some(3));
        let keys: Vec<String> = snap.rows.iter().map(|r| r.key.render()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert!(snap.render().contains("mac/harq_retx"));
        assert!(snap.to_csv().starts_with("key,kind,"));
        assert!(snap.to_json().contains("\"kind\":\"histogram\""));
    }

    #[test]
    fn exemplars_keep_the_largest_value_with_smallest_ping_tiebreak() {
        let mut h = LogLinearHistogram::new();
        h.record_with_exemplar(100_000, 7);
        h.record_with_exemplar(101_000, 3); // same bucket, larger value wins
        h.record_with_exemplar(101_000, 9); // tie on value: smaller ping stays
        h.record_with_exemplar(5, 1); // exact low bucket
        let got: Vec<(usize, BucketExemplar)> = h.exemplars().collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], (5, BucketExemplar { value: 5, ping: 1 }));
        assert_eq!(got[1].1, BucketExemplar { value: 101_000, ping: 3 });
    }

    #[test]
    fn exemplar_merge_is_order_independent() {
        let mut a = LogLinearHistogram::new();
        let mut b = LogLinearHistogram::new();
        a.record_with_exemplar(2_000, 10);
        a.record_with_exemplar(900_000, 4);
        b.record_with_exemplar(2_100, 2);
        b.record_with_exemplar(900_000, 1);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        let left: Vec<_> = ab.exemplars().collect();
        let right: Vec<_> = ba.exemplars().collect();
        assert_eq!(left, right);
    }

    #[test]
    fn exemplars_flow_into_snapshot_json() {
        let mut reg = MetricsRegistry::new();
        reg.observe_ns_with_exemplar(metric::JOURNEY_RTT.slot(), 123_456, 42);
        record_ns(&mut reg, MetricKey::new("mac", "proc_us"), 5_000);
        let snap = reg.snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"exemplars\":[{\"le_us\":"), "json: {json}");
        assert!(json.contains("\"ping\":42"));
        // Histograms recorded without ping ids carry no exemplar array.
        let mac_row = json.lines().find(|l| l.contains("mac/proc_us")).unwrap();
        assert!(!mac_row.contains("exemplars"));
    }

    #[test]
    fn key_order_is_the_byte_order_of_layer_name_label() {
        let short = ["", "a", "b"];
        let mut keys = VOCABULARY.to_vec();
        for layer in short {
            for name in short {
                keys.extend(short.map(|label| MetricKey { layer, name, label }));
            }
        }
        let bytes = |k: &MetricKey| (k.layer.as_bytes(), k.name.as_bytes(), k.label.as_bytes());
        for a in &keys {
            for b in &keys {
                assert_eq!(a.cmp(b), bytes(a).cmp(&bytes(b)), "{a:?} against {b:?}");
                assert_eq!(a == b, bytes(a) == bytes(b), "{a:?} against {b:?}");
            }
        }
    }

    #[test]
    fn a_counter_touched_by_zero_is_present_and_an_empty_histogram_is_not() {
        let mut reg = MetricsRegistry::new();
        reg.add(metric::MAC_HARQ_RETX.slot(), 0);
        count(&mut reg, MetricKey::new("phy", "walk_us"), 0);
        let slot = reg.slot(MetricKey::new("phy", "other_us"));
        reg.observe_ns(slot, 5);
        reg.clear();
        reg.add(slot, 0);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.counter("phy", "other_us"), Some(0));
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.layers(), vec!["phy"]);
    }

    /// The registry as it was before dense slots: one `BTreeMap` per kind.
    #[derive(Debug, Clone, Default)]
    struct Oracle {
        counters: BTreeMap<MetricKey, u64>,
        histograms: BTreeMap<MetricKey, LogLinearHistogram>,
    }

    impl Oracle {
        fn live_histograms(&self) -> impl Iterator<Item = (&MetricKey, &LogLinearHistogram)> {
            self.histograms.iter().filter(|(_, h)| h.count() > 0)
        }

        fn merge(&mut self, other: &Oracle) {
            for (&key, &n) in &other.counters {
                *self.counters.entry(key).or_insert(0) += n;
            }
            for (&key, h) in other.live_histograms() {
                self.histograms.entry(key).or_default().merge(h);
            }
        }

        fn clear(&mut self) {
            self.counters.clear();
            self.histograms.values_mut().for_each(LogLinearHistogram::clear);
        }

        fn snapshot(&self) -> MetricsSnapshot {
            let mut rows: Vec<MetricRow> = self
                .counters
                .iter()
                .map(|(&key, &v)| MetricRow { key, value: MetricValue::Counter(v) })
                .collect();
            rows.extend(self.live_histograms().map(|(&key, h)| MetricRow {
                key,
                value: MetricValue::Histogram(HistogramSummary::from(h)),
            }));
            rows.sort_by_key(|a| a.key);
            MetricsSnapshot { rows }
        }
    }

    /// How an op names its key: by vocabulary id, or by strings.
    #[derive(Debug, Clone, Copy)]
    enum Name {
        Id(MetricId),
        Key(MetricKey),
    }

    impl Name {
        fn key(self) -> MetricKey {
            match self {
                Name::Id(id) => id.key(),
                Name::Key(key) => key,
            }
        }

        fn slot(self, reg: &mut MetricsRegistry) -> usize {
            match self {
                Name::Id(id) => id.slot(),
                Name::Key(key) => reg.slot(key),
            }
        }
    }

    const NAMES: [Name; 7] = [
        Name::Id(metric::MAC_HARQ_RETX),
        Name::Id(metric::JOURNEY_RTT),
        Name::Id(metric::AUDIT_TERM_US_CORE),
        // A vocabulary key spelled through the string API.
        Name::Key(MetricKey { layer: "mac", name: "harq_retx", label: "" }),
        Name::Key(MetricKey { layer: "phy", name: "walk_us", label: "" }),
        Name::Key(MetricKey { layer: "radio", name: "submit_us", label: "ue" }),
        Name::Key(MetricKey { layer: "a", name: "", label: "" }),
    ];

    /// One op on the parent (`true`) or the child: `(kind, name, value)`.
    type Op = (bool, u8, usize, u64);

    fn play(
        reg: &mut [MetricsRegistry; 2],
        oracle: &mut [Oracle; 2],
        &(on_parent, kind, name, value): &Op,
    ) {
        let name = NAMES[name];
        let (key, which) = (name.key(), usize::from(on_parent));
        match kind {
            0 => {
                let slot = name.slot(&mut reg[which]);
                reg[which].add(slot, value % 3);
                *oracle[which].counters.entry(key).or_insert(0) += value % 3;
            }
            1 => {
                let slot = name.slot(&mut reg[which]);
                reg[which].observe_ns(slot, value);
                oracle[which].histograms.entry(key).or_default().record(value);
            }
            2 => {
                let slot = name.slot(&mut reg[which]);
                reg[which].observe_ns_with_exemplar(slot, value, value % 17);
                oracle[which]
                    .histograms
                    .entry(key)
                    .or_default()
                    .record_with_exemplar(value, value % 17);
            }
            3 => {
                let [child, parent] = reg;
                parent.merge(child);
                let [child, parent] = oracle;
                parent.merge(child);
            }
            _ => {
                reg[which].clear();
                oracle[which].clear();
            }
        }
    }

    proptest! {
        #[test]
        fn dense_slots_snapshot_like_the_btree_registry(
            ops in prop::collection::vec(
                (any::<bool>(), 0u8..5, 0usize..NAMES.len(), 0u64..5_000_000),
                0..200,
            ),
        ) {
            let mut reg = [MetricsRegistry::new(), MetricsRegistry::new()];
            let mut oracle = [Oracle::default(), Oracle::default()];
            for op in &ops {
                play(&mut reg, &mut oracle, op);
            }
            for (reg, oracle) in reg.iter().zip(&oracle) {
                let want = oracle.snapshot();
                prop_assert_eq!(reg.len(), want.len());
                prop_assert_eq!(reg.layers(), want.layers());
                prop_assert_eq!(reg.snapshot(), want);
            }
        }
    }

    proptest! {
        #[test]
        fn bucket_bounds_contain_value(v in 0u64..u64::MAX / 2) {
            let idx = LogLinearHistogram::index_of(v);
            let (lo, hi) = LogLinearHistogram::bucket_bounds(idx);
            prop_assert!(lo <= v && v < hi, "v={} not in [{}, {})", v, lo, hi);
        }

        #[test]
        fn bucket_width_bounds_relative_error(v in SUB_BUCKETS..u64::MAX / 2) {
            let (lo, hi) = LogLinearHistogram::bucket_bounds(LogLinearHistogram::index_of(v));
            // Width of the containing bucket never exceeds lo / SUB_BUCKETS
            // (6.25% relative resolution).
            prop_assert!(hi - lo <= lo / SUB_BUCKETS + 1);
        }

        #[test]
        fn bucket_index_is_monotone(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
            let (lo, hi) = (a.min(b), a.max(b));
            prop_assert!(LogLinearHistogram::index_of(lo) <= LogLinearHistogram::index_of(hi));
        }

        #[test]
        fn quantile_within_recorded_range(vs in prop::collection::vec(0u64..10_000_000, 1..200), q in 0.0f64..1.0) {
            let mut h = LogLinearHistogram::new();
            for &v in &vs {
                h.record(v);
            }
            let est = h.quantile(q);
            let lo = *vs.iter().min().unwrap();
            let hi = *vs.iter().max().unwrap();
            prop_assert!(est >= lo && est <= hi, "quantile {} outside [{}, {}]", est, lo, hi);
        }
    }
}
