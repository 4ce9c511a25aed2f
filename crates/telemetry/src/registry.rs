//! The metrics registry: counters, gauges and log-linear histograms keyed
//! by `(layer, name, label)`.
//!
//! Keys are static strings so that recording on the hot path allocates
//! nothing; `BTreeMap` storage keeps every snapshot deterministically
//! ordered, which the CSV/JSON exporters and the golden-file tests rely
//! on. Histograms store nanosecond values in log-linear buckets
//! (HdrHistogram-style: [`sim::SUB_BUCKETS`] linear sub-buckets per power
//! of two), bounding the relative quantile error at `1/SUB_BUCKETS` while
//! keeping memory constant regardless of sample count.

use std::collections::BTreeMap;

use sim::Duration;
// The histogram itself lives in `sim::stats` (scale experiments record
// through it directly, behind `sim::Recording`); re-exported here so
// telemetry callers keep their established paths.
pub use sim::LogLinearHistogram;

/// A `(layer, name, label)` metric key, e.g. `mac/harq_retx` or
/// `radio/submit_us{ue}`. The label discriminates instances of the same
/// metric (direction, node, link) and is empty for singleton metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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

/// Point-in-time value of one metric, as exported in snapshots.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic event count.
    Counter(u64),
    /// Last-write-wins instantaneous value.
    Gauge(f64),
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
/// handle).
#[derive(Debug, Clone, Default)]
pub(crate) struct MetricsRegistry {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, LogLinearHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub(crate) fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `n` to the counter at `key`.
    pub(crate) fn count(&mut self, key: MetricKey, n: u64) {
        *self.counters.entry(key).or_insert(0) += n;
    }

    /// Sets the gauge at `key`.
    pub(crate) fn gauge(&mut self, key: MetricKey, value: f64) {
        self.gauges.insert(key, value);
    }

    /// Records `ns` into the histogram at `key`.
    pub(crate) fn record_ns(&mut self, key: MetricKey, ns: u64) {
        self.histograms.entry(key).or_default().record(ns);
    }

    /// Records `ns` into the histogram at `key`, attaching `ping` as the
    /// bucket's exemplar (see [`LogLinearHistogram::record_with_exemplar`]).
    pub(crate) fn record_ns_with_exemplar(&mut self, key: MetricKey, ns: u64, ping: u64) {
        self.histograms.entry(key).or_default().record_with_exemplar(ns, ping);
    }

    /// Records a duration into the histogram at `key`.
    pub(crate) fn record(&mut self, key: MetricKey, d: Duration) {
        self.record_ns(key, d.as_nanos());
    }

    /// The histograms holding at least one value. An empty one is a key a
    /// recycled registry recorded in an earlier life: it is absent.
    fn live_histograms(&self) -> impl Iterator<Item = (&MetricKey, &LogLinearHistogram)> {
        self.histograms.iter().filter(|(_, h)| h.count() > 0)
    }

    /// Number of distinct metric keys.
    pub(crate) fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.live_histograms().count()
    }

    /// Folds another registry into this one: counters add, histograms
    /// merge bucket-wise, gauges are last-write-wins (`other` is the later
    /// write — reducers fold shards in index order, so the surviving gauge
    /// is the one the highest-indexed shard set, exactly as a sequential
    /// run of the same shards would leave it).
    pub(crate) fn merge(&mut self, other: &MetricsRegistry) {
        for (&key, &n) in &other.counters {
            self.count(key, n);
        }
        for (&key, &v) in &other.gauges {
            self.gauge(key, v);
        }
        for (&key, h) in other.live_histograms() {
            self.histograms.entry(key).or_default().merge(h);
        }
    }

    /// Empties the registry for its next life: counters and gauges go,
    /// each histogram is cleared in place so its buckets' storage stays.
    pub(crate) fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.values_mut().for_each(LogLinearHistogram::clear);
    }

    /// A deterministic, key-ordered snapshot of every metric.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut rows: Vec<MetricRow> = Vec::with_capacity(self.len());
        rows.extend(
            self.counters
                .iter()
                .map(|(&key, &v)| MetricRow { key, value: MetricValue::Counter(v) }),
        );
        rows.extend(
            self.gauges.iter().map(|(&key, &v)| MetricRow { key, value: MetricValue::Gauge(v) }),
        );
        rows.extend(self.live_histograms().map(|(&key, h)| MetricRow {
            key,
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
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{key:<width$}  gauge      {v:.3}\n"));
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
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{key},gauge,1,{v:.6},,,,\n"));
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
                MetricValue::Gauge(v) => {
                    format!("{{\"key\":\"{key}\",\"kind\":\"gauge\",\"value\":{v:.6}}}")
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
    use sim::{BucketExemplar, SUB_BUCKETS};

    #[test]
    fn registry_merge_matches_sequential_recording() {
        let key = MetricKey::new("mac", "proc_us");
        let gauge = MetricKey::new("sched", "backlog");
        let mut whole = MetricsRegistry::new();
        let mut left = MetricsRegistry::new();
        let mut right = MetricsRegistry::new();
        for ns in [100u64, 2_000, 300_000] {
            left.record_ns(key, ns);
            whole.record_ns(key, ns);
        }
        for ns in [5u64, 40_000] {
            right.record_ns(key, ns);
            whole.record_ns(key, ns);
        }
        left.count(key, 2);
        right.count(key, 3);
        whole.count(key, 5);
        left.gauge(gauge, 1.0);
        right.gauge(gauge, 7.0);
        whole.gauge(gauge, 1.0);
        whole.gauge(gauge, 7.0);
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
        reg.count(MetricKey::new("mac", "harq_retx"), 2);
        reg.count(MetricKey::new("mac", "harq_retx"), 1);
        reg.gauge(MetricKey::new("channel", "loss_rate"), 0.01);
        reg.record(MetricKey::new("radio", "submit_us"), Duration::from_micros(7));
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
        reg.record_ns_with_exemplar(MetricKey::new("journey", "rtt"), 123_456, 42);
        reg.record_ns(MetricKey::new("mac", "proc_us"), 5_000);
        let snap = reg.snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"exemplars\":[{\"le_us\":"), "json: {json}");
        assert!(json.contains("\"ping\":42"));
        // Histograms recorded without ping ids carry no exemplar array.
        let mac_row = json.lines().find(|l| l.contains("mac/proc_us")).unwrap();
        assert!(!mac_row.contains("exemplars"));
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
