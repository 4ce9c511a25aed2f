//! Streaming statistics, histograms and latency recorders.
//!
//! Every experiment in the benchmark harness reduces to one of three
//! artifacts: a `(mean, std)` pair (Table 2), a probability histogram
//! (Fig 6), or a latency-vs-parameter series (Fig 5). This module provides
//! the numerically careful primitives for all three.

use crate::time::Duration;

/// Welford online mean/variance accumulator.
///
/// Numerically stable for long runs (naive sum-of-squares loses precision
/// after ~10⁷ microsecond-scale samples, which a 5G latency sweep easily
/// exceeds).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamingStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl StreamingStats {
    /// Creates an empty accumulator.
    pub fn new() -> StreamingStats {
        StreamingStats { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub(crate) fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance with Bessel's correction (0 for fewer than two
    /// observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`NaN` when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (`NaN` when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one (parallel sweeps).
    pub fn merge(&mut self, other: &StreamingStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n;
        self.n += other.n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A fixed-bin probability histogram over `[lo, hi)`.
///
/// Matches the presentation of the paper's Fig 6: x = one-way latency,
/// y = probability per bin. Out-of-range samples are counted in saturated
/// edge bins so that probabilities still sum to one.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    count: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range is empty");
        Histogram { lo, hi, bins: vec![0; bins], count: 0 }
    }

    /// Adds one observation; values outside `[lo, hi)` clamp to edge bins.
    pub fn push(&mut self, x: f64) {
        let nbins = self.bins.len();
        let idx = if x < self.lo {
            0
        } else if x >= self.hi {
            nbins - 1
        } else {
            let frac = (x - self.lo) / (self.hi - self.lo);
            ((frac * nbins as f64) as usize).min(nbins - 1)
        };
        self.bins[idx] += 1;
        self.count += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Width of one bin.
    pub(crate) fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.bins.len() as f64
    }

    /// Iterator over `(bin_center, probability)` pairs.
    pub fn probabilities(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let w = self.bin_width();
        let total = self.count.max(1) as f64;
        self.bins
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.lo + (i as f64 + 0.5) * w, c as f64 / total))
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Merges another histogram into this one (parallel sweeps).
    ///
    /// # Panics
    /// Panics if the two histograms have different ranges or bin counts —
    /// merging is only meaningful shard-to-shard within one sweep.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.bins.len() == other.bins.len(),
            "histogram layouts differ"
        );
        for (b, o) in self.bins.iter_mut().zip(&other.bins) {
            *b += o;
        }
        self.count += other.count;
    }

    /// Fraction of observations strictly below `x` (linear interpolation
    /// inside the containing bin).
    pub fn cdf(&self, x: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if x <= self.lo {
            return 0.0;
        }
        if x >= self.hi {
            return 1.0;
        }
        let w = self.bin_width();
        let pos = (x - self.lo) / w;
        let full = pos.floor() as usize;
        let frac = pos - full as f64;
        let below: u64 = self.bins[..full].iter().sum();
        let partial = self.bins.get(full).copied().unwrap_or(0) as f64 * frac;
        (below as f64 + partial) / self.count as f64
    }
}

/// Records every latency sample for exact quantiles, plus streaming moments.
///
/// Storing all samples is affordable here (a figure-scale experiment is
/// 10⁴–10⁶ samples) and buys exact percentiles — important because URLLC
/// reliability statements are about the 99.999th percentile, where
/// approximate sketches are least trustworthy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyRecorder {
    samples_us: Vec<f64>,
    stats: StreamingStats,
    sorted: bool,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> LatencyRecorder {
        LatencyRecorder { samples_us: Vec::new(), stats: StreamingStats::new(), sorted: true }
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: Duration) {
        let us = d.as_micros_f64();
        self.samples_us.push(us);
        self.stats.push(us);
        self.sorted = false;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_us.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples_us.sort_by(|a, b| a.partial_cmp(b).expect("latency is never NaN"));
            self.sorted = true;
        }
    }

    /// Exact `q`-quantile in microseconds (`q` in `[0, 1]`), using the
    /// nearest-rank method.
    ///
    /// # Panics
    /// Panics when empty.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        self.try_quantile_us(q).expect("quantile of empty recorder")
    }

    /// Exact `q`-quantile like [`quantile_us`](Self::quantile_us), but
    /// `None` when empty — use in report paths so an all-faulted sweep
    /// (every sample lost) can't abort mid-report.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn try_quantile_us(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.samples_us.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let n = self.samples_us.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.samples_us[rank - 1])
    }

    /// Fraction of samples at or below `deadline` — the paper's
    /// "reliability" metric (e.g. fraction of packets meeting 0.5 ms).
    pub fn fraction_within(&mut self, deadline: Duration) -> f64 {
        if self.samples_us.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let d = deadline.as_micros_f64();
        let idx = self.samples_us.partition_point(|&x| x <= d);
        idx as f64 / self.samples_us.len() as f64
    }

    /// Builds a probability histogram of the samples (values in
    /// milliseconds, matching Fig 6's axes).
    pub fn histogram_ms(&self, lo_ms: f64, hi_ms: f64, bins: usize) -> Histogram {
        let mut h = Histogram::new(lo_ms, hi_ms, bins);
        for &us in &self.samples_us {
            h.push(us / 1_000.0);
        }
        h
    }

    /// Merges another recorder into this one (parallel sweeps).
    ///
    /// When neither side has been sorted yet (the shard-reduction case:
    /// recorders fresh from `record()`), samples are appended in the other
    /// recorder's order, so merging shards in index order reproduces the
    /// raw-sample sequence a sequential run of the same shard schedule
    /// would record. When *both* sides are already sorted (quantiles were
    /// taken before merging), a linear two-run merge keeps the `sorted`
    /// flag instead of forcing the next quantile into an O(n log n)
    /// re-sort; the raw order then becomes value order, which is the only
    /// order a sorted recorder can promise anyway.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        if other.samples_us.is_empty() {
            return;
        }
        if self.samples_us.is_empty() {
            self.samples_us.extend_from_slice(&other.samples_us);
            self.sorted = other.sorted;
            self.stats.merge(&other.stats);
            return;
        }
        if self.sorted && other.sorted {
            let a = &self.samples_us;
            let b = &other.samples_us;
            let mut merged = Vec::with_capacity(a.len() + b.len());
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                if a[i] <= b[j] {
                    merged.push(a[i]);
                    i += 1;
                } else {
                    merged.push(b[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&a[i..]);
            merged.extend_from_slice(&b[j..]);
            self.samples_us = merged;
            self.stats.merge(&other.stats);
            return;
        }
        self.sorted = false;
        self.samples_us.extend_from_slice(&other.samples_us);
        self.stats.merge(&other.stats);
    }

    /// Summary of the recorded samples.
    ///
    /// Quantiles go through [`try_quantile_us`](Self::try_quantile_us): an
    /// all-faulted sweep (zero deliveries) yields `Summary::default()`
    /// instead of panicking mid-report.
    pub fn summary(&mut self) -> Summary {
        let (Some(p50_us), Some(p99_us), Some(p999_us)) =
            (self.try_quantile_us(0.50), self.try_quantile_us(0.99), self.try_quantile_us(0.999))
        else {
            return Summary::default();
        };
        Summary {
            count: self.count(),
            mean_us: self.stats.mean(),
            std_us: self.stats.std(),
            min_us: self.stats.min(),
            max_us: self.stats.max(),
            p50_us,
            p99_us,
            p999_us,
        }
    }

    /// Raw samples in microseconds (unsorted order not guaranteed).
    pub fn samples_us(&self) -> &[f64] {
        &self.samples_us
    }
}

/// A compact latency summary for reports and EXPERIMENTS.md tables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Mean, µs.
    pub mean_us: f64,
    /// Standard deviation, µs.
    pub std_us: f64,
    /// Minimum, µs.
    pub min_us: f64,
    /// Maximum, µs.
    pub max_us: f64,
    /// Median, µs.
    pub p50_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// 99.9th percentile, µs.
    pub p999_us: f64,
}

/// Linear sub-buckets per power of two (relative resolution 1/16 ≈ 6.25%).
pub const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;
const SUB_BUCKET_BITS: u32 = 4;

/// An OpenMetrics-style exemplar attached to one histogram bucket: the
/// identity of a concrete ping whose value landed there, so a quantile in
/// an aggregate report can be traced back to a replayable exemplar in
/// `results/tail_exemplars.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketExemplar {
    /// The recorded value (ns).
    pub value: u64,
    /// The ping (packet id) that produced it.
    pub ping: u64,
}

impl BucketExemplar {
    /// Deterministic keep rule: the larger value wins, ties broken toward
    /// the smaller ping id. Total order ⇒ commutative and associative, so
    /// shard merges are worker-count invariant.
    fn better_than(self, other: BucketExemplar) -> bool {
        self.value > other.value || (self.value == other.value && self.ping < other.ping)
    }
}

/// A log-linear histogram over `u64` values (nanoseconds by convention).
///
/// Values below [`SUB_BUCKETS`]² land in exact unit-width buckets; above
/// that, each power of two is split into [`SUB_BUCKETS`] linear
/// sub-buckets, so any recorded value is reported with at most
/// `1/SUB_BUCKETS` relative error. The bucket vector grows on demand and
/// tops out at ~1000 entries for the full `u64` range — memory is constant
/// regardless of sample count, which is what lets million-UE sweeps run in
/// fixed memory (the telemetry registry and every scale experiment record
/// through this type).
#[derive(Debug, Clone, PartialEq)]
pub struct LogLinearHistogram {
    buckets: Vec<u64>,
    exemplars: Vec<Option<BucketExemplar>>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// The same empty histogram as [`LogLinearHistogram::new`]: a derived
/// default would start `min` at 0, and `quantile` clamps to `min`.
impl Default for LogLinearHistogram {
    fn default() -> LogLinearHistogram {
        LogLinearHistogram::new()
    }
}

impl LogLinearHistogram {
    /// An empty histogram.
    pub fn new() -> LogLinearHistogram {
        LogLinearHistogram {
            buckets: Vec::new(),
            exemplars: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Empties the histogram in place, keeping its buckets' storage: a
    /// cleared histogram records and merges exactly like [`new`](Self::new).
    pub fn clear(&mut self) {
        self.buckets.clear();
        self.exemplars.clear();
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Bucket index for `value`.
    pub fn index_of(value: u64) -> usize {
        if value < SUB_BUCKETS {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros() as u64;
        let octave = msb - SUB_BUCKET_BITS as u64 + 1;
        let sub = (value >> (msb - SUB_BUCKET_BITS as u64)) & (SUB_BUCKETS - 1);
        (octave * SUB_BUCKETS + sub) as usize
    }

    /// Half-open range `[lo, hi)` of values mapping to bucket `index`.
    /// The topmost bucket's upper bound saturates at `u64::MAX`, so the
    /// largest representable values land in a (closed) saturated bin
    /// rather than overflowing.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        let index = index as u64;
        if index < SUB_BUCKETS {
            return (index, index + 1);
        }
        let octave = index / SUB_BUCKETS;
        let sub = index % SUB_BUCKETS;
        let msb = octave + SUB_BUCKET_BITS as u64 - 1;
        let width = 1u64 << (msb - SUB_BUCKET_BITS as u64);
        let lo = (SUB_BUCKETS + sub) << (msb - SUB_BUCKET_BITS as u64);
        (lo, lo.saturating_add(width))
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let idx = Self::index_of(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records one value and attaches a [`BucketExemplar`] naming the ping
    /// that produced it. Per bucket, the exemplar with the largest value
    /// survives (ties → smaller ping id), so merges stay deterministic.
    pub fn record_with_exemplar(&mut self, value: u64, ping: u64) {
        self.record(value);
        self.attach_exemplar(Self::index_of(value), BucketExemplar { value, ping });
    }

    fn attach_exemplar(&mut self, idx: usize, ex: BucketExemplar) {
        if idx >= self.exemplars.len() {
            self.exemplars.resize(idx + 1, None);
        }
        match self.exemplars[idx] {
            Some(cur) if !ex.better_than(cur) => {}
            _ => self.exemplars[idx] = Some(ex),
        }
    }

    /// Bucket exemplars, as `(bucket_index, exemplar)` in bucket order.
    pub fn exemplars(&self) -> impl Iterator<Item = (usize, BucketExemplar)> + '_ {
        self.exemplars.iter().enumerate().filter_map(|(i, ex)| ex.map(|e| (i, e)))
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Adds another histogram's buckets into this one. Buckets are fixed
    /// by value, not by insertion order, so the merge is commutative.
    pub fn merge(&mut self, other: &LogLinearHistogram) {
        if other.count == 0 {
            return;
        }
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        for (idx, ex) in other.exemplars() {
            self.attach_exemplar(idx, ex);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Nearest-rank `q`-quantile (`q` in `[0, 1]`), reported as the lower
    /// bound of the containing bucket — conservative, and exact for values
    /// below [`SUB_BUCKETS`]. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_bounds(idx).0.max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// Fraction of recorded values `<= value` (linear interpolation inside
    /// the containing bucket) — the histogram counterpart of
    /// [`LatencyRecorder::fraction_within`].
    pub fn fraction_le(&self, value: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let idx = Self::index_of(value);
        let mut below = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if i < idx {
                below += c;
            } else {
                let (lo, hi) = Self::bucket_bounds(i);
                let frac = (value - lo + 1) as f64 / (hi - lo).max(1) as f64;
                return (below as f64 + c as f64 * frac.min(1.0)) / self.count as f64;
            }
        }
        below as f64 / self.count as f64
    }

    /// Bytes retained by the bucket storage — constant once the value
    /// range has been seen, independent of how many samples were recorded.
    pub(crate) fn mem_bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<u64>()
            + self.exemplars.capacity() * std::mem::size_of::<Option<BucketExemplar>>()
            + std::mem::size_of::<LogLinearHistogram>()
    }
}

/// How an experiment records its latency series.
///
/// Figure-scale runs (10⁴–10⁶ samples) keep every sample for *exact*
/// percentiles — URLLC reliability statements live at the 99.999th
/// percentile, where approximate sketches are least trustworthy. Scale
/// runs (multi-UE, overload, multi-cell sweeps pushing to 10⁵–10⁶ UEs)
/// cannot afford per-sample storage; they record into a fixed-memory
/// [`LogLinearHistogram`] with ≤ `1/`[`SUB_BUCKETS`] relative quantile
/// error. Both modes expose the same recording/query surface, so engines
/// are written once against `Recording` and callers pick the trade.
#[derive(Debug, Clone, PartialEq)]
pub enum Recording {
    /// Every sample kept ([`LatencyRecorder`]): exact quantiles, memory
    /// grows linearly with the sample count.
    Exact(LatencyRecorder),
    /// Log-linear buckets ([`LogLinearHistogram`]): bounded relative
    /// error, memory constant regardless of sample count.
    Fixed(LogLinearHistogram),
}

impl Default for Recording {
    fn default() -> Recording {
        Recording::Exact(LatencyRecorder::new())
    }
}

impl Recording {
    /// An exact per-sample recording (figure-scale experiments).
    pub fn exact() -> Recording {
        Recording::Exact(LatencyRecorder::new())
    }

    /// A fixed-memory log-linear recording (scale experiments).
    pub fn fixed() -> Recording {
        Recording::Fixed(LogLinearHistogram::new())
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: Duration) {
        match self {
            Recording::Exact(r) => r.record(d),
            Recording::Fixed(h) => h.record(d.as_nanos()),
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        match self {
            Recording::Exact(r) => r.count(),
            Recording::Fixed(h) => h.count(),
        }
    }

    /// Merges another recording into this one (parallel sweeps).
    ///
    /// # Panics
    /// Panics if the two sides use different modes — merging is only
    /// meaningful shard-to-shard within one sweep, and every shard of a
    /// sweep records the same way.
    pub fn merge(&mut self, other: &Recording) {
        match (self, other) {
            (Recording::Exact(a), Recording::Exact(b)) => a.merge(b),
            (Recording::Fixed(a), Recording::Fixed(b)) => a.merge(b),
            _ => panic!("recording modes differ (exact vs fixed)"),
        }
    }

    /// `q`-quantile in microseconds, `None` when empty. Exact mode is
    /// nearest-rank exact; fixed mode carries the histogram's bounded
    /// relative error.
    pub fn try_quantile_us(&mut self, q: f64) -> Option<f64> {
        match self {
            Recording::Exact(r) => r.try_quantile_us(q),
            Recording::Fixed(h) => {
                assert!((0.0..=1.0).contains(&q), "quantile out of range");
                if h.count() == 0 {
                    None
                } else {
                    Some(h.quantile(q) as f64 / 1_000.0)
                }
            }
        }
    }

    /// `q`-quantile in microseconds.
    ///
    /// # Panics
    /// Panics when empty.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        self.try_quantile_us(q).expect("quantile of empty recording")
    }

    /// Fraction of samples at or below `deadline`.
    pub fn fraction_within(&mut self, deadline: Duration) -> f64 {
        match self {
            Recording::Exact(r) => r.fraction_within(deadline),
            Recording::Fixed(h) => h.fraction_le(deadline.as_nanos()),
        }
    }

    /// Largest recorded sample, µs (0 when empty).
    pub fn max_us(&self) -> f64 {
        match self {
            Recording::Exact(r) => {
                if r.is_empty() {
                    0.0
                } else {
                    r.stats.max()
                }
            }
            Recording::Fixed(h) => h.max() as f64 / 1_000.0,
        }
    }

    /// Summary of the recorded samples ([`Summary::default`] when empty).
    /// In fixed mode the standard deviation is estimated from bucket
    /// midpoints (same bounded relative error as the quantiles).
    pub fn summary(&mut self) -> Summary {
        match self {
            Recording::Exact(r) => r.summary(),
            Recording::Fixed(h) => {
                if h.count() == 0 {
                    return Summary::default();
                }
                let mean_us = h.mean() / 1_000.0;
                let mut m2 = 0.0f64;
                for (i, &c) in h.buckets.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    let (lo, hi) = LogLinearHistogram::bucket_bounds(i);
                    let mid_us = (lo as f64 + hi as f64) / 2.0 / 1_000.0;
                    m2 += c as f64 * (mid_us - mean_us) * (mid_us - mean_us);
                }
                let std_us = if h.count() < 2 { 0.0 } else { (m2 / (h.count() - 1) as f64).sqrt() };
                Summary {
                    count: h.count(),
                    mean_us,
                    std_us,
                    min_us: h.min() as f64 / 1_000.0,
                    max_us: h.max() as f64 / 1_000.0,
                    p50_us: h.quantile(0.50) as f64 / 1_000.0,
                    p99_us: h.quantile(0.99) as f64 / 1_000.0,
                    p999_us: h.quantile(0.999) as f64 / 1_000.0,
                }
            }
        }
    }

    /// Bytes retained by the sample storage. For fixed recordings this is
    /// bounded by the histogram's ~1000-bucket ceiling no matter how many
    /// samples are recorded — the property the million-UE memory assertion
    /// checks; for exact recordings it grows with the sample count.
    pub fn mem_bytes(&self) -> usize {
        match self {
            Recording::Exact(r) => {
                r.samples_us.capacity() * std::mem::size_of::<f64>()
                    + std::mem::size_of::<LatencyRecorder>()
            }
            Recording::Fixed(h) => h.mem_bytes(),
        }
    }

    /// The underlying histogram, if this is a fixed recording.
    pub fn as_fixed(&self) -> Option<&LogLinearHistogram> {
        match self {
            Recording::Fixed(h) => Some(h),
            Recording::Exact(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut st = StreamingStats::new();
        for &x in &xs {
            st.push(x);
        }
        assert_eq!(st.count(), 8);
        assert!((st.mean() - 5.0).abs() < 1e-12);
        // Naive sample variance: sum((x-5)^2)/(n-1) = 32/7.
        assert!((st.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(st.min(), 2.0);
        assert_eq!(st.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let st = StreamingStats::new();
        assert_eq!(st.mean(), 0.0);
        assert_eq!(st.variance(), 0.0);
        assert!(st.min().is_nan());
        assert!(st.max().is_nan());
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 100.0 + 200.0).collect();
        let mut whole = StreamingStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = StreamingStats::new();
        let mut b = StreamingStats::new();
        for &x in &xs[..313] {
            a.push(x);
        }
        for &x in &xs[313..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-6);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty() {
        let mut a = StreamingStats::new();
        a.push(1.0);
        let b = StreamingStats::new();
        let before = a.clone();
        a.merge(&b);
        assert_eq!(a.count(), before.count());
        let mut c = StreamingStats::new();
        c.merge(&before);
        assert_eq!(c.count(), 1);
    }

    #[test]
    fn histogram_probabilities_sum_to_one() {
        let mut h = Histogram::new(0.0, 8.0, 80);
        for i in 0..1000 {
            h.push(i as f64 * 0.009); // 0..9, some out of range
        }
        let total: f64 = h.probabilities().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn histogram_out_of_range_clamps() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        h.push(-5.0);
        h.push(99.0);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[9], 1);
    }

    #[test]
    fn histogram_cdf() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        assert_eq!(h.cdf(0.0), 0.0);
        assert_eq!(h.cdf(10.0), 1.0);
        assert!((h.cdf(5.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn recorder_quantiles_exact() {
        let mut r = LatencyRecorder::new();
        for i in 1..=100u64 {
            r.record(Duration::from_micros(i));
        }
        assert_eq!(r.quantile_us(0.5), 50.0);
        assert_eq!(r.quantile_us(0.99), 99.0);
        assert_eq!(r.quantile_us(1.0), 100.0);
        assert_eq!(r.quantile_us(0.0), 1.0);
    }

    #[test]
    fn recorder_fraction_within() {
        let mut r = LatencyRecorder::new();
        for i in 1..=10u64 {
            r.record(Duration::from_micros(i * 100));
        }
        assert!((r.fraction_within(Duration::from_micros(500)) - 0.5).abs() < 1e-12);
        assert_eq!(r.fraction_within(Duration::from_micros(5)), 0.0);
        assert_eq!(r.fraction_within(Duration::from_millis(10)), 1.0);
    }

    #[test]
    fn recorder_summary() {
        let mut r = LatencyRecorder::new();
        r.record(Duration::from_micros(100));
        r.record(Duration::from_micros(300));
        let s = r.summary();
        assert_eq!(s.count, 2);
        assert!((s.mean_us - 200.0).abs() < 1e-12);
        assert_eq!(s.min_us, 100.0);
        assert_eq!(s.max_us, 300.0);
    }

    #[test]
    fn empty_recorder_summary_is_default() {
        let mut r = LatencyRecorder::new();
        assert_eq!(r.summary(), Summary::default());
    }

    #[test]
    fn recorder_merge_matches_sequential() {
        let mut whole = LatencyRecorder::new();
        let mut a = LatencyRecorder::new();
        let mut b = LatencyRecorder::new();
        for i in 1..=100u64 {
            let d = Duration::from_micros(i * 37 % 101);
            whole.record(d);
            if i <= 40 {
                a.record(d)
            } else {
                b.record(d)
            }
        }
        a.merge(&b);
        assert_eq!(a.samples_us(), whole.samples_us());
        assert_eq!(a.count(), whole.count());
        let (sa, sw) = (a.summary(), whole.summary());
        assert_eq!(sa.p50_us, sw.p50_us);
        assert_eq!(sa.p999_us, sw.p999_us);
        assert!((sa.mean_us - sw.mean_us).abs() < 1e-9);
        assert!((sa.std_us - sw.std_us).abs() < 1e-9);
    }

    #[test]
    fn recorder_merge_with_empty_sides() {
        let mut a = LatencyRecorder::new();
        a.merge(&LatencyRecorder::new());
        assert!(a.is_empty());
        assert_eq!(a.summary(), Summary::default());
        let mut b = LatencyRecorder::new();
        b.record(Duration::from_micros(5));
        a.merge(&b);
        assert_eq!(a.count(), 1);
        assert_eq!(a.quantile_us(0.5), 5.0);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new(0.0, 10.0, 10);
        let mut b = Histogram::new(0.0, 10.0, 10);
        a.push(1.5);
        b.push(1.5);
        b.push(8.5);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.counts()[1], 2);
        assert_eq!(a.counts()[8], 1);
    }

    #[test]
    fn try_quantile_is_none_on_empty_and_matches_otherwise() {
        let mut r = LatencyRecorder::new();
        assert_eq!(r.try_quantile_us(0.5), None);
        for i in 1..=100u64 {
            r.record(Duration::from_micros(i));
        }
        assert_eq!(r.try_quantile_us(0.5), Some(50.0));
        assert_eq!(r.try_quantile_us(0.99), Some(r.quantile_us(0.99)));
    }

    #[test]
    fn merge_of_two_sorted_recorders_stays_sorted_without_resort() {
        let mut a = LatencyRecorder::new();
        let mut b = LatencyRecorder::new();
        let mut whole = LatencyRecorder::new();
        for i in 0..200u64 {
            let d = Duration::from_micros(i * 71 % 197 + 1);
            whole.record(d);
            if i % 2 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
        }
        // Taking a quantile sorts each side.
        a.quantile_us(0.5);
        b.quantile_us(0.5);
        assert!(a.sorted && b.sorted);
        a.merge(&b);
        // The linear two-run merge keeps sortedness...
        assert!(a.sorted, "merge of two sorted recorders must stay sorted");
        assert!(a.samples_us().windows(2).all(|w| w[0] <= w[1]));
        // ...and loses nothing: same multiset, same quantiles and moments.
        let (sa, sw) = (a.summary(), whole.summary());
        assert_eq!(sa.count, sw.count);
        assert_eq!(sa.p50_us, sw.p50_us);
        assert_eq!(sa.p99_us, sw.p99_us);
        assert_eq!(sa.p999_us, sw.p999_us);
        assert!((sa.mean_us - sw.mean_us).abs() < 1e-9);
    }

    #[test]
    fn merge_into_empty_inherits_order_and_sortedness() {
        let mut src = LatencyRecorder::new();
        for d in [30u64, 10, 20] {
            src.record(Duration::from_micros(d));
        }
        let mut dst = LatencyRecorder::new();
        dst.merge(&src);
        // Raw order preserved (the shard-concatenation contract)...
        assert_eq!(dst.samples_us(), src.samples_us());
        // ...and the unsorted state carried over with it.
        assert!(!dst.sorted);
        src.quantile_us(1.0);
        let mut dst2 = LatencyRecorder::new();
        dst2.merge(&src);
        assert!(dst2.sorted);
    }

    #[test]
    fn recording_modes_share_one_surface() {
        let mut ex = Recording::exact();
        let mut fx = Recording::fixed();
        for i in 1..=1000u64 {
            let d = Duration::from_micros(i);
            ex.record(d);
            fx.record(d);
        }
        assert_eq!(ex.count(), fx.count());
        let (se, sf) = (ex.summary(), fx.summary());
        assert_eq!(se.count, sf.count);
        // Fixed mode tracks exact within the histogram's 1/16 resolution.
        assert!((se.p99_us - sf.p99_us).abs() / se.p99_us <= 1.0 / SUB_BUCKETS as f64 + 1e-9);
        assert!((se.mean_us - sf.mean_us).abs() < 1e-6);
        assert!((ex.fraction_within(Duration::from_micros(500)) - 0.5).abs() < 1e-9, "exact CDF");
        let f = fx.fraction_within(Duration::from_micros(500));
        assert!((f - 0.5).abs() < 0.1, "fixed CDF ≈ exact: {f}");
    }

    #[test]
    fn fixed_recording_memory_is_independent_of_sample_count() {
        let mut small = Recording::fixed();
        let mut large = Recording::fixed();
        // Identical value range (so bucket storage is comparable), 100×
        // the sample count.
        for i in 0..1_000u64 {
            small.record(Duration::from_micros(i % 1000 * 10 + 1));
        }
        for i in 0..100_000u64 {
            large.record(Duration::from_micros(i % 1000 * 10 + 1));
        }
        assert_eq!(small.mem_bytes(), large.mem_bytes());
        // An exact recording grows with the sample count.
        let mut exact = Recording::exact();
        let empty_bytes = exact.mem_bytes();
        for i in 0..100_000u64 {
            exact.record(Duration::from_micros(i + 1));
        }
        assert!(exact.mem_bytes() > empty_bytes + 100_000 * 8 / 2);
    }

    #[test]
    fn saturated_top_bin_handles_out_of_range_samples() {
        // The histogram has no configured range: the largest u64 values
        // land in the topmost (saturated) bin, whose upper bound clamps to
        // u64::MAX instead of overflowing.
        let top = LogLinearHistogram::index_of(u64::MAX);
        let (lo, hi) = LogLinearHistogram::bucket_bounds(top);
        assert_eq!(hi, u64::MAX, "top bucket's bound saturates");
        assert!(lo < hi);
        let mut h = LogLinearHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        // Quantiles stay inside the recorded range even for the saturated
        // bin, and the sum saturates rather than wrapping.
        let p100 = h.quantile(1.0);
        assert!(p100 >= lo);
        assert!(h.mean() <= u64::MAX as f64);
        assert!(h.fraction_le(u64::MAX) >= 1.0 - 1e-9);
        assert_eq!(h.fraction_le(0), 1.0 / 3.0);
        // The saturated bin merges like any other.
        let mut other = LogLinearHistogram::new();
        other.record(u64::MAX);
        h.merge(&other);
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn the_default_histogram_is_a_new_one() {
        assert_eq!(LogLinearHistogram::default(), LogLinearHistogram::new());
        let mut h = LogLinearHistogram::default();
        h.record(1_050_000);
        assert_eq!(h.quantile(0.5), 1_050_000);
    }

    #[test]
    fn a_cleared_histogram_equals_a_new_one_and_keeps_its_storage() {
        let mut h = LogLinearHistogram::new();
        h.record_with_exemplar(9_000_000, 4);
        h.record(12);
        let capacity = h.buckets.capacity();
        h.clear();
        assert_eq!(h, LogLinearHistogram::new());
        assert_eq!(h.buckets.capacity(), capacity);
        h.record_with_exemplar(700, 2);
        let mut fresh = LogLinearHistogram::new();
        fresh.record_with_exemplar(700, 2);
        assert_eq!(h, fresh);
    }

    mod recording_accuracy {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // ROADMAP item 1's guard: on runs small enough to afford both,
            // the fixed-memory histogram's quantiles track the exact
            // recorder within the log-linear resolution — from below
            // (bucket lower bound) and never by more than one bucket
            // width (1/SUB_BUCKETS relative).
            #[test]
            fn fixed_quantiles_track_exact_recorder(
                vs in prop::collection::vec(1u64..100_000_000u64, 1..400),
                q in 0.0f64..1.0,
            ) {
                let mut exact = Recording::exact();
                let mut fixed = Recording::fixed();
                for &v in &vs {
                    exact.record(Duration::from_nanos(v));
                    fixed.record(Duration::from_nanos(v));
                }
                let e = exact.quantile_us(q);
                let f = fixed.quantile_us(q);
                prop_assert!(f <= e + 1e-9, "fixed {f} above exact {e}");
                prop_assert!(
                    f >= e * (SUB_BUCKETS as f64 / (SUB_BUCKETS + 1) as f64) - 1e-9,
                    "fixed {f} more than one bucket below exact {e}"
                );
            }

            // Counts and means are not approximated at all.
            #[test]
            fn fixed_count_and_mean_are_exact(
                vs in prop::collection::vec(1u64..10_000_000u64, 1..200),
            ) {
                let mut exact = Recording::exact();
                let mut fixed = Recording::fixed();
                for &v in &vs {
                    exact.record(Duration::from_nanos(v));
                    fixed.record(Duration::from_nanos(v));
                }
                prop_assert_eq!(exact.count(), fixed.count());
                let (se, sf) = (exact.summary(), fixed.summary());
                prop_assert!((se.mean_us - sf.mean_us).abs() <= 1e-6 * se.mean_us.max(1.0));
            }

            // Fixed-mode merge is exactly commutative (bucket-wise adds),
            // so cell shards can reduce in any grouping.
            #[test]
            fn fixed_merge_is_commutative(
                xs in prop::collection::vec(1u64..10_000_000u64, 0..100),
                ys in prop::collection::vec(1u64..10_000_000u64, 0..100),
            ) {
                let mut a = Recording::fixed();
                let mut b = Recording::fixed();
                for &v in &xs { a.record(Duration::from_nanos(v)); }
                for &v in &ys { b.record(Duration::from_nanos(v)); }
                let mut ab = a.clone();
                ab.merge(&b);
                let mut ba = b.clone();
                ba.merge(&a);
                prop_assert_eq!(ab, ba);
            }
        }
    }
}
