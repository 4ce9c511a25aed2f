//! The measuring tools: a counting allocator, the peak-RSS reader, order
//! statistics, the result digest and the micro-benchmark loop.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The system allocator with a count of calls and requested bytes.
///
/// Installed as the global allocator in every run — timed and traced — so
/// both are the same program. The counters publish no other data, hence
/// `Relaxed`.
pub struct CountingAlloc {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

/// `(allocations, bytes requested)` since process start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCount {
    pub allocs: u64,
    pub bytes: u64,
}

impl AllocCount {
    /// What was allocated between `earlier` and `self`.
    pub fn since(self, earlier: AllocCount) -> AllocCount {
        AllocCount { allocs: self.allocs - earlier.allocs, bytes: self.bytes - earlier.bytes }
    }
}

impl CountingAlloc {
    pub const fn new() -> CountingAlloc {
        CountingAlloc { allocs: AtomicU64::new(0), bytes: AtomicU64::new(0) }
    }

    pub fn count(&self) -> AllocCount {
        AllocCount {
            allocs: self.allocs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    fn note(&self, size: usize) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    /// A `realloc` counts as one allocation of the new size: a growing
    /// `Vec` is charged for every buffer it asks for.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Extracts `VmHWM` (peak resident set, kB) from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// This process's peak resident set in MB (10⁶ bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = parse_vm_hwm_kb(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 * 1024.0 / 1e6)
}

/// glibc raises its mmap threshold whenever a large block is freed, so
/// where later blocks live — and with it the resident set — depends on the
/// allocation history: `peak_rss_mb` of `ping_chaos_lit` read 34 to 54 MB
/// from one seed to the next. Setting the threshold to its initial value
/// switches the adjustment off; the figure then repeats within 1%.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn pin_malloc_thresholds() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` takes two plain integers and is safe to call at any
    // time; this runs before any other thread exists.
    if unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) } != 1 {
        eprintln!("warning: mallopt refused the mmap threshold; peak_rss_mb may wander");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn pin_malloc_thresholds() {}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), so spreads computed here and by the
/// driver agree. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Position k·(n+1)/4 on the 1-based sorted list, clamped to it.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// FNV-1a over the canonical text of a repetition's simulated statistics.
/// Two repetitions of one seed must agree; two commits can be diffed.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in a named count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.bytes(name.as_bytes());
        self.bytes(&value.to_le_bytes());
    }

    /// Folds in a named statistic, bit for bit.
    pub fn stat(&mut self, name: &str, value: f64) {
        self.count(name, value.to_bits());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Batches per micro-benchmark; the figure is their median.
const BATCHES: usize = 5;

/// Times `run` — which performs `n` operations and returns the time they
/// took, doing any per-batch preparation off the clock — for roughly
/// `budget` of host time in total, preparation included: calibration, one
/// warm-up batch, then [`BATCHES`] timed batches of equal size. Returns the
/// median over the batches of nanoseconds per operation.
pub fn time_op(budget: Duration, run: &mut dyn FnMut(u64) -> Duration) -> f64 {
    // Calibrate on a few operations, growing until the clock resolves them.
    let mut n = 4u64;
    let per_op_wall = loop {
        let start = Instant::now();
        let timed = run(n);
        let wall = start.elapsed();
        if timed >= Duration::from_micros(200) || wall >= budget / 4 || n >= 1 << 24 {
            break wall.as_secs_f64() / n as f64;
        }
        n *= 8;
    };
    let batch_s = budget.as_secs_f64() / (BATCHES + 1) as f64;
    let iters = ((batch_s / per_op_wall.max(1e-12)) as u64).clamp(2, 1 << 28);
    run(iters);
    let samples: Vec<f64> =
        (0..BATCHES).map(|_| run(iters).as_secs_f64() * 1e9 / iters as f64).collect();
    median(&samples)
}

/// Times `n` calls of `op` back to back — the common body of a
/// [`time_op`] closure whose operation needs no per-call preparation.
pub fn time_calls<T>(n: u64, mut op: impl FnMut() -> T) -> Duration {
    let start = Instant::now();
    for _ in 0..n {
        std::hint::black_box(op());
    }
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_allocator_reports_exact_counts_and_bytes() {
        // A private instance: nothing else allocates through it, so the
        // figures are exact whatever the test harness's threads do.
        let a = CountingAlloc::new();
        let before = a.count();
        let l64 = Layout::from_size_align(64, 8).unwrap();
        let l100 = Layout::from_size_align(100, 4).unwrap();
        // SAFETY: non-zero layouts; each pointer is freed (or reallocated
        // then freed) exactly once with the layout it was obtained under.
        unsafe {
            let p = a.alloc(l64);
            let q = a.alloc_zeroed(l100);
            assert!(!p.is_null() && !q.is_null());
            let p = a.realloc(p, l64, 256);
            assert!(!p.is_null());
            a.dealloc(p, Layout::from_size_align(256, 8).unwrap());
            a.dealloc(q, l100);
        }
        assert_eq!(a.count().since(before), AllocCount { allocs: 3, bytes: 64 + 100 + 256 });
    }

    #[test]
    fn global_allocator_sees_a_vec() {
        let before = crate::ALLOC.count();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let seen = crate::ALLOC.count().since(before);
        drop(v);
        // Other test threads may allocate too, hence "at least".
        assert!(seen.allocs >= 1 && seen.bytes >= 4096, "{seen:?}");
    }

    #[test]
    fn vm_hwm_parses() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    5124 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(5124));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots\n"), None);
        assert!(peak_rss_mb().unwrap() > 0.1);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let build = |p99: f64| {
            let mut d = Digest::new();
            d.count("pings", 15_000);
            d.stat("p99_us", p99);
            d.value()
        };
        assert_eq!(build(4321.5), build(4321.5));
        assert_ne!(build(4321.5), build(4321.5000000001));
        assert_ne!(build(4321.5), Digest::new().value());
    }

    #[test]
    fn time_op_scales_with_the_work() {
        let spin = |k: u64| {
            move |n: u64| {
                time_calls(n, || (0..k).fold(0u64, |a, x| a.wrapping_add(std::hint::black_box(x))))
            }
        };
        let small = time_op(Duration::from_millis(30), &mut spin(100));
        let large = time_op(Duration::from_millis(30), &mut spin(10_000));
        assert!(large > 10.0 * small, "{small} vs {large} ns/op");
    }
}
