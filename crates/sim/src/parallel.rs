//! Deterministic work-sharded parallel sweeps.
//!
//! Every sweep in the workspace — design points, UE populations, fault
//! plans, ping batches — is a list of *independent seeded experiments*:
//! shard `i` derives its randomness from the master seed and a shard label
//! through [`crate::SimRng::stream_indexed`], so its result is a pure
//! function of `(config, i)`. This module fans such shards across a thread
//! pool and folds the results **in shard-index order**, which makes the
//! merged output bit-identical regardless of thread count or OS scheduling:
//!
//! * shard count and shard boundaries depend only on the workload, never on
//!   the number of workers;
//! * workers pull shard indices from a shared counter (work stealing), but
//!   each result lands in a reorder ring slot addressed by its index;
//! * the calling thread folds results in index order as they land — shard
//!   `i` once it and every lower shard have finished — so even
//!   non-commutative merges (sample concatenation, trace selection, journal
//!   replay) are deterministic;
//! * a worker may not start shard `i` until shard `i − 2 × workers` has been
//!   folded, so at most `2 × workers` results are alive at once, however
//!   many shards the sweep has.
//!
//! The worker count is a process-wide setting ([`set_jobs`], the `--jobs`
//! flag of the `repro` binary, or the `URLLC_JOBS` environment variable) —
//! it is a *performance* knob only and must never change results, which the
//! integration suite asserts by re-running sweeps at 1/2/8 jobs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Process-wide worker-count override; 0 = auto-detect.
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide worker count for [`run_shards`]. `0` restores
/// auto-detection (`URLLC_JOBS`, then the number of CPU cores).
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::SeqCst);
}

/// The resolved worker count: the [`set_jobs`] override, else the
/// `URLLC_JOBS` environment variable, else the number of CPU cores.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::SeqCst) {
        0 => std::env::var("URLLC_JOBS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
        n => n,
    }
}

/// Runs shards `0..n` of `f` across the process-wide worker pool (see
/// [`jobs`]) and returns the results in shard-index order.
pub fn run_shards<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_shards_with(jobs(), n, f)
}

/// Like [`run_shards`] with an explicit worker count — the form tests use,
/// because the global setting would race across concurrently running test
/// threads.
pub fn run_shards_with<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    fold_shards_with(workers, n, f, Vec::with_capacity(n), Vec::push)
}

/// Runs shards `0..n` of `f` on `workers` threads and folds each result
/// into `acc` on the calling thread, in shard-index order, as soon as that
/// shard and every lower one have finished. At most `2 × workers` results
/// are alive at once; a shard's result is dropped by `fold` (or moved into
/// `acc`) before a worker may start the shard `2 × workers` places later.
///
/// One worker is a plain loop on the calling thread: no thread, no buffer,
/// no allocation. A panicking shard or fold stops every worker and panics
/// the call.
pub fn fold_shards_with<T, A, F, G>(workers: usize, n: usize, f: F, mut acc: A, mut fold: G) -> A
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    G: FnMut(&mut A, T),
{
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 {
        for i in 0..n {
            fold(&mut acc, f(i));
        }
        return acc;
    }
    let next = AtomicUsize::new(0);
    let reorder = Reorder::new(2 * workers);
    std::thread::scope(|scope| {
        // Armed before any worker exists: a panic here or in `fold` must
        // release workers waiting for room, or the scope's join would hang.
        let _abort = AbortOnUnwind(&reorder);
        for _ in 0..workers {
            scope.spawn(|| {
                let _abort = AbortOnUnwind(&reorder);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n || !reorder.wait_for_room(i) {
                        break;
                    }
                    let result = f(i);
                    reorder.land(i, result);
                }
            });
        }
        for i in 0..n {
            // `None` once a worker panicked; the scope re-raises its panic.
            let Some(result) = reorder.take(i) else { return };
            fold(&mut acc, result);
        }
    });
    acc
}

/// The reorder ring between the workers and the folding thread: slot
/// `i % window` holds shard `i`'s result from the moment it lands until the
/// fold takes it.
struct Reorder<T> {
    ring: Mutex<Ring<T>>,
    /// Signalled when a shard lands, or on abort; only the fold waits on it.
    landed: Condvar,
    /// Signalled when the fold moves on, or on abort.
    room: Condvar,
}

struct Ring<T> {
    slots: Vec<Option<T>>,
    /// The shard the fold is waiting for or folding: shards
    /// `folding..folding + window` may run.
    folding: usize,
    aborted: bool,
}

impl<T> Reorder<T> {
    fn new(window: usize) -> Reorder<T> {
        Reorder {
            ring: Mutex::new(Ring {
                slots: (0..window).map(|_| None).collect(),
                folding: 0,
                aborted: false,
            }),
            landed: Condvar::new(),
            room: Condvar::new(),
        }
    }

    /// No lock is held while a shard or the fold runs, so a poisoned ring
    /// is still consistent.
    fn lock(&self) -> MutexGuard<'_, Ring<T>> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until shard `i` fits the window; `false` once aborted.
    fn wait_for_room(&self, i: usize) -> bool {
        let mut ring = self.lock();
        while i >= ring.folding + ring.slots.len() && !ring.aborted {
            ring = self.room.wait(ring).unwrap_or_else(PoisonError::into_inner);
        }
        !ring.aborted
    }

    fn land(&self, i: usize, result: T) {
        let mut ring = self.lock();
        let window = ring.slots.len();
        ring.slots[i % window] = Some(result);
        self.landed.notify_one();
    }

    /// Marks every shard below `i` folded and waits for shard `i`'s result;
    /// `None` once aborted.
    fn take(&self, i: usize) -> Option<T> {
        let mut ring = self.lock();
        ring.folding = i;
        self.room.notify_all();
        let window = ring.slots.len();
        loop {
            if ring.aborted {
                return None;
            }
            if let Some(result) = ring.slots[i % window].take() {
                return Some(result);
            }
            ring = self.landed.wait(ring).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn abort(&self) {
        self.lock().aborted = true;
        self.landed.notify_all();
        self.room.notify_all();
    }
}

/// Aborts the run if its thread unwinds: waiting workers and the fold stop
/// instead of waiting for a shard that will never land.
struct AbortOnUnwind<'a, T>(&'a Reorder<T>);

impl<T> Drop for AbortOnUnwind<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort();
        }
    }
}

/// Splits `total` work items into shards of at most `shard_size`, returning
/// each shard's `(start, len)`. The split depends only on the workload —
/// never on the worker count — so shard boundaries (and therefore derived
/// RNG streams) are identical at any parallelism.
pub fn shard_ranges(total: u64, shard_size: u64) -> Vec<(u64, u64)> {
    assert!(shard_size > 0, "shard size must be positive");
    let mut ranges = Vec::new();
    let mut start = 0;
    while start < total {
        let len = shard_size.min(total - start);
        ranges.push((start, len));
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn results_arrive_in_index_order() {
        for workers in [1, 2, 8] {
            let out = run_shards_with(workers, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        // A shard whose result depends on a derived RNG stream: identical
        // across any worker count because the stream is keyed by index.
        let shard =
            |i: usize| crate::SimRng::from_seed(42).stream_indexed("shard", i as u64).next_u64();
        let seq = run_shards_with(1, 32, shard);
        for workers in [2, 3, 8, 32] {
            assert_eq!(run_shards_with(workers, 32, shard), seq, "workers={workers}");
        }
    }

    #[test]
    fn zero_shards_is_empty() {
        let out: Vec<u64> = run_shards_with(4, 0, |_| unreachable!());
        assert!(out.is_empty());
        let acc =
            fold_shards_with(4, 0, |_| -> u64 { unreachable!() }, 7u64, |_, _| unreachable!());
        assert_eq!(acc, 7);
    }

    #[test]
    fn fewer_shards_than_workers_fold_in_order() {
        for n in 1..4 {
            let order = fold_shards_with(8, n, |i| i, Vec::new(), Vec::push);
            assert_eq!(order, (0..n).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn a_non_commutative_fold_sees_index_order_despite_a_slow_first_shard() {
        let n = 40;
        // Shard 0 is by far the slowest, then durations fall off, so shards
        // finish nearly in reverse order of their index.
        let shard = |i: usize| {
            let us = if i == 0 { 20_000 } else { 400 / i as u64 };
            std::thread::sleep(Duration::from_micros(us));
            i
        };
        for workers in [1, 2, 3, 8] {
            let order = fold_shards_with(workers, n, shard, Vec::new(), Vec::push);
            assert_eq!(order, (0..n).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    /// A result that counts how many of its kind are alive.
    struct Live<'a> {
        alive: &'a AtomicUsize,
    }

    impl<'a> Live<'a> {
        fn new(alive: &'a AtomicUsize, peak: &AtomicUsize) -> Live<'a> {
            let now = alive.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            Live { alive }
        }
    }

    impl Drop for Live<'_> {
        fn drop(&mut self) {
            self.alive.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Counts finished shards, so that a test can hold shard 0 (or the
    /// fold) back until the other workers have run to the edge of the
    /// window.
    #[derive(Default)]
    struct Finished {
        count: Mutex<usize>,
        changed: Condvar,
    }

    impl Finished {
        fn one(&self) {
            *self.count.lock().expect("counter lock") += 1;
            self.changed.notify_all();
        }

        fn wait_for(&self, n: usize) {
            let mut count = self.count.lock().expect("counter lock");
            while *count < n {
                count = self.changed.wait(count).expect("counter lock");
            }
        }
    }

    #[test]
    fn at_most_two_results_per_worker_are_alive() {
        let n = 64;
        for workers in [2, 3, 4] {
            let (alive, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let finished = Finished::default();
            // Shard 0 waits until the rest of the window has finished:
            // collected first, the other 63 results would all be alive when
            // it lands.
            let folded = fold_shards_with(
                workers,
                n,
                |i| {
                    if i == 0 {
                        finished.wait_for(2 * workers - 1);
                    }
                    let live = Live::new(&alive, &peak);
                    finished.one();
                    live
                },
                0usize,
                |count, live| {
                    *count += 1;
                    drop(live);
                },
            );
            assert_eq!(folded, n);
            assert_eq!(alive.load(Ordering::SeqCst), 0);
            let peak = peak.load(Ordering::SeqCst);
            assert!(peak <= 2 * workers, "workers={workers}: {peak} results alive at once");
        }
    }

    /// Runs `call` on its own thread; `Some(panicked)` if it returned within
    /// ten seconds, `None` if it hung.
    fn within_deadline(call: impl FnOnce() + Send + 'static) -> Option<bool> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(call)).is_err());
        });
        rx.recv_timeout(Duration::from_secs(10)).ok()
    }

    #[test]
    fn a_panicking_shard_panics_the_call_and_does_not_hang() {
        // Two workers, a window of four: shard 0 fails only once the other
        // worker has filled the window and is waiting for room.
        let verdict = within_deadline(|| {
            let finished = Finished::default();
            fold_shards_with(
                2,
                64,
                |i| {
                    if i == 0 {
                        finished.wait_for(3);
                        panic!("shard 0 fails");
                    }
                    finished.one();
                },
                (),
                |_, _| {},
            );
        });
        assert_eq!(verdict, Some(true), "the call must panic, not hang or return");
    }

    #[test]
    fn a_panicking_fold_panics_the_call_and_does_not_hang() {
        // The fold of shard 0 fails once the whole window has finished and
        // both workers are waiting for room.
        let verdict = within_deadline(|| {
            let finished = Finished::default();
            fold_shards_with(
                2,
                64,
                |_| finished.one(),
                (),
                |_, ()| {
                    finished.wait_for(4);
                    panic!("the fold fails");
                },
            );
        });
        assert_eq!(verdict, Some(true), "the call must panic, not hang or return");
    }

    #[test]
    fn shard_ranges_cover_exactly() {
        assert_eq!(shard_ranges(10, 4), vec![(0, 4), (4, 4), (8, 2)]);
        assert_eq!(shard_ranges(4, 4), vec![(0, 4)]);
        assert_eq!(shard_ranges(0, 4), Vec::<(u64, u64)>::new());
        let total: u64 = shard_ranges(1_000, 64).iter().map(|&(_, l)| l).sum();
        assert_eq!(total, 1_000);
    }

    #[test]
    fn set_jobs_overrides_and_resets() {
        // Serialised within this test: the global is process-wide.
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
        assert!(jobs() >= 1);
    }
}
