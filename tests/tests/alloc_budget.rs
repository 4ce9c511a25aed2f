//! The byte path's allocation budget (ROADMAP item 2).
//!
//! A ping crosses eighteen hops and builds some twenty PDUs; what it may ask
//! of the allocator for that is fixed here, so that a `Vec`-then-copy or a
//! per-block scratch buffer creeping back in fails a test rather than
//! drifting the benchmark's `allocs_per_unit`. The counters are per thread:
//! the harness runs the tests of this binary side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::{BufMut, Bytes, BytesMut};
use ran::sched::AccessMode;
use stack::{PingExperiment, StackConfig};

thread_local! {
    /// `(allocations, bytes requested)` by this thread.
    static COUNT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The system allocator, counting calls and requested bytes per thread. A
/// `realloc` counts as one allocation of the new size, as in `benchmark/`.
struct Counting;

fn note(size: usize) {
    // `try_with`: a thread may free or allocate while its locals are torn down.
    let _ = COUNT.try_with(|c| {
        let (allocs, bytes) = c.get();
        c.set((allocs + 1, bytes + size as u64));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` without a destructor, so touching it allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `(allocations, bytes)` this thread requested while `f` ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (allocs, bytes) = COUNT.with(Cell::get);
    let out = f();
    let (allocs_after, bytes_after) = COUNT.with(Cell::get);
    (out, allocs_after - allocs, bytes_after - bytes)
}

/// Allocations and bytes of `PINGS` dark pings of `payload_bytes` on a stack
/// that has already carried a warm-up batch.
fn steady_state(payload_bytes: usize) -> (u64, u64) {
    let mut cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(2024);
    cfg.payload_bytes = payload_bytes;
    // The benchmark's `ping_large` setting: one 1000 B payload per transport
    // block, so both sizes build the same number of PDUs.
    cfg.code_rate = 0.6;
    let mut exp = PingExperiment::new(cfg);
    exp.keep_traces(0);
    let warm_up = exp.run(PINGS);
    assert_eq!(warm_up.integrity_failures, 0);
    let (result, allocs, bytes) = counted(|| exp.run(PINGS));
    assert_eq!((result.rtt.count(), result.integrity_failures), (PINGS, 0));
    (allocs, bytes)
}

const PINGS: u64 = 256;

/// Allocations per ping: 39 on the walk (16 PDUs, 13 `Vec` return
/// containers, 6 scheduler queues, 4 growths of the span vectors) and the
/// amortised growth of the result vectors, 39.4 in all.
const ALLOCS_PER_PING: u64 = 40;
/// Bytes per 64 B ping (5 265 measured).
const BYTES_PER_SMALL_PING: u64 = 5_500;

#[test]
fn a_ping_stays_within_its_allocation_budget_at_any_payload_size() {
    let (small_allocs, small_bytes) = steady_state(64);
    let (large_allocs, large_bytes) = steady_state(1000);
    assert!(
        small_allocs <= ALLOCS_PER_PING * PINGS,
        "{:.2} allocations per 64 B ping, budget {ALLOCS_PER_PING}",
        small_allocs as f64 / PINGS as f64
    );
    assert!(
        small_bytes <= BYTES_PER_SMALL_PING * PINGS,
        "{:.0} B allocated per 64 B ping, budget {BYTES_PER_SMALL_PING}",
        small_bytes as f64 / PINGS as f64
    );
    // Every buffer is sized once for what it will hold: a larger payload
    // asks for larger allocations, never for more of them.
    assert_eq!(small_allocs, large_allocs, "allocation count depends on the payload size");
    assert!(large_bytes > small_bytes);
}

#[test]
fn bytes_allocate_once_per_buffer_and_never_for_views() {
    static WIRE: [u8; 4] = [1, 2, 3, 4];
    let (_, allocs, _) = counted(|| (Bytes::new(), Bytes::default(), Bytes::from_static(&WIRE)));
    assert_eq!(allocs, 0, "empty and static buffers borrow");

    let (pdu, allocs, _) = counted(|| {
        let mut b = BytesMut::with_capacity(70);
        b.put_u8(0x80);
        b.put_u16(7);
        b.put_slice(&[0xA5; 64]);
        b.put_bytes(0, 3);
        b.freeze()
    });
    assert_eq!((allocs, pdu.len()), (1, 70), "a sized builder freezes into its one allocation");

    let (_, allocs, _) = counted(|| (pdu.clone(), pdu.slice(3..67), pdu.slice(..).slice(1..)));
    assert_eq!(allocs, 0, "clones and slices share the storage");

    let (_, allocs, _) = counted(|| Bytes::copy_from_slice(&pdu));
    assert_eq!(allocs, 1);
    let vec = pdu.to_vec();
    let (_, allocs, _) = counted(|| Bytes::from(vec));
    assert_eq!(allocs, 1, "a Vec is copied into shared storage, once");
}
