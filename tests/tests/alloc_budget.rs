//! The byte path's allocation budget (ROADMAP item 9): a steady-state ping
//! allocates nothing.
//!
//! A ping crosses eighteen hops and fills six buffers, three per leg: the
//! application payload, the one MAC PDU every layer writes its header into
//! and the one copy the receiver deciphers the SDU into. One of the three is
//! also the leg's GTP-U packet on N3: on the uplink the gNB writes the
//! G-PDU header into the receive copy, in front of the payload, and on the
//! downlink the UPF writes it into the room the server left in front of its
//! reply. Each buffer is a slot of the walk that builds into the storage its
//! previous occupant left (`Bytes::try_reclaim`), so once a ping has run
//! the next one asks the allocator for nothing but the amortised growth of
//! the result's sample vectors. What a ping may ask for is fixed here, so
//! that a `Vec`-then-copy, a per-layer PDU, a per-call return container, a
//! per-block scratch buffer or a slot that stops reusing its storage fails
//! a test rather than drifting the benchmark's `allocs_per_unit`. The
//! counters are per thread: the harness runs the tests of this binary side
//! by side. Run with `--nocapture` to see the measured counts, and what a
//! 256-ping shard allocates by site.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::{BufMut, Bytes, BytesMut};
use corenet::gtpu::GPDU_HEADER_LEN;
use corenet::Upf;
use phy::duplex::Duplex;
use phy::tdd::TddConfig;
use ran::sched::{AccessMode, Scheduler, SchedulerConfig, SlotDecision};
use sim::{Duration, FaultPlan};
use stack::{run_parallel_workers, GnbStack, PingExperiment, StackConfig, UeStack, BATCH_PINGS};
use telemetry::Telemetry;

thread_local! {
    /// `(allocations, bytes requested)` by this thread.
    static COUNT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// `(live bytes, their high-water mark)` of this thread: what it
    /// allocated less what it freed.
    static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
    /// `(address, size)` of the first allocations this thread made since
    /// [`allocated`] started logging, and how many it made; `None` while
    /// it is not logging.
    static LOG: Cell<Option<AllocLog>> = const { Cell::new(None) };
}

/// How many allocations [`allocated`] keeps the address of.
const LOGGED: usize = 32;

/// `(address, size)` of the first [`LOGGED`] allocations, and their count.
type AllocLog = ([(usize, usize); LOGGED], usize);

/// The system allocator, counting calls and requested bytes per thread. A
/// `realloc` counts as one allocation of the new size, as in `benchmark/`,
/// and moves the live bytes by the difference of the two sizes.
struct Counting;

fn note(size: usize) {
    // `try_with`: a thread may free or allocate while its locals are torn down.
    let _ = COUNT.try_with(|c| {
        let (allocs, bytes) = c.get();
        c.set((allocs + 1, bytes + size as u64));
    });
}

fn live(delta: i64) {
    let _ = LIVE.try_with(|c| {
        let (live, peak) = c.get();
        c.set((live + delta, peak.max(live + delta)));
    });
}

fn log(at: *mut u8, size: usize) -> *mut u8 {
    let _ = LOG.try_with(|c| {
        if let Some((mut log, n)) = c.get() {
            if n < LOGGED {
                log[n] = (at as usize, size);
            }
            c.set(Some((log, n + 1)));
        }
    });
    at
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` without a destructor, so touching it allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        live(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as they are.
        log(unsafe { System.alloc(layout) }, layout.size())
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        live(layout.size() as i64);
        // SAFETY: as above.
        log(unsafe { System.alloc_zeroed(layout) }, layout.size())
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        live(new_size as i64 - layout.size() as i64);
        // SAFETY: as above.
        log(unsafe { System.realloc(ptr, layout, new_size) }, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
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

/// What `f` returned, and the `(address, size)` of every allocation this
/// thread made while it ran.
///
/// # Panics
/// Panics if `f` made more than [`LOGGED`] allocations.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, Vec<(usize, usize)>) {
    LOG.with(|c| c.set(Some(([(0, 0); LOGGED], 0))));
    let out = f();
    let (log, n) = LOG.with(|c| c.take()).expect("logging since the start");
    assert!(n <= LOGGED, "{n} allocations, room to log {LOGGED}");
    (out, log[..n].to_vec())
}

/// The most bytes this thread held live at once while `f` ran, above what
/// it held when `f` started.
fn peak_live<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = LIVE.with(|c| {
        let (live, _) = c.get();
        c.set((live, live));
        live
    });
    let out = f();
    (out, (LIVE.with(Cell::get).1 - start) as u64)
}

/// The testbed ping configuration at `payload_bytes`, seed 2024.
fn ping_config(payload_bytes: usize) -> StackConfig {
    let mut cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(2024);
    cfg.payload_bytes = payload_bytes;
    // The benchmark's `ping_large` setting: one 1000 B payload per transport
    // block, so both sizes build the same number of PDUs.
    cfg.code_rate = 0.6;
    cfg
}

/// Allocations and bytes of `PINGS` dark pings of `payload_bytes` on a stack
/// that has already carried a warm-up batch.
fn steady_state(payload_bytes: usize) -> (u64, u64) {
    steady_state_of(ping_config(payload_bytes))
}

/// [`steady_state`] of any ping configuration.
fn steady_state_of(cfg: StackConfig) -> (u64, u64) {
    let mut exp = PingExperiment::new(cfg);
    exp.keep_traces(0);
    let warm_up = exp.run(PINGS);
    assert_eq!(warm_up.integrity_failures, 0);
    let (result, allocs, bytes) = counted(|| exp.run(PINGS));
    assert_eq!((result.rtt.count(), result.integrity_failures), (PINGS, 0));
    (allocs, bytes)
}

const PINGS: u64 = 256;

/// Allocations per ping (0.08 measured): only the amortised growth of the
/// result's sample vectors. Every container on the walk — the codecs'
/// output lists, PDCP's retransmission rings (released as each leg is
/// delivered), the scheduler's queues, ready set and decision, the span
/// lists of the ping context — is owned by the experiment and reused from
/// ping to ping, and every buffer slot — the payload, the reply, the UL and
/// DL MAC PDU lists and the receive copy the two legs take turns in —
/// builds into the storage the previous ping left in it.
const ALLOCS_PER_PING: f64 = 0.1;
/// Bytes per 64 B ping (48 measured): the result vectors' growth.
const BYTES_PER_SMALL_PING: f64 = 64.0;
/// Bytes per 1000 B ping (48 measured): the same growth, whatever the
/// payload.
const BYTES_PER_LARGE_PING: f64 = 64.0;

fn per_ping(count: u64, pings: u64) -> f64 {
    count as f64 / pings as f64
}

#[test]
fn a_ping_stays_within_its_allocation_budget_at_any_payload_size() {
    let (small_allocs, small_bytes) = steady_state(64);
    let (large_allocs, large_bytes) = steady_state(1000);
    let [small_allocs_pp, small_bytes_pp, large_bytes_pp] =
        [small_allocs, small_bytes, large_bytes].map(|n| per_ping(n, PINGS));
    println!(
        "dark ping, 64 B: {small_allocs_pp:.2} allocations, {small_bytes_pp:.0} B; \
         1000 B: {:.2} allocations, {large_bytes_pp:.0} B",
        per_ping(large_allocs, PINGS),
    );
    assert!(
        small_allocs_pp <= ALLOCS_PER_PING,
        "{small_allocs_pp:.2} allocations per 64 B ping, budget {ALLOCS_PER_PING}"
    );
    assert!(
        small_bytes_pp <= BYTES_PER_SMALL_PING,
        "{small_bytes_pp:.0} B allocated per 64 B ping, budget {BYTES_PER_SMALL_PING}"
    );
    assert!(
        large_bytes_pp <= BYTES_PER_LARGE_PING,
        "{large_bytes_pp:.0} B allocated per 1000 B ping, budget {BYTES_PER_LARGE_PING}"
    );
    // Every buffer slot reuses the storage it was sized for: a larger
    // payload asks for neither more allocations nor larger ones.
    assert_eq!(small_allocs, large_allocs, "allocation count depends on the payload size");
    assert_eq!(small_bytes, large_bytes, "allocated bytes depend on the payload size");
}

/// Allocations per 1000 B ping over 128 B grants (25.08 measured): a leg
/// segments its SDU into nine MAC PDUs, built in the storage of the nine
/// the previous ping left in the list, and writes the SDU into one buffer
/// before it is cut; the receiver keeps a copy of each segment in a
/// reassembly map (one node per SDU) and stitches them into one buffer,
/// which PDCP deciphers in place. That is 1 + 9 + 1 + 1 = 12 allocations a
/// leg. The downlink's N3 packet is the reply's buffer; the uplink's is one
/// more, because the stitched SDU has no room in front for the G-PDU
/// header: 25.
const ALLOCS_PER_SEGMENTED_PING: f64 = 25.3;

#[test]
fn a_segmented_ping_costs_a_buffer_per_segment_and_no_more() {
    let mut cfg = ping_config(1000);
    // Eight PRBs carrying a 128 B transport block: 1024 coded bits, with
    // half a bit to spare against the float product.
    cfg.data_prbs = 8;
    cfg.code_rate = 1024.5 / 2304.0;
    assert_eq!(cfg.slot_capacity_bytes(), 128);
    let (allocs, bytes) = steady_state_of(cfg);
    let allocs_pp = per_ping(allocs, PINGS);
    println!(
        "dark ping, 1000 B over 128 B grants: {allocs_pp:.2} allocations, {:.0} B",
        per_ping(bytes, PINGS)
    );
    assert!(
        allocs_pp <= ALLOCS_PER_SEGMENTED_PING,
        "{allocs_pp:.2} allocations per segmented ping, budget {ALLOCS_PER_SEGMENTED_PING}"
    );
}

/// Pings of the lit chaos run: two 256-ping shards, which record into one
/// telemetry sibling in turn.
const LIT_PINGS: u64 = 512;
/// Bytes per ping of the lit chaos run (3 217 measured): over a short run
/// the journal rings, the parent's and the sibling's, grow from empty.
const BYTES_PER_LIT_PING: u64 = 3_400;

#[test]
fn a_lit_chaos_run_stays_within_its_byte_budget() {
    let cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true)
        .with_seed(2024)
        .with_faults(FaultPlan::chaos(0.4));
    // One worker runs the shards inline, on this thread's counter.
    let (result, allocs, bytes) =
        counted(|| run_parallel_workers(&cfg, LIT_PINGS, 0, Some(&Telemetry::new(65_536)), 1));
    assert_eq!(result.attribution.total(), LIT_PINGS);
    println!(
        "lit chaos ping: {:.2} allocations, {:.0} B",
        per_ping(allocs, LIT_PINGS),
        per_ping(bytes, LIT_PINGS)
    );
    assert!(
        bytes <= BYTES_PER_LIT_PING * LIT_PINGS,
        "{:.0} B allocated per lit chaos ping, budget {BYTES_PER_LIT_PING}",
        per_ping(bytes, LIT_PINGS)
    );
}

/// What a lit chaos ping may cost above the same ping dark: its journal
/// events, its histogram records and the flight exemplars it enters.
/// Building a shard's sinks anew, or an exemplar the recorder then drops,
/// costs more than this (0.83 allocations and 469 B measured).
const LIT_OVER_DARK_ALLOCS: f64 = 0.9;
const LIT_OVER_DARK_BYTES: f64 = 545.0;

#[test]
fn a_lit_ping_costs_a_dark_ping_plus_its_journal() {
    let cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true)
        .with_seed(2024)
        .with_faults(FaultPlan::chaos(0.4));
    let pings = 16 * BATCH_PINGS;
    // One worker runs the shards inline, on this thread's counter.
    let run = |tel: Option<&Telemetry>| {
        let (result, allocs, bytes) = counted(|| run_parallel_workers(&cfg, pings, 0, tel, 1));
        assert_eq!(result.attribution.total(), pings);
        (per_ping(allocs, pings), per_ping(bytes, pings))
    };
    let (dark_allocs, dark_bytes) = run(None);
    let (lit_allocs, lit_bytes) = run(Some(&Telemetry::new(4_096)));
    println!(
        "chaos ping, dark: {dark_allocs:.2} allocations, {dark_bytes:.0} B; \
         lit: {lit_allocs:.2} allocations, {lit_bytes:.0} B"
    );
    assert!(
        lit_allocs - dark_allocs <= LIT_OVER_DARK_ALLOCS,
        "a lit ping makes {:.2} allocations more than a dark one, budget {LIT_OVER_DARK_ALLOCS}",
        lit_allocs - dark_allocs
    );
    assert!(
        lit_bytes - dark_bytes <= LIT_OVER_DARK_BYTES,
        "a lit ping allocates {:.0} B more than a dark one, budget {LIT_OVER_DARK_BYTES}",
        lit_bytes - dark_bytes
    );
}

#[test]
fn a_lit_run_holds_one_shard_at_a_time() {
    let mut cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true)
        .with_seed(2024)
        .with_faults(FaultPlan::chaos(0.4));
    // Against the paper's 0.5 ms target every testbed ping is late, so the
    // flight recorder's forced buffer fills within the first shards and the
    // parent's sinks stop growing: what is left to grow is shard residency.
    cfg.deadline = Duration::from_micros(500);
    // One worker runs the shards inline, on this thread's counter.
    let peak = |shards: u64| {
        let pings = shards * BATCH_PINGS;
        let (result, peak) =
            peak_live(|| run_parallel_workers(&cfg, pings, 0, Some(&Telemetry::new(4_096)), 1));
        assert_eq!(result.attribution.total(), pings);
        peak
    };
    let (few, many) = (peak(8), peak(32));
    println!("lit chaos run, peak live heap: {few} B at 8 shards, {many} B at 32 shards");
    // Each shard's telemetry sibling is absorbed and emptied before the next
    // shard records into it, so four times the shards costs only the larger
    // result.
    assert!(
        many as f64 <= 1.25 * few as f64,
        "peak live heap grows with the shard count: {few} B at 8 shards, {many} B at 32"
    );
}

#[test]
fn an_n3_packet_is_the_buffer_its_payload_already_lives_in() {
    let (key, ue_addr) = (0xABCD, 0x0A00_0001);
    let mut ue = UeStack::new(17, key);
    let mut gnb = GnbStack::new();
    gnb.attach_ue(17, key, ue_addr);
    // A first ping sizes the receiving bearer's lists.
    for pdu in ue.encode_uplink(&Bytes::from_static(b"first"), 256).unwrap() {
        gnb.decode_uplink(17, &pdu).unwrap();
    }
    let payload = Bytes::from(vec![0x5A; 64]);
    let pdus = ue.encode_uplink(&payload, 256).unwrap();
    // Uplink: the walk allocates its output list and one byte buffer, the
    // copy PDCP deciphers into. The payload the UPF decapsulated from the
    // N3 packet lies in that copy, so the packet was the copy too.
    let (delivered, buffers) = allocated(|| gnb.decode_uplink(17, &pdus[0]).unwrap());
    assert_eq!(delivered, std::slice::from_ref(&payload));
    assert_eq!(buffers.len(), 2, "the output list and the receive copy: {buffers:?}");
    let at = delivered[0].as_ptr() as usize;
    let inside = |&(start, size): &(usize, usize)| (start..start + size).contains(&at);
    let copy = buffers.iter().find(|b| inside(b)).expect("the payload lies in the receive copy");
    assert!(at - copy.0 >= GPDU_HEADER_LEN, "the G-PDU header was written in front of it");

    // Downlink: the UPF writes the header into the room the server left in
    // front of its reply, and allocates nothing.
    let mut upf = Upf::new();
    upf.establish_session(ue_addr, 0x111);
    let mut reply = BytesMut::with_capacity(GPDU_HEADER_LEN + payload.len());
    reply.put_bytes(0, GPDU_HEADER_LEN);
    reply.put_slice(&payload);
    let reply = reply.freeze().slice(GPDU_HEADER_LEN..);
    let at = reply.as_ptr();
    let (n3, buffers) = allocated(|| upf.encapsulate(ue_addr, reply).unwrap());
    assert_eq!((n3[GPDU_HEADER_LEN..].as_ptr(), buffers.len()), (at, 0));
    assert_eq!(n3, corenet::GtpuHeader::gpdu(0x111).encode(&payload));
}

/// The ping walk's buffer slots, kept from ping to ping as
/// `stack::pipeline`'s ping context keeps them.
#[derive(Default)]
struct Slots {
    payload: Bytes,
    reply: Bytes,
    ul_pdus: Vec<Bytes>,
    dl_pdus: Vec<Bytes>,
    /// What the last leg delivered: the next receive copy's spare.
    delivered: Vec<Bytes>,
}

/// 64 bytes of `fill` behind `headroom` zeroed ones, in `spent`'s storage
/// when nothing else holds it.
fn payload_in(spent: Bytes, fill: u8, headroom: usize) -> Bytes {
    let mut b = ran::pdu::reclaimed(spent, headroom + 64);
    b.put_bytes(0, headroom);
    b.put_bytes(fill, 64);
    b.freeze().slice(headroom..)
}

/// One 64 B ping through both stacks, each slot filled the way the walk
/// fills it and each leg acknowledged; returns where each buffer's bytes
/// lie: the payload, the UL MAC PDU, the UL receive copy, the reply, the DL
/// MAC PDU and the DL receive copy.
fn ping(ue: &mut UeStack, gnb: &mut GnbStack, slots: &mut Slots, fill: u8) -> [usize; 6] {
    let at = |b: &Bytes| b.as_ptr() as usize;
    // The previous leg's delivery, whose storage the receive copy reuses.
    let spare_of = |delivered: &mut Vec<Bytes>| {
        let spare = delivered.first_mut().map(std::mem::take).unwrap_or_default();
        delivered.clear();
        spare
    };
    slots.payload = payload_in(std::mem::take(&mut slots.payload), fill, 0);
    ue.encode_uplink_into(&slots.payload, 256, &mut slots.ul_pdus).unwrap();
    let mut spare = spare_of(&mut slots.delivered);
    let samples = ue.phy_encode(&slots.ul_pdus[0]);
    gnb.receive_uplink(17, samples, &mut spare, &mut slots.delivered).unwrap();
    assert_eq!(slots.delivered, std::slice::from_ref(&slots.payload));
    let ul_copy = at(&slots.delivered[0]);
    gnb.acknowledge(ue, false).unwrap();

    let reply = payload_in(std::mem::take(&mut slots.reply), !fill, GPDU_HEADER_LEN);
    let (_, reply) = gnb.encode_downlink_into(UE_ADDR, reply, 256, &mut slots.dl_pdus).unwrap();
    slots.reply = reply;
    let mut spare = spare_of(&mut slots.delivered);
    let samples = gnb.phy_encode(17, &slots.dl_pdus[0]).unwrap();
    ue.receive_downlink(samples, &mut spare, &mut slots.delivered).unwrap();
    assert_eq!(slots.delivered, std::slice::from_ref(&slots.reply));
    gnb.acknowledge(ue, true).unwrap();
    [
        at(&slots.payload),
        at(&slots.ul_pdus[0]),
        ul_copy,
        at(&slots.reply),
        at(&slots.dl_pdus[0]),
        at(&slots.delivered[0]),
    ]
}

/// The data-network address of the UE the node-level tests attach.
const UE_ADDR: u32 = 0x0A00_0001;

#[test]
fn two_consecutive_pings_build_in_the_storage_the_first_one_left() {
    let mut ue = UeStack::new(17, 0xABCD);
    let mut gnb = GnbStack::new();
    gnb.attach_ue(17, 0xABCD, UE_ADDR);
    let mut slots = Slots::default();
    // The first ping allocates every buffer (and grows the lists and rings);
    // the downlink's receive copy is already the uplink's, handed back.
    let (first, buffers) = allocated(|| ping(&mut ue, &mut gnb, &mut slots, 1));
    let inside =
        |at: usize| buffers.iter().any(|&(start, size)| (start..start + size).contains(&at));
    assert!(first.iter().all(|&at| inside(at)), "{first:x?} not all in {buffers:x?}");
    assert_eq!(first[2], first[5], "the two legs take turns in one receive copy");
    // The second allocates nothing: each buffer lies where the first left it.
    let (second, none) = allocated(|| ping(&mut ue, &mut gnb, &mut slots, 2));
    assert_eq!(none, [], "a second ping allocated");
    assert_eq!(second, first, "a buffer moved between consecutive pings");
    // A clone held across the next ping keeps its bytes; its slot allocates.
    let held = slots.payload.clone();
    let (third, buffers) = allocated(|| ping(&mut ue, &mut gnb, &mut slots, 3));
    assert_eq!((&held[..], third[0] != first[0]), (&[2; 64][..], true));
    assert_eq!(buffers.len(), 1, "the held payload's slot, and only it, allocated: {buffers:?}");
    assert_eq!(third[1..], first[1..]);
}

/// A 256-ping shard of the benchmark's `ping_small` run, allocation by
/// site: what is left of `allocs_per_unit` is set-up and result vectors,
/// paid once per shard.
#[test]
fn a_shard_allocates_once_for_its_set_up_and_its_result() {
    let cfg = ping_config(64);
    let (_, total, total_bytes) = counted(|| run_parallel_workers(&cfg, BATCH_PINGS, 0, None, 1));
    // The same shard by hand: `run_parallel` seeds shard 0 so.
    let seed = sim::SimRng::from_seed(cfg.seed).stream_indexed("batch", 0).seed();
    let (mut exp, setup, setup_bytes) =
        counted(|| PingExperiment::new(cfg.clone().with_seed(seed)));
    exp.keep_traces(0);
    let (result, cold, cold_bytes) = counted(|| exp.run(BATCH_PINGS));
    assert_eq!(result.integrity_failures, 0);
    // A second run on the warmed experiment allocates only its result.
    let (_, warm, warm_bytes) = counted(|| exp.run(BATCH_PINGS));
    assert!(total >= setup + cold, "the shard by hand allocated more than the shard");
    let sites = [
        ("PingExperiment::new: stacks, channels, scheduler, RNG streams", setup, setup_bytes),
        ("the walk's first pass: buffer slots, lists, rings", cold - warm, cold_bytes - warm_bytes),
        ("the result: sample vectors, summaries", warm, warm_bytes),
        (
            "run_parallel: shard fold and merge",
            total - setup - cold,
            total_bytes - setup_bytes - cold_bytes,
        ),
    ];
    println!("a {BATCH_PINGS}-ping shard, 64 B dark: {total} allocations, {total_bytes} B");
    for (site, allocs, bytes) in sites {
        println!("  {allocs:>4} allocations {bytes:>7} B  {site}");
    }
    assert!(
        per_ping(warm, BATCH_PINGS) <= 2.0 * ALLOCS_PER_PING,
        "{warm} allocations a warm shard"
    );
}

#[test]
fn a_warmed_scheduler_round_allocates_nothing() {
    let duplex = Duplex::Tdd(TddConfig::dddu_testbed());
    let mut sched =
        Scheduler::new(SchedulerConfig::testbed(duplex.clone(), AccessMode::GrantBased));
    let mut decision = SlotDecision::default();
    // A steady backlog: every round two SRs and three DL blocks become
    // ready, and a fourth DL block waits until the next round.
    let mut round = |slot: u64| {
        let boundary = duplex.slot_start(slot);
        for rnti in 0..2 {
            sched.on_sr(rnti, boundary - Duration::from_micros(1));
        }
        for rnti in 0..3 {
            sched.on_dl_data(rnti, 500, boundary - Duration::from_micros(1));
        }
        sched.on_dl_data(3, 500, boundary);
        sched.run_slot_into(slot, &mut decision);
        (decision.ul_grants.len(), decision.dl_assignments.len())
    };
    for slot in 1..32 {
        round(slot);
    }
    let (served, allocs, _) =
        counted(|| (32..96).map(&mut round).fold((0, 0), |(u, d), (ul, dl)| (u + ul, d + dl)));
    assert_eq!(served, (2 * 64, 4 * 64), "every ready request is served in its round");
    assert_eq!(allocs, 0, "a warmed round allocated");
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
