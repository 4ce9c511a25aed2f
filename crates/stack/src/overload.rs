//! Overload robustness: open-loop arrival injection, bounded per-layer
//! buffers with typed drop attribution, and SLO-driven graceful
//! degradation.
//!
//! The closed-loop [`crate::PingExperiment`] walk sends one ping at a time, so
//! queues can never form and offered load is bounded by the service rate
//! by construction. This module is the open-loop counterpart: a
//! [`sim::ArrivalGen`] injects packets independent of completions, the
//! engine runs on the slot frame's per-class walk (`crate::frame`: at each
//! DL slot start it admits whatever arrived by it, then serves the slot),
//! real RAN entities (PDCP with a TS 38.323 discardTimer, capped RLC UM
//! buffers, a bounded MAC/HARQ backlog) absorb the backlog, and every
//! packet ends in exactly one of three ledgers — delivered,
//! dropped-with-reason, or in flight at drain — so conservation is
//! checkable.
//!
//! Degradation is driven through the [`SloHook`] trait: the engine reports
//! every URLLC outcome (delivery with its deadline verdict, or a drop) and
//! reads back a [`DegradationLevel`] each slot. `crate::slo` provides the
//! hysteresis supervisor; [`NullHook`] keeps the engine un-governed for
//! baselines. The degradation actions, in escalation order:
//!
//! * **Degraded** — shed best-effort (eMBB) traffic at ingress and tighten
//!   the DL pull point to one slot of data, keeping the standing queue in
//!   PDCP where the discardTimer bounds every packet's lifetime.
//! * **Critical** — additionally clamp HARQ: a backlogged transport block
//!   whose every packet has already missed its deadline is discarded
//!   instead of retransmitted, so the air interface serves packets that
//!   can still make it.

use std::collections::VecDeque;

use bytes::{BufMut, Bytes, BytesMut};
use ran::mac::MacBacklog;
use ran::pdcp::{Direction, PdcpConfig, PdcpEntity};
use ran::rlc::{RlcError, RlcUmEntity};
use ran::sched::{Policy, PolicySpec, RequestTag, SchedItem, Slice};
use sim::{ArrivalGen, ArrivalProcess, Duration, Instant, Recording, SimRng};
use telemetry::{JournalEvent, Profiler, Telemetry};

pub use sim::DropReason;

use crate::config::StackConfig;
use crate::frame;

/// Per-reason drop counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropCounts([u64; DropReason::ALL.len()]);

impl DropCounts {
    fn add(&mut self, reason: DropReason) {
        self.0[reason as usize] += 1;
    }

    /// Drops recorded for `reason`.
    pub fn get(&self, reason: DropReason) -> u64 {
        self.0[reason as usize]
    }

    /// Total drops across every reason.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

/// How aggressively the stack is currently shedding load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationLevel {
    /// Full service.
    Normal,
    /// Shed best-effort traffic, tighten the DL pull point.
    Degraded,
    /// Additionally clamp HARQ retransmissions of already-late blocks.
    Critical,
}

/// The stack-side SLO interface: the engine reports every URLLC outcome
/// and reads back the degradation level each slot. Implemented by
/// `crate::slo::SloSupervisor` and, for un-governed baselines, [`NullHook`].
pub trait SloHook {
    /// One URLLC packet resolved at `at`; `miss` is true when it was
    /// dropped or delivered past its deadline.
    fn observe(&mut self, at: Instant, miss: bool);

    /// Current degradation level (sampled at each slot boundary).
    fn level(&self) -> DegradationLevel;
}

/// A hook that never degrades — the un-governed baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullHook;

impl SloHook for NullHook {
    fn observe(&mut self, _at: Instant, _miss: bool) {}

    fn level(&self) -> DegradationLevel {
        DegradationLevel::Normal
    }
}

/// Open-loop overload experiment configuration.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// The underlying stack (duplex pattern, MCS, payload size).
    pub stack: StackConfig,
    /// URLLC (foreground) arrival process.
    pub arrivals: ArrivalProcess,
    /// Optional best-effort background: arrival process and SDU bytes.
    pub embb: Option<(ArrivalProcess, usize)>,
    /// Arrival horizon: packets arrive on `[0, horizon)`; the engine then
    /// drains.
    pub horizon: Duration,
    /// One-way downlink deadline classifying each delivery as on-time or
    /// late (the closed-loop `stack.deadline` is a round-trip budget).
    pub deadline: Duration,
    /// PDCP discardTimer. `None` disables expiry, so the PDCP queue is
    /// unbounded — useful only to demonstrate the latency cliff it causes.
    pub discard_timer: Option<Duration>,
    /// URLLC RLC transmission-buffer cap in bytes.
    pub rlc_capacity_bytes: usize,
    /// eMBB RLC transmission-buffer cap in bytes.
    pub embb_capacity_bytes: usize,
    /// Bounded HARQ retransmission backlog, in transport blocks.
    pub harq_backlog_cap: usize,
    /// Per-transmission transport-block error rate.
    pub bler: f64,
    /// Scheduling policy ordering the per-slot service of the URLLC and
    /// eMBB traffic classes (HARQ retransmissions always go first — they
    /// are the oldest data). `Fcfs` and the priority policies reproduce
    /// the historic URLLC-before-eMBB order byte for byte; `RoundRobin`
    /// genuinely alternates the head of line. The engine builds one
    /// [`ran::sched::Policy`] value from it and keeps it across slots.
    pub policy: PolicySpec,
}

impl OverloadConfig {
    /// Defaults matched to the §7 testbed: deadline = half the round-trip
    /// budget, discardTimer = the deadline (a packet older than its
    /// deadline is dead weight), RLC capped at a few slots of data.
    pub fn testbed(
        stack: StackConfig,
        arrivals: ArrivalProcess,
        horizon: Duration,
    ) -> OverloadConfig {
        let deadline = Duration::from_nanos(stack.deadline.as_nanos() / 2);
        let slot_bytes = stack.slot_capacity_bytes();
        OverloadConfig {
            stack,
            arrivals,
            embb: None,
            horizon,
            deadline,
            discard_timer: Some(deadline),
            rlc_capacity_bytes: 4 * slot_bytes,
            embb_capacity_bytes: 4 * slot_bytes,
            harq_backlog_cap: 8,
            bler: 0.0,
            policy: PolicySpec::Fcfs,
        }
    }

    /// On-air bytes per URLLC packet: payload + PDCP header + RLC header.
    pub(crate) fn packet_wire_bytes(&self) -> usize {
        self.stack.payload_bytes + 2 + 1
    }
}

/// Downlink service capacity of `stack` in packets per second for
/// `wire_bytes`-byte packets: DL slots per TDD pattern × packets per slot
/// ÷ pattern period. The denominator of the sweep's offered-load ratio ρ
/// and the service rate behind the M/D/1 cross-check.
pub fn service_capacity_pps(stack: &StackConfig, wire_bytes: usize) -> f64 {
    let per_slot = (stack.slot_capacity_bytes() / wire_bytes.max(1)) as f64;
    let period = stack.duplex.pattern_period();
    let dl_slots = stack.duplex.dl_slots_per_period() as f64;
    dl_slots * per_slot / (period.as_micros_f64() / 1e6)
}

/// A transport block awaiting (re)transmission in the HARQ backlog.
#[derive(Debug, Clone)]
struct TbEntry {
    /// PDCP COUNTs of the URLLC packets multiplexed into the block.
    ids: Vec<u32>,
    /// Wire bytes the block occupies in a slot budget.
    bytes: usize,
    /// Transmissions already spent.
    tx_count: u32,
    /// Latest arrival among the block's packets (deadline-clamp test).
    newest_arrival: Instant,
}

/// What the open-loop run produced. URLLC packets are conserved exactly:
/// [`offered`](Self::offered) `==` [`delivered`](Self::delivered) `+`
/// [`drops`](Self::drops)`.total() +` [`in_flight`](Self::in_flight).
#[derive(Debug, Clone)]
pub struct OverloadReport {
    /// URLLC packets injected.
    pub offered: u64,
    /// URLLC packets delivered (on time or late).
    pub delivered: u64,
    /// Deliveries past the deadline.
    pub late: u64,
    /// Per-reason URLLC drops.
    pub drops: DropCounts,
    /// URLLC packets still queued when the drain window closed.
    pub in_flight: u64,
    /// Delivered-packet latency in fixed memory ([`Recording::fixed`]):
    /// overload runs are open-loop and unbounded in packet count, so the
    /// exact sample-hoarding recorder is off the table here.
    pub latency: Recording,
    /// Mean wait from arrival to first transport-block transmission.
    pub mean_queue_wait: Duration,
    /// eMBB bytes offered.
    pub embb_offered_bytes: u64,
    /// eMBB bytes that made it onto the air.
    pub embb_sent_bytes: u64,
    /// eMBB bytes tail-dropped at the RLC cap.
    pub embb_dropped_bytes: u64,
    /// eMBB bytes shed at ingress by degradation.
    pub embb_shed_bytes: u64,
    /// eMBB bytes still queued at drain end.
    pub embb_queued_bytes: u64,
    /// Peak PDCP transmission-queue depth (packets).
    pub peak_pdcp_queue: usize,
    /// Peak URLLC RLC buffer occupancy (bytes).
    pub peak_rlc_bytes: usize,
    /// Peak HARQ backlog depth (transport blocks).
    pub peak_harq_backlog: usize,
    /// DL slots processed.
    pub total_slots: u64,
    /// DL slots spent at `Degraded`.
    pub degraded_slots: u64,
    /// DL slots spent at `Critical`.
    pub critical_slots: u64,
}

impl OverloadReport {
    /// URLLC deadline-miss rate: (late + dropped) / offered.
    pub fn miss_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        (self.late + self.drops.total()) as f64 / self.offered as f64
    }

    /// Goodput: on-time deliveries per offered packet.
    pub fn goodput_ratio(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        (self.delivered - self.late) as f64 / self.offered as f64
    }

    /// `true` when every offered packet is accounted for exactly once.
    pub fn conserved(&self) -> bool {
        self.offered == self.delivered + self.drops.total() + self.in_flight
    }

    /// `true` when every offered eMBB byte is accounted for exactly once.
    pub fn embb_conserved(&self) -> bool {
        self.embb_offered_bytes
            == self.embb_sent_bytes
                + self.embb_dropped_bytes
                + self.embb_shed_bytes
                + self.embb_queued_bytes
    }
}

/// The engine proper. Bundling the mutable state lets the per-arrival and
/// per-slot logic live in methods instead of one borrow-tangled closure
/// soup.
struct Engine<'a> {
    cfg: &'a OverloadConfig,
    /// Sees every URLLC outcome; its level governs each slot.
    hook: &'a mut dyn SloHook,
    tel: &'a Telemetry,
    slot_bytes: usize,
    wire_bytes: usize,
    /// What every URLLC arrival enqueues and every eMBB arrival offers:
    /// one buffer each per run, shared by every arrival.
    payload: Bytes,
    embb_sdu: Bytes,
    pdcp: PdcpEntity,
    rlc: RlcUmEntity,
    rlc_embb: RlcUmEntity,
    harq: MacBacklog<TbEntry>,
    bler_rng: SimRng,
    /// COUNT → arrival instant (COUNTs are assigned densely from 0).
    arrivals_by_count: Vec<Instant>,
    /// COUNTs resident in the URLLC RLC buffer, FIFO. UM preserves order
    /// and the engine always grants a whole SDU, so this mirror is exact.
    rlc_fifo: VecDeque<u32>,
    /// Next COUNT expected out of `pdcp.pull_tx` — gaps are discards.
    next_pull_expected: u32,
    /// Orders the URLLC/eMBB classes each slot (stateful: round-robin
    /// keeps its cursor here across slots).
    policy: Policy,
    /// Monotone sequence counter feeding [`SchedItem::seq`] tie-breaks.
    class_seq: u64,
    report: OverloadReport,
    wait_sum_ns: u128,
    wait_n: u64,
}

impl<'a> Engine<'a> {
    fn new(
        cfg: &'a OverloadConfig,
        rng: &SimRng,
        hook: &'a mut dyn SloHook,
        tel: &'a Telemetry,
    ) -> Engine<'a> {
        let stack = &cfg.stack;
        let mut pdcp = PdcpEntity::new(PdcpConfig::new(stack.seed, 1, Direction::Downlink));
        pdcp.set_discard_timer(cfg.discard_timer);
        let mut rlc = RlcUmEntity::new();
        rlc.set_tx_capacity(Some(cfg.rlc_capacity_bytes));
        let mut rlc_embb = RlcUmEntity::new();
        rlc_embb.set_tx_capacity(Some(cfg.embb_capacity_bytes));
        let filled = |byte: u8, len: usize| {
            let mut b = BytesMut::with_capacity(len);
            b.put_bytes(byte, len);
            b.freeze()
        };
        Engine {
            cfg,
            hook,
            tel,
            slot_bytes: stack.slot_capacity_bytes(),
            wire_bytes: cfg.packet_wire_bytes(),
            payload: filled(0, stack.payload_bytes),
            embb_sdu: filled(0xBE, cfg.embb.as_ref().map_or(0, |&(_, b)| b)),
            pdcp,
            rlc,
            rlc_embb,
            harq: MacBacklog::new(cfg.harq_backlog_cap),
            bler_rng: rng.stream("overload-bler"),
            arrivals_by_count: Vec::new(),
            rlc_fifo: VecDeque::new(),
            next_pull_expected: 0,
            policy: cfg.policy.build(),
            class_seq: 0,
            report: OverloadReport {
                offered: 0,
                delivered: 0,
                late: 0,
                drops: DropCounts::default(),
                in_flight: 0,
                latency: Recording::fixed(),
                mean_queue_wait: Duration::ZERO,
                embb_offered_bytes: 0,
                embb_sent_bytes: 0,
                embb_dropped_bytes: 0,
                embb_shed_bytes: 0,
                embb_queued_bytes: 0,
                peak_pdcp_queue: 0,
                peak_rlc_bytes: 0,
                peak_harq_backlog: 0,
                total_slots: 0,
                degraded_slots: 0,
                critical_slots: 0,
            },
            wait_sum_ns: 0,
            wait_n: 0,
        }
    }

    /// A URLLC arrival at `at`: PDCP assigns its COUNT and queues it.
    fn admit_urllc(&mut self, at: Instant) {
        let count = self.pdcp.tx_enqueue(at, self.payload.clone());
        debug_assert_eq!(count as usize, self.arrivals_by_count.len());
        self.arrivals_by_count.push(at);
        self.report.offered += 1;
    }

    /// An eMBB arrival at `at`: shed at ingress while degraded, otherwise
    /// offered to its RLC buffer, which tail-drops at the cap.
    fn admit_embb(&mut self, at: Instant) {
        let bytes = self.embb_sdu.len() as u64;
        self.report.embb_offered_bytes += bytes;
        let reason = if self.hook.level() >= DegradationLevel::Degraded {
            // Byte-ledger only: `drops` counts URLLC packets, and shedding
            // is an eMBB-side action.
            self.report.embb_shed_bytes += bytes;
            DropReason::SloShed
        } else {
            match self.rlc_embb.try_tx_sdu(self.embb_sdu.clone()) {
                Ok(()) => return,
                Err(RlcError::TxBufferFull { .. }) => {
                    self.report.embb_dropped_bytes += bytes;
                    DropReason::RlcFull
                }
                Err(e) => unreachable!("try_tx_sdu only fails with TxBufferFull: {e}"),
            }
        };
        self.tel.journal(JournalEvent::Drop { ping: u64::MAX, at, reason });
    }

    fn drop_urllc(&mut self, count: u32, at: Instant, reason: DropReason) {
        self.report.drops.add(reason);
        self.tel.journal(JournalEvent::Drop { ping: u64::from(count), at, reason });
        self.hook.observe(at, true);
    }

    /// One transmission attempt of a transport block: draws the BLER
    /// coin, delivers on success (delivery instant = slot TX start + air
    /// time of everything sent so far this slot), requeues or drops on
    /// failure.
    fn transmit_tb(&mut self, mut tb: TbEntry, slot_tx_start: Instant, cumulative_sent: usize) {
        tb.tx_count += 1;
        let failed = self.cfg.bler > 0.0 && self.bler_rng.chance(self.cfg.bler);
        if !failed {
            let deliver = slot_tx_start + self.cfg.stack.data_air_time(cumulative_sent);
            for &count in &tb.ids {
                let latency = deliver - self.arrivals_by_count[count as usize];
                self.report.latency.record(latency);
                self.report.delivered += 1;
                let miss = latency > self.cfg.deadline;
                if miss {
                    self.report.late += 1;
                }
                self.hook.observe(deliver, miss);
            }
            return;
        }
        let reason = if tb.tx_count >= self.cfg.stack.harq_max_tx {
            DropReason::HarqExhausted
        } else if self.harq.len() >= self.harq.capacity() {
            DropReason::MacBacklogFull
        } else {
            // Infallible: the `len() >= capacity()` branch above takes the
            // block when the backlog is full, so this push always has room.
            // Not peer-reachable — backlog pressure is handled, not
            // panicked on.
            self.harq.push(tb).expect("capacity checked");
            return;
        };
        for &count in &tb.ids {
            self.drop_urllc(count, slot_tx_start, reason);
        }
    }

    fn on_slot(&mut self, now: Instant) {
        let level = self.hook.level();
        self.report.total_slots += 1;
        match level {
            DegradationLevel::Normal => {}
            DegradationLevel::Degraded => self.report.degraded_slots += 1,
            DegradationLevel::Critical => self.report.critical_slots += 1,
        }
        let mut budget = self.slot_bytes;
        let mut sent_bytes = 0usize;

        // 1. HARQ retransmissions first — they are the oldest data.
        while budget > 0 {
            match self.harq.peek() {
                None => break,
                Some(tb) if tb.bytes > budget => break,
                Some(_) => {}
            }
            // Infallible: `peek()` returned `Some` in the match above and
            // nothing touches the backlog between the peek and this pop.
            let tb = self.harq.pop().expect("peeked");
            if level >= DegradationLevel::Critical && tb.newest_arrival + self.cfg.deadline < now {
                // Every packet in the block is already late: spend the air
                // time on packets that can still make it.
                for &count in &tb.ids {
                    self.drop_urllc(count, now, DropReason::DeadlineClamp);
                }
                continue;
            }
            budget -= tb.bytes;
            sent_bytes += tb.bytes;
            self.transmit_tb(tb, now, sent_bytes);
        }

        // 2. The policy picks the class service order for the rest of the
        // slot budget. The historic order — URLLC, then best-effort eMBB
        // on the leftovers — is exactly what FCFS (arrival order, URLLC
        // queued at PDCP first) and the priority policies produce;
        // round-robin genuinely alternates the head of line.
        let mut order = [
            SchedItem {
                rnti: 0,
                bytes: self.rlc.queued_bytes(),
                ready: now,
                tag: RequestTag {
                    priority: 0,
                    deadline: Some(now + self.cfg.deadline),
                    slice: Slice::Urllc,
                },
                seq: self.class_seq,
            },
            SchedItem {
                rnti: 1,
                bytes: self.rlc_embb.queued_bytes(),
                ready: now,
                tag: RequestTag { priority: 1, deadline: None, slice: Slice::Embb },
                seq: self.class_seq + 1,
            },
        ];
        self.class_seq += 2;
        self.policy.order(now, &mut order);
        for item in &order {
            match item.rnti {
                0 => self.serve_urllc(now, level, &mut budget, &mut sent_bytes),
                _ => self.serve_embb(&mut budget, &mut sent_bytes),
            }
        }

        self.report.peak_pdcp_queue = self.report.peak_pdcp_queue.max(self.pdcp.tx_queued());
        self.report.peak_rlc_bytes = self.report.peak_rlc_bytes.max(self.rlc.queued_bytes());
        self.report.peak_harq_backlog = self.report.peak_harq_backlog.max(self.harq.len());
    }

    /// URLLC's share of a slot: refill RLC from PDCP, assemble and
    /// transmit this slot's fresh transport block.
    fn serve_urllc(
        &mut self,
        now: Instant,
        level: DegradationLevel,
        budget: &mut usize,
        sent_bytes: &mut usize,
    ) {
        // Refill the RLC buffer from PDCP. Normal pulls up to the RLC
        // cap; degraded tightens the pull point to one slot of data so
        // the standing queue stays in PDCP under discardTimer control.
        let refill_target = if level >= DegradationLevel::Degraded {
            (*budget).min(self.cfg.rlc_capacity_bytes)
        } else {
            self.cfg.rlc_capacity_bytes
        };
        // What sits in RLC is the PDCP PDU (wire bytes minus the RLC
        // header byte the pull adds later).
        let pdcp_pdu_bytes = self.wire_bytes - 1;
        while self.rlc.queued_bytes() + pdcp_pdu_bytes <= refill_target {
            let Some((count, pdu)) = self.pdcp.pull_tx_pdu(now) else { break };
            // COUNT gaps are discardTimer expiries (FIFO queue, monotone
            // deadlines).
            while self.next_pull_expected < count {
                let c = self.next_pull_expected;
                self.drop_urllc(c, now, DropReason::PdcpDiscard);
                self.next_pull_expected += 1;
            }
            self.next_pull_expected = count + 1;
            match self.rlc.try_enqueue(pdu) {
                Ok(()) => self.rlc_fifo.push_back(count),
                Err(_) => self.drop_urllc(count, now, DropReason::RlcFull),
            }
        }

        // Assemble this slot's fresh URLLC transport block.
        let mut tb_ids: Vec<u32> = Vec::new();
        let mut tb_bytes = 0usize;
        let mut newest = Instant::ZERO;
        while *budget >= self.wire_bytes && !self.rlc_fifo.is_empty() {
            // Grant exactly one whole SDU: RLC UM emits it as a full,
            // unsegmented PDU, keeping the FIFO mirror exact.
            match self.rlc.pull_pdu(self.wire_bytes) {
                Ok(Some(pdu)) => {
                    debug_assert_eq!(pdu.len(), self.wire_bytes);
                    // Infallible: the loop guard requires `rlc_fifo` to be
                    // non-empty, and the mirror is exact because UM preserves
                    // order and every grant is a whole SDU (see field doc).
                    let count = self.rlc_fifo.pop_front().expect("mirror in sync");
                    let arrival = self.arrivals_by_count[count as usize];
                    self.wait_sum_ns += u128::from((now - arrival).as_nanos());
                    self.wait_n += 1;
                    newest = newest.max(arrival);
                    tb_ids.push(count);
                    tb_bytes += pdu.len();
                    *budget -= pdu.len();
                }
                Ok(None) | Err(_) => break,
            }
        }
        if !tb_ids.is_empty() {
            *sent_bytes += tb_bytes;
            let tb = TbEntry { ids: tb_ids, bytes: tb_bytes, tx_count: 0, newest_arrival: newest };
            self.transmit_tb(tb, now, *sent_bytes);
        }
    }

    /// eMBB's share of a slot: best-effort bytes ride whatever budget is
    /// left when its turn comes (no HARQ: the paper's coexistence story
    /// gives eMBB throughput, not deadlines).
    fn serve_embb(&mut self, budget: &mut usize, sent_bytes: &mut usize) {
        while *budget > 4 {
            match self.rlc_embb.pull_pdu(*budget) {
                Ok(Some(pdu)) => {
                    let hdr = if pdu[0] >> 6 <= 0b01 { 1 } else { 3 };
                    self.report.embb_sent_bytes += (pdu.len() - hdr) as u64;
                    *budget -= pdu.len();
                    *sent_bytes += pdu.len();
                }
                Ok(None) | Err(_) => break,
            }
        }
    }

    fn work_left(&self) -> bool {
        self.pdcp.tx_queued() > 0
            || !self.rlc_fifo.is_empty()
            || !self.harq.is_empty()
            || self.rlc_embb.queued_bytes() > 0
    }

    /// Final reconciliation at `end`, the last served slot's start. The
    /// PDCP queue is FIFO, so whatever was never pulled splits into a
    /// discarded prefix and an in-flight suffix of length `tx_queued()`.
    fn finish(mut self, end: Instant) -> OverloadReport {
        let total = self.report.offered as u32;
        let queued = self.pdcp.tx_queued() as u32;
        while self.next_pull_expected < total.saturating_sub(queued) {
            let c = self.next_pull_expected;
            self.drop_urllc(c, end, DropReason::PdcpDiscard);
            self.next_pull_expected += 1;
        }
        // Whatever is still queued anywhere (PDCP, RLC, HARQ) is in flight.
        let harq_in_flight: u64 =
            std::iter::from_fn(|| self.harq.pop()).map(|tb| tb.ids.len() as u64).sum();
        self.report.in_flight = u64::from(queued) + self.rlc_fifo.len() as u64 + harq_in_flight;
        self.report.embb_queued_bytes = self.rlc_embb.queued_bytes() as u64;
        if self.wait_n > 0 {
            self.report.mean_queue_wait =
                Duration::from_nanos((self.wait_sum_ns / u128::from(self.wait_n)) as u64);
        }
        self.report
    }
}

/// Runs the open-loop overload experiment. Deterministic: all randomness
/// comes from child streams of `rng`, the clock is the DL slot grid, and
/// telemetry recording consumes neither.
pub fn run_overload(
    cfg: &OverloadConfig,
    rng: &SimRng,
    hook: &mut dyn SloHook,
    tel: &Telemetry,
) -> OverloadReport {
    run_overload_profiled(cfg, rng, hook, tel, &Profiler::disabled())
}

/// [`run_overload`] with a host wall-time [`Profiler`] wrapped around each
/// arrival and each slot (`overload/urllc-arrival`, `overload/embb-arrival`,
/// `overload/slot`). The profiler reads only the host clock; the report is
/// bit-identical with or without it.
pub fn run_overload_profiled(
    cfg: &OverloadConfig,
    rng: &SimRng,
    hook: &mut dyn SloHook,
    tel: &Telemetry,
    prof: &Profiler,
) -> OverloadReport {
    // Every instant a generator yields, without end; none without one.
    let arrivals = |mut gen: Option<ArrivalGen>| {
        std::iter::from_fn(move || gen.as_mut().map(ArrivalGen::next_arrival))
    };
    let urllc = arrivals(Some(ArrivalGen::new(cfg.arrivals, rng.stream("overload-urllc"))));
    let embb = arrivals(cfg.embb.map(|(p, _)| ArrivalGen::new(p, rng.stream("overload-embb"))));
    serve(Engine::new(cfg, rng, hook, tel), prof, urllc, embb)
}

/// The engine on the frame's per-class arm, over the two sources' arrival
/// instants (parameters so tests can place arrivals on exact instants).
fn serve<I: Iterator<Item = Instant>>(
    mut engine: Engine<'_>,
    prof: &Profiler,
    urllc: I,
    embb: I,
) -> OverloadReport {
    let cfg = engine.cfg;
    // Between two slots the sources touch disjoint state and the SLO level
    // cannot change (DESIGN §12), so each may catch up on its own.
    let walk = frame::serve_classes(
        &cfg.stack.duplex,
        Instant::ZERO + cfg.horizon,
        &mut [urllc.peekable(), embb.peekable()],
        &mut engine,
        |engine, source, at| {
            if source == 0 {
                let _t = prof.scope("overload/urllc-arrival");
                engine.admit_urllc(at);
            } else {
                let _t = prof.scope("overload/embb-arrival");
                engine.admit_embb(at);
            }
        },
        |engine, now| {
            let _t = prof.scope("overload/slot");
            engine.on_slot(now);
        },
        Engine::work_left,
    );
    engine.finish(walk.end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StackConfig;
    use proptest::prelude::*;
    use ran::sched::AccessMode;
    use sim::EventQueue;

    fn base_cfg(rate_pps: f64, horizon_ms: u64) -> OverloadConfig {
        let stack = StackConfig::testbed_dddu(AccessMode::GrantBased, true);
        OverloadConfig::testbed(
            stack,
            ArrivalProcess::poisson_pps(rate_pps),
            Duration::from_millis(horizon_ms),
        )
    }

    fn run(cfg: &OverloadConfig, seed: u64) -> OverloadReport {
        let rng = SimRng::from_seed(seed);
        let mut hook = NullHook;
        run_overload(cfg, &rng, &mut hook, &Telemetry::disabled())
    }

    #[test]
    fn light_load_delivers_everything_on_time() {
        let cfg = base_cfg(500.0, 200);
        let r = run(&cfg, 1);
        assert!(r.offered > 50, "offered {}", r.offered);
        assert!(r.conserved(), "conservation: {r:?}");
        assert_eq!(r.drops.total(), 0);
        assert_eq!(r.in_flight, 0);
        assert_eq!(r.late, 0, "p100 latency {} us", r.latency.max_us());
        assert_eq!(r.delivered, r.offered);
    }

    #[test]
    fn overload_drops_are_typed_and_memory_bounded() {
        let cap =
            service_capacity_pps(&StackConfig::testbed_dddu(AccessMode::GrantBased, true), 64 + 3);
        let cfg = base_cfg(cap * 2.0, 200);
        let r = run(&cfg, 2);
        assert!(r.conserved(), "conservation: {r:?}");
        assert!(r.drops.get(DropReason::PdcpDiscard) > 0, "expected discard drops: {r:?}");
        // Memory bound: the PDCP queue can hold at most discard_timer's
        // worth of arrivals, the RLC buffer at most its byte cap.
        let max_dwell_packets =
            (cap * 2.0 * cfg.discard_timer.unwrap().as_micros_f64() / 1e6 * 2.0) as usize;
        assert!(
            r.peak_pdcp_queue <= max_dwell_packets,
            "{} > {max_dwell_packets}",
            r.peak_pdcp_queue
        );
        assert!(r.peak_rlc_bytes <= cfg.rlc_capacity_bytes);
        // Deliveries still happen at full service rate.
        assert!(r.delivered > r.offered / 3, "{r:?}");
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let cfg = base_cfg(20_000.0, 100);
        let mut a = run(&cfg, 7);
        let mut b = run(&cfg, 7);
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.drops, b.drops);
        assert_eq!(a.latency.quantile_us(0.99), b.latency.quantile_us(0.99));
        let mut c = run(&cfg, 8);
        assert!(a.offered != c.offered || a.latency.quantile_us(0.5) != c.latency.quantile_us(0.5));
    }

    #[test]
    fn bler_exercises_harq_and_stays_conserved() {
        let mut cfg = base_cfg(2_000.0, 300);
        cfg.bler = 0.3;
        cfg.harq_backlog_cap = 2;
        let r = run(&cfg, 3);
        assert!(r.conserved(), "conservation: {r:?}");
        assert!(r.peak_harq_backlog > 0, "HARQ backlog never used: {r:?}");
    }

    /// A hook pinned at one level.
    struct Pinned(DegradationLevel);

    impl SloHook for Pinned {
        fn observe(&mut self, _at: Instant, _miss: bool) {}
        fn level(&self) -> DegradationLevel {
            self.0
        }
    }

    #[test]
    fn embb_bytes_are_conserved_and_shed_under_static_degradation() {
        let mut cfg = base_cfg(1_000.0, 100);
        cfg.embb = Some((ArrivalProcess::poisson_pps(2_000.0), 1000));
        let rng = SimRng::from_seed(4);
        let mut hook = Pinned(DegradationLevel::Degraded);
        let r = run_overload(&cfg, &rng, &mut hook, &Telemetry::disabled());
        assert!(r.embb_conserved(), "embb ledger: {r:?}");
        assert!(r.embb_shed_bytes > 0);
        assert_eq!(r.embb_sent_bytes, 0, "every eMBB byte was shed at ingress");
        assert!(r.conserved());
        // URLLC unaffected by the shed background.
        assert_eq!(r.drops.get(DropReason::PdcpDiscard), 0);
    }

    #[test]
    fn class_order_follows_the_policy() {
        let cap =
            service_capacity_pps(&StackConfig::testbed_dddu(AccessMode::GrantBased, true), 64 + 3);
        let mk = |policy: PolicySpec| {
            let mut cfg = base_cfg(cap * 1.2, 150);
            cfg.embb = Some((ArrivalProcess::poisson_pps(3_000.0), 1000));
            cfg.policy = policy;
            run(&cfg, 11)
        };
        let mut fcfs = mk(PolicySpec::Fcfs);
        let mut prio = mk(PolicySpec::NonPreemptivePriority);
        let rr = mk(PolicySpec::RoundRobin);
        // FCFS (arrival order — URLLC queues at PDCP before eMBB's turn)
        // and strict priority produce the same service order, so the
        // whole report must agree.
        assert_eq!(fcfs.delivered, prio.delivered);
        assert_eq!(fcfs.late, prio.late);
        assert_eq!(fcfs.drops, prio.drops);
        assert_eq!(fcfs.embb_sent_bytes, prio.embb_sent_bytes);
        assert_eq!(fcfs.latency.quantile_us(0.99), prio.latency.quantile_us(0.99));
        // Round-robin hands eMBB the head of line every other slot: more
        // best-effort bytes make the air.
        assert!(
            rr.embb_sent_bytes > fcfs.embb_sent_bytes,
            "rr {} vs fcfs {}",
            rr.embb_sent_bytes,
            fcfs.embb_sent_bytes
        );
        assert!(rr.conserved() && rr.embb_conserved(), "{rr:?}");
    }

    #[test]
    fn service_capacity_matches_dddu_pattern() {
        let stack = StackConfig::testbed_dddu(AccessMode::GrantBased, true);
        let wire = 64 + 3;
        let per_slot = (stack.slot_capacity_bytes() / wire) as f64;
        // DDDU: 3 DL slots per 2 ms pattern.
        let expect = 3.0 * per_slot / 0.002;
        let got = service_capacity_pps(&stack, wire);
        assert!((got - expect).abs() < 1e-6, "{got} vs {expect}");
    }

    /// The slot-driven loop over arrivals at exactly these instants.
    fn serve_at(
        cfg: &OverloadConfig,
        urllc: &[Instant],
        embb: &[Instant],
        tel: &Telemetry,
    ) -> OverloadReport {
        let mut hook = NullHook;
        let engine = Engine::new(cfg, &SimRng::from_seed(1), &mut hook, tel);
        let (urllc, embb) = (urllc.iter().copied(), embb.iter().copied());
        serve(engine, &Profiler::disabled(), urllc, embb)
    }

    #[test]
    fn an_arrival_on_a_dl_slot_start_is_served_by_that_slot() {
        let mut cfg = base_cfg(1_000.0, 5);
        cfg.embb = Some((ArrivalProcess::poisson_pps(1_000.0), 500));
        let duplex = &cfg.stack.duplex;
        let at = duplex.slot_start(1);
        assert_eq!(duplex.next_dl_opportunity(at).tx_start, at, "DL slot 1 starts late");
        let tel = Telemetry::disabled();
        let r = serve_at(&cfg, &[at], &[], &tel);
        assert_eq!((r.offered, r.delivered, r.late), (1, 1, 0), "{r:?}");
        // Slot 1 took it without a wait; slot 0 ran before it arrived.
        assert_eq!((r.mean_queue_wait, r.total_slots), (Duration::ZERO, 2));
        // One nanosecond later it is slot 2's.
        let r = serve_at(&cfg, &[at + Duration::from_nanos(1)], &[], &tel);
        let wait = duplex.slot_duration() - Duration::from_nanos(1);
        assert_eq!((r.delivered, r.mean_queue_wait, r.total_slots), (1, wait, 3), "{r:?}");
        // The same for eMBB: slot 1 sends it and nothing is left for slot 2.
        let r = serve_at(&cfg, &[], &[at], &tel);
        assert_eq!((r.embb_sent_bytes, r.total_slots), (500, 2), "{r:?}");
    }

    #[test]
    fn an_urllc_arrival_at_the_horizon_is_never_offered() {
        let cfg = base_cfg(1_000.0, 5);
        let horizon = Instant::ZERO + cfg.horizon;
        let just_before = horizon - Duration::from_nanos(1);
        let r = serve_at(&cfg, &[just_before, horizon], &[], &Telemetry::disabled());
        assert_eq!((r.offered, r.delivered, r.in_flight), (1, 1, 0), "{r:?}");
    }

    #[test]
    fn the_reconciliation_drops_at_the_last_served_slot() {
        // A burst far past what the discardTimer lets the DL carry: the
        // whole PDCP tail expires at once, no later pull reveals its COUNT
        // gap, and the final reconciliation attributes it.
        let cfg = base_cfg(1_000.0, 5);
        let burst = vec![Instant::ZERO + Duration::from_micros(100); 2_000];
        let tel = Telemetry::new(1 << 12);
        let r = serve_at(&cfg, &burst, &[], &tel);
        assert!(r.conserved() && r.drops.get(DropReason::PdcpDiscard) > 0, "{r:?}");
        let duplex = &cfg.stack.duplex;
        let mut last = duplex.next_dl_opportunity(Instant::ZERO);
        for _ in 1..r.total_slots {
            last = duplex.next_dl_opportunity(duplex.slot_start(last.slot + 1));
        }
        let journal = tel.journal_events();
        assert!(
            matches!(
                journal.last(),
                Some(JournalEvent::Drop { at, reason: DropReason::PdcpDiscard, .. })
                    if *at == last.tx_start
            ),
            "last served slot at {:?}, journal ends {:?}",
            last.tx_start,
            journal.last()
        );
    }

    /// Events on the oracle's queue. Arrivals are self-rescheduling: each
    /// one schedules its successor, so the queue never holds more than one
    /// pending arrival per process regardless of the offered rate.
    #[derive(Debug, Clone, Copy)]
    enum Ev {
        UrllcArrival,
        EmbbArrival,
        /// A DL slot boundary (payload: the global slot index).
        Slot(u64),
    }

    /// The oracle: the loop this module ran before it went slot-driven —
    /// one `sim::EventQueue`, both arrivals at priority 0 ahead of the slot
    /// clock at priority 1 — kept statement for statement, its two arrival
    /// arms calling the `Engine` methods they became.
    fn event_queue_run(
        cfg: &OverloadConfig,
        rng: &SimRng,
        hook: &mut dyn SloHook,
        tel: &Telemetry,
    ) -> OverloadReport {
        let stack = &cfg.stack;
        let horizon = Instant::ZERO + cfg.horizon;
        let drain_limit = horizon + stack.duplex.pattern_period() * 4096;
        let mut urllc_gen = ArrivalGen::new(cfg.arrivals, rng.stream("overload-urllc"));
        let mut embb_gen =
            cfg.embb.as_ref().map(|(p, _)| ArrivalGen::new(*p, rng.stream("overload-embb")));
        let mut engine = Engine::new(cfg, rng, hook, tel);

        let mut queue: EventQueue<Ev> = EventQueue::new();
        // Arrival events outrank the slot event at the same instant so a
        // packet arriving exactly on a slot boundary is eligible for it.
        let first = urllc_gen.next_arrival();
        if first < horizon {
            queue.push_with_priority(first, 0, Ev::UrllcArrival);
        }
        if let Some(gen) = embb_gen.as_mut() {
            let first = gen.next_arrival();
            if first < horizon {
                queue.push_with_priority(first, 0, Ev::EmbbArrival);
            }
        }
        let op0 = stack.duplex.next_dl_opportunity(Instant::ZERO);
        queue.push_with_priority(op0.tx_start, 1, Ev::Slot(op0.slot));

        while let Some((now, ev)) = queue.pop() {
            match ev {
                Ev::UrllcArrival => {
                    engine.admit_urllc(now);
                    let next = urllc_gen.next_arrival();
                    if next < horizon {
                        queue.push_with_priority(next, 0, Ev::UrllcArrival);
                    }
                }
                Ev::EmbbArrival => {
                    engine.admit_embb(now);
                    if let Some(gen) = embb_gen.as_mut() {
                        let next = gen.next_arrival();
                        if next < horizon {
                            queue.push_with_priority(next, 0, Ev::EmbbArrival);
                        }
                    }
                }
                Ev::Slot(slot) => {
                    engine.on_slot(now);
                    // Schedule the next DL slot while arrivals remain or any
                    // stage still holds data (bounded by the drain limit).
                    if !queue.is_empty() || engine.work_left() {
                        let after = stack.duplex.slot_start(slot + 1);
                        let op = stack.duplex.next_dl_opportunity(after);
                        if op.tx_start <= drain_limit {
                            queue.push_with_priority(op.tx_start, 1, Ev::Slot(op.slot));
                        }
                    }
                }
            }
        }
        engine.finish(queue.now())
    }

    /// Every field of a report but `latency`, grouped so a mismatch names
    /// what moved.
    #[allow(clippy::type_complexity)]
    fn ledger(
        r: &OverloadReport,
    ) -> ((u64, u64, u64, DropCounts, u64, Duration), (u64, u64, u64, u64, u64), [u64; 6]) {
        (
            (r.offered, r.delivered, r.late, r.drops, r.in_flight, r.mean_queue_wait),
            (
                r.embb_offered_bytes,
                r.embb_sent_bytes,
                r.embb_dropped_bytes,
                r.embb_shed_bytes,
                r.embb_queued_bytes,
            ),
            [
                r.peak_pdcp_queue as u64,
                r.peak_rlc_bytes as u64,
                r.peak_harq_backlog as u64,
                r.total_slots,
                r.degraded_slots,
                r.critical_slots,
            ],
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::cases_from_env_or(48))]
        #[test]
        fn slot_driven_loop_equals_the_event_queue_loop(
            seed in any::<u64>(),
            rate_frac in 0.1f64..2.5,
            horizon_ms in 2u64..40,
            bursty in any::<bool>(),
            embb in any::<bool>(),
            bler in prop::option::of(0.05f64..0.4),
            harq_cap in 1usize..4,
            timer_ms in prop::option::of(1u64..8),
            level in 0usize..3,
            policy in 0usize..3,
        ) {
            let stack = StackConfig::testbed_dddu(AccessMode::GrantBased, true);
            let lambda = rate_frac * service_capacity_pps(&stack, stack.payload_bytes + 3);
            let arrivals = if bursty {
                ArrivalProcess::bursty_pps(lambda, 6.0, 0.25, Duration::from_millis(2))
            } else {
                ArrivalProcess::poisson_pps(lambda)
            };
            let mut cfg =
                OverloadConfig::testbed(stack, arrivals, Duration::from_millis(horizon_ms));
            if embb {
                cfg.embb = Some((ArrivalProcess::poisson_pps(0.3 * lambda), 900));
            }
            cfg.bler = bler.unwrap_or(0.0);
            cfg.harq_backlog_cap = harq_cap;
            cfg.discard_timer = timer_ms.map(Duration::from_millis);
            cfg.policy =
                [PolicySpec::Fcfs, PolicySpec::NonPreemptivePriority, PolicySpec::RoundRobin]
                    [policy];
            let level =
                [DegradationLevel::Normal, DegradationLevel::Degraded, DegradationLevel::Critical]
                    [level];
            let rng = SimRng::from_seed(seed);
            let (new_tel, old_tel) = (Telemetry::new(1 << 16), Telemetry::new(1 << 16));
            let new = run_overload(&cfg, &rng, &mut Pinned(level), &new_tel);
            let old = event_queue_run(&cfg, &rng, &mut Pinned(level), &old_tel);
            prop_assert_eq!(ledger(&new), ledger(&old));
            prop_assert_eq!(&new.latency, &old.latency);
            prop_assert_eq!(new_tel.journal_dropped(), 0);
            prop_assert_eq!(new_tel.journal_events(), old_tel.journal_events());
        }
    }
}
