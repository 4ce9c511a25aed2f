//! The stage pipeline: the Fig 2/Fig 3 packet journey as a state machine
//! of plain functions behind one exhaustive `match`.
//!
//! A **hop** is one function wrapping one layer operation — the UE's
//! SDAP/PDCP/RLC walk, the SR/grant exchange, a HARQ delivery cycle, a
//! radio-head crossing, the GTP-U/UPF backbone hop. `dispatch` routes each
//! [`PingEvent`] to the hop that consumes it; the hop performs its layer
//! work (sampling processing times, encoding/decoding real PDUs), pushes
//! the [`StageSpan`]s it contributes onto the ping's trace, and returns its
//! successor: [`HopOutcome::Next`] names the one event the walk fires next
//! and when, [`HopOutcome::Lost`] and [`HopOutcome::Done`] end the ping.
//! The journey is a strict chain — every step starts when the one before
//! it ends, RRC recovery detours included — so the experiment driver
//! (`PingExperiment::one_ping`) needs no event queue: it dispatches each
//! successor in turn until the ping completes or is lost. The journey is a
//! closed set, so the compiler checks the routing: a new [`PingEvent`]
//! variant does not build until `dispatch` names its hop, and a hop cannot
//! end without saying what comes next.
//!
//! Cross-cutting concerns stay out of the hop bodies:
//!
//! - **faults** (`sim::faults`) are applied by gate functions —
//!   `sr_loss_gate`, `grant_gate`, the two storm gates, `spike_gate` — that
//!   `dispatch` routes to *instead of* the protocol hop; each injects its
//!   loss/stall and calls its one inner hop, exactly where the fault
//!   process acts in the real system;
//! - **telemetry**: hops only append spans to the [`PingTrace`]; the driver
//!   flushes the journey to the journal once per ping (UL side then DL
//!   side), under the same lock of the sink as the ping's round trip and
//!   flight record, so an instrumented run and a dark run stay
//!   bit-identical.
//!
//! The pipeline is behavior-preserving by construction: every hop draws
//! from the same per-stream RNGs (`rng_ue`, `rng_gnb`, `rng_net`, the
//! fault injector's child streams) in the same per-stream order as the
//! seed monolithic walk, and every event fires at the instant the
//! monolith computed — the golden-equivalence suite in
//! `tests/golden_pipeline.rs` pins this span-for-span.

use bytes::Bytes;
use corenet::gtpu::GPDU_HEADER_LEN;
use ran::sched::{AccessMode, UlGrant};
use ran::sr::SrProcedure;
use sim::{Duration, FaultKind, Instant, PingFaultTrace};
use telemetry::{metric, JournalEvent};

use crate::experiment::{
    make_payload, ExperimentResult, PingExperiment, RlfEvent, MAX_SCHED_ROUNDS, RNTI, UE_ADDR,
};
use crate::journey::{PingTrace, StageSpan};
use crate::stage_labels as labels;

/// One event in a ping's walk. Each variant is consumed by exactly one
/// hop (see [`PingEvent::hop`]); the payload carries what the *next* hop
/// needs and nothing more — everything else lives in the per-ping context.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PingEvent {
    /// The application emits the request at `t0`.
    Arrival,
    /// The packet reached the UE RLC queue; decide how to get on the air.
    UlAccess,
    /// Probe for the next UL opportunity to carry an SR (grant-based).
    SrTx {
        /// Where to start looking for the opportunity.
        probe: Instant,
    },
    /// An SR transmission left the UE antenna.
    SrOnAir {
        /// Slot carrying the SR.
        slot: u64,
        /// When the PUCCH transmission started.
        tx_start: Instant,
    },
    /// The gNB MAC knows about the UE's buffer (SR decoded, or RACH Msg3
    /// carried the buffer status).
    SrReady,
    /// A scheduling round at a slot boundary (uplink).
    SchedRound {
        /// The boundary slot being scheduled.
        slot: u64,
    },
    /// The scheduler issued an UL grant.
    GrantIssued {
        /// The grant.
        grant: UlGrant,
        /// The slot whose boundary produced the decision.
        decision_slot: u64,
    },
    /// UL samples are ready at the UE PHY; transmit at the next reachable
    /// (or granted) opportunity.
    UlTxReady {
        /// The granted slot pinning the resources, if any.
        granted_slot: Option<u64>,
    },
    /// A transport block finished its air time; play HARQ/RLC delivery.
    AirDeliver,
    /// Radio link failure declared: run the RRC re-establishment detour.
    RlfDetour,
    /// The block got through; the gNB radio head receives it.
    GnbRx,
    /// Samples are at the gNB host; walk PHY→MAC→RLC→PDCP→SDAP up.
    GnbWalk,
    /// Cross the N3 backbone (GTP-U/UPF), in the given direction.
    Backbone {
        /// `true` for the reply's trip back to the gNB.
        dl: bool,
    },
    /// The reply reached the gNB; walk SDAP→PDCP→RLC down into the queue.
    DlWalkDown,
    /// A scheduling round at a slot boundary (downlink).
    DlSched {
        /// The boundary slot being scheduled.
        slot: u64,
    },
    /// The DL transport block is pulled from RLC; MAC/PHY prepare it.
    DlPrepare {
        /// The assigned air time.
        dl_tx: Instant,
    },
    /// DL samples arrive at the radio-head TX ring.
    RingSubmit {
        /// The assigned air time.
        dl_tx: Instant,
    },
    /// The DL block got through; the UE receives and walks it up.
    UeRx,
}

/// Names of the pipeline units, in journey order — the profiler's stage
/// vocabulary (`dispatch` routes on the event itself, not on this id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HopId {
    /// UE application → RLC queue (①, `APP↓`).
    AppDown,
    /// Access-mode fork: grant-free MAC prep vs SR trigger.
    UlAccess,
    /// SR opportunity probe / RACH fallback (②).
    SrTx,
    /// gNB decodes the SR (PHY + MAC) — behind the SR-loss gate.
    SrDecode,
    /// Buffer status reaches the scheduler; first boundary is booked.
    UlSchedRequest,
    /// One UL scheduling round per slot boundary (③–④).
    UlSched,
    /// UE decodes the grant DCI and prepares (⑤) — behind the
    /// grant-withholding gate.
    GrantRx,
    /// UL data transmission in the granted/next opportunity (⑥).
    UlTx,
    /// HARQ + RLC AM delivery of a transport block (either direction).
    HarqDelivery,
    /// RRC re-establishment detour after RLF.
    RlfRecovery,
    /// gNB radio-head RX crossing (⑦) — under the fronthaul storm gate.
    GnbRadio,
    /// gNB PHY→SDAP uplink walk + byte-exact decode (⑦).
    GnbWalkUp,
    /// N3 backbone crossing under path supervision — under the
    /// backbone spike gate.
    Backbone,
    /// gNB SDAP→RLC downlink walk (⑧).
    DlWalkDown,
    /// One DL scheduling round per slot boundary (⑨, ends `RLC-q`).
    DlSched,
    /// DL MAC/PHY preparation + radio submission (⑩) — under the
    /// fronthaul storm gate.
    DlPrep,
    /// TX-ring deadline check and DL air time (⑩).
    RadioRing,
    /// UE receive walk up to the application (⑪, `PHY↑`).
    UeRxUp,
}

/// Number of hops in the walk.
pub(crate) const HOP_COUNT: usize = HopId::UeRxUp as usize + 1;

impl HopId {
    /// Every hop, in journey order (profiler coverage iterates this).
    pub const ALL: [HopId; HOP_COUNT] = [
        HopId::AppDown,
        HopId::UlAccess,
        HopId::SrTx,
        HopId::SrDecode,
        HopId::UlSchedRequest,
        HopId::UlSched,
        HopId::GrantRx,
        HopId::UlTx,
        HopId::HarqDelivery,
        HopId::RlfRecovery,
        HopId::GnbRadio,
        HopId::GnbWalkUp,
        HopId::Backbone,
        HopId::DlWalkDown,
        HopId::DlSched,
        HopId::DlPrep,
        HopId::RadioRing,
        HopId::UeRxUp,
    ];

    /// Stable snake-case name — the profiler's stage key and the
    /// `profile.csv` row identity.
    pub fn name(self) -> &'static str {
        match self {
            HopId::AppDown => "app_down",
            HopId::UlAccess => "ul_access",
            HopId::SrTx => "sr_tx",
            HopId::SrDecode => "sr_decode",
            HopId::UlSchedRequest => "ul_sched_request",
            HopId::UlSched => "ul_sched",
            HopId::GrantRx => "grant_rx",
            HopId::UlTx => "ul_tx",
            HopId::HarqDelivery => "harq_delivery",
            HopId::RlfRecovery => "rlf_recovery",
            HopId::GnbRadio => "gnb_radio",
            HopId::GnbWalkUp => "gnb_walk_up",
            HopId::Backbone => "backbone",
            HopId::DlWalkDown => "dl_walk_down",
            HopId::DlSched => "dl_sched",
            HopId::DlPrep => "dl_prep",
            HopId::RadioRing => "radio_ring",
            HopId::UeRxUp => "ue_rx_up",
        }
    }
}

impl PingEvent {
    /// The hop consuming this event.
    pub(crate) fn hop(&self) -> HopId {
        match self {
            PingEvent::Arrival => HopId::AppDown,
            PingEvent::UlAccess => HopId::UlAccess,
            PingEvent::SrTx { .. } => HopId::SrTx,
            PingEvent::SrOnAir { .. } => HopId::SrDecode,
            PingEvent::SrReady => HopId::UlSchedRequest,
            PingEvent::SchedRound { .. } => HopId::UlSched,
            PingEvent::GrantIssued { .. } => HopId::GrantRx,
            PingEvent::UlTxReady { .. } => HopId::UlTx,
            PingEvent::AirDeliver => HopId::HarqDelivery,
            PingEvent::RlfDetour => HopId::RlfRecovery,
            PingEvent::GnbRx => HopId::GnbRadio,
            PingEvent::GnbWalk => HopId::GnbWalkUp,
            PingEvent::Backbone { .. } => HopId::Backbone,
            PingEvent::DlWalkDown => HopId::DlWalkDown,
            PingEvent::DlSched { .. } => HopId::DlSched,
            PingEvent::DlPrepare { .. } => HopId::DlPrep,
            PingEvent::RingSubmit { .. } => HopId::RadioRing,
            PingEvent::UeRx => HopId::UeRxUp,
        }
    }
}

/// State of the transport-block delivery currently in flight (shared by
/// the UL and DL legs — [`HopId::HarqDelivery`] and [`HopId::RlfRecovery`]
/// serve both).
#[derive(Debug, Default)]
pub(crate) struct DeliveryState {
    /// `true` while delivering the DL reply.
    pub dl: bool,
    /// Air time of one retransmission.
    pub air: Duration,
    /// Grant size a recovery re-encode must respect.
    pub grant_bytes: usize,
    /// `(span start, RLF instant)` of the recovery whose retransmission
    /// is in flight.
    pub pending: Option<(Instant, Instant)>,
    /// MAC PDUs rebuilt by PDCP data recovery (they replace the originals
    /// on the byte path: both RLC entities restarted their numbering).
    pub recovered: Option<Vec<Bytes>>,
}

/// Per-ping mutable state threaded through the walk. Hops communicate
/// forward through the events they return; anything a *later* hop needs
/// that does not fit an event payload lives here. One context serves
/// every ping of an experiment ([`PingCtx::reset`]), so its lists allocate
/// only while they grow to the longest walk, and its buffer slots (the
/// payload, the reply, the two MAC PDU lists and the delivered list) only
/// when a previous occupant is still held elsewhere or is too small: each
/// builds into the storage the previous ping left there.
#[derive(Default)]
pub(crate) struct PingCtx {
    pub(crate) id: u64,
    pub(crate) t0: Instant,
    pub(crate) trace: PingTrace,
    pub(crate) ftrace: PingFaultTrace,
    pub(crate) payload: Bytes,
    pub(crate) mac_pdus: Vec<Bytes>,
    pub(crate) ul_samples: usize,
    pub(crate) ue_phy: Duration,
    pub(crate) ue_submit: Duration,
    pub(crate) in_rlc: Instant,
    pub(crate) sr: Option<SrProcedure>,
    pub(crate) sr_ready: Instant,
    pub(crate) sched_rounds: u32,
    pub(crate) first_withheld: Option<Instant>,
    pub(crate) delivery: DeliveryState,
    pub(crate) dl_t0: Instant,
    pub(crate) reply: Bytes,
    pub(crate) dl_pdus: Vec<Bytes>,
    /// Payloads the receiving end decoded from the block in flight.
    pub(crate) delivered: Vec<Bytes>,
    pub(crate) dl_samples: usize,
    pub(crate) in_rlc_q: Instant,
    pub(crate) dl_sched_rounds: u32,
    /// Storm stall sampled by the DL prep gate, charged by the ring.
    pub(crate) pending_storm: Duration,
}

impl PingCtx {
    /// Readies the context for ping `id` arriving at `t0`: every field as
    /// at first use, except that the span lists are emptied but keep their
    /// capacity and the buffer slots keep their previous occupants, whose
    /// storage the walk reclaims as it fills each slot again.
    pub(crate) fn reset(&mut self, id: u64, t0: Instant) {
        fn emptied<T>(mut list: Vec<T>) -> Vec<T> {
            list.clear();
            list
        }
        let spent = std::mem::take(self);
        *self = PingCtx {
            id,
            t0,
            trace: PingTrace { id, ul: emptied(spent.trace.ul), dl: emptied(spent.trace.dl) },
            payload: spent.payload,
            mac_pdus: spent.mac_pdus,
            in_rlc: t0,
            sr_ready: t0,
            dl_t0: t0,
            reply: spent.reply,
            dl_pdus: spent.dl_pdus,
            delivered: spent.delivered,
            in_rlc_q: t0,
            ..PingCtx::default()
        };
    }
}

/// How a hop left the walk.
#[derive(Debug, Clone, Copy)]
pub(crate) enum HopOutcome {
    /// The walk goes on with this event, firing at this instant (never
    /// before the event that produced it).
    Next(Instant, PingEvent),
    /// The ping is lost (attributed to the dominant fault by the driver).
    Lost,
    /// The ping completed (latency already recorded).
    Done,
}

/// Routes `ev`, which fired at `at`, to the hop (or the fault gate in
/// front of it) that consumes it, and returns that hop's successor. Hops
/// read/write the experiment's layer entities and RNG streams (`exp`),
/// the per-ping state (`ctx`) and the run's accumulators (`result`).
pub(crate) fn dispatch(
    exp: &mut PingExperiment,
    ctx: &mut PingCtx,
    result: &mut ExperimentResult,
    at: Instant,
    ev: PingEvent,
) -> HopOutcome {
    match ev {
        PingEvent::Arrival => app_down(exp, ctx, at),
        PingEvent::UlAccess => ul_access(exp, ctx, at),
        PingEvent::SrTx { probe } => sr_tx(exp, ctx, result, probe),
        PingEvent::SrOnAir { slot, tx_start } => sr_loss_gate(exp, ctx, result, slot, tx_start),
        PingEvent::SrReady => ul_sched_request(exp, ctx, at),
        PingEvent::SchedRound { slot } => ul_sched(exp, ctx, at, slot),
        PingEvent::GrantIssued { grant, decision_slot } => {
            grant_gate(exp, ctx, result, grant, decision_slot)
        }
        PingEvent::UlTxReady { granted_slot } => ul_tx(exp, ctx, result, at, granted_slot),
        PingEvent::AirDeliver => harq_delivery(exp, ctx, result, at),
        PingEvent::RlfDetour => rlf_recovery(exp, ctx, result, at),
        PingEvent::GnbRx => gnb_radio_storm_gate(exp, ctx, at),
        PingEvent::GnbWalk => gnb_walk_up(exp, ctx, result, at),
        PingEvent::Backbone { dl } => spike_gate(exp, ctx, result, at, dl),
        PingEvent::DlWalkDown => dl_walk_down(exp, ctx, result, at),
        PingEvent::DlSched { slot } => dl_sched(exp, ctx, result, at, slot),
        PingEvent::DlPrepare { dl_tx } => dl_prep_storm_gate(exp, ctx, result, at, dl_tx),
        PingEvent::RingSubmit { dl_tx } => radio_ring(exp, ctx, at, dl_tx),
        PingEvent::UeRx => ue_rx_up(exp, ctx, result, at),
    }
}

/// The trace leg the block in flight belongs to.
fn leg(trace: &mut PingTrace, dl: bool) -> &mut Vec<StageSpan> {
    if dl {
        &mut trace.dl
    } else {
        &mut trace.ul
    }
}

/// Empties the delivered list for the block about to be received and
/// returns its first entry, the previous leg's delivery: the storage the
/// receive copy reuses when nothing else holds it, so the UL and DL
/// receive copies take turns in one buffer.
fn spare_of(delivered: &mut Vec<Bytes>) -> Bytes {
    let spare = delivered.first_mut().map(std::mem::take).unwrap_or_default();
    delivered.clear();
    spare
}

// ---------------------------------------------------------------------
// Uplink hops
// ---------------------------------------------------------------------

/// ① `APP↓`: the UE walks the request down SDAP→PDCP→RLC and encodes the
/// actual MAC PDU(s).
fn app_down(exp: &mut PingExperiment, ctx: &mut PingCtx, at: Instant) -> HopOutcome {
    // Pings are spaced far apart: a connection that survived to the
    // next ping has been stable long enough for the re-establishment
    // counters to clear, so the budget bounds one incident chain.
    exp.rrc.reset_budget();
    ctx.payload =
        make_payload(ctx.id, exp.config.payload_bytes, 0, std::mem::take(&mut ctx.payload));
    let ue_upper =
        exp.sample_ue(|t| &t.sdap) + exp.sample_ue(|t| &t.pdcp) + exp.sample_ue(|t| &t.rlc);
    let in_rlc = at + ue_upper;
    ctx.trace.ul.push(StageSpan::new(labels::APP_DOWN, at, in_rlc));
    // Build the actual MAC PDU(s) now (content is time-independent).
    // Infallible by construction: `grant_bytes()` sizes the UL grant
    // for the configured payload plus PDCP/RLC/MAC headers, so the
    // segmenter never overflows a transport block here.
    let grant_bytes = exp.config.grant_bytes();
    exp.ue
        .encode_uplink_into(&ctx.payload, grant_bytes, &mut ctx.mac_pdus)
        .expect("UL grant sized for payload");
    ctx.ul_samples = exp.ue.phy_sample_count(ctx.mac_pdus[0].len());
    ctx.in_rlc = in_rlc;
    HopOutcome::Next(in_rlc, PingEvent::UlAccess)
}

/// ② Access fork. The UE MAC/PHY preparation is pipelined with the
/// protocol waits — the modem builds the transport block while waiting
/// for its slot, so both draws happen here.
fn ul_access(exp: &mut PingExperiment, ctx: &mut PingCtx, at: Instant) -> HopOutcome {
    ctx.ue_phy = exp.sample_ue(|t| &t.phy);
    ctx.ue_submit = exp.ue_radio.tx_radio_latency(ctx.ul_samples as u64, &mut exp.rng_ue);
    match exp.config.access {
        AccessMode::GrantFree => {
            // UE MAC prepares the transmission directly.
            let mac_t = exp.sample_ue(|t| &t.mac);
            HopOutcome::Next(at + mac_t + ctx.ue_phy, PingEvent::UlTxReady { granted_slot: None })
        }
        AccessMode::GrantBased => {
            let mut sr = SrProcedure::new(exp.config.sr);
            sr.trigger(at);
            ctx.sr = Some(sr);
            HopOutcome::Next(at, PingEvent::SrTx { probe: at })
        }
    }
}

/// ② SR transmission probe: the SR transmits at UL opportunities until
/// the gNB hears one; sr-TransMax exhaustion falls back to the four-step
/// RACH (TS 38.321 §5.4.4), whose Msg3 carries the buffer status.
fn sr_tx(
    exp: &mut PingExperiment,
    ctx: &mut PingCtx,
    result: &mut ExperimentResult,
    probe: Instant,
) -> HopOutcome {
    let sr_op = exp.timing.next_ul_opportunity(probe);
    // Infallible: `SrTx` is only ever emitted by `ul_access` (grant-based
    // arm), by this hop's retry path and by `sr_loss_gate`, all after
    // `ctx.sr` was populated; `ctx.sr` is cleared only between pings.
    let sr = ctx.sr.as_mut().expect("SR procedure in flight");
    if sr.maybe_transmit(sr_op.slot, sr_op.tx_start) {
        HopOutcome::Next(
            sr_op.tx_start,
            PingEvent::SrOnAir { slot: sr_op.slot, tx_start: sr_op.tx_start },
        )
    } else if sr.needs_rach() {
        let giving_up = sr_op.tx_start;
        let rach_cfg = exp.config.rach;
        // Random access failing too means the UE never regains uplink
        // access for this packet.
        let Some(lat) =
            ran::rach::recovery_latency(&rach_cfg, giving_up, 1, exp.injector.recovery_rng())
        else {
            return HopOutcome::Lost;
        };
        result.rach_recoveries += 1;
        exp.tel.add(metric::MAC_RACH_RECOVERIES, 1);
        ctx.ftrace.record(FaultKind::SrLoss, lat);
        ctx.trace.ul.push(StageSpan::new(labels::RACH, giving_up, giving_up + lat));
        sr.on_rach_complete();
        HopOutcome::Next(giving_up + lat, PingEvent::SrReady)
    } else {
        let next = exp.timing.slot_start(sr_op.slot + 1);
        HopOutcome::Next(next, PingEvent::SrTx { probe: next })
    }
}

/// Fault gate on [`sr_decode`]: an injected PUCCH loss costs one
/// opportunity per retry, re-entering the probe loop.
fn sr_loss_gate(
    exp: &mut PingExperiment,
    ctx: &mut PingCtx,
    result: &mut ExperimentResult,
    slot: u64,
    tx_start: Instant,
) -> HopOutcome {
    let lost = exp.injector.sr_lost();
    exp.tel.journal(JournalEvent::SrAttempt { ping: ctx.id, at: tx_start, lost });
    if !lost {
        return sr_decode(exp, ctx, result, tx_start);
    }
    let probe = exp.timing.slot_start(slot + 1);
    let next = exp.timing.next_ul_opportunity(probe);
    ctx.ftrace.record(FaultKind::SrLoss, next.tx_start - tx_start);
    result.sr_retx += 1;
    exp.tel.add(metric::MAC_SR_RETX, 1);
    HopOutcome::Next(probe, PingEvent::SrTx { probe })
}

/// ② The gNB decodes a heard SR: one-symbol PUCCH air time, then PHY +
/// MAC processing.
fn sr_decode(
    exp: &mut PingExperiment,
    ctx: &mut PingCtx,
    result: &mut ExperimentResult,
    tx_start: Instant,
) -> HopOutcome {
    let sr_air = exp.config.duplex.numerology().symbol_offset(1); // one-symbol PUCCH SR
    let sr_rx = tx_start + sr_air;
    ctx.trace.ul.push(StageSpan::new(labels::WAIT_UL_SLOT, ctx.in_rlc, tx_start));
    ctx.trace.ul.push(StageSpan::new(labels::SR, tx_start, sr_rx));
    let d_phy = exp.sample_gnb(|t| &t.phy);
    let d_mac = exp.sample_gnb(|t| &t.mac);
    result.layers.phy.push(d_phy.as_micros_f64());
    result.layers.mac.push(d_mac.as_micros_f64());
    exp.tel.observe(metric::PHY_PROC_US, d_phy);
    exp.tel.observe(metric::MAC_PROC_US, d_mac);
    let ready = sr_rx + d_phy + d_mac;
    ctx.trace.ul.push(StageSpan::new(labels::SR_DECODE, sr_rx, ready));
    HopOutcome::Next(ready, PingEvent::SrReady)
}

/// ③ The buffer status reaches the scheduler; scheduling happens once per
/// slot, so the first round is booked at the next boundary.
fn ul_sched_request(exp: &mut PingExperiment, ctx: &mut PingCtx, at: Instant) -> HopOutcome {
    ctx.sr_ready = at;
    book_ul_sched(exp, at)
}

/// Tells the scheduler the UE has data as of `at` and books the first
/// scheduling round at the next slot boundary.
fn book_ul_sched(exp: &mut PingExperiment, at: Instant) -> HopOutcome {
    exp.sched.on_sr(RNTI, at);
    let boundary = exp.timing.slot_index_at(at) + 1;
    HopOutcome::Next(exp.timing.slot_start(boundary), PingEvent::SchedRound { slot: boundary })
}

/// ④ One scheduling round per slot boundary, bounded by
/// [`MAX_SCHED_ROUNDS`] — a ping that cannot be scheduled within the
/// budget is starved out and lost.
fn ul_sched(exp: &mut PingExperiment, ctx: &mut PingCtx, at: Instant, slot: u64) -> HopOutcome {
    if ctx.sched_rounds == MAX_SCHED_ROUNDS {
        // Starved out of the scheduler entirely. `at` is this round's
        // never-run boundary.
        ctx.ftrace
            .record(FaultKind::GrantWithheld, at - ctx.first_withheld.unwrap_or(ctx.sr_ready));
        return HopOutcome::Lost;
    }
    ctx.sched_rounds += 1;
    exp.sched.run_slot_into(slot, &mut exp.decision);
    match exp.decision.ul_grants.first().copied() {
        Some(g) => {
            HopOutcome::Next(g.grant_tx, PingEvent::GrantIssued { grant: g, decision_slot: slot })
        }
        None => {
            let next = slot + 1;
            HopOutcome::Next(exp.timing.slot_start(next), PingEvent::SchedRound { slot: next })
        }
    }
}

/// Fault gate on [`grant_rx`]: a withheld grant (injected starvation) is a
/// DCI the UE never decodes; the gNB re-grants once the slot goes unused.
fn grant_gate(
    exp: &mut PingExperiment,
    ctx: &mut PingCtx,
    result: &mut ExperimentResult,
    grant: UlGrant,
    decision_slot: u64,
) -> HopOutcome {
    if !exp.injector.grant_withheld() {
        return grant_rx(exp, ctx, grant, decision_slot);
    }
    result.grants_withheld += 1;
    exp.tel.add(metric::MAC_GRANTS_WITHHELD, 1);
    exp.tel.journal(JournalEvent::FaultInjected {
        kind: FaultKind::GrantWithheld,
        at: grant.grant_tx,
        extra: Duration::ZERO,
    });
    ctx.first_withheld = ctx.first_withheld.or(Some(grant.grant_tx));
    book_ul_sched(exp, exp.timing.slot_start(grant.ul.slot + 1))
}

/// ⑤ The UE decodes the grant DCI (two-symbol CORESET) and prepares the
/// transmission (MAC + the pipelined PHY).
fn grant_rx(
    exp: &mut PingExperiment,
    ctx: &mut PingCtx,
    grant: UlGrant,
    decision_slot: u64,
) -> HopOutcome {
    if let Some(first) = ctx.first_withheld {
        ctx.ftrace.record(FaultKind::GrantWithheld, grant.grant_tx - first);
    }
    let decided = exp.timing.slot_start(decision_slot);
    ctx.trace.ul.push(StageSpan::new(labels::SCHE, ctx.sr_ready, decided));
    let dci_air = exp.config.duplex.numerology().symbol_offset(2); // two-symbol CORESET
    let grant_rx = grant.grant_tx + dci_air;
    exp.tel.journal(JournalEvent::Grant {
        ping: ctx.id,
        at: grant_rx,
        bytes: exp.config.grant_bytes(),
    });
    ctx.trace.ul.push(StageSpan::new(labels::UL_GRANT, grant.grant_tx, grant_rx));
    let prep = exp.sample_ue(|t| &t.mac);
    let ue_ready = grant_rx + prep + ctx.ue_phy;
    ctx.trace.ul.push(StageSpan::new(labels::UE_PREP, grant_rx, ue_ready));
    HopOutcome::Next(ue_ready, PingEvent::UlTxReady { granted_slot: Some(grant.ul.slot) })
}

/// ⑥ UL data transmission in the granted/next reachable opportunity.
fn ul_tx(
    exp: &mut PingExperiment,
    ctx: &mut PingCtx,
    result: &mut ExperimentResult,
    at: Instant,
    granted_slot: Option<u64>,
) -> HopOutcome {
    let tx_start = exp.ul_tx_start(at, ctx.ue_submit, granted_slot, &mut result.missed_grants);
    ctx.trace.ul.push(StageSpan::new(labels::WAIT_UL_SLOT, at.min(tx_start), tx_start));
    let air = exp.config.data_air_time(ctx.mac_pdus[0].len());
    let tx_end = tx_start + air;
    ctx.trace.ul.push(StageSpan::new(labels::UL_DATA, tx_start, tx_end));
    ctx.delivery = DeliveryState {
        dl: false,
        air,
        grant_bytes: exp.config.grant_bytes(),
        pending: None,
        recovered: None,
    };
    HopOutcome::Next(tx_end, PingEvent::AirDeliver)
}

// ---------------------------------------------------------------------
// Delivery + recovery hops (shared by both legs)
// ---------------------------------------------------------------------

/// HARQ/RLC delivery of the transport block whose air time just ended.
/// Channel loss first costs HARQ rounds (§8's retransmission steps), then
/// RLC AM escalations, then — with every budget exhausted — radio link
/// failure, which detours through [`rlf_recovery`].
fn harq_delivery(
    exp: &mut PingExperiment,
    ctx: &mut PingCtx,
    result: &mut ExperimentResult,
    at: Instant,
) -> HopOutcome {
    let dl = ctx.delivery.dl;
    let spans = leg(&mut ctx.trace, dl);
    match exp.data_delivery(dl, at, result, &mut ctx.ftrace) {
        Ok(extra) => {
            let done = at + extra;
            if let Some((span_start, failed_at)) = ctx.delivery.pending.take() {
                // The recovered retransmission got through: close the
                // recovery's ledger at the delivery instant.
                spans.push(StageSpan::new(labels::PDCP_RECOVER, span_start, done));
                result.recovery.record(done - failed_at);
                if let Some(kind) = ctx.ftrace.dominant() {
                    ctx.ftrace.record(kind, done - failed_at);
                }
            }
            HopOutcome::Next(done, if dl { PingEvent::UeRx } else { PingEvent::GnbRx })
        }
        Err(wasted) => {
            let failed_at = at + wasted;
            if let Some((span_start, prev_failed)) = ctx.delivery.pending.take() {
                // The retried block died too: close the previous
                // recovery's ledger at this new failure.
                spans.push(StageSpan::new(labels::PDCP_RECOVER, span_start, failed_at));
                result.recovery.record(failed_at - prev_failed);
            }
            result.rlf.push(RlfEvent {
                ping: ctx.id,
                dl,
                dominant: ctx.ftrace.dominant(),
                recovered: false,
            });
            exp.tel.journal(JournalEvent::Rlf { ping: ctx.id, dl, at: failed_at });
            HopOutcome::Next(failed_at, PingEvent::RlfDetour)
        }
    }
}

/// The RRC re-establishment detour: detect → RACH re-access → RRC
/// processing → PDCP data recovery, then the recovered block is retried
/// over the fresh link (back through [`harq_delivery`]).
fn rlf_recovery(
    exp: &mut PingExperiment,
    ctx: &mut PingCtx,
    result: &mut ExperimentResult,
    at: Instant,
) -> HopOutcome {
    let dl = ctx.delivery.dl;
    // Detour spans accrue on both outcomes (a failed data recovery still
    // shows the detect/RACH/reestablish legs it burned).
    let spans = leg(&mut ctx.trace, dl);
    let Some((resume, span_start, pdus)) =
        exp.recover_rlf(dl, at, ctx.delivery.grant_bytes, spans, result)
    else {
        return HopOutcome::Lost;
    };
    if let Some(ev) = result.rlf.last_mut() {
        ev.recovered = true;
    }
    ctx.delivery.recovered = Some(pdus);
    ctx.delivery.pending = Some((span_start, at));
    HopOutcome::Next(resume + ctx.delivery.air, PingEvent::AirDeliver)
}

// ---------------------------------------------------------------------
// gNB receive + backbone hops
// ---------------------------------------------------------------------

/// Draws the fronthaul OS-jitter stall riding on a radio crossing that
/// would otherwise complete at `done`; a non-zero stall is recorded and
/// journaled at the delayed instant.
fn storm_stall(exp: &mut PingExperiment, done: Instant) -> Duration {
    let storm = exp.injector.storm_delay();
    if storm > Duration::ZERO {
        exp.tel.observe(metric::RADIO_STORM_US, storm);
        exp.tel.journal(JournalEvent::FaultInjected {
            kind: FaultKind::JitterStorm,
            at: done + storm,
            extra: storm,
        });
    }
    storm
}

/// Fault gate on [`gnb_radio`]: on the UL receive side a storm lengthens
/// the `Radio` span and is charged to the ping immediately.
fn gnb_radio_storm_gate(exp: &mut PingExperiment, ctx: &mut PingCtx, at: Instant) -> HopOutcome {
    let host_rx = gnb_radio(exp, ctx, at);
    let storm = storm_stall(exp, host_rx);
    if storm > Duration::ZERO {
        ctx.ftrace.record(FaultKind::JitterStorm, storm);
    }
    ctx.trace.ul.push(StageSpan::new(labels::RADIO, at, host_rx + storm));
    HopOutcome::Next(host_rx + storm, PingEvent::GnbWalk)
}

/// ⑦ The gNB radio head receives the UL samples; returns the instant they
/// reach the host.
fn gnb_radio(exp: &mut PingExperiment, ctx: &PingCtx, at: Instant) -> Instant {
    at + exp.gnb_radio.rx_radio_latency(ctx.ul_samples as u64, &mut exp.rng_gnb)
}

/// ⑦ The gNB walks the packet up PHY→MAC→RLC→PDCP→SDAP and decodes the
/// actual bytes (through PHY samples), checking byte-exact delivery.
fn gnb_walk_up(
    exp: &mut PingExperiment,
    ctx: &mut PingCtx,
    result: &mut ExperimentResult,
    at: Instant,
) -> HopOutcome {
    let d_phy = exp.sample_gnb(|t| &t.phy);
    let d_mac = exp.sample_gnb(|t| &t.mac);
    let d_rlc = exp.sample_gnb(|t| &t.rlc);
    let d_pdcp = exp.sample_gnb(|t| &t.pdcp);
    let d_sdap = exp.sample_gnb(|t| &t.sdap);
    result.layers.phy.push(d_phy.as_micros_f64());
    result.layers.mac.push(d_mac.as_micros_f64());
    result.layers.rlc.push(d_rlc.as_micros_f64());
    result.layers.pdcp.push(d_pdcp.as_micros_f64());
    result.layers.sdap.push(d_sdap.as_micros_f64());
    exp.tel.observe(metric::PHY_PROC_US, d_phy);
    exp.tel.observe(metric::MAC_PROC_US, d_mac);
    exp.tel.observe(metric::RLC_PROC_US, d_rlc);
    exp.tel.observe(metric::PDCP_PROC_US, d_pdcp);
    exp.tel.observe(metric::SDAP_PROC_US, d_sdap);
    let decoded_at = at + d_phy + d_mac + d_rlc + d_pdcp + d_sdap;
    ctx.trace.ul.push(StageSpan::new(labels::MAC_UP, at, decoded_at));
    // After a recovery, both RLC entities restarted their numbering
    // and the in-flight SDU was PDCP-retransmitted: the recovered MAC
    // PDUs are what actually crossed the air.
    let recovered = ctx.delivery.recovered.take();
    let mac_pdus = recovered.as_deref().unwrap_or(&ctx.mac_pdus);
    let got = &mut ctx.delivered;
    let spare = &mut spare_of(got);
    let air_samples = exp.ue.phy_encode(&mac_pdus[0]);
    let decoded = exp.gnb.receive_uplink(RNTI, air_samples, spare, got).is_ok();
    let mut delivered_ok = decoded && got.first() == Some(&ctx.payload);
    // Push any remaining segments through (tiny grants).
    if decoded && !delivered_ok {
        for extra in &mac_pdus[1..] {
            let s = exp.ue.phy_encode(extra);
            // A segment that fails to decode adds nothing.
            let _ = exp.gnb.receive_uplink(RNTI, s, spare, got);
        }
        delivered_ok = got.first() == Some(&ctx.payload);
    }
    if !delivered_ok {
        result.integrity_failures += 1;
    }
    exp.gnb.acknowledge(&mut exp.ue, false).expect("the ping's UE is attached");
    HopOutcome::Next(decoded_at, PingEvent::Backbone { dl: false })
}

/// Fault gate on [`backbone`]: a latency spike on the transport network
/// rides on top of the sampled N3 crossing.
fn spike_gate(
    exp: &mut PingExperiment,
    ctx: &mut PingCtx,
    result: &mut ExperimentResult,
    at: Instant,
    dl: bool,
) -> HopOutcome {
    let spike = exp.injector.backbone_spike();
    if spike > Duration::ZERO {
        ctx.ftrace.record(FaultKind::BackboneSpike, spike);
        exp.tel.journal(JournalEvent::FaultInjected {
            kind: FaultKind::BackboneSpike,
            at,
            extra: spike,
        });
    }
    backbone(exp, ctx, result, at, dl, spike)
}

/// ⑦/⑧ One N3 traversal under GTP-U path supervision, `delay` longer than
/// sampled — the UL leg ends the request (the server replies immediately),
/// the DL leg carries the reply back to the gNB.
fn backbone(
    exp: &mut PingExperiment,
    ctx: &mut PingCtx,
    result: &mut ExperimentResult,
    at: Instant,
    dl: bool,
    delay: Duration,
) -> HopOutcome {
    let arrived = at + exp.backbone_traverse(at, result, &mut ctx.ftrace) + delay;
    if dl {
        ctx.dl_t0 = at;
        HopOutcome::Next(arrived, PingEvent::DlWalkDown)
    } else {
        ctx.trace.ul.push(StageSpan::new(labels::UPF, at, arrived));
        result.ul.record(arrived - ctx.t0);
        HopOutcome::Next(arrived, PingEvent::Backbone { dl: true })
    }
}

// ---------------------------------------------------------------------
// Downlink hops
// ---------------------------------------------------------------------

/// ⑧ The reply reaches the gNB and walks down SDAP→PDCP→RLC into the
/// queue; the DL MAC PDU(s) are encoded and the scheduler learns of the
/// data.
fn dl_walk_down(
    exp: &mut PingExperiment,
    ctx: &mut PingCtx,
    result: &mut ExperimentResult,
    at: Instant,
) -> HopOutcome {
    let d_sdap = exp.sample_gnb(|t| &t.sdap);
    let d_pdcp = exp.sample_gnb(|t| &t.pdcp);
    let d_rlc = exp.sample_gnb(|t| &t.rlc);
    result.layers.sdap.push(d_sdap.as_micros_f64());
    result.layers.pdcp.push(d_pdcp.as_micros_f64());
    result.layers.rlc.push(d_rlc.as_micros_f64());
    exp.tel.observe(metric::SDAP_PROC_US, d_sdap);
    exp.tel.observe(metric::PDCP_PROC_US, d_pdcp);
    exp.tel.observe(metric::RLC_PROC_US, d_rlc);
    let in_rlc_q = at + d_sdap + d_pdcp + d_rlc;
    ctx.trace.dl.push(StageSpan::new(labels::SDAP_DOWN, at, in_rlc_q));
    // The server builds the reply with room for the UPF's G-PDU header in
    // front and hands it over, so the N3 packet is the reply's own buffer;
    // the reply the UE must deliver is the view the tunnel carried.
    let (id, spent) = (ctx.id | 0x8000_0000_0000_0000, std::mem::take(&mut ctx.reply));
    let reply = make_payload(id, exp.config.payload_bytes, GPDU_HEADER_LEN, spent);
    // Infallible by construction: `slot_capacity_bytes()` derives the
    // DL slot budget from the same config that sizes the reply, and the
    // session for UE_ADDR was registered at experiment setup.
    let cap = exp.config.slot_capacity_bytes();
    let (rnti, reply) = exp
        .gnb
        .encode_downlink_into(UE_ADDR, reply, cap, &mut ctx.dl_pdus)
        .expect("DL slot sized for reply");
    ctx.reply = reply;
    let tb_bytes = ctx.dl_pdus[0].len();
    ctx.dl_samples = exp
        .gnb
        .phy_sample_count(rnti, tb_bytes)
        .expect("encode_downlink routed the reply to an attached UE");
    exp.sched.on_dl_data(RNTI, tb_bytes, in_rlc_q);
    ctx.in_rlc_q = in_rlc_q;
    let boundary = exp.timing.slot_index_at(in_rlc_q) + 1;
    HopOutcome::Next(exp.timing.slot_start(boundary), PingEvent::DlSched { slot: boundary })
}

/// ⑨ One DL scheduling round per slot boundary. The slot task that makes
/// the decision pulls the data from the RLC queue and builds the transport
/// block right away (srsRAN's one-worker pipeline), so the decision instant
/// ends the Table 2 "RLC-q" interval.
fn dl_sched(
    exp: &mut PingExperiment,
    ctx: &mut PingCtx,
    result: &mut ExperimentResult,
    at: Instant,
    slot: u64,
) -> HopOutcome {
    if ctx.dl_sched_rounds == MAX_SCHED_ROUNDS {
        // The scheduler never served the reply: the ping is lost.
        return HopOutcome::Lost;
    }
    ctx.dl_sched_rounds += 1;
    exp.sched.run_slot_into(slot, &mut exp.decision);
    let Some(assign) = exp.decision.dl_assignments.first().copied() else {
        let next = slot + 1;
        return HopOutcome::Next(exp.timing.slot_start(next), PingEvent::DlSched { slot: next });
    };
    let dl_tx = assign.dl.tx_start;
    let tb_build = at; // == slot_start(slot): this round's boundary
    result.layers.rlcq.push((tb_build - ctx.in_rlc_q).as_micros_f64());
    exp.tel.observe(metric::RLC_QUEUE_US, tb_build - ctx.in_rlc_q);
    ctx.trace.dl.push(StageSpan::new(labels::RLC_Q, ctx.in_rlc_q, tb_build));
    HopOutcome::Next(tb_build, PingEvent::DlPrepare { dl_tx })
}

/// Fault gate on [`dl_prep`]: on the DL prepare side a storm delays the
/// ring submission, and [`radio_ring`] charges whatever the missed slot
/// actually costs.
fn dl_prep_storm_gate(
    exp: &mut PingExperiment,
    ctx: &mut PingCtx,
    result: &mut ExperimentResult,
    at: Instant,
    dl_tx: Instant,
) -> HopOutcome {
    let submitted = dl_prep(exp, ctx, result, at);
    ctx.pending_storm = storm_stall(exp, submitted);
    HopOutcome::Next(submitted + ctx.pending_storm, PingEvent::RingSubmit { dl_tx })
}

/// ⑩ DL MAC/PHY prepare the slot and submit samples to the radio; they
/// must beat the air time (§4's margin, §6's reliability risk). Returns
/// the instant the samples reach the TX ring.
fn dl_prep(
    exp: &mut PingExperiment,
    ctx: &PingCtx,
    result: &mut ExperimentResult,
    at: Instant,
) -> Instant {
    let d_mac = exp.sample_gnb(|t| &t.mac);
    let d_phy = exp.sample_gnb(|t| &t.phy);
    result.layers.mac.push(d_mac.as_micros_f64());
    result.layers.phy.push(d_phy.as_micros_f64());
    exp.tel.observe(metric::MAC_PROC_US, d_mac);
    exp.tel.observe(metric::PHY_PROC_US, d_phy);
    let submit = exp.gnb_radio.tx_radio_latency(ctx.dl_samples as u64, &mut exp.rng_gnb);
    at + d_mac + d_phy + submit
}

/// ⑩ The TX ring checks the deadline: on-time samples fly in the assigned
/// slot; an underrun corrupts it and the block retransmits at the next DL
/// opportunity the samples can make.
fn radio_ring(
    exp: &mut PingExperiment,
    ctx: &mut PingCtx,
    at: Instant,
    dl_tx: Instant,
) -> HopOutcome {
    let storm = std::mem::replace(&mut ctx.pending_storm, Duration::ZERO);
    let outcome = exp.ring.submit(at, dl_tx);
    let dl_tx = if outcome.is_on_time() {
        if storm > Duration::ZERO {
            ctx.ftrace.record(FaultKind::JitterStorm, Duration::ZERO);
        }
        dl_tx
    } else {
        let retry = exp.timing.next_dl_opportunity(at).tx_start;
        if storm > Duration::ZERO {
            ctx.ftrace.record(FaultKind::JitterStorm, retry - dl_tx);
        }
        retry
    };
    let air = exp.config.data_air_time(ctx.dl_pdus[0].len());
    ctx.trace.dl.push(StageSpan::new(labels::DL_DATA, dl_tx, dl_tx + air));
    ctx.delivery = DeliveryState {
        dl: true,
        air,
        grant_bytes: exp.config.slot_capacity_bytes(),
        pending: None,
        recovered: None,
    };
    HopOutcome::Next(dl_tx + air, PingEvent::AirDeliver)
}

/// ⑪ The UE receives the reply, walks it up radio→PHY→RLC→PDCP→SDAP and
/// decodes the actual bytes; the ping's latencies are recorded here.
fn ue_rx_up(
    exp: &mut PingExperiment,
    ctx: &mut PingCtx,
    result: &mut ExperimentResult,
    at: Instant,
) -> HopOutcome {
    let ue_rx_radio = exp.ue_radio.rx_radio_latency(ctx.dl_samples as u64, &mut exp.rng_ue);
    let ue_phy = exp.sample_ue(|t| &t.phy);
    let ue_upper =
        exp.sample_ue(|t| &t.rlc) + exp.sample_ue(|t| &t.pdcp) + exp.sample_ue(|t| &t.sdap);
    let delivered = at + ue_rx_radio + ue_phy + ue_upper;
    ctx.trace.dl.push(StageSpan::new(labels::PHY_UP, at, delivered));
    // Decode the actual bytes (the recovered PDUs when an RLF detour
    // re-established the bearer mid-reply).
    let recovered = ctx.delivery.recovered.take();
    let dl_pdus = recovered.as_deref().unwrap_or(&ctx.dl_pdus);
    let got = &mut ctx.delivered;
    let spare = &mut spare_of(got);
    let decoded = exp
        .gnb
        .phy_encode(RNTI, &dl_pdus[0])
        .and_then(|air_samples| exp.ue.receive_downlink(air_samples, spare, got))
        .is_ok();
    let mut ok = decoded && got.first() == Some(&ctx.reply);
    if decoded && !ok {
        for extra in &dl_pdus[1..] {
            // A segment that fails to decode adds nothing.
            let _ = exp
                .gnb
                .phy_encode(RNTI, extra)
                .and_then(|s| exp.ue.receive_downlink(s, spare, got));
        }
        ok = got.first() == Some(&ctx.reply);
    }
    if !ok {
        result.integrity_failures += 1;
    }
    exp.gnb.acknowledge(&mut exp.ue, true).expect("the ping's UE is attached");
    result.dl.record(delivered - ctx.dl_t0);
    let rtt = delivered - ctx.t0;
    result.rtt.record(rtt);
    result.attribution.record_delivered(rtt <= exp.config.deadline, ctx.ftrace.dominant());
    HopOutcome::Done
}
