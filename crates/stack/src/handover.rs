//! Inter-cell mobility: a two-gNB topology, a moving UE, and the Xn
//! handover keeping a downlink URLLC stream lossless across cell changes.
//!
//! The paper's testbed is stationary; this experiment asks the obvious
//! next question — what mobility does to the tail. A UE shuttles between
//! two cells on a straight line while a constant-bit-rate downlink stream
//! runs. The [`ran::HandoverEntity`] clockwork drives the control plane
//! (A3 → Xn preparation → reconfiguration-with-sync → RACH → complete);
//! this module owns the data plane:
//!
//! * PDCP PDUs transmitted during the interruption window stay in the
//!   source gNB's retransmission buffer;
//! * at completion, an SN STATUS TRANSFER hands the downlink COUNT to the
//!   target and the buffered PDUs are replayed through a real
//!   [`corenet::XnForwardingTunnel`] (byte-level GTP-U), closed by an end
//!   marker after the UPF path switch;
//! * the UE's PDCP entity sees one contiguous, in-order COUNT sequence —
//!   the *lossless handover* property the report asserts.
//!
//! The `sim::faults` handover process injects the mobility failure
//! taxonomy — too-late, too-early, ping-pong, forwarding-tunnel loss —
//! and every mode recovers (re-establishment or re-forwarding) with typed
//! per-packet attribution, never a drop.
//!
//! [`HandoverInterruptionModel`] bounds the interruption windows this
//! simulation measures in closed form — the worst-case methodology of
//! `crate::recovery` applied to mobility. One handover's service
//! interruption — UE receives the HO command → data flowing again on the
//! target — decomposes per failure mode:
//!
//! ```text
//! T_handover  = T_reconfig + T_rach_cf + T_complete + 2·T_xn
//! T_too_late  = T_detect + T_rach + T_reestablish + 2·T_xn
//! T_too_early = T_reconfig + T304 + T_too_late_recovery
//! T_fwd_loss  = 2·T_xn                       (re-forwarding the batch)
//! ```
//!
//! * **handover** — the fault-free Xn procedure: `RRCReconfiguration`
//!   processing, contention-free RACH to the target (dedicated preamble,
//!   so [`ran::RachConfig::uncontended_worst_case`] applies), the
//!   completion message, and one Xn round trip for the path switch plus
//!   forwarding flush;
//! * **too-late** — the serving link dies before the command: a full RRC
//!   re-establishment ([`ran::RrcEntity::control_plane_worst_case`]) plus
//!   the Xn context fetch;
//! * **too-early** — target access fails until T304 expires, then the UE
//!   re-establishes: the reconfiguration leg, the full timer, and the
//!   same re-establishment bound;
//! * **forwarding loss** — the forwarded PDCP batch vanishes in the
//!   Xn tunnel once and is replayed: one extra Xn round trip, additive to
//!   whichever mode it decorates.
//!
//! [`HandoverInterruptionModel::worst_case`] upper-bounds every simulated
//! interruption window, per forced failure mode in this module's tests.
//! It is built from the `HandoverEntity`/`RrcEntity` methods the
//! simulation runs on, so it restates the simulator.

use std::collections::VecDeque;

use bytes::Bytes;
use corenet::gtpu::GtpuHeader;
use corenet::{SnStatusTransfer, Upf, XnForwardingTunnel, XnReceiver};
use ran::pdcp::Direction;
use ran::{HandoverEntity, PdcpConfig, PdcpEntity, PdcpStatusReport, RrcEntity};
use sim::{
    Duration, FaultAttribution, FaultInjector, FaultKind, FaultTally, Instant, LatencyRecorder,
    PingFaultTrace, SimRng,
};
use telemetry::{ExemplarOutcome, ExemplarSpan, JournalEvent, Profiler, TailExemplar, Telemetry};

use crate::config::StackConfig;

/// UE IP address in the UPF session table.
const UE_ADDR: u32 = 1;
/// Downlink TEIDs of the two cells' N3 tunnels.
const CELL_TEID: [u32; 2] = [0x11, 0x22];
/// Forwarding-tunnel TEID base (per-target offset).
const FWD_TEID: u32 = 0xF000;
/// PDCP bearer identity of the stream.
const BEARER: u8 = 1;
/// Ping-pong bounces allowed per A3 trigger before the (modelled) network
/// pins the UE to its current cell — bounds the chain even under an
/// injected bounce probability of 1.
const MAX_BOUNCES: u32 = 8;

/// The UE's radio environment: two gNBs on a line, the UE shuttling
/// between them in a triangle wave, log-distance pathloss mapping
/// position to per-cell RSRP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalTrajectory {
    /// UE speed along the line, m/s.
    pub speed_mps: f64,
    /// Distance between the two gNBs, metres (cell 0 at 0, cell 1 at
    /// `cell_spacing_m`).
    pub cell_spacing_m: f64,
    /// Near turn-around point of the shuttle, metres from cell 0.
    pub lo_m: f64,
    /// Far turn-around point, metres from cell 0.
    pub hi_m: f64,
    /// Cell transmit power, dBm (both cells equal).
    pub tx_power_dbm: f64,
}

impl SignalTrajectory {
    /// Two cells 200 m apart, the UE shuttling 20 m–180 m — each leg
    /// crosses the cell border once, so every leg demands one handover.
    pub(crate) fn intercell(speed_mps: f64) -> SignalTrajectory {
        SignalTrajectory {
            speed_mps,
            cell_spacing_m: 200.0,
            lo_m: 20.0,
            hi_m: 180.0,
            tx_power_dbm: 30.0,
        }
    }

    /// Simulated time of one full leg (lo → hi or back).
    pub(crate) fn leg_duration(&self) -> Duration {
        Duration::from_micros(((self.hi_m - self.lo_m) / self.speed_mps * 1e6) as u64)
    }

    /// UE position at `at`, metres from cell 0: a triangle wave starting
    /// at `lo_m` moving outward.
    pub(crate) fn position_m(&self, at: Instant) -> f64 {
        let span = self.hi_m - self.lo_m;
        let travelled = self.speed_mps * at.as_nanos() as f64 * 1e-9;
        let phase = travelled % (2.0 * span);
        self.lo_m + if phase <= span { phase } else { 2.0 * span - phase }
    }

    /// RSRP from `cell` (0 or 1) at `at`: log-distance pathloss
    /// `PL = 128.1 + 37.6·log10(d_km)` (the 3GPP macro model), distance
    /// floored at 10 m.
    pub(crate) fn rsrp_dbm(&self, cell: usize, at: Instant) -> f64 {
        let cell_m = if cell == 0 { 0.0 } else { self.cell_spacing_m };
        let d_km = ((self.position_m(at) - cell_m).abs().max(10.0)) / 1000.0;
        self.tx_power_dbm - (128.1 + 37.6 * d_km.log10())
    }
}

/// One mobility run: a stack configuration, a trajectory, and the
/// downlink stream riding across the handovers.
#[derive(Debug, Clone)]
pub struct MobilityConfig {
    /// Stack configuration: handover policy, RACH/RRC timing, fault plan,
    /// seed, deadline.
    pub stack: StackConfig,
    /// The radio environment.
    pub trajectory: SignalTrajectory,
    /// Downlink packet period of the CBR stream.
    pub packet_interval: Duration,
    /// Total packets offered.
    pub n_packets: u64,
    /// Measurement-occasion period (A3 sampling).
    pub meas_period: Duration,
}

impl MobilityConfig {
    /// A run long enough for `legs` full traversals (each leg crosses the
    /// cell border once), with a 2 ms CBR stream and 5 ms measurements.
    pub fn for_speed(stack: StackConfig, speed_mps: f64, legs: u32) -> MobilityConfig {
        let trajectory = SignalTrajectory::intercell(speed_mps);
        let packet_interval = Duration::from_millis(2);
        let n_packets =
            trajectory.leg_duration().as_nanos() * u64::from(legs) / packet_interval.as_nanos();
        MobilityConfig {
            stack,
            trajectory,
            packet_interval,
            n_packets,
            meas_period: Duration::from_millis(5),
        }
    }
}

/// What one mobility run produced.
#[derive(Debug, Clone)]
pub struct MobilityReport {
    /// Packets offered to the stream.
    pub offered: u64,
    /// Packets delivered to the UE.
    pub delivered: u64,
    /// Packets still buffered anywhere at the end (0 after the final
    /// flush — the conservation check).
    pub in_flight: u64,
    /// Packets dropped (always 0: the handover is lossless).
    pub drops: u64,
    /// Packets delivered out of order (always 0: PDCP reorders).
    pub out_of_order: u64,
    /// Handover executions started (A3 fires plus ping-pong bounces).
    pub handovers: u64,
    /// Handovers completing via the Xn procedure.
    pub completed: u64,
    /// Too-late failures (RLF before the command; re-establishment).
    pub too_late: u64,
    /// Too-early failures (T304 expiry; re-establishment).
    pub too_early: u64,
    /// Ping-pong bounces (immediate handover back).
    pub ping_pongs: u64,
    /// Forwarding-tunnel losses (batch re-forwarded).
    pub forwarding_losses: u64,
    /// Service-interruption samples, one per handover window
    /// (detach → data resumption, failures included).
    pub interruption: LatencyRecorder,
    /// Per-packet delivery latency.
    pub latency: LatencyRecorder,
    /// Deadline attribution split by dominating fault.
    pub attribution: FaultAttribution,
    /// Injected-fault event counts.
    pub tally: FaultTally,
}

impl MobilityReport {
    /// Packet conservation: every offered packet is delivered, still in
    /// flight, or (never, in this design) dropped.
    pub fn conserved(&self) -> bool {
        self.offered == self.delivered + self.in_flight + self.drops
    }
}

/// One scheduled service-interruption window: the UE detaches from
/// `source` at `detach` and data resumes on `target` at `resume`.
#[derive(Debug, Clone, Copy)]
struct Window {
    detach: Instant,
    resume: Instant,
    source: usize,
    target: usize,
    /// Typed attribution for packets caught in the window (`None` for a
    /// fault-free handover: the detour is mobility baseline, not a fault).
    kind: Option<FaultKind>,
    /// The first forwarding flush is lost and replayed.
    fwd_lost: bool,
    /// Whether the window ends with a completed handover (vs recovery).
    via_handover: bool,
}

struct MobilitySim<'a> {
    cfg: &'a MobilityConfig,
    tel: Telemetry,
    prof: Profiler,
    inj: FaultInjector,
    gnb: [PdcpEntity; 2],
    ue: PdcpEntity,
    upf: Upf,
    ho: HandoverEntity,
    rrc: RrcEntity,
    serving: usize,
    windows: VecDeque<Window>,
    /// Packets caught in the front window: (payload index, send instant).
    held: Vec<(u64, Instant)>,
    delivery_delay: Duration,
    next_expected: u64,
    executions: u64,
    completed: u64,
    fwd_losses: u64,
    /// Monotone id for resolved interruption windows — the flight
    /// recorder's "ping" id for handover-failure exemplars.
    flushed: u64,
    offered: u64,
    delivered: u64,
    out_of_order: u64,
    latency: LatencyRecorder,
    interruption: LatencyRecorder,
    attribution: FaultAttribution,
}

impl MobilitySim<'_> {
    fn new<'a>(cfg: &'a MobilityConfig, tel: Option<&Telemetry>) -> MobilitySim<'a> {
        let tel = tel.cloned().unwrap_or_else(Telemetry::disabled);
        let master = SimRng::from_seed(cfg.stack.seed);
        let inj = FaultInjector::new(&cfg.stack.faults, &master);
        let key = cfg.stack.seed ^ 0xC0DE_CAFE;
        let mut gnb = [
            PdcpEntity::new(PdcpConfig::new(key, BEARER, Direction::Downlink)),
            PdcpEntity::new(PdcpConfig::new(key, BEARER, Direction::Downlink)),
        ];
        // The UE's receive entity deciphers the gNBs' downlink keystream.
        let ue = PdcpEntity::new(PdcpConfig::new(key, BEARER, Direction::Uplink));
        let mut upf = Upf::new();
        upf.set_telemetry(tel.clone());
        upf.establish_session(UE_ADDR, CELL_TEID[0]);
        let mut ho = HandoverEntity::new(cfg.stack.handover, cfg.stack.rach);
        ho.set_telemetry(tel.clone());
        let mut rrc = RrcEntity::new(cfg.stack.rrc, cfg.stack.rach);
        rrc.set_telemetry(tel.clone());
        for g in &mut gnb {
            g.set_telemetry(tel.clone());
        }
        // Deterministic base delivery delay of the fault-free data path:
        // scheduling lead + air time + N3 transport mean.
        let delivery_delay = cfg.stack.sched_lead
            + cfg.stack.data_air_time(cfg.stack.payload_bytes)
            + cfg.stack.backbone.mean();
        MobilitySim {
            cfg,
            tel,
            prof: Profiler::disabled(),
            inj,
            gnb,
            ue,
            upf,
            ho,
            rrc,
            serving: 0,
            windows: VecDeque::new(),
            held: Vec::new(),
            delivery_delay,
            next_expected: 0,
            executions: 0,
            completed: 0,
            fwd_losses: 0,
            flushed: 0,
            offered: 0,
            delivered: 0,
            out_of_order: 0,
            latency: LatencyRecorder::new(),
            interruption: LatencyRecorder::new(),
            attribution: FaultAttribution::default(),
        }
    }

    /// Flushes every window whose resume instant has passed.
    fn advance(&mut self, now: Instant) {
        while self.windows.front().is_some_and(|w| w.resume <= now) {
            self.flush_front();
        }
    }

    /// Resolves the front window: SN status transfer, Xn forwarding with
    /// real GTP-U bytes, end marker, UPF path switch, delivery of the
    /// held packets, and the serving-cell change.
    fn flush_front(&mut self) {
        // Infallibility note: every `expect` below sits on a loopback path —
        // the engine itself produced the bytes it is decoding (PDCP PDUs it
        // ciphered, G-PDUs its own tunnel framed, a session it registered at
        // construction). Malformed-peer handling lives in the entity layers
        // (`XnReceiver::accept`, `PdcpEntity::rx_decode` return typed
        // errors); a panic here means the engine corrupted its own state.
        let w = self.windows.pop_front().expect("flush_front requires a queued window");
        let status = SnStatusTransfer { dl_tx_next: self.gnb[w.source].tx_next_count() };
        let nothing_confirmed = PdcpStatusReport { fmc: 0, received: Vec::new() };
        let pdus = self.gnb[w.source].retransmit_unconfirmed(&nothing_confirmed);

        let teid = FWD_TEID + w.target as u32;
        let mut tunnel = XnForwardingTunnel::new(teid);
        let mut receiver = XnReceiver::new(teid);
        receiver.set_telemetry(self.tel.clone());
        if w.fwd_lost {
            // First flush lost in the tunnel: the batch crosses the wire
            // and vanishes; the source replays it (re-encoding with the
            // original COUNTs is byte-identical).
            for pdu in &pdus {
                let _lost = tunnel.forward(pdu).expect("PDCP PDU fits the Xn MTU");
            }
            self.fwd_losses += 1;
        }
        for pdu in &pdus {
            let wire = tunnel.forward(pdu).expect("PDCP PDU fits the Xn MTU");
            receiver.accept(&wire).expect("forwarded G-PDU is well-formed");
        }
        receiver.accept(&tunnel.end_marker()).expect("end marker is well-formed");
        debug_assert!(receiver.ended());

        self.gnb[w.target].set_tx_next(status.dl_tx_next);
        self.upf
            .rebind_session(UE_ADDR, CELL_TEID[w.target])
            .expect("the session outlives every handover");

        // Deliver the forwarded PDUs in COUNT order; they pair 1:1 with
        // the held packets in send order.
        let held = std::mem::take(&mut self.held);
        let held_len = held.len();
        let forwarded = receiver.drain();
        debug_assert_eq!(held_len, forwarded.len());
        for (pdu, (idx, sent_at)) in forwarded.iter().zip(held) {
            let sdus = self.ue.rx_decode(pdu).expect("forwarded PDU deciphers");
            let d = w.resume - sent_at;
            let mut trace = PingFaultTrace::new();
            if let Some(kind) = w.kind {
                trace.record(kind, d.saturating_sub(self.delivery_delay));
            }
            if w.fwd_lost {
                trace.record(FaultKind::HoForwardingLoss, self.ho.config().xn_delay * 2);
            }
            for sdu in sdus {
                self.account_delivery(&sdu, idx, d, trace.dominant());
            }
        }
        self.gnb[w.source].confirm_up_to(self.gnb[w.source].tx_next_count());

        let interruption = w.resume - w.detach;
        self.interruption.record(interruption);
        self.flushed += 1;
        if self.tel.is_enabled() && (w.kind.is_some() || w.fwd_lost) {
            // Handover failure: a forced flight-recorder exemplar keeps
            // the window's full evidence even when its interruption is
            // shorter than the worst-K data-path tails.
            let ping = self.flushed - 1;
            self.tel.flight_record(ping, interruption, true, || {
                let label = w.kind.unwrap_or(FaultKind::HoForwardingLoss).label();
                let mut fault_extra = Vec::new();
                if let Some(kind) = w.kind {
                    fault_extra.push((kind.label(), interruption));
                }
                if w.fwd_lost {
                    fault_extra
                        .push((FaultKind::HoForwardingLoss.label(), self.ho.config().xn_delay * 2));
                }
                TailExemplar {
                    ping,
                    rtt: interruption,
                    outcome: if interruption > self.cfg.stack.deadline {
                        ExemplarOutcome::Late
                    } else {
                        ExemplarOutcome::OnTime
                    },
                    fault: Some(label),
                    fault_extra,
                    drop_reason: None,
                    max_queue_depth: held_len,
                    sched_rounds: 0,
                    spans: vec![ExemplarSpan { label, dl: true, start: w.detach, end: w.resume }],
                }
            });
        }
        if w.via_handover {
            self.completed += 1;
            self.ho.record_complete(interruption);
        }
        self.serving = w.target;
        self.tel.journal(JournalEvent::Handover {
            from: w.source as u8,
            to: w.target as u8,
            label: "complete",
            at: w.resume,
        });
        if self.windows.is_empty() {
            self.ho.rearm();
        }
    }

    /// One delivered SDU: order check, latency, attribution.
    fn account_delivery(&mut self, sdu: &Bytes, idx: u64, d: Duration, dom: Option<FaultKind>) {
        // Infallible: every SDU reaching this point was built by `send_dl`
        // with an 8-byte big-endian index prefix, and PDCP delivers SDUs
        // whole — a short slice here would mean the stack truncated one.
        let decoded = u64::from_be_bytes(sdu[..8].try_into().expect("payload carries its index"));
        debug_assert_eq!(decoded, idx);
        if decoded != self.next_expected {
            self.out_of_order += 1;
        }
        self.next_expected = decoded + 1;
        self.delivered += 1;
        self.latency.record(d);
        self.attribution.record_delivered(d <= self.cfg.stack.deadline, dom);
    }

    /// One measurement occasion: feed the A3 tracker; on fire, build the
    /// interruption window (drawing the failure taxonomy).
    fn on_meas(&mut self, now: Instant) {
        self.advance(now);
        if !self.windows.is_empty() {
            // Mid-handover: the UE reports nothing until reconfigured.
            return;
        }
        let neighbour = 1 - self.serving;
        let s = self.cfg.trajectory.rsrp_dbm(self.serving, now);
        let n = self.cfg.trajectory.rsrp_dbm(neighbour, now);
        if !self.ho.observe(now, s, n) {
            return;
        }
        self.executions += 1;
        let hocfg = *self.ho.config();
        let xn_rt = hocfg.xn_delay * 2;
        self.tel.journal(JournalEvent::Handover {
            from: self.serving as u8,
            to: neighbour as u8,
            label: "trigger",
            at: now,
        });

        if self.inj.ho_too_late() {
            // The serving link dies before the HO command arrives: RLF,
            // re-establishment into the target, Xn context fetch.
            self.ho.record_too_late();
            self.rrc.reset_budget();
            let (recovery, rng) = (&mut self.rrc, self.inj.recovery_rng());
            let rec = recovery.recover(now, rng).expect("budget was just reset");
            let resume = now + rec.total() + xn_rt;
            self.tel.journal(JournalEvent::Handover {
                from: self.serving as u8,
                to: neighbour as u8,
                label: "too-late",
                at: now,
            });
            self.windows.push_back(Window {
                detach: now,
                resume,
                source: self.serving,
                target: neighbour,
                kind: Some(FaultKind::HoTooLate),
                fwd_lost: false,
                via_handover: false,
            });
            return;
        }

        let timeline = self.ho.execute(now);
        let detach = now + timeline.command_delay();
        if self.inj.ho_too_early() {
            // Target access fails until T304 expires, then the UE
            // re-establishes (into the stronger target).
            self.ho.record_too_early();
            self.rrc.reset_budget();
            let failed_at = detach + timeline.reconfig + hocfg.t304;
            let (recovery, rng) = (&mut self.rrc, self.inj.recovery_rng());
            let rec = recovery.recover(failed_at, rng).expect("budget was just reset");
            let resume = failed_at + rec.total() + xn_rt;
            self.tel.journal(JournalEvent::Handover {
                from: self.serving as u8,
                to: neighbour as u8,
                label: "too-early",
                at: detach,
            });
            self.windows.push_back(Window {
                detach,
                resume,
                source: self.serving,
                target: neighbour,
                kind: Some(FaultKind::HoTooEarly),
                fwd_lost: false,
                via_handover: false,
            });
            return;
        }

        let fwd_lost = self.inj.ho_forwarding_lost();
        let resume = detach
            + timeline.interruption()
            + xn_rt
            + if fwd_lost { xn_rt } else { Duration::ZERO };
        self.windows.push_back(Window {
            detach,
            resume,
            source: self.serving,
            target: neighbour,
            kind: None,
            fwd_lost,
            via_handover: true,
        });

        // Ping-pong chain: each completed handover may bounce straight
        // back (a geometric chain under the injected probability).
        let (mut src, mut tgt, mut report_at) = (neighbour, self.serving, resume);
        let mut bounces = 0;
        while bounces < MAX_BOUNCES && self.inj.ho_ping_pong() {
            bounces += 1;
            self.ho.record_ping_pong();
            self.executions += 1;
            let tl = self.ho.execute(report_at);
            let det = report_at + tl.command_delay();
            let lost = self.inj.ho_forwarding_lost();
            let res = det + tl.interruption() + xn_rt + if lost { xn_rt } else { Duration::ZERO };
            self.tel.journal(JournalEvent::Handover {
                from: src as u8,
                to: tgt as u8,
                label: "ping-pong",
                at: report_at,
            });
            self.windows.push_back(Window {
                detach: det,
                resume: res,
                source: src,
                target: tgt,
                kind: Some(FaultKind::HoPingPong),
                fwd_lost: lost,
                via_handover: true,
            });
            std::mem::swap(&mut src, &mut tgt);
            report_at = res;
        }
    }

    /// One downlink packet: UPF encapsulation, serving-gNB PDCP, and
    /// either immediate delivery or capture by the open window.
    fn on_packet(&mut self, idx: u64, now: Instant) {
        self.advance(now);
        self.offered += 1;
        let payload = Bytes::copy_from_slice(&idx.to_be_bytes());
        // Infallible (loopback invariants, as in `flush_front`): the UPF
        // session for UE_ADDR is registered at engine construction and the
        // G-PDU being decoded was framed by that same UPF one line up.
        let n3 = self.upf.downlink(UE_ADDR, &payload).expect("the session is established");
        // The serving gNB terminates the N3 tunnel the UPF points at.
        let (_, sdu) = GtpuHeader::decode(&n3).expect("UPF-encapsulated G-PDU is well-formed");
        let count = self.gnb[self.serving].tx_next_count();
        let pdu = self.gnb[self.serving].tx_encode(&sdu);

        if self.windows.front().is_some_and(|w| now >= w.detach) {
            // Caught in the interruption: stays in the source's
            // retransmission buffer until the forwarding flush.
            self.held.push((idx, now));
            return;
        }
        let sdus = self.ue.rx_decode(&pdu).expect("fresh PDU deciphers");
        self.gnb[self.serving].confirm_up_to(count + 1);
        let d = self.delivery_delay;
        for sdu in sdus {
            self.account_delivery(&sdu, idx, d, None);
        }
    }

    fn run(mut self) -> MobilityReport {
        // Clone the handle so the scope guard's borrow doesn't pin `self`.
        let prof = self.prof.clone();
        let mut pkt = 0u64;
        let mut meas = 0u64;
        while pkt < self.cfg.n_packets {
            let t_pkt = Instant::ZERO + self.cfg.packet_interval * pkt;
            let t_meas = Instant::ZERO + self.cfg.meas_period * meas;
            if t_meas <= t_pkt {
                let _t = prof.scope("handover/meas");
                self.on_meas(t_meas);
                meas += 1;
            } else {
                let _t = prof.scope("handover/packet");
                self.on_packet(pkt, t_pkt);
                pkt += 1;
            }
        }
        // Final drain: resolve every outstanding window so nothing stays
        // in flight.
        while !self.windows.is_empty() {
            let _t = prof.scope("handover/flush");
            self.flush_front();
        }
        let in_flight =
            (self.gnb[0].tx_pending() + self.gnb[1].tx_pending() + self.ue.buffered()) as u64;
        MobilityReport {
            offered: self.offered,
            delivered: self.delivered,
            in_flight,
            drops: self.ue.discarded(),
            out_of_order: self.out_of_order,
            handovers: self.executions,
            completed: self.completed,
            too_late: self.ho.too_late(),
            too_early: self.ho.too_early(),
            ping_pongs: self.ho.ping_pongs(),
            forwarding_losses: self.fwd_losses,
            interruption: self.interruption,
            latency: self.latency,
            attribution: self.attribution,
            tally: *self.inj.tally(),
        }
    }
}

/// Runs one mobility experiment: the CBR downlink stream across the
/// shuttling UE's handovers, under the configured fault plan.
pub fn run_mobility(cfg: &MobilityConfig, tel: Option<&Telemetry>) -> MobilityReport {
    MobilitySim::new(cfg, tel).run()
}

/// [`run_mobility`] with a host wall-time [`Profiler`] wrapped around each
/// engine event class (`handover/meas`, `handover/packet`,
/// `handover/flush`). The profiler reads only the host clock; the report
/// is bit-identical with or without it.
pub fn run_mobility_profiled(
    cfg: &MobilityConfig,
    tel: Option<&Telemetry>,
    prof: &Profiler,
) -> MobilityReport {
    let mut sim = MobilitySim::new(cfg, tel);
    sim.prof = prof.clone();
    sim.run()
}

/// Closed-form worst-case service interruption of one mobility event,
/// split by failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandoverInterruptionModel {
    /// Fault-free Xn handover: reconfiguration + contention-free RACH +
    /// completion + path switch and forwarding flush.
    pub handover: Duration,
    /// Too-late failure: RLF recovery plus the Xn context fetch.
    pub too_late: Duration,
    /// Too-early failure: reconfiguration + full T304 + re-establishment.
    pub too_early: Duration,
    /// One forwarding-tunnel loss: the replayed batch's extra Xn round
    /// trip (additive to any mode above).
    pub forwarding_recovery: Duration,
}

impl HandoverInterruptionModel {
    /// Derives every bound from a stack configuration.
    pub fn from_config(cfg: &StackConfig) -> HandoverInterruptionModel {
        let ho = HandoverEntity::new(cfg.handover, cfg.rach);
        let rrc = RrcEntity::new(cfg.rrc, cfg.rach);
        let xn_round_trip = cfg.handover.xn_delay * 2;
        let reestablish = rrc.control_plane_worst_case() + xn_round_trip;
        HandoverInterruptionModel {
            handover: ho.interruption_worst_case() + xn_round_trip,
            too_late: reestablish,
            too_early: cfg.handover.reconfig_processing + cfg.handover.t304 + reestablish,
            forwarding_recovery: xn_round_trip,
        }
    }

    /// The single bound no interruption window — any failure mode, with
    /// or without a forwarding loss — can exceed.
    pub fn worst_case(&self) -> Duration {
        self.handover.max(self.too_late).max(self.too_early) + self.forwarding_recovery
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ran::AccessMode;
    use sim::{FaultPlan, HandoverFaultConfig};

    fn base(speed: f64, legs: u32) -> MobilityConfig {
        MobilityConfig::for_speed(
            StackConfig::testbed_dddu(AccessMode::GrantBased, true),
            speed,
            legs,
        )
    }

    #[test]
    fn trajectory_shuttles_and_rsrp_crosses() {
        let t = SignalTrajectory::intercell(30.0);
        assert_eq!(t.position_m(Instant::ZERO), 20.0);
        let half_leg = Instant::ZERO + t.leg_duration() / 2;
        let mid = t.position_m(half_leg);
        assert!((mid - 100.0).abs() < 1.0, "midpoint {mid}");
        // Near cell 0 it wins; near cell 1 the neighbour wins.
        assert!(t.rsrp_dbm(0, Instant::ZERO) > t.rsrp_dbm(1, Instant::ZERO));
        let at_far = Instant::ZERO + t.leg_duration();
        assert!(t.rsrp_dbm(1, at_far) > t.rsrp_dbm(0, at_far));
    }

    #[test]
    fn fault_free_mobility_is_lossless_and_in_order() {
        let report = run_mobility(&base(30.0, 2), None);
        assert!(report.handovers >= 2, "two legs give two handovers, got {}", report.handovers);
        assert_eq!(report.handovers, report.completed);
        assert!(report.conserved(), "offered {} delivered {}", report.offered, report.delivered);
        assert_eq!(report.in_flight, 0);
        assert_eq!(report.drops, 0);
        assert_eq!(report.out_of_order, 0);
        assert_eq!(report.too_late + report.too_early + report.ping_pongs, 0);
        assert!(report.attribution.is_fault_free());
        assert_eq!(report.interruption.count(), report.completed);
    }

    #[test]
    fn chaos_plan_recovers_every_failure_mode() {
        let mut seen = (0u64, 0u64, 0u64, 0u64);
        for seed in 0..6u64 {
            let mut cfg = base(60.0, 4);
            cfg.stack = cfg.stack.with_seed(seed).with_faults(sim::FaultPlan::handover_chaos(1.0));
            let report = run_mobility(&cfg, None);
            assert!(report.conserved(), "seed {seed}");
            assert_eq!(report.in_flight, 0, "seed {seed}");
            assert_eq!(report.drops, 0, "seed {seed}");
            assert_eq!(report.out_of_order, 0, "seed {seed}");
            assert_eq!(report.too_late, report.tally.get(FaultKind::HoTooLate));
            assert_eq!(report.too_early, report.tally.get(FaultKind::HoTooEarly));
            assert_eq!(report.ping_pongs, report.tally.get(FaultKind::HoPingPong));
            seen.0 += report.too_late;
            seen.1 += report.too_early;
            seen.2 += report.ping_pongs;
            seen.3 += report.forwarding_losses;
        }
        assert!(seen.0 > 0, "no too-late seen");
        assert!(seen.1 > 0, "no too-early seen");
        assert!(seen.2 > 0, "no ping-pong seen");
        assert!(seen.3 > 0, "no forwarding loss seen");
    }

    #[test]
    fn runs_are_deterministic() {
        let mut cfg = base(30.0, 2);
        cfg.stack = cfg.stack.with_faults(sim::FaultPlan::handover_chaos(0.5));
        let mut a = run_mobility(&cfg, None);
        let mut b = run_mobility(&cfg, None);
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.handovers, b.handovers);
        assert_eq!(a.latency.samples_us(), b.latency.samples_us());
        assert_eq!(a.interruption.summary(), b.interruption.summary());
        assert_eq!(a.attribution, b.attribution);
    }

    #[test]
    fn faulted_packets_carry_typed_attribution() {
        let mut cfg = base(60.0, 4);
        cfg.stack = cfg.stack.with_seed(3).with_faults(sim::FaultPlan::handover_chaos(1.0));
        let report = run_mobility(&cfg, None);
        let attributed = report.attribution.late_by.total() + report.attribution.lost_by.total();
        assert!(report.tally.total() > 0, "chaos plan injected nothing");
        assert!(
            attributed > 0 || report.attribution.late == report.attribution.late_baseline,
            "faulted deliveries lost their attribution"
        );
    }

    #[test]
    fn journal_records_handover_transitions() {
        let tel = Telemetry::new(4096);
        let _ = run_mobility(&base(30.0, 2), Some(&tel));
        let events = tel.journal_events();
        let hos: Vec<&JournalEvent> =
            events.iter().filter(|e| matches!(e, JournalEvent::Handover { .. })).collect();
        assert!(hos.len() >= 4, "expected trigger+complete per leg, got {}", hos.len());
    }

    fn forced(too_late: f64, too_early: f64, ping_pong: f64, fwd: f64) -> FaultPlan {
        FaultPlan {
            handover: Some(HandoverFaultConfig {
                too_late,
                too_early,
                ping_pong,
                forwarding_loss: fwd,
            }),
            ..FaultPlan::none()
        }
    }

    fn assert_bounded(plan: FaultPlan, label: &str) {
        let model = HandoverInterruptionModel::from_config(&StackConfig::testbed_dddu(
            AccessMode::GrantBased,
            true,
        ));
        let bound_us = model.worst_case().as_micros_f64();
        for seed in 0..3u64 {
            let mut cfg = base(60.0, 3);
            cfg.stack = cfg.stack.with_seed(seed).with_faults(plan.clone());
            let report = run_mobility(&cfg, None);
            assert!(report.conserved(), "{label}: seed {seed} lost packets");
            for &sample_us in report.interruption.samples_us() {
                assert!(
                    sample_us <= bound_us,
                    "{label}: interruption {sample_us} µs over the {bound_us} µs bound"
                );
            }
        }
    }

    #[test]
    fn model_decomposes_sensibly() {
        let cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true);
        let m = HandoverInterruptionModel::from_config(&cfg);
        assert!(m.handover > Duration::ZERO);
        // Failure modes cost at least as much as the clean procedure, and
        // burning the full T304 makes too-early the costliest.
        assert!(m.too_late >= m.handover);
        assert!(m.too_early > m.too_late);
        assert_eq!(m.forwarding_recovery, cfg.handover.xn_delay * 2);
        assert_eq!(m.worst_case(), m.too_early + m.forwarding_recovery);
    }

    #[test]
    fn bounds_the_fault_free_procedure() {
        assert_bounded(FaultPlan::none(), "fault-free");
    }

    #[test]
    fn bounds_too_late_handovers() {
        assert_bounded(forced(1.0, 0.0, 0.0, 0.0), "too-late");
    }

    #[test]
    fn bounds_too_early_handovers() {
        assert_bounded(forced(0.0, 1.0, 0.0, 0.0), "too-early");
    }

    #[test]
    fn bounds_ping_pong_chains() {
        assert_bounded(forced(0.0, 0.0, 1.0, 0.0), "ping-pong");
    }

    #[test]
    fn bounds_forwarding_loss_replays() {
        assert_bounded(forced(0.0, 0.0, 0.0, 1.0), "forwarding-loss");
    }

    #[test]
    fn bounds_the_full_chaos_plan() {
        assert_bounded(FaultPlan::handover_chaos(1.0), "chaos");
    }
}
