//! The end-to-end ping experiment: the paper's §7 demonstration as code.
//!
//! Each ping follows Fig 2/Fig 3 exactly:
//!
//! 1. the UE builds the request and walks it down APP→SDAP→PDCP→RLC (①);
//! 2. grant-based: the UE waits for a UL slot, sends an SR (②), the gNB
//!    decodes it, the per-slot scheduler issues a grant in the next slot
//!    (③–⑤), the UE prepares and transmits in the granted UL slot (⑥);
//!    grant-free: the UE transmits at the next UL opportunity directly;
//! 3. the gNB radio, PHY and MAC↑ recover the packet, SDAP hands it to
//!    GTP-U/UPF and the data network (⑦);
//! 4. the reply retraces the path: gNB SDAP↓ (⑧), the RLC queue until the
//!    next scheduling round (⑨ — Table 2's RLC-q), the DL slot (⑩), and
//!    the UE's PHY↑ walk (⑪).
//!
//! Every PDU is actually encoded and decoded (see [`crate::node`]); the
//! experiment asserts byte-exact delivery and counts radio-deadline misses.

use std::sync::{Mutex, PoisonError};

use bytes::{BufMut, Bytes, BytesMut};
use corenet::{plan_crossing, PathEvent, PathSupervisor};
use radio::{RadioHead, TxRing};
use ran::sched::{Rnti, Scheduler, SlotDecision};
use ran::RrcEntity;
use sim::{
    Dist, Duration, FaultAttribution, FaultInjector, FaultKind, Instant, LatencyRecorder,
    PingFaultTrace, SimRng, StreamingStats, Summary,
};

use telemetry::{
    metric, ExemplarOutcome, ExemplarSpan, JournalEvent, Profiler, TailExemplar, Telemetry,
    TelemetrySummary,
};

use crate::config::StackConfig;
use crate::journey::{PingTrace, StageSpan};
use crate::node::{GnbStack, UeStack};
use crate::pipeline::{dispatch, HopOutcome, PingCtx, PingEvent};
use crate::stage_labels as labels;

/// gNB-side per-layer statistics (Table 2).
#[derive(Debug, Clone, Default)]
pub struct LayerStats {
    /// SDAP processing, µs.
    pub sdap: StreamingStats,
    /// PDCP processing, µs.
    pub pdcp: StreamingStats,
    /// RLC processing, µs.
    pub rlc: StreamingStats,
    /// RLC queue wait (DL data awaiting its scheduled slot), µs.
    pub rlcq: StreamingStats,
    /// MAC processing, µs.
    pub mac: StreamingStats,
    /// PHY processing, µs.
    pub phy: StreamingStats,
}

impl LayerStats {
    /// Welford-merges every per-layer accumulator (shard reduction).
    pub(crate) fn merge(&mut self, other: &LayerStats) {
        self.sdap.merge(&other.sdap);
        self.pdcp.merge(&other.pdcp);
        self.rlc.merge(&other.rlc);
        self.rlcq.merge(&other.rlcq);
        self.mac.merge(&other.mac);
        self.phy.merge(&other.phy);
    }
}

/// A radio-link failure: one transport block exhausted both its HARQ and
/// its RLC AM retransmission budgets. The connection-recovery layer then
/// attempts RRC re-establishment; `recovered` records whether the ping
/// survived through the recovery detour instead of being dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RlfEvent {
    /// Which ping hit the failure.
    pub ping: u64,
    /// `true` when the downlink leg failed (uplink otherwise).
    pub dl: bool,
    /// The fault that dominated the doomed ping, if any.
    pub dominant: Option<FaultKind>,
    /// Whether RRC re-establishment brought the connection back (the ping
    /// continued over the recovered link; `false` means it was lost).
    pub recovered: bool,
}

/// The output of a ping experiment.
#[derive(Debug, Clone, Default)]
pub struct ExperimentResult {
    /// One-way uplink latency (UE application → data network).
    pub ul: LatencyRecorder,
    /// One-way downlink latency (data network → UE application).
    pub dl: LatencyRecorder,
    /// Round-trip time.
    pub rtt: LatencyRecorder,
    /// gNB per-layer statistics (Table 2).
    pub layers: LayerStats,
    /// Radio deadline outcomes on the gNB downlink path (§6).
    pub underruns: u64,
    /// Grants the UE could not meet in time (processing overran the
    /// scheduler's assumption, §4).
    pub missed_grants: u64,
    /// Packets whose decoded bytes did not match what was sent (must stay
    /// zero on a lossless channel).
    pub integrity_failures: u64,
    /// HARQ retransmissions triggered by channel loss (0 when the
    /// configuration has no channel model).
    pub harq_retx: u64,
    /// Transport blocks abandoned after exhausting the HARQ budget.
    pub harq_failures: u64,
    /// SR transmissions repeated because the PUCCH was lost (injected).
    pub sr_retx: u64,
    /// SR exhaustion events recovered through the four-step RACH.
    pub rach_recoveries: u64,
    /// UL grants the scheduler withheld (injected starvation).
    pub grants_withheld: u64,
    /// Spurious HARQ retransmissions from corrupted ACK feedback.
    pub spurious_harq_retx: u64,
    /// RLC AM recovery rounds entered after HARQ budget exhaustion.
    pub rlc_escalations: u64,
    /// Radio-link failures (recovered or not — see `RlfEvent::recovered`).
    pub rlf: Vec<RlfEvent>,
    /// RLF events consumed by a successful RRC re-establishment.
    pub recovered: u64,
    /// Recovery detours: RLF declared → the recovered block finally
    /// delivered (detect + RACH + reestablish + PDCP recovery), one sample
    /// per recovery.
    pub recovery: LatencyRecorder,
    /// Recoveries that failed (re-establishment or RACH budget spent); the
    /// ping is then genuinely lost.
    pub recovery_failures: u64,
    /// Primary-path failovers completed by GTP-U path supervision.
    pub path_failovers: u64,
    /// GTP-U echo probes (sent, lost) by the path supervisor.
    pub path_probes: (u64, u64),
    /// Supervision transitions (probe losses, path-down declarations,
    /// failovers, restorations), in order.
    pub path_events: Vec<PathEvent>,
    /// Per-ping deadline classification with fault attribution.
    pub attribution: FaultAttribution,
    /// Traces of the first few pings (Fig 3).
    pub traces: Vec<PingTrace>,
    /// What telemetry collection saw (all-default when the run was dark).
    pub telemetry: TelemetrySummary,
}

impl ExperimentResult {
    /// Convenience: UL summary.
    pub fn ul_summary(&mut self) -> Summary {
        self.ul.summary()
    }

    /// Convenience: DL summary.
    pub fn dl_summary(&mut self) -> Summary {
        self.dl.summary()
    }

    /// Folds another shard's result into this one. Recorders concatenate,
    /// streaming statistics Welford-merge, counters add, and event lists
    /// append — so a reducer folding shards in index order produces one
    /// result whose totals match a sequential pass over the same shards,
    /// regardless of how many workers raced to produce them. `telemetry`
    /// is left untouched: the parallel runner summarises its absorbed sink
    /// once, after the fold.
    pub(crate) fn merge(&mut self, other: ExperimentResult) {
        self.ul.merge(&other.ul);
        self.dl.merge(&other.dl);
        self.rtt.merge(&other.rtt);
        self.layers.merge(&other.layers);
        self.underruns += other.underruns;
        self.missed_grants += other.missed_grants;
        self.integrity_failures += other.integrity_failures;
        self.harq_retx += other.harq_retx;
        self.harq_failures += other.harq_failures;
        self.sr_retx += other.sr_retx;
        self.rach_recoveries += other.rach_recoveries;
        self.grants_withheld += other.grants_withheld;
        self.spurious_harq_retx += other.spurious_harq_retx;
        self.rlc_escalations += other.rlc_escalations;
        self.rlf.extend(other.rlf);
        self.recovered += other.recovered;
        self.recovery.merge(&other.recovery);
        self.recovery_failures += other.recovery_failures;
        self.path_failovers += other.path_failovers;
        self.path_probes.0 += other.path_probes.0;
        self.path_probes.1 += other.path_probes.1;
        self.path_events.extend(other.path_events);
        self.attribution.merge(&other.attribution);
        self.traces.extend(other.traces);
    }
}

/// The experiment driver: owns the layer entities and the per-stream
/// RNGs, and walks each ping from hop to hop; the hops themselves are the
/// functions of the crate's `pipeline` module.
pub struct PingExperiment {
    pub(crate) config: StackConfig,
    /// O(1) slot-pattern lookups for `config.duplex`, built once per
    /// experiment instead of re-walking the pattern on every ping.
    pub(crate) timing: phy::duplex::SlotTiming,
    /// Cached HARQ round trips (`[dl, ul]`): pure functions of the duplex
    /// pattern, formerly re-derived per HARQ cycle.
    pub(crate) harq_rtt: [Duration; 2],
    /// Cached RLC AM status round trips (`[dl, ul]`).
    pub(crate) rlc_rtt: [Duration; 2],
    pub(crate) link: Option<channel::Fr1Link>,
    pub(crate) sched: Scheduler,
    pub(crate) ue: UeStack,
    pub(crate) gnb: GnbStack,
    pub(crate) gnb_radio: RadioHead,
    pub(crate) ue_radio: RadioHead,
    pub(crate) ring: TxRing,
    pub(crate) rng_arrival: SimRng,
    pub(crate) rng_gnb: SimRng,
    pub(crate) rng_ue: SimRng,
    pub(crate) rng_net: SimRng,
    pub(crate) injector: FaultInjector,
    pub(crate) rrc: RrcEntity,
    pub(crate) supervisor: PathSupervisor,
    pub(crate) traces_wanted: usize,
    pub(crate) tel: Telemetry,
    /// Host wall-time profiler (disabled by default; never touches sim
    /// state, so profiled and dark runs stay bit-identical).
    pub(crate) prof: Profiler,
    /// Sequence number of the ping currently in flight (journal context).
    pub(crate) ping: u64,
    /// The walk's state, reset and reused by every ping.
    ctx: PingCtx,
    /// The scheduler's output, refilled by every round.
    pub(crate) decision: SlotDecision,
}

/// The UE's RNTI and address in every experiment.
pub(crate) const RNTI: Rnti = 17;
pub(crate) const UE_ADDR: u32 = 0x0A00_0001;
const KEY: u64 = 0x005E_C2E7;
/// Bound on scheduling retries per ping (grant withholding / starvation);
/// a ping that cannot be scheduled within this many rounds is lost.
pub(crate) const MAX_SCHED_ROUNDS: u32 = 64;

/// Outcome of one HARQ cycle over a transport block.
struct HarqCycle {
    /// Delay the retransmissions added.
    extra: Duration,
    /// Whether the block got through within the HARQ budget.
    delivered: bool,
    /// Whether the injected burst overlay (rather than the base channel)
    /// caused at least one of the losses.
    burst_caused: bool,
}

impl PingExperiment {
    /// Builds an experiment from a configuration.
    pub fn new(config: StackConfig) -> PingExperiment {
        let master = SimRng::from_seed(config.seed);
        let mut gnb = GnbStack::new();
        gnb.attach_ue(RNTI, KEY, UE_ADDR);
        let fb = Duration::from_micros(50);
        PingExperiment {
            timing: config.duplex.timing(),
            harq_rtt: [
                ran::harq::harq_round_trip(&config.duplex, true, fb),
                ran::harq::harq_round_trip(&config.duplex, false, fb),
            ],
            rlc_rtt: [
                ran::harq::rlc_recovery_round_trip(&config.duplex, true, fb),
                ran::harq::rlc_recovery_round_trip(&config.duplex, false, fb),
            ],
            link: config.link.map(channel::Fr1Link::new),
            sched: Scheduler::new(config.scheduler_config()),
            ue: UeStack::new(RNTI, KEY),
            gnb_radio: RadioHead::new(config.gnb_radio.clone()),
            ue_radio: RadioHead::new(config.ue_radio.clone()),
            ring: TxRing::new(),
            rng_arrival: master.stream("arrivals"),
            rng_gnb: master.stream("gnb"),
            rng_ue: master.stream("ue"),
            rng_net: master.stream("net"),
            injector: FaultInjector::new(&config.faults, &master),
            rrc: RrcEntity::new(config.rrc, config.rach),
            supervisor: PathSupervisor::new(config.supervision),
            traces_wanted: 3,
            tel: Telemetry::disabled(),
            prof: Profiler::disabled(),
            ping: 0,
            ctx: PingCtx::default(),
            decision: SlotDecision::default(),
            gnb,
            config,
        }
    }

    /// How many ping traces to keep (default 3).
    pub fn keep_traces(&mut self, n: usize) {
        self.traces_wanted = n;
    }

    /// Builds an experiment that records into `tel`.
    pub fn new_instrumented(config: StackConfig, tel: Telemetry) -> PingExperiment {
        let mut exp = PingExperiment::new(config);
        exp.attach_telemetry(tel);
        exp
    }

    /// Attaches a telemetry handle, propagating it to every layer entity
    /// (UE/gNB stacks, radio heads, TX ring, path supervisor, RRC, the
    /// channel model). Recording consumes no RNG draws and no simulated
    /// time, so an instrumented run and a dark run produce bit-identical
    /// results.
    pub fn attach_telemetry(&mut self, tel: Telemetry) {
        self.ue.set_telemetry(tel.clone());
        self.gnb.set_telemetry(tel.clone());
        self.gnb_radio.set_telemetry(tel.clone());
        self.ue_radio.set_telemetry(tel.clone());
        self.ring.set_telemetry(tel.clone());
        self.supervisor.set_telemetry(tel.clone());
        self.rrc.set_telemetry(tel.clone());
        if let Some(link) = self.link.as_mut() {
            link.set_telemetry(tel.clone());
        }
        self.tel = tel;
    }

    /// Attaches a host wall-time profiler: the ping walk opens one scope
    /// per hop dispatch, keyed by [`crate::HopId::name`]. The
    /// profiler reads only the host clock — no RNG draws, no sim time —
    /// so profiled and dark runs stay bit-identical.
    pub fn attach_profiler(&mut self, prof: Profiler) {
        self.prof = prof;
    }

    /// Runs `n` pings with the default inter-ping spacing of five pattern
    /// periods (sparse, as in the paper's testbed), each arriving uniformly
    /// within the pattern period (§7: "packets are uniformly generated
    /// within the pattern").
    pub fn run(&mut self, n: u64) -> ExperimentResult {
        let spacing = self.config.duplex.pattern_period() * 5;
        self.run_span(0, n, spacing)
    }

    /// Runs pings `start..start + len` of a global schedule: ping `i`
    /// keeps the arrival slot it would have in a full run (`spacing · i`),
    /// so slot indices, journal timestamps and ping ids stay globally
    /// consistent when a parallel run merges batch results.
    fn run_span(&mut self, start: u64, len: u64, spacing: Duration) -> ExperimentResult {
        let mut result = ExperimentResult::default();
        let period = self.config.duplex.pattern_period();
        let offset_dist = Dist::Uniform { lo: Duration::ZERO, hi: period };
        for i in start..start + len {
            let base = Instant::ZERO + spacing * i + period; // skip slot 0 warm-up
            let arrival = base + offset_dist.sample(&mut self.rng_arrival);
            self.one_ping(i, arrival, &mut result);
        }
        result.underruns = self.ring.stats().underruns;
        result.path_failovers = self.supervisor.failovers();
        result.path_probes = self.supervisor.probe_stats();
        result.path_events = self.supervisor.events().to_vec();
        result.telemetry = self.tel.summary();
        result
    }

    pub(crate) fn sample_gnb(
        &mut self,
        which: fn(&ran::timing::LayerTimings) -> &Dist,
    ) -> Duration {
        which(&self.config.gnb_timings).sample(&mut self.rng_gnb)
    }

    pub(crate) fn sample_ue(&mut self, which: fn(&ran::timing::LayerTimings) -> &Dist) -> Duration {
        which(&self.config.ue_timings).sample(&mut self.rng_ue)
    }

    /// Finds the first uplink opportunity the UE can actually make: samples
    /// at the radio (`samples_ready + submit`) before the air time, and —
    /// when a grant pinned the resources — no earlier than the granted
    /// slot.
    pub(crate) fn ul_tx_start(
        &mut self,
        samples_ready: Instant,
        submit: Duration,
        not_before_slot: Option<u64>,
        misses: &mut u64,
    ) -> Instant {
        let mut probe = match not_before_slot {
            Some(slot) => self.timing.slot_start(slot),
            None => samples_ready,
        };
        loop {
            let op = self.timing.next_ul_opportunity(probe);
            if samples_ready + submit <= op.tx_start {
                return op.tx_start;
            }
            *misses += 1;
            probe = self.timing.slot_start(op.slot + 1);
        }
    }

    /// Plays out one HARQ cycle for a data transmission: samples channel
    /// loss (base SNR/PER draw plus the injected burst overlay) per
    /// attempt; each retransmission costs one HARQ round trip.
    fn harq_cycle(
        &mut self,
        dl_data: bool,
        at: Instant,
        result: &mut ExperimentResult,
        ftrace: &mut PingFaultTrace,
    ) -> HarqCycle {
        let channel_faulty =
            self.injector.channel_burst_active() || self.injector.harq_feedback_active();
        if self.link.is_none() && !channel_faulty {
            return HarqCycle { extra: Duration::ZERO, delivered: true, burst_caused: false };
        }
        let rtt = self.harq_rtt[usize::from(!dl_data)];
        let mut extra = Duration::ZERO;
        let mut burst_caused = false;
        for attempt in 1..=self.config.harq_max_tx {
            let base_lost = match self.link.as_mut() {
                Some(link) => link.packet_lost(&mut self.rng_net),
                None => false,
            };
            let burst_lost = self.injector.channel_loss();
            if !base_lost && !burst_lost {
                // Delivered. An ACK corrupted into a NACK retransmits a
                // block the receiver already has: capacity wasted, but the
                // delivery time of *this* packet is unaffected.
                if self.injector.harq_feedback_corrupted() {
                    result.spurious_harq_retx += 1;
                    self.tel.add(metric::MAC_SPURIOUS_HARQ_RETX, 1);
                    ftrace.record(FaultKind::HarqFeedback, Duration::ZERO);
                }
                return HarqCycle { extra, delivered: true, burst_caused };
            }
            if burst_lost && !base_lost {
                burst_caused = true;
            }
            if attempt == self.config.harq_max_tx {
                result.harq_failures += 1;
                self.tel.add(metric::MAC_HARQ_FAILURES, 1);
            } else {
                result.harq_retx += 1;
                extra += rtt;
                self.tel.add(metric::MAC_HARQ_RETX, 1);
                self.tel.journal(JournalEvent::HarqNack {
                    ping: self.ping,
                    dl: dl_data,
                    round: attempt,
                    at: at + extra,
                });
                if burst_lost && !base_lost {
                    ftrace.record(FaultKind::ChannelBurst, rtt);
                }
            }
        }
        HarqCycle { extra, delivered: false, burst_caused }
    }

    /// Delivers one transport block end to end: HARQ first, then RLC AM
    /// escalation rounds (each a status round trip plus a fresh HARQ
    /// cycle) when the HARQ budget runs out, radio link failure when the
    /// RLC budget is exhausted too. Returns the extra delay on success;
    /// on RLF, the time wasted before the budgets ran dry.
    pub(crate) fn data_delivery(
        &mut self,
        dl_data: bool,
        at: Instant,
        result: &mut ExperimentResult,
        ftrace: &mut PingFaultTrace,
    ) -> Result<Duration, Duration> {
        let mut extra = Duration::ZERO;
        for round in 0..=self.config.rlc_max_retx {
            let cycle = self.harq_cycle(dl_data, at + extra, result, ftrace);
            extra += cycle.extra;
            if cycle.delivered {
                return Ok(extra);
            }
            if round == self.config.rlc_max_retx {
                break;
            }
            // The receiver's next status report NACKs the SN and the
            // sender retransmits through a fresh HARQ cycle.
            result.rlc_escalations += 1;
            self.tel.add(metric::RLC_AM_RETX_ROUNDS, 1);
            let recovery = self.rlc_rtt[usize::from(!dl_data)];
            extra += recovery;
            if cycle.burst_caused {
                ftrace.record(FaultKind::ChannelBurst, recovery);
            }
        }
        Err(extra)
    }

    /// Consumes a radio-link failure declared at `at`: RRC
    /// re-establishment (detect → RACH re-access carrying the C-RNTI MAC
    /// CE → reestablishment processing), RLC re-establishment on both
    /// peers, and the PDCP status-report exchange that retransmits the
    /// in-flight SDUs with their original COUNTs. Returns the instant the
    /// re-established link can carry the retransmission, the start of the
    /// data-recovery exchange (for the "PDCP recover" trace span), and the
    /// fresh MAC PDUs; `None` when the connection could not come back.
    pub(crate) fn recover_rlf(
        &mut self,
        dl: bool,
        at: Instant,
        grant_bytes: usize,
        spans: &mut Vec<StageSpan>,
        result: &mut ExperimentResult,
    ) -> Option<(Instant, Instant, Vec<Bytes>)> {
        let Some(timeline) = self.rrc.recover(at, self.injector.recovery_rng()) else {
            result.recovery_failures += 1;
            self.tel.journal(JournalEvent::RrcReestablished { ping: self.ping, at, ok: false });
            return None;
        };
        // Msg1/Msg3 of the re-access ride the same air interface: age the
        // injected burst chain by those two transmissions so the
        // post-recovery retry sees the channel the RACH just crossed.
        self.injector.channel_advance(2);
        // Msg3 carries the C-RNTI MAC CE (TS 38.321 §6.1.3.2) so the gNB
        // can match the old context — exchanged as real bytes.
        let ce = ran::mac::encode_c_rnti(RNTI);
        if ran::mac::decode_c_rnti(&ce).ok() != Some(RNTI) {
            result.integrity_failures += 1;
        }
        let detected = at + timeline.detect;
        let reaccessed = detected + timeline.rach;
        let reestablished = reaccessed + timeline.reestablish;
        spans.push(StageSpan::new(labels::RLF_DETECT, at, detected));
        spans.push(StageSpan::new(labels::RACH_REACCESS, detected, reaccessed));
        spans.push(StageSpan::new(labels::RRC_REESTABLISH, reaccessed, reestablished));
        self.tel.journal(JournalEvent::RrcReestablished {
            ping: self.ping,
            at: reestablished,
            ok: true,
        });
        // Both peers re-establish RLC; the receiver's PDCP status report
        // drives the sender's data recovery over real bytes, preserving SN
        // continuity. The exchange costs one status round trip on the
        // fresh link before the retransmission can fly.
        let pdus = if dl {
            let report = self.ue.reestablish_downlink();
            self.gnb.recover_downlink(RNTI, &report, grant_bytes)
        } else {
            self.gnb
                .reestablish_uplink(RNTI)
                .and_then(|report| self.ue.recover_uplink(&report, grant_bytes))
        };
        let pdus = match pdus {
            Ok(p) if !p.is_empty() => p,
            _ => {
                result.integrity_failures += 1;
                result.recovery_failures += 1;
                return None;
            }
        };
        let status_rtt = self.rlc_rtt[usize::from(!dl)];
        result.recovered += 1;
        Some((reestablished + status_rtt, reestablished, pdus))
    }

    /// One N3 traversal under GTP-U path supervision: the injected path
    /// process decides whether the primary is forwarding, the supervisor
    /// charges the probe/backoff detection sequence to the traversal that
    /// discovers an outage, and the chosen link's latency is sampled —
    /// exactly one `rng_net` draw either way, so fault-free runs stay
    /// byte-identical to the unsupervised baseline.
    pub(crate) fn backbone_traverse(
        &mut self,
        at: Instant,
        result: &mut ExperimentResult,
        ftrace: &mut PingFaultTrace,
    ) -> Duration {
        let primary_down = self.injector.path_down();
        let plan = plan_crossing(
            &mut self.supervisor,
            at,
            primary_down,
            &self.config.backbone,
            self.config.backup_backbone.as_ref(),
        );
        if plan.discovered_outage() {
            ftrace.record(FaultKind::PathFailure, plan.detection);
            self.tel.observe(metric::CORENET_DETECTION_US, plan.detection);
            self.tel.journal(JournalEvent::FaultInjected {
                kind: FaultKind::PathFailure,
                at,
                extra: plan.detection,
            });
            // Validate the freshly adopted path with a real GTP-U echo
            // round trip through the UPF (type 1 → type 2, sequence
            // echoed).
            if !self.supervisor.confirm_path(self.gnb.upf_mut()) {
                result.integrity_failures += 1;
            }
        }
        let n3 = plan.link.sample(&mut self.rng_net);
        self.tel.observe(metric::CORENET_N3_US, n3);
        plan.detection + n3
    }

    /// One ping episode as a state machine: start from the arrival at
    /// `t0` and dispatch each hop's successor in turn until the walk
    /// declares the ping delivered or lost. Hops append their spans to the
    /// trace and return the one event that follows them; the driver owns
    /// the episode boundaries and is the single span journaler.
    fn one_ping(&mut self, id: u64, t0: Instant, result: &mut ExperimentResult) {
        self.ping = id;
        let mut ctx = std::mem::take(&mut self.ctx);
        ctx.reset(id, t0);
        // Cheap handle clone so the scope guard can borrow it while the
        // dispatch takes `&mut self`. Inert when no profiler is attached.
        let prof = self.prof.clone();
        let (mut at, mut ev) = (t0, PingEvent::Arrival);
        let lost = loop {
            let outcome = {
                // Dispatches are non-reentrant, so elapsed == self-time.
                let _hop_time = prof.scope(ev.hop().name());
                dispatch(self, &mut ctx, result, at, ev)
            };
            match outcome {
                HopOutcome::Next(next, successor) => {
                    // Causality: a hop that schedules into the past would
                    // silently corrupt every latency after it.
                    assert!(next >= at, "{ev:?} at {at:?} scheduled {successor:?} at {next:?}");
                    (at, ev) = (next, successor);
                }
                HopOutcome::Lost => {
                    result.attribution.record_lost(ctx.ftrace.dominant());
                    break true;
                }
                HopOutcome::Done => break false,
            }
        };
        // A clamped (inverted) span anywhere in this ping's walk becomes a
        // telemetry counter instead of a panic; never recorded when zero.
        let inverted = crate::journey::take_inverted_spans();
        // The end of the ping, under one lock of the sink: journal the
        // journey (every ping, not just the kept traces: the ring buffer
        // decides what survives), record its round trip, and hand the full
        // forensic record to the flight recorder — worst-K retention plus
        // forced retention of every deadline-miss, RLF and lost ping. Pure
        // observation of sim-time state — no RNG draws, no sim-time
        // mutation — so dark runs stay bit-identical.
        self.tel.batch(|sink| {
            if inverted > 0 {
                sink.add(metric::JOURNEY_SPAN_INVERTED, inverted);
            }
            let spans = ctx.trace.ul.iter().zip(std::iter::repeat(false));
            let spans = spans.chain(ctx.trace.dl.iter().zip(std::iter::repeat(true)));
            for (s, dl) in spans.clone() {
                let (label, start, end) = (s.label, s.start, s.end);
                sink.journal(JournalEvent::Stage { ping: id, dl, label, start, end });
            }
            let end = spans.clone().map(|(s, _)| s.end).max().unwrap_or(t0);
            let rtt = end.checked_duration_since(t0).unwrap_or(Duration::ZERO);
            let outcome = if lost {
                ExemplarOutcome::Lost
            } else if rtt > self.config.deadline {
                ExemplarOutcome::Late
            } else {
                ExemplarOutcome::OnTime
            };
            let rlf_hit = spans.clone().any(|(s, _)| s.label == labels::RLF_DETECT);
            sink.observe_with_exemplar(metric::JOURNEY_RTT, rtt, id);
            let forced = lost || outcome == ExemplarOutcome::Late || rlf_hit;
            sink.flight_record(id, rtt, forced, || {
                let fault = ctx.ftrace.dominant().map(FaultKind::label);
                let fault_extra = ctx.ftrace.contributions().map(|(k, d, _)| (k.label(), d));
                let spans = spans.map(|(s, dl)| ExemplarSpan {
                    label: s.label,
                    dl,
                    start: s.start,
                    end: s.end,
                });
                TailExemplar {
                    ping: id,
                    rtt,
                    outcome,
                    fault,
                    fault_extra: fault_extra.collect(),
                    drop_reason: if lost { Some(fault.unwrap_or("unattributed")) } else { None },
                    // A ping walk holds one pending event by construction.
                    max_queue_depth: 1,
                    sched_rounds: ctx.sched_rounds + ctx.dl_sched_rounds,
                    spans: spans.collect(),
                }
            });
        });
        if result.traces.len() < self.traces_wanted {
            result.traces.push(ctx.trace.clone());
        }
        self.ctx = ctx;
    }
}

/// Pings per shard of a parallel run. Fixed: shard boundaries — and the
/// per-shard RNG streams derived from them — depend only on the workload,
/// never on the worker count, which is what makes the merged output
/// bit-identical at any parallelism.
pub const BATCH_PINGS: u64 = 256;

/// Runs `n` pings as independently seeded fixed-size batches
/// ([`BATCH_PINGS`]) fanned across the process-wide worker pool
/// (`sim::parallel`), keeping the default three traces.
///
/// Batch `b` derives its master RNG from
/// `SimRng::from_seed(config.seed).stream_indexed("batch", b)`, so its
/// draws are a pure function of `(config, b)` — results are bit-identical
/// regardless of thread count, though *not* sample-identical to a single
/// sequential [`PingExperiment::run`] of the same seed (the batch
/// structure re-keys the streams).
pub fn run_parallel(config: &StackConfig, n: u64) -> ExperimentResult {
    run_parallel_opts(config, n, 3, None)
}

/// [`run_parallel`] with an explicit trace quota (traces of pings
/// `0..traces` survive the merge, at their ping id's index) and an
/// optional telemetry sink. Each shard records into its own sibling sink,
/// which is absorbed into `tel` in shard order as soon as that shard and
/// every lower one have finished, then recorded into by a later shard: at
/// most `2 × workers` siblings exist (one, inline, at one worker).
pub fn run_parallel_opts(
    config: &StackConfig,
    n: u64,
    traces: usize,
    tel: Option<&Telemetry>,
) -> ExperimentResult {
    run_sharded(config, n, traces, tel, None, None)
}

/// [`run_parallel_opts`] with a host wall-time [`Profiler`]: each shard
/// records into a profiler sibling (no cross-thread lock contention
/// inflating the measured times) and the reducer folds them back into
/// `prof`. Sim-time results stay bit-identical with or without it.
pub fn run_parallel_profiled(
    config: &StackConfig,
    n: u64,
    traces: usize,
    tel: Option<&Telemetry>,
    prof: Option<&Profiler>,
) -> ExperimentResult {
    run_sharded(config, n, traces, tel, prof, None)
}

/// [`run_parallel_opts`] with an explicit worker count — the determinism
/// suite uses this form to compare 1/2/8 workers without racing the
/// process-wide jobs setting.
pub fn run_parallel_workers(
    config: &StackConfig,
    n: u64,
    traces: usize,
    tel: Option<&Telemetry>,
    workers: usize,
) -> ExperimentResult {
    run_sharded(config, n, traces, tel, None, Some(workers))
}

fn run_sharded(
    config: &StackConfig,
    n: u64,
    traces: usize,
    tel: Option<&Telemetry>,
    prof: Option<&Profiler>,
    workers: Option<usize>,
) -> ExperimentResult {
    let spacing = config.duplex.pattern_period() * 5;
    let ranges = sim::parallel::shard_ranges(n, BATCH_PINGS);
    // Telemetry sinks already absorbed, and so emptied with their storage
    // kept, for the next shards to record into: one sink for the whole run
    // at one worker, at most the fold window's at more.
    let spare: Mutex<Vec<Telemetry>> = Mutex::new(Vec::new());
    let run_shard = |b: usize| {
        let (start, len) = ranges[b];
        let seed = SimRng::from_seed(config.seed).stream_indexed("batch", b as u64).seed();
        let mut exp = PingExperiment::new(config.clone().with_seed(seed));
        exp.keep_traces(traces.saturating_sub(start as usize).min(len as usize));
        let shard_tel = tel.map(|parent| {
            let recycled = spare.lock().unwrap_or_else(PoisonError::into_inner).pop();
            recycled.unwrap_or_else(|| parent.sibling())
        });
        if let Some(t) = &shard_tel {
            exp.attach_telemetry(t.clone());
        }
        let shard_prof = prof.map(Profiler::sibling);
        if let Some(p) = &shard_prof {
            exp.attach_profiler(p.clone());
        }
        (exp.run_span(start, len, spacing), shard_tel, shard_prof)
    };
    // Each shard's sinks are absorbed as soon as every lower shard has been:
    // a lit run holds a few shard siblings, not all of them.
    let mut result = sim::parallel::fold_shards_with(
        workers.unwrap_or_else(sim::parallel::jobs),
        ranges.len(),
        run_shard,
        ExperimentResult::default(),
        |result, (shard, shard_tel, shard_prof)| {
            result.merge(shard);
            if let (Some(parent), Some(child)) = (tel, shard_tel) {
                parent.absorb(&child);
                if !child.is_shared() {
                    spare.lock().unwrap_or_else(PoisonError::into_inner).push(child);
                }
            }
            if let (Some(parent), Some(child)) = (prof, shard_prof.as_ref()) {
                parent.absorb(child);
            }
        },
    );
    if let Some(t) = tel {
        result.telemetry = t.summary();
    }
    result
}

/// Deterministic ICMP-echo-like payload for ping `id`.
pub(crate) fn make_payload(id: u64, len: usize) -> Bytes {
    let mut v = BytesMut::with_capacity(len.max(8));
    v.put_slice(&id.to_be_bytes());
    v.put_bytes(0, len.saturating_sub(8));
    for (i, byte) in v.iter_mut().enumerate().skip(8) {
        *byte = (i as u8).wrapping_mul(31) ^ id as u8;
    }
    v.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ran::sched::AccessMode;

    #[test]
    fn testbed_grant_free_runs_clean() {
        let cfg = StackConfig::testbed_dddu(AccessMode::GrantFree, true).with_seed(1);
        let mut exp = PingExperiment::new(cfg);
        let mut res = exp.run(200);
        assert_eq!(res.integrity_failures, 0);
        assert_eq!(res.ul.count(), 200);
        assert_eq!(res.dl.count(), 200);
        // Latencies are in the millisecond regime of Fig 6.
        let ul = res.ul_summary();
        assert!(ul.mean_us > 500.0 && ul.mean_us < 8_000.0, "UL mean {}", ul.mean_us);
    }

    #[test]
    fn grant_based_is_slower_than_grant_free() {
        let gb = {
            let cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(2);
            let mut exp = PingExperiment::new(cfg);
            let mut r = exp.run(300);
            r.ul_summary().mean_us
        };
        let gf = {
            let cfg = StackConfig::testbed_dddu(AccessMode::GrantFree, true).with_seed(2);
            let mut exp = PingExperiment::new(cfg);
            let mut r = exp.run(300);
            r.ul_summary().mean_us
        };
        // §7: the SR/grant handshake adds roughly one TDD period (2 ms).
        assert!(
            gb > gf + 1_000.0,
            "grant-based {gb} µs should exceed grant-free {gf} µs by ~one period"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, false).with_seed(seed);
            let mut exp = PingExperiment::new(cfg);
            let mut r = exp.run(50);
            (r.ul_summary(), r.dl_summary())
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn parallel_run_is_worker_count_invariant() {
        // The whole tentpole contract in one assertion: same batch
        // structure, any parallelism, byte-identical samples and counters.
        let cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true)
            .with_seed(6)
            .with_faults(sim::FaultPlan::chaos(0.2));
        let n = 2 * BATCH_PINGS + 17; // three shards, one ragged
        let base = run_parallel_workers(&cfg, n, 3, None, 1);
        for workers in [2, 8] {
            let res = run_parallel_workers(&cfg, n, 3, None, workers);
            assert_eq!(res.ul.samples_us(), base.ul.samples_us(), "workers={workers}");
            assert_eq!(res.dl.samples_us(), base.dl.samples_us(), "workers={workers}");
            assert_eq!(res.rtt.samples_us(), base.rtt.samples_us(), "workers={workers}");
            assert_eq!(res.attribution, base.attribution, "workers={workers}");
            assert_eq!(res.rlf, base.rlf, "workers={workers}");
            assert_eq!(res.sr_retx, base.sr_retx);
            assert_eq!(res.grants_withheld, base.grants_withheld);
            assert_eq!(res.traces.len(), base.traces.len());
        }
        assert_eq!(base.attribution.total(), n);
        assert_eq!(base.traces.len(), 3);
    }

    #[test]
    fn parallel_trace_quota_spans_shards() {
        let cfg = StackConfig::testbed_dddu(AccessMode::GrantFree, true).with_seed(5);
        let n = BATCH_PINGS + 8;
        let quota = BATCH_PINGS as usize + 5; // forces traces from shard 1
        let res = run_parallel_workers(&cfg, n, quota, None, 2);
        assert_eq!(res.traces.len(), quota);
        // Trace at index i narrates ping i (the recovery report relies on
        // this alignment).
        for (i, t) in res.traces.iter().enumerate() {
            assert_eq!(t.id, i as u64);
        }
    }

    #[test]
    fn parallel_telemetry_reduction_is_worker_count_invariant() {
        let cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true)
            .with_seed(7)
            .with_faults(sim::FaultPlan::chaos(0.2));
        let run = |workers| {
            let tel = Telemetry::new(4096);
            let res = run_parallel_workers(&cfg, 64, 3, Some(&tel), workers);
            (tel.snapshot(), tel.journal_events().len(), res.telemetry)
        };
        let (snap1, journal1, sum1) = run(1);
        let (snap4, journal4, sum4) = run(4);
        assert_eq!(snap1, snap4);
        assert_eq!(journal1, journal4);
        assert_eq!(sum1, sum4);
        assert!(sum1.enabled && sum1.metric_keys > 0);
    }

    #[test]
    fn layer_stats_match_table2_calibration() {
        let cfg = StackConfig::testbed_dddu(AccessMode::GrantFree, true).with_seed(3);
        let mut exp = PingExperiment::new(cfg);
        let res = exp.run(500);
        // Means land near Table 2 (generous tolerances; these are samples).
        assert!((res.layers.sdap.mean() - 4.65).abs() < 1.5, "SDAP {}", res.layers.sdap.mean());
        assert!((res.layers.pdcp.mean() - 8.29).abs() < 2.0, "PDCP {}", res.layers.pdcp.mean());
        assert!((res.layers.mac.mean() - 55.21).abs() < 5.0, "MAC {}", res.layers.mac.mean());
        assert!((res.layers.phy.mean() - 41.55).abs() < 5.0, "PHY {}", res.layers.phy.mean());
        // RLC-q dominates everything else by an order of magnitude (the
        // paper's central Table 2 observation).
        assert!(
            res.layers.rlcq.mean() > 10.0 * res.layers.rlc.mean(),
            "RLC-q {}",
            res.layers.rlcq.mean()
        );
        assert!(res.layers.rlcq.mean() > 300.0, "RLC-q {}", res.layers.rlcq.mean());
    }

    #[test]
    fn traces_cover_the_fig2_stages() {
        let cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(4);
        let mut exp = PingExperiment::new(cfg);
        let res = exp.run(3);
        assert_eq!(res.traces.len(), 3);
        let t = &res.traces[0];
        let labels: Vec<&str> = t.ul.iter().map(|s| s.label).collect();
        assert!(labels.contains(&"APP↓"));
        assert!(labels.contains(&"SR"));
        assert!(labels.contains(&"SCHE"));
        assert!(labels.contains(&"UL grant"));
        assert!(labels.contains(&"UL data"));
        let dl_labels: Vec<&str> = t.dl.iter().map(|s| s.label).collect();
        assert!(dl_labels.contains(&"RLC-q"));
        assert!(dl_labels.contains(&"DL data"));
        assert!(dl_labels.contains(&"PHY↑"));
        // Stages are time-ordered.
        for w in t.ul.windows(2) {
            assert!(w[1].start >= w[0].start);
        }
    }

    #[test]
    fn lossy_channel_adds_quantised_harq_steps() {
        let clean = {
            let cfg = StackConfig::testbed_dddu(AccessMode::GrantFree, true).with_seed(6);
            let mut exp = PingExperiment::new(cfg);
            let mut res = exp.run(400);
            assert_eq!(res.harq_retx, 0);
            res.ul_summary().mean_us
        };
        let mut cfg = StackConfig::testbed_dddu(AccessMode::GrantFree, true).with_seed(6);
        cfg.link = Some(channel::Fr1LinkConfig::cell_edge());
        let mut exp = PingExperiment::new(cfg);
        let mut res = exp.run(400);
        assert!(res.harq_retx > 50, "cell edge should trigger retx: {}", res.harq_retx);
        let lossy = res.ul_summary().mean_us;
        // Each retransmission costs one HARQ round trip (~2+ ms on DDDU),
        // so the mean shifts upward measurably.
        assert!(lossy > clean + 200.0, "lossy {lossy} vs clean {clean}");
        // A good indoor link barely changes anything.
        let mut cfg = StackConfig::testbed_dddu(AccessMode::GrantFree, true).with_seed(6);
        cfg.link = Some(channel::Fr1LinkConfig::indoor_good());
        let mut exp = PingExperiment::new(cfg);
        let mut res = exp.run(400);
        let good = res.ul_summary().mean_us;
        assert!((good - clean).abs() < 200.0, "good {good} vs clean {clean}");
    }

    #[test]
    fn rlf_recovery_completes_pings_with_visible_detour() {
        // A burst channel against a starved HARQ/RLC budget: frequent RLF,
        // but with ~50 % exit probability the re-established link usually
        // carries the retransmission through.
        let n = 80u64;
        let mut cfg = StackConfig::testbed_dddu(AccessMode::GrantFree, true).with_seed(21);
        cfg.harq_max_tx = 1;
        cfg.rlc_max_retx = 0;
        cfg.faults.channel_burst = Some(sim::GilbertElliott {
            p_enter_bad: 0.25,
            p_exit_bad: 0.5,
            loss_good: 0.0,
            loss_bad: 1.0,
        });
        let mut exp = PingExperiment::new(cfg);
        exp.keep_traces(n as usize);
        let res = exp.run(n);
        assert!(!res.rlf.is_empty(), "burst plan should trigger RLF");
        assert!(res.recovered > 0, "re-establishment should bring pings back");
        assert_eq!(res.recovery.count(), res.recovered, "one detour sample per recovery");
        // Recovered bytes decode exactly: SN continuity through the
        // re-established bearer, no duplicates, no holes.
        assert_eq!(res.integrity_failures, 0);
        // Every recovered RLF's ping finishes; only unrecovered ones die.
        let unrecovered = res.rlf.iter().filter(|ev| !ev.recovered).count() as u64;
        assert_eq!(res.attribution.lost, unrecovered);
        // The detour is visible in the trace with the recovery spans.
        let labels: Vec<&str> = res
            .traces
            .iter()
            .flat_map(|t| t.ul.iter().chain(t.dl.iter()))
            .map(|s| s.label)
            .collect();
        for needed in ["RLF detect", "RACH re-access", "PDCP recover"] {
            assert!(labels.contains(&needed), "trace must show {needed}");
        }
        // And as latency: every detour at least spans the control-plane
        // legs the RRC entity always charges.
        let rrc = ran::RrcConfig::default();
        let floor = (rrc.detect_delay + rrc.reestablish_processing).as_micros_f64();
        for &us in res.recovery.samples_us() {
            assert!(us >= floor, "detour {us}µs under the control-plane floor");
        }
    }

    #[test]
    fn path_outage_fails_over_to_backup_with_detection_charged_once() {
        let n = 120u64;
        let mut cfg = StackConfig::testbed_dddu(AccessMode::GrantFree, true).with_seed(22);
        cfg.faults.path_failure = Some(sim::PathFailureConfig { enter: 0.2, stay: 0.6 });
        let mut exp = PingExperiment::new(cfg.clone());
        let res = exp.run(n);
        assert!(res.path_failovers > 0, "outages should trigger failover");
        assert_eq!(res.integrity_failures, 0, "echo confirmation must round-trip");
        let (sent, lost) = res.path_probes;
        assert!(sent > lost, "failover confirmations are answered probes");
        // Each failover charges the full detection sequence exactly once.
        let detections =
            res.path_events.iter().filter(|e| e.kind == corenet::PathEventKind::PathDown).count()
                as u64;
        assert_eq!(detections, res.path_failovers);
        assert_eq!(res.ul.count() + res.attribution.lost, n, "no ping silently vanishes");
        // Supervised runs are deterministic.
        let res2 = PingExperiment::new(cfg).run(n);
        assert_eq!(res.path_events, res2.path_events);
        assert_eq!(res.rtt.samples_us(), res2.rtt.samples_us());
    }

    #[test]
    fn ideal_dm_config_meets_urllc_most_of_the_time() {
        let cfg = StackConfig::ideal_urllc_dm().with_seed(5);
        let mut exp = PingExperiment::new(cfg);
        let mut res = exp.run(500);
        assert_eq!(res.integrity_failures, 0);
        // §5: the DM grant-free design has a 0.5 ms worst case *before*
        // processing; with realistic processing the bulk of packets should
        // land under ~1 ms and far below the testbed's numbers.
        let ul = res.ul_summary();
        assert!(ul.mean_us < 1_000.0, "ideal UL mean {}", ul.mean_us);
        let frac = res.ul.fraction_within(Duration::from_millis(1));
        assert!(frac > 0.9, "sub-1ms fraction {frac}");
    }
}
