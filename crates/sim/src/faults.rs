//! Deterministic fault injection: seeded, schedulable fault processes.
//!
//! The paper's §6 argues that URLLC reliability dies by a thousand cuts —
//! bursty channel loss, OS scheduling storms, lost control signalling,
//! corrupted feedback, transport spikes — each individually rare, jointly
//! fatal at the 99.999 % scale. This module gives every such cut a
//! *process*: a small stateful model drawn from its own labelled
//! [`SimRng`] stream, so that
//!
//! * identical seed + identical [`FaultPlan`] ⇒ bit-identical traces;
//! * a disabled process consumes **zero** draws, so an empty plan
//!   reproduces the fault-free baseline byte for byte;
//! * enabling one fault never perturbs the draws of another (each process
//!   owns an independent child stream).
//!
//! The experiment driver (`urllc-stack`) holds a [`FaultInjector`] built
//! from the plan and consults it at each layer's hook point; per-ping
//! bookkeeping ([`PingFaultTrace`]) attributes every late or lost packet
//! to the fault that dominated it ([`FaultAttribution`]).

use crate::dist::Dist;
use crate::rng::SimRng;
use crate::time::Duration;

/// Number of fault kinds (array sizing for tallies and traces).
pub(crate) const FAULT_KINDS: usize = 11;

/// The injectable fault processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Gilbert–Elliott burst loss overlaid on the air interface.
    ChannelBurst,
    /// OS-jitter storm on the radio fronthaul (submission/receive threads
    /// preempted for an extended burst — Fig 5's spikes, correlated).
    JitterStorm,
    /// Scheduling request lost on PUCCH (the gNB never hears it).
    SrLoss,
    /// HARQ feedback corrupted (ACK↔NACK flip on the control channel).
    HarqFeedback,
    /// Latency spike on the N3/N6 backbone to the UPF.
    BackboneSpike,
    /// Scheduler withholds a grant/assignment for one slot (starvation,
    /// preemption by higher-priority traffic).
    GrantWithheld,
    /// N3 path failure: the primary gNB↔UPF backbone stops forwarding
    /// (link or switch outage), detected by GTP-U echo supervision.
    PathFailure,
    /// Too-late handover: radio-link failure on the serving cell before
    /// the HO command reaches the UE (the measurement/trigger chain lost
    /// the race against the fading edge).
    HoTooLate,
    /// Too-early handover: T304 expires before RACH to the target
    /// succeeds; the UE re-establishes to whichever cell it can reach.
    HoTooEarly,
    /// Ping-pong handover: the UE bounces straight back to the old cell
    /// (hysteresis / time-to-trigger mis-tuning at a fading cell edge).
    HoPingPong,
    /// Xn forwarding-tunnel loss: the forwarded PDCP batch never reaches
    /// the target and must be re-fetched from the source.
    HoForwardingLoss,
}

impl FaultKind {
    /// All kinds, in tally order.
    pub(crate) const ALL: [FaultKind; FAULT_KINDS] = [
        FaultKind::ChannelBurst,
        FaultKind::JitterStorm,
        FaultKind::SrLoss,
        FaultKind::HarqFeedback,
        FaultKind::BackboneSpike,
        FaultKind::GrantWithheld,
        FaultKind::PathFailure,
        FaultKind::HoTooLate,
        FaultKind::HoTooEarly,
        FaultKind::HoPingPong,
        FaultKind::HoForwardingLoss,
    ];

    /// Stable index into tally/trace arrays.
    pub(crate) fn index(self) -> usize {
        match self {
            FaultKind::ChannelBurst => 0,
            FaultKind::JitterStorm => 1,
            FaultKind::SrLoss => 2,
            FaultKind::HarqFeedback => 3,
            FaultKind::BackboneSpike => 4,
            FaultKind::GrantWithheld => 5,
            FaultKind::PathFailure => 6,
            FaultKind::HoTooLate => 7,
            FaultKind::HoTooEarly => 8,
            FaultKind::HoPingPong => 9,
            FaultKind::HoForwardingLoss => 10,
        }
    }

    /// Human-readable label (CSV headers, reports).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::ChannelBurst => "channel-burst",
            FaultKind::JitterStorm => "jitter-storm",
            FaultKind::SrLoss => "sr-loss",
            FaultKind::HarqFeedback => "harq-feedback",
            FaultKind::BackboneSpike => "backbone-spike",
            FaultKind::GrantWithheld => "grant-withheld",
            FaultKind::PathFailure => "path-failure",
            FaultKind::HoTooLate => "ho-too-late",
            FaultKind::HoTooEarly => "ho-too-early",
            FaultKind::HoPingPong => "ho-ping-pong",
            FaultKind::HoForwardingLoss => "ho-fwd-loss",
        }
    }
}

/// Why a packet was dropped — the typed taxonomy behind the journal's
/// `Drop` events and the overload CSV's per-reason columns. It sits next to
/// [`FaultKind`] so a journaled drop carries this one-byte code, as a
/// journaled fault carries its kind; `stack::overload` re-exports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// PDCP discardTimer expiry (TS 38.323 §5.5): the SDU aged out before
    /// a lower-layer pull, leaving an SN gap.
    PdcpDiscard,
    /// RLC transmission buffer at capacity: tail drop at ingress.
    RlcFull,
    /// The bounded HARQ/MAC backlog was full when a failed transport block
    /// needed requeueing.
    MacBacklogFull,
    /// A transport block exhausted `harq_max_tx` transmissions.
    HarqExhausted,
    /// Critical-level degradation discarded a backlogged transport block
    /// whose packets had all already missed their deadline.
    DeadlineClamp,
    /// Degraded-level ingress shedding of best-effort (eMBB) traffic.
    SloShed,
}

impl DropReason {
    /// Every reason, in CSV column order.
    pub const ALL: [DropReason; 6] = [
        DropReason::PdcpDiscard,
        DropReason::RlcFull,
        DropReason::MacBacklogFull,
        DropReason::HarqExhausted,
        DropReason::DeadlineClamp,
        DropReason::SloShed,
    ];

    /// Stable short label (journal events, CSV headers).
    pub fn label(self) -> &'static str {
        match self {
            DropReason::PdcpDiscard => "pdcp-discard",
            DropReason::RlcFull => "rlc-full",
            DropReason::MacBacklogFull => "mac-backlog-full",
            DropReason::HarqExhausted => "harq-exhausted",
            DropReason::DeadlineClamp => "deadline-clamp",
            DropReason::SloShed => "slo-shed",
        }
    }
}

/// Gilbert–Elliott burst-loss parameters: a two-state Markov chain with a
/// per-packet loss probability in each state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// P(good → bad) per packet.
    pub p_enter_bad: f64,
    /// P(bad → good) per packet.
    pub p_exit_bad: f64,
    /// Loss probability in the good state.
    pub loss_good: f64,
    /// Loss probability in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// Stationary probability of being in the bad state.
    pub(crate) fn stationary_bad(&self) -> f64 {
        if self.p_enter_bad <= 0.0 {
            return 0.0;
        }
        self.p_enter_bad / (self.p_enter_bad + self.p_exit_bad)
    }

    /// Long-run mean packet-loss probability.
    pub fn mean_loss(&self) -> f64 {
        let bad = self.stationary_bad();
        bad * self.loss_bad + (1.0 - bad) * self.loss_good
    }
}

/// A running Gilbert–Elliott chain with its own RNG stream.
#[derive(Debug, Clone)]
pub struct GeChain {
    params: GilbertElliott,
    bad: bool,
    rng: SimRng,
    steps: u64,
    losses: u64,
}

impl GeChain {
    /// Creates the chain in the good state.
    pub fn new(params: GilbertElliott, rng: SimRng) -> GeChain {
        GeChain { params, bad: false, rng, steps: 0, losses: 0 }
    }

    /// Advances one packet; returns `true` when the packet is lost.
    pub fn step(&mut self) -> bool {
        self.steps += 1;
        let flip = if self.bad { self.params.p_exit_bad } else { self.params.p_enter_bad };
        if self.rng.chance(flip) {
            self.bad = !self.bad;
        }
        let p = if self.bad { self.params.loss_bad } else { self.params.loss_good };
        let lost = self.rng.chance(p);
        if lost {
            self.losses += 1;
        }
        lost
    }

    /// Observed loss fraction so far.
    pub fn observed_loss(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.losses as f64 / self.steps as f64
        }
    }
}

/// A Markov-modulated delay storm: geometric dwell in a storming state that
/// adds extra latency to every affected operation.
#[derive(Debug, Clone, PartialEq)]
pub struct StormConfig {
    /// P(calm → storming) per sample.
    pub enter: f64,
    /// P(stay storming) per sample.
    pub stay: f64,
    /// Extra delay added while storming.
    pub extra: Dist,
}

/// A running storm chain with its own RNG stream.
#[derive(Debug, Clone)]
pub struct StormChain {
    config: StormConfig,
    storming: bool,
    rng: SimRng,
}

impl StormChain {
    /// Creates the chain in the calm state.
    pub(crate) fn new(config: StormConfig, rng: SimRng) -> StormChain {
        StormChain { config, storming: false, rng }
    }

    /// Advances one operation; returns the extra delay it suffers
    /// (zero while calm).
    pub(crate) fn sample(&mut self) -> Duration {
        let p = if self.storming { self.config.stay } else { self.config.enter };
        self.storming = self.rng.chance(p);
        if self.storming {
            self.config.extra.sample(&mut self.rng)
        } else {
            Duration::ZERO
        }
    }

    /// Whether the last sample was inside a storm.
    pub fn is_storming(&self) -> bool {
        self.storming
    }
}

/// An independent per-event delay spike.
#[derive(Debug, Clone, PartialEq)]
pub struct SpikeConfig {
    /// Probability a given traversal spikes.
    pub prob: f64,
    /// Extra delay when it does.
    pub extra: Dist,
}

/// An independent per-event loss gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossGate {
    /// Probability the event is lost/corrupted/withheld.
    pub prob: f64,
}

/// N3 path-outage process: a two-state Markov chain sampled once per
/// backbone traversal. While down, the primary gNB↔UPF path forwards
/// nothing (GTP-U echo probes included), so detection falls to the
/// path supervisor rather than a per-packet loss coin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathFailureConfig {
    /// P(up → down) per traversal.
    pub enter: f64,
    /// P(stay down) per traversal.
    pub stay: f64,
}

/// Handover failure injection: one Bernoulli draw per decision point of
/// each handover attempt (trigger, execution, completion, forwarding
/// flush), so the process consumes draws only while a handover is in
/// flight and never perturbs stationary traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HandoverFaultConfig {
    /// P(RLF on the serving cell before the HO command lands) — the
    /// too-late handover of the mobility failure taxonomy.
    pub too_late: f64,
    /// P(T304 expires before RACH to the target succeeds) — too-early.
    pub too_early: f64,
    /// P(a completed handover immediately re-triggers back) — ping-pong.
    pub ping_pong: f64,
    /// P(the Xn-forwarded PDCP batch is lost in the tunnel).
    pub forwarding_loss: f64,
}

/// A complete fault schedule: which processes run and with what parameters.
///
/// `None` disables a process entirely — it consumes no RNG draws, so a
/// plan with all processes disabled reproduces the fault-free baseline
/// byte for byte.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Burst loss overlaid on the air interface (both directions).
    pub channel_burst: Option<GilbertElliott>,
    /// OS-jitter storms on the gNB radio fronthaul.
    pub fronthaul_storm: Option<StormConfig>,
    /// SR/PUCCH loss.
    pub sr_loss: Option<LossGate>,
    /// HARQ ACK/NACK feedback corruption.
    pub harq_feedback: Option<LossGate>,
    /// Backbone (N3/N6) delay spikes.
    pub backbone_spike: Option<SpikeConfig>,
    /// Scheduler grant withholding.
    pub grant_withhold: Option<LossGate>,
    /// Primary N3 path outages (drives GTP-U supervision failover).
    pub path_failure: Option<PathFailureConfig>,
    /// Inter-cell handover failures (too-late / too-early / ping-pong /
    /// forwarding loss). Only consulted by the mobility experiment.
    pub handover: Option<HandoverFaultConfig>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: no fault processes at all.
    pub fn none() -> FaultPlan {
        FaultPlan {
            channel_burst: None,
            fronthaul_storm: None,
            sr_loss: None,
            harq_feedback: None,
            backbone_spike: None,
            grant_withhold: None,
            path_failure: None,
            handover: None,
        }
    }

    /// Whether every process is disabled.
    pub fn is_empty(&self) -> bool {
        self.channel_burst.is_none()
            && self.fronthaul_storm.is_none()
            && self.sr_loss.is_none()
            && self.harq_feedback.is_none()
            && self.backbone_spike.is_none()
            && self.grant_withhold.is_none()
            && self.path_failure.is_none()
            && self.handover.is_none()
    }

    /// The chaos preset: every process enabled, probabilities scaled by
    /// `intensity` (0 = no faults, 1 = severe). Used by the `repro chaos`
    /// reliability sweep; `intensity <= 0` returns the empty plan so the
    /// sweep's zero column is the exact baseline.
    pub fn chaos(intensity: f64) -> FaultPlan {
        if intensity <= 0.0 {
            return FaultPlan::none();
        }
        let p = |base: f64, cap: f64| (base * intensity).min(cap);
        FaultPlan {
            channel_burst: Some(GilbertElliott {
                p_enter_bad: p(0.02, 0.5),
                p_exit_bad: 0.5,
                loss_good: 0.0,
                loss_bad: 0.6,
            }),
            fronthaul_storm: Some(StormConfig {
                enter: p(0.05, 0.9),
                stay: 0.5,
                extra: Dist::LogNormalMeanStd {
                    mean: Duration::from_micros(250),
                    std: Duration::from_micros(120),
                },
            }),
            sr_loss: Some(LossGate { prob: p(0.35, 1.0) }),
            harq_feedback: Some(LossGate { prob: p(0.05, 1.0) }),
            backbone_spike: Some(SpikeConfig {
                prob: p(0.10, 1.0),
                extra: Dist::Exponential { mean: Duration::from_micros(400) },
            }),
            grant_withhold: Some(LossGate { prob: p(0.10, 0.9) }),
            path_failure: Some(PathFailureConfig { enter: p(0.002, 0.2), stay: 0.7 }),
            // The stationary chaos preset leaves mobility alone: the
            // single-cell sweeps it drives have no handover to break.
            handover: None,
        }
    }

    /// The mobility chaos preset: only the handover process, probabilities
    /// scaled by `intensity` (0 = no faults). The mobility experiment
    /// consults no other hook, so keeping the stationary processes off
    /// makes the fault-free column of the handover sweep the exact
    /// baseline walk.
    pub fn handover_chaos(intensity: f64) -> FaultPlan {
        if intensity <= 0.0 {
            return FaultPlan::none();
        }
        let p = |base: f64, cap: f64| (base * intensity).min(cap);
        FaultPlan {
            handover: Some(HandoverFaultConfig {
                too_late: p(0.15, 0.8),
                too_early: p(0.15, 0.8),
                ping_pong: p(0.25, 0.9),
                forwarding_loss: p(0.30, 1.0),
            }),
            ..FaultPlan::none()
        }
    }
}

/// Per-kind event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTally {
    counts: [u64; FAULT_KINDS],
}

impl FaultTally {
    /// Counts one event of `kind`.
    pub(crate) fn count(&mut self, kind: FaultKind) {
        self.counts[kind.index()] += 1;
    }

    /// Events of `kind` so far.
    pub fn get(&self, kind: FaultKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total events across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Adds another tally into this one (commutative — shard reduction).
    pub(crate) fn merge(&mut self, other: &FaultTally) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
    }
}

/// The per-ping fault ledger: which faults fired during one packet's
/// journey and how much latency each contributed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PingFaultTrace {
    extra: [Duration; FAULT_KINDS],
    events: [u64; FAULT_KINDS],
}

impl Default for PingFaultTrace {
    fn default() -> Self {
        PingFaultTrace { extra: [Duration::ZERO; FAULT_KINDS], events: [0; FAULT_KINDS] }
    }
}

impl PingFaultTrace {
    /// Creates an empty ledger.
    pub fn new() -> PingFaultTrace {
        PingFaultTrace::default()
    }

    /// Records one fault event and the latency it added.
    pub fn record(&mut self, kind: FaultKind, extra: Duration) {
        self.events[kind.index()] += 1;
        self.extra[kind.index()] += extra;
    }

    /// Whether no fault touched this ping.
    pub(crate) fn is_clean(&self) -> bool {
        self.events.iter().all(|&e| e == 0)
    }

    /// Total fault-attributed extra latency.
    pub fn total_extra(&self) -> Duration {
        self.extra.iter().fold(Duration::ZERO, |acc, &d| acc + d)
    }

    /// Per-kind `(kind, extra latency, event count)` contributions in
    /// tally order, restricted to kinds that actually fired — the flight
    /// recorder's fault-attribution feed.
    pub fn contributions(&self) -> impl Iterator<Item = (FaultKind, Duration, u64)> + '_ {
        FaultKind::ALL
            .into_iter()
            .filter(|k| self.events[k.index()] > 0)
            .map(|k| (k, self.extra[k.index()], self.events[k.index()]))
    }

    /// The fault that dominated this ping: most extra latency, ties broken
    /// by event count. `None` when the ping saw no faults.
    pub fn dominant(&self) -> Option<FaultKind> {
        if self.is_clean() {
            return None;
        }
        FaultKind::ALL.into_iter().filter(|k| self.events[k.index()] > 0).max_by(|a, b| {
            self.extra[a.index()]
                .cmp(&self.extra[b.index()])
                .then(self.events[a.index()].cmp(&self.events[b.index()]))
        })
    }
}

/// Experiment-level attribution: per-outcome counts, split by the fault
/// that dominated each ping.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultAttribution {
    /// Pings delivered within the deadline.
    pub on_time: u64,
    /// Pings delivered late.
    pub late: u64,
    /// Pings lost.
    pub lost: u64,
    /// Late pings no fault touched (the baseline tail of the latency
    /// distribution — §6's margin problem, present without injection).
    pub late_baseline: u64,
    /// Late pings by dominating fault.
    pub late_by: FaultTally,
    /// Lost pings by dominating fault.
    pub lost_by: FaultTally,
}

impl FaultAttribution {
    /// Classifies one delivered ping.
    pub fn record_delivered(&mut self, on_time: bool, dominant: Option<FaultKind>) {
        if on_time {
            self.on_time += 1;
        } else {
            self.late += 1;
            match dominant {
                Some(k) => self.late_by.count(k),
                None => self.late_baseline += 1,
            }
        }
    }

    /// Classifies one lost ping.
    pub fn record_lost(&mut self, dominant: Option<FaultKind>) {
        self.lost += 1;
        if let Some(k) = dominant {
            self.lost_by.count(k);
        }
    }

    /// Total pings classified.
    pub fn total(&self) -> u64 {
        self.on_time + self.late + self.lost
    }

    /// Deadline-miss probability: (late + lost) / total.
    pub fn miss_probability(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (self.late + self.lost) as f64 / t as f64
        }
    }

    /// True when no ping was touched by any injected fault: no losses, and
    /// every late ping attributed to the baseline latency tail.
    pub fn is_fault_free(&self) -> bool {
        self.lost == 0 && self.late_by.total() == 0 && self.lost_by.total() == 0
    }

    /// Adds another attribution into this one. Every field is a sum, so the
    /// merge is commutative and a sharded sweep reduces to the same totals
    /// as a sequential pass over the same shards.
    pub fn merge(&mut self, other: &FaultAttribution) {
        self.on_time += other.on_time;
        self.late += other.late;
        self.lost += other.lost;
        self.late_baseline += other.late_baseline;
        self.late_by.merge(&other.late_by);
        self.lost_by.merge(&other.lost_by);
    }
}

/// The runtime fault injector: one stateful process per enabled plan
/// entry, each on its own child stream of the experiment master RNG.
///
/// Every query method is a no-op (no RNG draw, default answer) when its
/// process is disabled — the invariant that makes the empty plan
/// byte-identical to the baseline.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    channel: Option<GeChain>,
    storm: Option<StormChain>,
    sr: Option<(LossGate, SimRng)>,
    harq_fb: Option<(LossGate, SimRng)>,
    backbone: Option<(SpikeConfig, SimRng)>,
    grant: Option<(LossGate, SimRng)>,
    path: Option<(PathFailureConfig, SimRng)>,
    ho: Option<(HandoverFaultConfig, SimRng)>,
    path_is_down: bool,
    recovery_rng: SimRng,
    tally: FaultTally,
}

impl FaultInjector {
    /// Builds the injector, deriving one stream per enabled process from
    /// `master` (labels are stable across runs and plans).
    pub fn new(plan: &FaultPlan, master: &SimRng) -> FaultInjector {
        let root = master.stream("faults");
        FaultInjector {
            channel: plan.channel_burst.map(|p| GeChain::new(p, root.stream("channel"))),
            storm: plan.fronthaul_storm.clone().map(|c| StormChain::new(c, root.stream("storm"))),
            sr: plan.sr_loss.map(|g| (g, root.stream("sr"))),
            harq_fb: plan.harq_feedback.map(|g| (g, root.stream("harq-fb"))),
            backbone: plan.backbone_spike.clone().map(|c| (c, root.stream("backbone"))),
            grant: plan.grant_withhold.map(|g| (g, root.stream("grant"))),
            path: plan.path_failure.map(|c| (c, root.stream("path"))),
            ho: plan.handover.map(|c| (c, root.stream("handover"))),
            path_is_down: false,
            recovery_rng: root.stream("recovery"),
            tally: FaultTally::default(),
        }
    }

    /// Whether any process is enabled.
    pub fn is_active(&self) -> bool {
        self.channel.is_some()
            || self.storm.is_some()
            || self.sr.is_some()
            || self.harq_fb.is_some()
            || self.backbone.is_some()
            || self.grant.is_some()
            || self.path.is_some()
            || self.ho.is_some()
    }

    /// Whether the burst-loss overlay is enabled.
    pub fn channel_burst_active(&self) -> bool {
        self.channel.is_some()
    }

    /// Whether HARQ feedback corruption is enabled.
    pub fn harq_feedback_active(&self) -> bool {
        self.harq_fb.is_some()
    }

    /// One air transmission: does the burst overlay lose it?
    pub fn channel_loss(&mut self) -> bool {
        let Some(chain) = self.channel.as_mut() else { return false };
        let lost = chain.step();
        if lost {
            self.tally.count(FaultKind::ChannelBurst);
        }
        lost
    }

    /// One fronthaul operation: extra storm delay (zero while calm).
    pub fn storm_delay(&mut self) -> Duration {
        let Some(chain) = self.storm.as_mut() else { return Duration::ZERO };
        let d = chain.sample();
        if d > Duration::ZERO {
            self.tally.count(FaultKind::JitterStorm);
        }
        d
    }

    /// One SR transmission: is it lost on PUCCH?
    pub fn sr_lost(&mut self) -> bool {
        let Some((gate, rng)) = self.sr.as_mut() else { return false };
        let lost = rng.chance(gate.prob);
        if lost {
            self.tally.count(FaultKind::SrLoss);
        }
        lost
    }

    /// One HARQ feedback transmission: is the ACK/NACK flipped?
    pub fn harq_feedback_corrupted(&mut self) -> bool {
        let Some((gate, rng)) = self.harq_fb.as_mut() else { return false };
        let corrupted = rng.chance(gate.prob);
        if corrupted {
            self.tally.count(FaultKind::HarqFeedback);
        }
        corrupted
    }

    /// One backbone traversal: extra spike delay (usually zero).
    pub fn backbone_spike(&mut self) -> Duration {
        let Some((cfg, rng)) = self.backbone.as_mut() else { return Duration::ZERO };
        if rng.chance(cfg.prob) {
            self.tally.count(FaultKind::BackboneSpike);
            cfg.extra.sample(rng)
        } else {
            Duration::ZERO
        }
    }

    /// One scheduling round: does the scheduler withhold the grant?
    pub fn grant_withheld(&mut self) -> bool {
        let Some((gate, rng)) = self.grant.as_mut() else { return false };
        let withheld = rng.chance(gate.prob);
        if withheld {
            self.tally.count(FaultKind::GrantWithheld);
        }
        withheld
    }

    /// Whether the path-failure process is enabled.
    pub fn path_failure_active(&self) -> bool {
        self.path.is_some()
    }

    /// One primary-path traversal attempt: is the N3 path down right now?
    /// Steps the outage Markov chain; an up→down transition counts one
    /// `PathFailure` event (the outage, not every packet it swallows).
    pub fn path_down(&mut self) -> bool {
        let Some((cfg, rng)) = self.path.as_mut() else { return false };
        let p = if self.path_is_down { cfg.stay } else { cfg.enter };
        let down = rng.chance(p);
        if down && !self.path_is_down {
            self.tally.count(FaultKind::PathFailure);
        }
        self.path_is_down = down;
        down
    }

    /// Whether the handover failure process is enabled.
    pub fn handover_active(&self) -> bool {
        self.ho.is_some()
    }

    /// One handover trigger: does the serving link fail before the HO
    /// command lands (too-late handover)?
    pub fn ho_too_late(&mut self) -> bool {
        let Some((cfg, rng)) = self.ho.as_mut() else { return false };
        let fired = rng.chance(cfg.too_late);
        if fired {
            self.tally.count(FaultKind::HoTooLate);
        }
        fired
    }

    /// One handover execution: does T304 expire before target access
    /// succeeds (too-early handover)?
    pub fn ho_too_early(&mut self) -> bool {
        let Some((cfg, rng)) = self.ho.as_mut() else { return false };
        let fired = rng.chance(cfg.too_early);
        if fired {
            self.tally.count(FaultKind::HoTooEarly);
        }
        fired
    }

    /// One handover completion: does the UE bounce straight back
    /// (ping-pong)?
    pub fn ho_ping_pong(&mut self) -> bool {
        let Some((cfg, rng)) = self.ho.as_mut() else { return false };
        let fired = rng.chance(cfg.ping_pong);
        if fired {
            self.tally.count(FaultKind::HoPingPong);
        }
        fired
    }

    /// One Xn forwarding flush: is the forwarded batch lost in the tunnel?
    pub fn ho_forwarding_lost(&mut self) -> bool {
        let Some((cfg, rng)) = self.ho.as_mut() else { return false };
        let fired = rng.chance(cfg.forwarding_loss);
        if fired {
            self.tally.count(FaultKind::HoForwardingLoss);
        }
        fired
    }

    /// Advances the burst-loss chain by `n` extra transmissions without
    /// tallying — models the RACH Msg1/Msg3 exchanges of a recovery
    /// detour riding the same air interface, so the channel state the
    /// retry sees has aged past the burst that caused the RLF.
    pub fn channel_advance(&mut self, n: u32) {
        let Some(chain) = self.channel.as_mut() else { return };
        for _ in 0..n {
            chain.step();
        }
    }

    /// The stream recovery procedures (e.g. RACH re-access) draw from —
    /// only touched on fault paths, so it never perturbs the baseline.
    pub fn recovery_rng(&mut self) -> &mut SimRng {
        &mut self.recovery_rng
    }

    /// Cumulative per-kind event counts.
    pub fn tally(&self) -> &FaultTally {
        &self.tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_merge_matches_sequential_recording() {
        let mut whole = FaultAttribution::default();
        let mut left = FaultAttribution::default();
        let mut right = FaultAttribution::default();
        for (i, part) in [&mut left, &mut right].into_iter().enumerate() {
            for j in 0..5u64 {
                let dominant = (j % 2 == 0).then_some(FaultKind::SrLoss);
                part.record_delivered(j < 3, dominant);
                whole.record_delivered(j < 3, dominant);
            }
            if i == 0 {
                part.record_lost(Some(FaultKind::ChannelBurst));
                whole.record_lost(Some(FaultKind::ChannelBurst));
            }
        }
        left.merge(&right);
        assert_eq!(left, whole);
        assert_eq!(left.total(), 11);
    }

    #[test]
    fn chaos_zero_is_the_empty_plan() {
        assert_eq!(FaultPlan::chaos(0.0), FaultPlan::none());
        assert_eq!(FaultPlan::chaos(-1.0), FaultPlan::none());
        assert!(FaultPlan::none().is_empty());
        assert!(!FaultPlan::chaos(0.1).is_empty());
    }

    #[test]
    fn chaos_probabilities_scale_and_clamp() {
        let lo = FaultPlan::chaos(0.1);
        let hi = FaultPlan::chaos(1.0);
        let extreme = FaultPlan::chaos(100.0);
        assert!(
            lo.sr_loss.unwrap().prob < hi.sr_loss.unwrap().prob,
            "sr loss must grow with intensity"
        );
        assert!(extreme.sr_loss.unwrap().prob <= 1.0);
        assert!(extreme.grant_withhold.unwrap().prob <= 0.9);
        assert!(extreme.channel_burst.unwrap().p_enter_bad <= 0.5);
    }

    #[test]
    fn ge_stationary_loss_matches_observation() {
        let params =
            GilbertElliott { p_enter_bad: 0.05, p_exit_bad: 0.25, loss_good: 0.01, loss_bad: 0.5 };
        let mut chain = GeChain::new(params, SimRng::from_seed(7).stream("ge"));
        for _ in 0..200_000 {
            chain.step();
        }
        let expected = params.mean_loss();
        assert!(
            (chain.observed_loss() - expected).abs() < 0.01,
            "observed {} vs stationary {expected}",
            chain.observed_loss()
        );
    }

    #[test]
    fn ge_losses_are_bursty() {
        // Consecutive losses must be far more frequent than independent
        // losses at the same mean rate would produce.
        let params =
            GilbertElliott { p_enter_bad: 0.02, p_exit_bad: 0.3, loss_good: 0.0, loss_bad: 0.8 };
        let mut chain = GeChain::new(params, SimRng::from_seed(8).stream("ge"));
        let mut prev = false;
        let mut pairs = 0u64;
        let mut losses = 0u64;
        let n = 100_000;
        for _ in 0..n {
            let lost = chain.step();
            if lost {
                losses += 1;
                if prev {
                    pairs += 1;
                }
            }
            prev = lost;
        }
        let p = losses as f64 / n as f64;
        let independent_pairs = p * p * n as f64;
        assert!(
            pairs as f64 > 3.0 * independent_pairs,
            "pairs {pairs} vs independent expectation {independent_pairs:.1}"
        );
    }

    #[test]
    fn storm_adds_delay_only_while_storming() {
        let cfg = StormConfig {
            enter: 0.05,
            stay: 0.6,
            extra: Dist::Constant(Duration::from_micros(100)),
        };
        let mut chain = StormChain::new(cfg, SimRng::from_seed(9).stream("storm"));
        let mut stormed = 0u32;
        for _ in 0..10_000 {
            let d = chain.sample();
            if chain.is_storming() {
                assert_eq!(d, Duration::from_micros(100));
                stormed += 1;
            } else {
                assert_eq!(d, Duration::ZERO);
            }
        }
        // Stationary fraction e/(e+1-s) = 0.05/0.45 ≈ 11 %.
        assert!((500..2_000).contains(&stormed), "storm samples {stormed}");
    }

    #[test]
    fn injector_disabled_processes_consume_no_draws() {
        let master = SimRng::from_seed(11);
        let mut inj = FaultInjector::new(&FaultPlan::none(), &master);
        for _ in 0..100 {
            assert!(!inj.channel_loss());
            assert_eq!(inj.storm_delay(), Duration::ZERO);
            assert!(!inj.sr_lost());
            assert!(!inj.harq_feedback_corrupted());
            assert_eq!(inj.backbone_spike(), Duration::ZERO);
            assert!(!inj.grant_withheld());
            assert!(!inj.path_down());
            assert!(!inj.ho_too_late());
            assert!(!inj.ho_too_early());
            assert!(!inj.ho_ping_pong());
            assert!(!inj.ho_forwarding_lost());
        }
        inj.channel_advance(10);
        assert_eq!(inj.tally().total(), 0);
        assert!(!inj.is_active());
        assert!(!inj.path_failure_active());
        assert!(!inj.handover_active());
    }

    #[test]
    fn handover_process_is_independent_of_the_stationary_processes() {
        // Enabling the handover process must not perturb any stationary
        // stream, and vice versa — each owns its own child stream.
        let run = |plan: &FaultPlan| {
            let master = SimRng::from_seed(13);
            let mut inj = FaultInjector::new(plan, &master);
            (0..200)
                .map(|_| (inj.channel_loss(), inj.sr_lost(), inj.ho_too_late(), inj.ho_ping_pong()))
                .collect::<Vec<_>>()
        };
        let chaos = FaultPlan::chaos(1.0);
        let mut both = chaos.clone();
        both.handover = FaultPlan::handover_chaos(1.0).handover;
        let a = run(&chaos);
        let b = run(&both);
        assert_eq!(
            a.iter().map(|t| (t.0, t.1)).collect::<Vec<_>>(),
            b.iter().map(|t| (t.0, t.1)).collect::<Vec<_>>(),
            "stationary streams perturbed by the handover process"
        );
        assert!(a.iter().all(|t| !t.2 && !t.3), "disabled handover process fired");
        assert!(b.iter().any(|t| t.2 || t.3), "enabled handover process never fired");
        assert_eq!(run(&both), run(&both));
    }

    #[test]
    fn handover_chaos_scales_and_zero_is_empty() {
        assert_eq!(FaultPlan::handover_chaos(0.0), FaultPlan::none());
        let lo = FaultPlan::handover_chaos(0.1).handover.unwrap();
        let hi = FaultPlan::handover_chaos(1.0).handover.unwrap();
        let extreme = FaultPlan::handover_chaos(100.0).handover.unwrap();
        assert!(lo.too_late < hi.too_late);
        assert!(extreme.too_late <= 0.8 && extreme.forwarding_loss <= 1.0);
        // Only the handover process is enabled.
        let plan = FaultPlan::handover_chaos(1.0);
        assert!(plan.channel_burst.is_none() && plan.sr_loss.is_none());
        assert!(!plan.is_empty());
    }

    #[test]
    fn path_outages_are_counted_per_outage_not_per_packet() {
        let master = SimRng::from_seed(21);
        let mut plan = FaultPlan::none();
        plan.path_failure = Some(PathFailureConfig { enter: 0.05, stay: 0.8 });
        let mut inj = FaultInjector::new(&plan, &master);
        let mut down_samples = 0u64;
        let mut outages = 0u64;
        let mut prev = false;
        for _ in 0..20_000 {
            let down = inj.path_down();
            if down {
                down_samples += 1;
                if !prev {
                    outages += 1;
                }
            }
            prev = down;
        }
        assert!(outages > 0, "seeded chain never failed");
        assert!(down_samples > outages, "outages must dwell (stay=0.8)");
        assert_eq!(inj.tally().get(FaultKind::PathFailure), outages);
    }

    #[test]
    fn injector_is_deterministic_and_streams_are_independent() {
        let run = |plan: &FaultPlan| {
            let master = SimRng::from_seed(3);
            let mut inj = FaultInjector::new(plan, &master);
            (0..500)
                .map(|_| (inj.channel_loss(), inj.sr_lost(), inj.backbone_spike()))
                .collect::<Vec<_>>()
        };
        let full = FaultPlan::chaos(1.0);
        assert_eq!(run(&full), run(&full));

        // Disabling one process must not change another's draws.
        let mut no_sr = full.clone();
        no_sr.sr_loss = None;
        let a = run(&full);
        let b = run(&no_sr);
        let channel_a: Vec<bool> = a.iter().map(|t| t.0).collect();
        let channel_b: Vec<bool> = b.iter().map(|t| t.0).collect();
        assert_eq!(channel_a, channel_b, "channel stream perturbed by SR process");
        let spikes_a: Vec<Duration> = a.iter().map(|t| t.2).collect();
        let spikes_b: Vec<Duration> = b.iter().map(|t| t.2).collect();
        assert_eq!(spikes_a, spikes_b, "backbone stream perturbed by SR process");
    }

    #[test]
    fn trace_dominant_prefers_largest_extra() {
        let mut t = PingFaultTrace::new();
        assert_eq!(t.dominant(), None);
        assert!(t.is_clean());
        t.record(FaultKind::SrLoss, Duration::from_micros(10));
        t.record(FaultKind::ChannelBurst, Duration::from_micros(500));
        t.record(FaultKind::BackboneSpike, Duration::from_micros(40));
        assert_eq!(t.dominant(), Some(FaultKind::ChannelBurst));
        assert_eq!(t.total_extra(), Duration::from_micros(550));
    }

    #[test]
    fn trace_dominant_breaks_ties_by_event_count() {
        let mut t = PingFaultTrace::new();
        // Equal (zero) extra: the kind with more events dominates.
        t.record(FaultKind::HarqFeedback, Duration::ZERO);
        t.record(FaultKind::SrLoss, Duration::ZERO);
        t.record(FaultKind::SrLoss, Duration::ZERO);
        assert_eq!(t.dominant(), Some(FaultKind::SrLoss));
    }

    #[test]
    fn attribution_classifies_and_computes_miss_probability() {
        let mut a = FaultAttribution::default();
        a.record_delivered(true, None);
        a.record_delivered(true, Some(FaultKind::BackboneSpike));
        a.record_delivered(false, None);
        a.record_delivered(false, Some(FaultKind::ChannelBurst));
        a.record_lost(Some(FaultKind::ChannelBurst));
        a.record_lost(None);
        assert_eq!(a.on_time, 2);
        assert_eq!(a.late, 2);
        assert_eq!(a.lost, 2);
        assert_eq!(a.late_baseline, 1);
        assert_eq!(a.late_by.get(FaultKind::ChannelBurst), 1);
        assert_eq!(a.lost_by.get(FaultKind::ChannelBurst), 1);
        assert_eq!(a.total(), 6);
        assert!((a.miss_probability() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn fault_kind_indices_are_a_bijection() {
        let mut seen = [false; FAULT_KINDS];
        for k in FaultKind::ALL {
            assert!(!seen[k.index()], "duplicate index for {k:?}");
            seen[k.index()] = true;
            assert!(!k.label().is_empty());
        }
        assert!(seen.iter().all(|&s| s));
    }
}
