//! RRC connection re-establishment after radio-link failure
//! (TS 38.331 §5.3.7, condensed to its latency-bearing skeleton).
//!
//! PR 1 made RLF *visible*: RLC AM hitting `maxRetxThreshold` escalates a
//! typed event instead of silently dropping the packet. This module is the
//! procedure that consumes that event. The standard sequence, and how each
//! step maps here:
//!
//! 1. **RLF detection** — the UE declares radio-link failure a short,
//!    configured delay after the max-retx indication ([`RrcConfig::
//!    detect_delay`], standing in for the T310/timer machinery);
//! 2. **Cell re-access** — contention-based RACH via the existing
//!    [`crate::rach`] four-step model, Msg3 carrying the old C-RNTI CE
//!    ([`crate::mac::encode_c_rnti`]) so the gNB finds the UE context;
//! 3. **RRC re-establishment** — `RRCReestablishment` /
//!    `RRCReestablishmentComplete` processing
//!    ([`RrcConfig::reestablish_processing`]), upon which both peers run
//!    RLC AM re-establishment ([`crate::rlc::am::RlcAmEntity::
//!    reestablish`]);
//! 4. **PDCP data recovery** — the status-report exchange
//!    ([`crate::pdcp::PdcpStatusReport`]) that retransmits exactly the
//!    in-flight SDUs with their original COUNTs. Its duration depends on
//!    the re-established link's scheduling, so the caller measures it and
//!    completes the [`RecoveryTimeline`].
//!
//! Everything here is deterministic given the RNG stream handed in: with
//! one contending UE the RACH step consumes no draws at all.

use sim::{Duration, Instant, SimRng};
use telemetry::{metric, Telemetry};

use crate::rach::{self, RachConfig};

/// Re-establishment policy and timing constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RrcConfig {
    /// Max-retx indication → RLF declaration (the T310-style guard that
    /// keeps one bad status report from triggering a full re-access).
    pub detect_delay: Duration,
    /// `RRCReestablishment` round trip + RLC/PDCP entity reset processing
    /// once random access has succeeded.
    pub reestablish_processing: Duration,
    /// UEs contending on each RACH occasion (this UE included); 1 models
    /// the paper's single-UE testbed and keeps re-access deterministic.
    pub contending: u32,
    /// Give up on the connection after this many re-establishments.
    pub max_reestablishments: u32,
}

impl Default for RrcConfig {
    fn default() -> Self {
        RrcConfig {
            detect_delay: Duration::from_millis(1),
            reestablish_processing: Duration::from_millis(2),
            contending: 1,
            max_reestablishments: 4,
        }
    }
}

/// RRC connection state, as far as recovery is concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RrcState {
    /// Normal operation.
    Connected,
    /// RLF declared, re-establishment in progress.
    Reestablishing,
    /// Re-access failed (RACH budget or re-establishment budget
    /// exhausted): the connection is gone and upper layers must re-attach.
    Failed,
}

/// The per-step latency ledger of one recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryTimeline {
    /// Max-retx indication → RLF declared.
    pub detect: Duration,
    /// RLF declared → contention resolved (Msg4).
    pub rach: Duration,
    /// Msg4 → RLC/PDCP entities re-established.
    pub reestablish: Duration,
    /// Status-report exchange + retransmission of in-flight SDUs,
    /// measured by the caller on the re-established link.
    pub pdcp_recover: Duration,
}

impl RecoveryTimeline {
    /// Total recovery detour: what the packet's end-to-end latency grows by.
    pub fn total(&self) -> Duration {
        self.detect + self.rach + self.reestablish + self.pdcp_recover
    }
}

/// The UE-side re-establishment state machine.
#[derive(Debug, Clone)]
pub struct RrcEntity {
    config: RrcConfig,
    rach: RachConfig,
    state: RrcState,
    reestablishments: u64,
    failures: u64,
    tel: Telemetry,
}

impl RrcEntity {
    /// A connected entity.
    pub fn new(config: RrcConfig, rach: RachConfig) -> RrcEntity {
        RrcEntity {
            config,
            rach,
            state: RrcState::Connected,
            reestablishments: 0,
            failures: 0,
            tel: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle (`rrc/*` recovery metrics).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Current connection state.
    pub fn state(&self) -> RrcState {
        self.state
    }

    /// Completed re-establishments.
    pub fn reestablishments(&self) -> u64 {
        self.reestablishments
    }

    /// Recoveries that failed (RACH exhausted or budget spent).
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Runs detection, re-access and re-establishment for an RLF declared
    /// from a max-retx indication at `at`. On success the entity is
    /// [`Connected`](RrcState::Connected) again and the timeline's first
    /// three legs are filled in (`pdcp_recover` starts at zero — the
    /// caller measures the data-recovery exchange and adds it). Returns
    /// `None` when the re-establishment budget or the RACH attempt budget
    /// is exhausted; the entity is then [`Failed`](RrcState::Failed).
    pub fn recover(&mut self, at: Instant, rng: &mut SimRng) -> Option<RecoveryTimeline> {
        self.tel.add(metric::RRC_RLF_DETECTED, 1);
        if self.reestablishments >= u64::from(self.config.max_reestablishments) {
            self.state = RrcState::Failed;
            self.failures += 1;
            self.tel.add(metric::RRC_REESTABLISH_FAILED, 1);
            return None;
        }
        self.state = RrcState::Reestablishing;
        let detect = self.config.detect_delay;
        let Some(rach) =
            rach::recovery_latency(&self.rach, at + detect, self.config.contending, rng)
        else {
            self.state = RrcState::Failed;
            self.failures += 1;
            self.tel.add(metric::RRC_REESTABLISH_FAILED, 1);
            return None;
        };
        self.reestablishments += 1;
        self.state = RrcState::Connected;
        let timeline = RecoveryTimeline {
            detect,
            rach,
            reestablish: self.config.reestablish_processing,
            pdcp_recover: Duration::ZERO,
        };
        self.tel.add(metric::RRC_REESTABLISH_OK, 1);
        self.tel.observe(metric::RRC_RECOVERY_US, timeline.total());
        Some(timeline)
    }

    /// Forgets past re-establishments and returns to
    /// [`Connected`](RrcState::Connected): the TS 38.331 behaviour of a
    /// connection that has been stable long enough for its failure
    /// counters to clear (callers invoke this between widely-spaced
    /// packets, so the budget bounds one incident chain, not a whole run).
    pub fn reset_budget(&mut self) {
        self.reestablishments = 0;
        self.state = RrcState::Connected;
    }

    /// Worst case for the legs this entity controls (detect + re-access +
    /// re-establishment), before the data-recovery exchange: the bound the
    /// closed-form model in `urllc-core` builds on.
    pub fn control_plane_worst_case(&self) -> Duration {
        let rach_worst = if self.config.contending <= 1 {
            // One contender: exactly one attempt, never a collision.
            self.rach.uncontended_worst_case()
        } else {
            self.rach.contended_worst_case()
        };
        self.config.detect_delay + rach_worst + self.config.reestablish_processing
    }
}

/// Inter-cell (Xn) handover policy and timing constants
/// (TS 38.331 §5.3.5 reconfiguration-with-sync, TS 38.423 Xn preparation).
///
/// The latency-bearing skeleton of the standard sequence:
/// measurement report (A3 event, sustained for `time_to_trigger`) →
/// Xn HANDOVER REQUEST/ACK with admission control (`prep_delay`) →
/// `RRCReconfiguration` processed at the UE (`reconfig_processing`, the
/// instant the UE detaches from the source) → contention-free RACH to the
/// target (dedicated preamble, supervised by `t304`) →
/// `RRCReconfigurationComplete` (`complete_processing`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HandoverConfig {
    /// A3 offset: the neighbour must beat the serving cell by this many
    /// dB before the entering condition holds.
    pub hysteresis_db: f64,
    /// The A3 entering condition must hold continuously this long before
    /// the UE sends the measurement report.
    pub time_to_trigger: Duration,
    /// Measurement report air time + serving-gNB processing.
    pub report_delay: Duration,
    /// Xn HANDOVER REQUEST → ACK: admission control and UE-context setup
    /// at the target, one Xn control-plane round trip included.
    pub prep_delay: Duration,
    /// `RRCReconfiguration` reception + processing at the UE; the UE
    /// detaches from the source at the end of this leg.
    pub reconfig_processing: Duration,
    /// `RRCReconfigurationComplete` processing at the target.
    pub complete_processing: Duration,
    /// Reconfiguration-with-sync supervision timer: if RACH to the target
    /// has not succeeded this long after detach, the handover failed and
    /// the UE falls back to re-establishment.
    pub t304: Duration,
    /// One-way Xn user-plane latency between the two gNBs (forwarding
    /// tunnel and path-switch signalling ride this link).
    pub xn_delay: Duration,
    /// Serving-cell RSRP below which the UE declares radio-link failure —
    /// the cliff a too-late handover falls off.
    pub rlf_rsrp_dbm: f64,
}

impl Default for HandoverConfig {
    fn default() -> Self {
        HandoverConfig {
            hysteresis_db: 3.0,
            time_to_trigger: Duration::from_millis(40),
            report_delay: Duration::from_millis(1),
            prep_delay: Duration::from_millis(2),
            reconfig_processing: Duration::from_millis(2),
            complete_processing: Duration::from_millis(1),
            t304: Duration::from_millis(40),
            xn_delay: Duration::from_micros(300),
            rlf_rsrp_dbm: -110.0,
        }
    }
}

/// The A3 measurement-event tracker (TS 38.331 §5.5.4.4): fires once when
/// `neighbour > serving + hysteresis` has held continuously for the
/// time-to-trigger. Deterministic — pure bookkeeping over the measurement
/// samples fed in.
#[derive(Debug, Clone, Copy)]
pub struct A3Trigger {
    hysteresis_db: f64,
    time_to_trigger: Duration,
    entered_at: Option<Instant>,
    fired: bool,
}

impl A3Trigger {
    /// A fresh (disarmed-condition, armed-trigger) tracker.
    pub(crate) fn new(hysteresis_db: f64, time_to_trigger: Duration) -> A3Trigger {
        A3Trigger { hysteresis_db, time_to_trigger, entered_at: None, fired: false }
    }

    /// Feeds one measurement sample. Returns `true` exactly once, when the
    /// entering condition has been sustained for the time-to-trigger;
    /// leaving the condition before that re-arms the window.
    pub(crate) fn observe(&mut self, at: Instant, serving_dbm: f64, neighbour_dbm: f64) -> bool {
        if self.fired {
            return false;
        }
        if neighbour_dbm > serving_dbm + self.hysteresis_db {
            let entered = *self.entered_at.get_or_insert(at);
            if at - entered >= self.time_to_trigger {
                self.fired = true;
                return true;
            }
        } else {
            self.entered_at = None;
        }
        false
    }

    /// Whether the trigger has fired and awaits `reset`.
    pub fn has_fired(&self) -> bool {
        self.fired
    }

    /// Re-arms the tracker (after the handover completes or fails).
    pub(crate) fn reset(&mut self) {
        self.entered_at = None;
        self.fired = false;
    }
}

/// The per-leg latency ledger of one fault-free handover execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandoverTimeline {
    /// Measurement report sent → received/processed at the serving gNB.
    pub report: Duration,
    /// Xn preparation (HANDOVER REQUEST/ACK, admission, context setup).
    pub prep: Duration,
    /// `RRCReconfiguration` delivery + processing at the UE (ends at
    /// detach — the service interruption starts here).
    pub reconfig: Duration,
    /// Contention-free RACH to the target cell.
    pub rach: Duration,
    /// `RRCReconfigurationComplete` processing at the target (ends the
    /// control-plane interruption).
    pub complete: Duration,
}

impl HandoverTimeline {
    /// Report sent → HO command starts being processed at the UE.
    pub fn command_delay(&self) -> Duration {
        self.report + self.prep
    }

    /// The control-plane service interruption: UE detached from the
    /// source → connected to the target (data-plane resumption adds the
    /// path switch and forwarding flush on top — the stack measures it).
    pub fn interruption(&self) -> Duration {
        self.reconfig + self.rach + self.complete
    }

    /// Report sent → connected at the target.
    pub fn total(&self) -> Duration {
        self.command_delay() + self.interruption()
    }
}

/// The UE-side handover state machine: A3 trigger tracking, fault-free
/// execution timing, and the failure-taxonomy counters. The experiment
/// driver owns the data plane (forwarding, path switch) and the fault
/// injection; this entity owns the control-plane clockwork.
#[derive(Debug, Clone)]
pub struct HandoverEntity {
    config: HandoverConfig,
    rach: RachConfig,
    trigger: A3Trigger,
    attempts: u64,
    completions: u64,
    too_late: u64,
    too_early: u64,
    ping_pongs: u64,
    tel: Telemetry,
}

impl HandoverEntity {
    /// A fresh entity for the given policy; target access uses the same
    /// RACH numerology as re-establishment, minus the contention.
    pub fn new(config: HandoverConfig, rach: RachConfig) -> HandoverEntity {
        HandoverEntity {
            config,
            rach,
            trigger: A3Trigger::new(config.hysteresis_db, config.time_to_trigger),
            attempts: 0,
            completions: 0,
            too_late: 0,
            too_early: 0,
            ping_pongs: 0,
            tel: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle (`rrc/ho_*` counters).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// The handover policy.
    pub fn config(&self) -> &HandoverConfig {
        &self.config
    }

    /// Feeds one measurement occasion; `true` fires the measurement
    /// report (once — [`rearm`](Self::rearm) re-enables the trigger).
    pub fn observe(&mut self, at: Instant, serving_dbm: f64, neighbour_dbm: f64) -> bool {
        let fired = self.trigger.observe(at, serving_dbm, neighbour_dbm);
        if fired {
            self.attempts += 1;
            self.tel.add(metric::RRC_HO_ATTEMPT, 1);
        }
        fired
    }

    /// Re-arms the A3 trigger after a completed or failed handover.
    pub fn rearm(&mut self) {
        self.trigger.reset();
    }

    /// The fault-free execution timeline for a measurement report sent at
    /// `report_at`. Target access is contention-free (dedicated preamble
    /// from the HANDOVER REQUEST ACK), so the whole timeline is
    /// deterministic: no RNG draws.
    pub fn execute(&self, report_at: Instant) -> HandoverTimeline {
        let detach_at = report_at
            + self.config.report_delay
            + self.config.prep_delay
            + self.config.reconfig_processing;
        HandoverTimeline {
            report: self.config.report_delay,
            prep: self.config.prep_delay,
            reconfig: self.config.reconfig_processing,
            rach: self.rach.uncontended_latency(detach_at),
            complete: self.config.complete_processing,
        }
    }

    /// Records a completed handover and its measured service interruption.
    pub fn record_complete(&mut self, interruption: Duration) {
        self.completions += 1;
        self.tel.add(metric::RRC_HO_COMPLETE, 1);
        self.tel.observe(metric::RRC_HO_INTERRUPTION_US, interruption);
    }

    /// Records a too-late failure (RLF before the command).
    pub fn record_too_late(&mut self) {
        self.too_late += 1;
        self.tel.add(metric::RRC_HO_TOO_LATE, 1);
    }

    /// Records a too-early failure (T304 expiry).
    pub fn record_too_early(&mut self) {
        self.too_early += 1;
        self.tel.add(metric::RRC_HO_TOO_EARLY, 1);
    }

    /// Records a ping-pong bounce.
    pub fn record_ping_pong(&mut self) {
        self.ping_pongs += 1;
        self.tel.add(metric::RRC_HO_PING_PONG, 1);
    }

    /// Handover attempts (measurement reports sent).
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Completed handovers.
    pub fn completions(&self) -> u64 {
        self.completions
    }

    /// Too-late failures recorded.
    pub fn too_late(&self) -> u64 {
        self.too_late
    }

    /// Too-early failures recorded.
    pub fn too_early(&self) -> u64 {
        self.too_early
    }

    /// Ping-pong bounces recorded.
    pub fn ping_pongs(&self) -> u64 {
        self.ping_pongs
    }

    /// Worst-case control-plane interruption of a *successful* handover:
    /// detach → connected at the target, with the RACH leg at its
    /// contention-free worst. The closed-form model in `urllc-core`
    /// builds on this.
    pub fn interruption_worst_case(&self) -> Duration {
        self.config.reconfig_processing
            + self.rach.uncontended_worst_case()
            + self.config.complete_processing
    }

    /// Whether T304 is long enough to cover the worst-case target access —
    /// a mis-tuned (shorter) T304 makes every handover natively too-early.
    pub fn t304_covers_rach(&self) -> bool {
        self.config.t304 >= self.rach.uncontended_worst_case()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entity() -> RrcEntity {
        RrcEntity::new(RrcConfig::default(), RachConfig::default())
    }

    #[test]
    fn uncontended_recovery_is_deterministic_and_draw_free() {
        let mut e = entity();
        let mut rng = SimRng::from_seed(4);
        let t = Instant::from_millis(3);
        let a = e.recover(t, &mut rng).expect("single UE always re-accesses");
        assert_eq!(e.state(), RrcState::Connected);
        assert_eq!(e.reestablishments(), 1);
        // No draws consumed ⇒ a fresh stream produces the same timeline.
        let mut e2 = entity();
        let b = e2.recover(t, &mut SimRng::from_seed(999)).unwrap();
        assert_eq!(a, b);
        // The RACH leg matches the uncontended model, offset by detection.
        let expected =
            RachConfig::default().uncontended_latency(t + RrcConfig::default().detect_delay);
        assert_eq!(a.rach, expected);
    }

    #[test]
    fn timeline_total_sums_all_legs() {
        let t = RecoveryTimeline {
            detect: Duration::from_millis(1),
            rach: Duration::from_millis(16),
            reestablish: Duration::from_millis(2),
            pdcp_recover: Duration::from_micros(500),
        };
        assert_eq!(t.total(), Duration::from_micros(19_500));
    }

    #[test]
    fn recovery_bounded_by_control_plane_worst_case() {
        let mut e = entity();
        let mut rng = SimRng::from_seed(6);
        for i in 0..4 {
            let tl = e.recover(Instant::from_micros(1 + i * 977), &mut rng).unwrap();
            assert!(
                tl.detect + tl.rach + tl.reestablish <= e.control_plane_worst_case(),
                "timeline exceeds worst case"
            );
        }
    }

    #[test]
    fn budget_exhaustion_fails_the_connection() {
        let cfg = RrcConfig { max_reestablishments: 2, ..RrcConfig::default() };
        let mut e = RrcEntity::new(cfg, RachConfig::default());
        let mut rng = SimRng::from_seed(7);
        assert!(e.recover(Instant::ZERO, &mut rng).is_some());
        assert!(e.recover(Instant::ZERO, &mut rng).is_some());
        assert!(e.recover(Instant::ZERO, &mut rng).is_none());
        assert_eq!(e.state(), RrcState::Failed);
        assert_eq!(e.failures(), 1);
        assert_eq!(e.reestablishments(), 2);
    }

    #[test]
    fn rach_exhaustion_fails_the_connection() {
        // One preamble, two contenders: every attempt collides.
        let rach = RachConfig { preambles: 1, max_attempts: 2, ..RachConfig::default() };
        let cfg = RrcConfig { contending: 2, ..RrcConfig::default() };
        let mut e = RrcEntity::new(cfg, rach);
        let mut rng = SimRng::from_seed(8);
        assert!(e.recover(Instant::ZERO, &mut rng).is_none());
        assert_eq!(e.state(), RrcState::Failed);
        assert_eq!(e.failures(), 1);
    }

    #[test]
    fn contended_worst_case_covers_contended_recoveries() {
        let rach = RachConfig::default();
        let cfg =
            RrcConfig { contending: 32, max_reestablishments: u32::MAX, ..Default::default() };
        let mut e = RrcEntity::new(cfg, rach);
        let bound = e.control_plane_worst_case();
        let mut rng = SimRng::from_seed(9).stream("contended");
        for i in 0..2_000u64 {
            if let Some(tl) = e.recover(Instant::from_micros(i * 53), &mut rng) {
                assert!(tl.detect + tl.rach + tl.reestablish <= bound);
            }
        }
        assert!(e.reestablishments() > 0);
    }

    #[test]
    fn a3_trigger_requires_sustained_entering_condition() {
        let mut t = A3Trigger::new(3.0, Duration::from_millis(40));
        let ms = Instant::from_millis;
        // Below hysteresis: never enters.
        assert!(!t.observe(ms(0), -80.0, -78.0));
        // Enters at 10 ms, but drops out at 30 ms: the window re-arms.
        assert!(!t.observe(ms(10), -80.0, -76.0));
        assert!(!t.observe(ms(30), -80.0, -79.0));
        // Re-enters at 40 ms and holds: fires at 80 ms, exactly once.
        assert!(!t.observe(ms(40), -80.0, -75.0));
        assert!(!t.observe(ms(70), -80.0, -75.0));
        assert!(t.observe(ms(80), -80.0, -75.0));
        assert!(t.has_fired());
        assert!(!t.observe(ms(90), -80.0, -70.0), "must fire only once");
        t.reset();
        assert!(!t.has_fired());
        // TTT zero: fires on the first qualifying sample.
        let mut instant = A3Trigger::new(3.0, Duration::ZERO);
        assert!(instant.observe(ms(0), -80.0, -75.0));
    }

    #[test]
    fn handover_timeline_is_deterministic_and_decomposes() {
        let e = HandoverEntity::new(HandoverConfig::default(), RachConfig::default());
        let at = Instant::from_millis(7);
        let a = e.execute(at);
        let b = e.execute(at);
        assert_eq!(a, b);
        assert_eq!(a.report, Duration::from_millis(1));
        assert_eq!(a.prep, Duration::from_millis(2));
        assert_eq!(a.command_delay(), Duration::from_millis(3));
        assert_eq!(a.interruption(), a.reconfig + a.rach + a.complete);
        assert_eq!(a.total(), a.command_delay() + a.interruption());
        // The RACH leg matches the contention-free model at the detach
        // instant (report + prep + reconfig after the report).
        let detach = at + Duration::from_millis(5);
        assert_eq!(a.rach, RachConfig::default().uncontended_latency(detach));
    }

    #[test]
    fn interruption_worst_case_bounds_every_execution() {
        let e = HandoverEntity::new(HandoverConfig::default(), RachConfig::default());
        let bound = e.interruption_worst_case();
        for i in 0..500u64 {
            let tl = e.execute(Instant::from_micros(i * 731));
            assert!(tl.interruption() <= bound, "interruption {} > bound {bound}", {
                tl.interruption()
            });
        }
        assert!(e.t304_covers_rach(), "default T304 must cover worst-case target access");
    }

    #[test]
    fn handover_counters_track_the_taxonomy() {
        let mut e = HandoverEntity::new(
            HandoverConfig { time_to_trigger: Duration::ZERO, ..HandoverConfig::default() },
            RachConfig::default(),
        );
        assert!(e.observe(Instant::ZERO, -90.0, -80.0));
        assert!(!e.observe(Instant::from_millis(1), -90.0, -80.0), "trigger latched");
        e.rearm();
        assert!(e.observe(Instant::from_millis(2), -90.0, -80.0));
        e.record_complete(Duration::from_millis(9));
        e.record_too_late();
        e.record_too_early();
        e.record_ping_pong();
        assert_eq!(
            (e.attempts(), e.completions(), e.too_late(), e.too_early(), e.ping_pongs()),
            (2, 1, 1, 1, 1)
        );
    }
}
