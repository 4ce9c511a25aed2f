//! GTP-U path supervision: keepalive probing of the N3 backbone with
//! retry/backoff, and failover onto a backup transport path.
//!
//! TS 29.281 §7.2 gives GTP-U exactly one liveness primitive — the echo
//! request/response pair on TEID 0 — and leaves the policy (how often to
//! probe, when to declare the path dead) to the node. This module supplies
//! that policy as a deterministic state machine: a probe that goes
//! unanswered is retried with capped exponential backoff; when the retry
//! budget is exhausted the path is declared down and the tunnel fails over
//! to a backup [`BackboneLink`](crate::BackboneLink). Every transition is
//! recorded as a typed [`PathEvent`], mirroring how the radio leg surfaces
//! `RlfEvent`s — the core-network half of the fault/recovery symmetry.

use bytes::Bytes;
use sim::{Duration, Instant};
use telemetry::{metric, JournalEvent, Telemetry};

use crate::gtpu::{GtpuHeader, MSG_ECHO_RESPONSE};
use crate::upf::{Upf, UplinkOutcome};

/// Probe/retry policy for one supervised GTP-U path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisionConfig {
    /// Time to wait for an echo response before counting the probe lost.
    pub probe_timeout: Duration,
    /// Lost probes tolerated beyond the first before declaring the path
    /// down (so `max_retries + 1` probes are spent in total).
    pub max_retries: u32,
    /// Ceiling on the per-retry backoff: retry `k` waits
    /// `min(probe_timeout · 2^k, backoff_cap)`.
    pub backoff_cap: Duration,
}

impl SupervisionConfig {
    /// Policy matched to a co-located edge UPF (tens of microseconds RTT):
    /// aggressive probing so detection stays commensurate with the radio
    /// recovery procedures.
    pub fn edge() -> SupervisionConfig {
        SupervisionConfig {
            probe_timeout: Duration::from_micros(150),
            max_retries: 2,
            backoff_cap: Duration::from_micros(600),
        }
    }

    /// Timeout for probe attempt `k` (0-based): capped exponential backoff.
    pub(crate) fn attempt_timeout(&self, attempt: u32) -> Duration {
        let factor = 1u64 << attempt.min(30);
        (self.probe_timeout * factor).min(self.backoff_cap)
    }

    /// Closed-form worst-case detection delay: all `max_retries + 1`
    /// probes must time out before the path is declared down.
    pub fn detection_delay(&self) -> Duration {
        (0..=self.max_retries).map(|k| self.attempt_timeout(k)).sum()
    }
}

/// What happened on a supervised path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathEventKind {
    /// An echo probe went unanswered within its timeout.
    ProbeLost,
    /// The retry budget ran out; the path is declared down.
    PathDown,
    /// Traffic re-anchored onto the backup path.
    Failover,
    /// The primary path answers probes again; traffic returns to it.
    PathRestored,
}

impl PathEventKind {
    /// Human-readable label (reports, traces).
    pub(crate) fn label(self) -> &'static str {
        match self {
            PathEventKind::ProbeLost => "probe-lost",
            PathEventKind::PathDown => "path-down",
            PathEventKind::Failover => "failover",
            PathEventKind::PathRestored => "path-restored",
        }
    }
}

/// A timestamped supervision transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathEvent {
    /// When the transition happened.
    pub at: Instant,
    /// What happened.
    pub kind: PathEventKind,
}

/// The supervised-path state machine run by the gNB tunnel endpoint.
///
/// The driver tells it, per traversal, whether the primary path is
/// currently forwarding; the supervisor spends the probe/backoff sequence
/// on the first failed traversal, fails over, and routes traffic over the
/// backup until the primary answers again. Fully deterministic: no RNG,
/// no wall clock — time advances only by the configured timeouts.
#[derive(Debug, Clone)]
pub struct PathSupervisor {
    config: SupervisionConfig,
    on_backup: bool,
    next_seq: u16,
    events: Vec<PathEvent>,
    probes_sent: u64,
    probes_lost: u64,
    tel: Telemetry,
}

impl PathSupervisor {
    /// A supervisor with the primary path up and no history.
    pub fn new(config: SupervisionConfig) -> PathSupervisor {
        PathSupervisor {
            config,
            on_backup: false,
            next_seq: 0,
            events: Vec::new(),
            probes_sent: 0,
            probes_lost: 0,
            tel: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle (`corenet/*` supervision metrics; path
    /// transitions are journaled as [`JournalEvent::PathEvent`]s).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Records a transition in both the local event log and the journal.
    fn push_event(&mut self, at: Instant, kind: PathEventKind) {
        self.tel.journal(JournalEvent::PathEvent { label: kind.label(), at });
        self.events.push(PathEvent { at, kind });
    }

    /// The probe/retry policy in force.
    pub fn config(&self) -> &SupervisionConfig {
        &self.config
    }

    /// Whether traffic is currently riding the backup path.
    pub fn on_backup(&self) -> bool {
        self.on_backup
    }

    /// All transitions so far, in order.
    pub fn events(&self) -> &[PathEvent] {
        &self.events
    }

    /// Completed failovers (primary → backup transitions).
    pub fn failovers(&self) -> u64 {
        self.events.iter().filter(|e| e.kind == PathEventKind::Failover).count() as u64
    }

    /// (sent, lost) echo-probe counters.
    pub fn probe_stats(&self) -> (u64, u64) {
        (self.probes_sent, self.probes_lost)
    }

    /// One tunnel traversal at `at` given the primary path's true state.
    /// Returns `(use_backup, detection_delay)`: whether this packet must
    /// ride the backup link, and the supervision delay (probe timeouts +
    /// backoff) the packet absorbs when this very traversal is the one
    /// that discovers the outage. Steady-state traversals cost nothing.
    pub(crate) fn traverse(&mut self, at: Instant, primary_down: bool) -> (bool, Duration) {
        match (self.on_backup, primary_down) {
            (false, false) => (false, Duration::ZERO),
            (false, true) => {
                // The packet hits a dead path: probe with backoff until the
                // retry budget is gone, then declare the path down and fail
                // over. The packet waits out the whole detection sequence.
                let mut elapsed = Duration::ZERO;
                for attempt in 0..=self.config.max_retries {
                    self.probes_sent += 1;
                    self.probes_lost += 1;
                    self.tel.add(metric::CORENET_PROBES_SENT, 1);
                    self.tel.add(metric::CORENET_PROBES_LOST, 1);
                    self.next_seq = self.next_seq.wrapping_add(1);
                    elapsed += self.config.attempt_timeout(attempt);
                    self.push_event(at + elapsed, PathEventKind::ProbeLost);
                }
                self.push_event(at + elapsed, PathEventKind::PathDown);
                self.push_event(at + elapsed, PathEventKind::Failover);
                self.tel.add(metric::CORENET_FAILOVERS, 1);
                self.on_backup = true;
                (true, elapsed)
            }
            (true, false) => {
                // Background probing notices the primary answering again;
                // switching back costs the packet nothing.
                self.probes_sent += 1;
                self.tel.add(metric::CORENET_PROBES_SENT, 1);
                self.next_seq = self.next_seq.wrapping_add(1);
                self.push_event(at, PathEventKind::PathRestored);
                self.on_backup = false;
                (false, Duration::ZERO)
            }
            (true, true) => (true, Duration::ZERO),
        }
    }

    /// One real echo round trip through the UPF over actual GTP-U bytes:
    /// encodes an echo request, runs it through [`Upf::uplink`], and checks
    /// the response type and sequence. Used to validate a path end to end
    /// (e.g. the backup right after failover).
    pub fn confirm_path(&mut self, upf: &mut Upf) -> bool {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.probes_sent += 1;
        self.tel.add(metric::CORENET_PROBES_SENT, 1);
        let probe: Bytes = GtpuHeader::echo_request(seq).encode(b"");
        let ok = match upf.uplink(&probe) {
            Ok(UplinkOutcome::EchoResponse(resp)) => match GtpuHeader::decode(&resp) {
                Ok((h, _)) => h.message_type == MSG_ECHO_RESPONSE && h.sequence == Some(seq),
                Err(_) => false,
            },
            _ => false,
        };
        if !ok {
            self.probes_lost += 1;
            self.tel.add(metric::CORENET_PROBES_LOST, 1);
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SupervisionConfig {
        SupervisionConfig {
            probe_timeout: Duration::from_micros(100),
            max_retries: 2,
            backoff_cap: Duration::from_micros(300),
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let c = cfg();
        assert_eq!(c.attempt_timeout(0), Duration::from_micros(100));
        assert_eq!(c.attempt_timeout(1), Duration::from_micros(200));
        assert_eq!(c.attempt_timeout(2), Duration::from_micros(300)); // capped from 400
        assert_eq!(c.attempt_timeout(10), Duration::from_micros(300));
        assert_eq!(c.detection_delay(), Duration::from_micros(600));
    }

    #[test]
    fn detection_charges_the_discovering_traversal_only() {
        let mut sup = PathSupervisor::new(cfg());
        let t0 = Instant::from_millis(1);

        // Healthy steady state: free.
        assert_eq!(sup.traverse(t0, false), (false, Duration::ZERO));
        assert!(sup.events().is_empty());

        // First traversal into the outage eats the full detection delay.
        let (backup, delay) = sup.traverse(t0, true);
        assert!(backup);
        assert_eq!(delay, cfg().detection_delay());
        assert!(sup.on_backup());
        let kinds: Vec<_> = sup.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                PathEventKind::ProbeLost,
                PathEventKind::ProbeLost,
                PathEventKind::ProbeLost,
                PathEventKind::PathDown,
                PathEventKind::Failover,
            ]
        );
        // Event timestamps are cumulative backoff offsets.
        assert_eq!(sup.events()[0].at, t0 + Duration::from_micros(100));
        assert_eq!(sup.events()[2].at, t0 + Duration::from_micros(600));
        assert_eq!(sup.events()[4].at, t0 + Duration::from_micros(600));

        // While down, backup traversals are free.
        assert_eq!(sup.traverse(t0, true), (true, Duration::ZERO));
        assert_eq!(sup.failovers(), 1);

        // Primary heals: switch back, no charge.
        assert_eq!(sup.traverse(t0, false), (false, Duration::ZERO));
        assert!(!sup.on_backup());
        assert_eq!(sup.events().last().unwrap().kind, PathEventKind::PathRestored);
    }

    #[test]
    fn confirm_path_round_trips_real_echo_bytes() {
        let mut upf = Upf::new();
        let mut sup = PathSupervisor::new(cfg());
        assert!(sup.confirm_path(&mut upf));
        assert!(sup.confirm_path(&mut upf)); // sequence advances, still matches
        assert_eq!(upf.echoes_answered, 2);
        assert_eq!(sup.probe_stats(), (2, 0));
    }

    #[test]
    fn supervisor_is_deterministic() {
        let run = || {
            let mut sup = PathSupervisor::new(cfg());
            let pattern = [false, true, true, false, true, false];
            let mut out = Vec::new();
            for (i, down) in pattern.into_iter().enumerate() {
                out.push(sup.traverse(Instant::from_micros(i as u64 * 10), down));
            }
            (out, sup.events().to_vec())
        };
        assert_eq!(run(), run());
    }
}
