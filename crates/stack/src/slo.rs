//! The SLO supervisor: windowed deadline-miss monitoring with hysteresis,
//! driving the stack's graceful-degradation hook.
//!
//! The supervisor watches the miss rate over a sliding window of recent
//! URLLC outcomes and maps it onto a [`DegradationLevel`] through two
//! guard rails:
//!
//! * **Hysteresis** — the escalate thresholds sit above the clear
//!   threshold, so a miss rate oscillating around a single threshold
//!   cannot flap the level (classic control-loop chatter).
//! * **Dwell time** — at most one transition per `min_dwell` of sim time,
//!   and only one level step per transition, so a burst of misses walks
//!   the ladder Normal → Degraded → Critical instead of jumping.
//!
//! It implements [`SloHook`], so [`crate::overload::run_overload`] can be
//! governed by it directly; the transition log feeds the sweep CSV and the
//! DESIGN.md state-machine docs.

use std::collections::VecDeque;

use sim::{Duration, Instant};

use crate::overload::{DegradationLevel, SloHook};

/// Supervisor tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Sliding window length, in outcomes.
    pub window: usize,
    /// Escalate Normal → Degraded at this windowed miss rate.
    pub degrade_at: f64,
    /// Escalate Degraded → Critical at this windowed miss rate.
    pub critical_at: f64,
    /// De-escalate one level when the rate falls to or below this
    /// (must sit below `degrade_at` for hysteresis).
    pub clear_at: f64,
    /// Minimum sim time between transitions.
    pub min_dwell: Duration,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig {
            window: 256,
            degrade_at: 0.05,
            critical_at: 0.25,
            clear_at: 0.01,
            min_dwell: Duration::from_millis(4),
        }
    }
}

/// One recorded level change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloTransition {
    /// When the supervisor switched.
    pub at: Instant,
    /// The level it switched to.
    pub to: DegradationLevel,
    /// The windowed miss rate that triggered the switch.
    pub miss_rate: f64,
}

/// Windowed miss-rate supervisor with hysteresis (see module docs).
#[derive(Debug, Clone)]
pub struct SloSupervisor {
    cfg: SloConfig,
    ring: VecDeque<bool>,
    misses_in_window: usize,
    level: DegradationLevel,
    last_transition: Option<Instant>,
    transitions: Vec<SloTransition>,
    observed: u64,
}

impl SloSupervisor {
    /// A supervisor at `Normal` with an empty window.
    pub fn new(cfg: SloConfig) -> SloSupervisor {
        assert!(cfg.window > 0, "window must be non-empty");
        assert!(
            cfg.clear_at < cfg.degrade_at && cfg.degrade_at <= cfg.critical_at,
            "thresholds must satisfy clear < degrade <= critical"
        );
        SloSupervisor {
            ring: VecDeque::with_capacity(cfg.window),
            cfg,
            misses_in_window: 0,
            level: DegradationLevel::Normal,
            last_transition: None,
            transitions: Vec::new(),
            observed: 0,
        }
    }

    /// Current windowed miss rate (zero on an empty window).
    pub(crate) fn miss_rate(&self) -> f64 {
        if self.ring.is_empty() {
            return 0.0;
        }
        self.misses_in_window as f64 / self.ring.len() as f64
    }

    /// Every level change so far, in order.
    pub fn transitions(&self) -> &[SloTransition] {
        &self.transitions
    }

    fn dwell_elapsed(&self, at: Instant) -> bool {
        match self.last_transition {
            None => true,
            Some(t) => at.checked_duration_since(t).is_some_and(|d| d >= self.cfg.min_dwell),
        }
    }

    fn switch(&mut self, at: Instant, to: DegradationLevel) {
        self.level = to;
        self.last_transition = Some(at);
        self.transitions.push(SloTransition { at, to, miss_rate: self.miss_rate() });
    }
}

impl SloHook for SloSupervisor {
    fn observe(&mut self, at: Instant, miss: bool) {
        self.observed += 1;
        if self.ring.len() == self.cfg.window && self.ring.pop_front() == Some(true) {
            self.misses_in_window -= 1;
        }
        self.ring.push_back(miss);
        if miss {
            self.misses_in_window += 1;
        }

        // React only on a reasonably populated window and after the dwell:
        // a couple of early misses must not degrade the whole stack.
        if self.ring.len() < self.cfg.window / 4 || !self.dwell_elapsed(at) {
            return;
        }
        let rate = self.miss_rate();
        let next = match self.level {
            DegradationLevel::Normal if rate >= self.cfg.degrade_at => DegradationLevel::Degraded,
            DegradationLevel::Degraded if rate >= self.cfg.critical_at => {
                DegradationLevel::Critical
            }
            DegradationLevel::Degraded if rate <= self.cfg.clear_at => DegradationLevel::Normal,
            DegradationLevel::Critical if rate <= self.cfg.clear_at => DegradationLevel::Degraded,
            _ => return,
        };
        self.switch(at, next);
    }

    fn level(&self) -> DegradationLevel {
        self.level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SloConfig {
        SloConfig {
            window: 16,
            degrade_at: 0.25,
            critical_at: 0.5,
            clear_at: 0.05,
            min_dwell: Duration::from_millis(1),
        }
    }

    fn feed(s: &mut SloSupervisor, start_ms: u64, outcomes: &[bool]) -> u64 {
        let mut t = start_ms;
        for &miss in outcomes {
            s.observe(Instant::from_millis(t), miss);
            t += 1;
        }
        t
    }

    #[test]
    fn escalates_one_step_at_a_time() {
        // Dwell (10 ms) spans several 1 ms observations: 100% misses
        // would justify Critical immediately, but the ladder is walked
        // one dwell-separated step at a time.
        let mut s = SloSupervisor::new(SloConfig { min_dwell: Duration::from_millis(10), ..cfg() });
        let t = feed(&mut s, 0, &[true; 8]);
        assert_eq!(s.level(), DegradationLevel::Degraded);
        assert_eq!(s.transitions().len(), 1);
        feed(&mut s, t, &[true; 12]);
        assert_eq!(s.level(), DegradationLevel::Critical);
        assert_eq!(s.transitions().len(), 2);
        assert_eq!(s.transitions()[0].to, DegradationLevel::Degraded);
    }

    #[test]
    fn hysteresis_holds_level_between_thresholds() {
        let mut s = SloSupervisor::new(cfg());
        // A steady 30% miss rate with the misses back-loaded so no prefix
        // window ever reaches critical (50%) — lands on Degraded and stays.
        let pattern: Vec<bool> = (0..20).map(|i| i % 10 >= 7).collect();
        let t = feed(&mut s, 0, &pattern);
        assert_eq!(s.level(), DegradationLevel::Degraded);
        // Miss rate drifts into the dead band (between clear 5% and
        // degrade 25%): the level must hold, not flap.
        let mut outcomes = vec![false; 14];
        outcomes.push(true);
        outcomes.push(true); // 2/16 = 12.5%
        let t = feed(&mut s, t, &outcomes);
        assert_eq!(s.level(), DegradationLevel::Degraded, "rate {}", s.miss_rate());
        // Only once the window is clean does it de-escalate.
        feed(&mut s, t, &[false; 32]);
        assert_eq!(s.level(), DegradationLevel::Normal);
    }

    #[test]
    fn dwell_limits_transition_frequency() {
        let mut s =
            SloSupervisor::new(SloConfig { min_dwell: Duration::from_millis(1000), ..cfg() });
        // All observations land within one dwell: at most one transition.
        for i in 0..64u64 {
            s.observe(Instant::from_micros(i), true);
        }
        assert_eq!(s.level(), DegradationLevel::Degraded);
        assert_eq!(s.transitions().len(), 1);
    }

    #[test]
    fn sparse_window_does_not_trigger() {
        let mut s = SloSupervisor::new(cfg());
        // Three misses, window/4 = 4 samples not yet reached.
        feed(&mut s, 0, &[true; 3]);
        assert_eq!(s.level(), DegradationLevel::Normal);
    }

    #[test]
    #[should_panic(expected = "thresholds")]
    fn rejects_inverted_thresholds() {
        let _ = SloSupervisor::new(SloConfig { clear_at: 0.5, degrade_at: 0.2, ..cfg() });
    }
}
