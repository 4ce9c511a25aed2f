//! FR2 (mmWave) link model: line-of-sight blockage.
//!
//! mmWave links die when the line of sight is cut — by a person, a moving
//! machine, or the user's own hand — and come back only after the blocker
//! moves or beam re-training succeeds. We model the link as a continuous-
//! time two-state process (LoS / blocked) with exponential dwell times.
//! While blocked, packets cannot be delivered; they wait for the link to
//! return. This is the mechanism behind the paper's §1/§5 point (measured
//! by Fezeu et al.): FR2 has 15.625 µs slots yet delivers sub-millisecond
//! latency only a few percent of the time.

use sim::{Duration, Instant, SimRng};

/// Instantaneous link state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockageState {
    /// Line of sight available; the link works.
    LineOfSight,
    /// Blocked; nothing gets through.
    Blocked,
}

/// Configuration of the blockage process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fr2LinkConfig {
    /// Mean dwell time in the LoS state.
    pub mean_los: Duration,
    /// Mean dwell time in the blocked state (blocker transit + beam
    /// recovery).
    pub mean_blocked: Duration,
}

impl Fr2LinkConfig {
    /// A busy indoor mmWave environment calibrated so that the fraction of
    /// packets completing in under 1 ms lands in the low single-digit
    /// percents — the regime of the 4.4 % measurement the paper cites.
    /// LoS windows are short (people keep crossing the beam) and blockages
    /// last several milliseconds (blocker transit + beam re-training).
    pub fn busy_indoor() -> Fr2LinkConfig {
        Fr2LinkConfig {
            mean_los: Duration::from_micros(380),
            mean_blocked: Duration::from_millis(14),
        }
    }

    /// A static, clear deployment: long LoS dwell, rare short blockages.
    pub fn clear_static() -> Fr2LinkConfig {
        Fr2LinkConfig {
            mean_los: Duration::from_millis(500),
            mean_blocked: Duration::from_millis(2),
        }
    }

    /// Long-run fraction of time the link is blocked.
    pub fn blocked_fraction(&self) -> f64 {
        let b = self.mean_blocked.as_micros_f64();
        let l = self.mean_los.as_micros_f64();
        b / (b + l)
    }
}

/// A stateful FR2 link: tracks the blockage process along simulation time.
///
/// The process is sampled lazily: state transitions are generated on demand
/// as queries arrive, which keeps the link usable from a discrete-event
/// loop without a dedicated event stream.
#[derive(Debug, Clone)]
pub struct Fr2Link {
    config: Fr2LinkConfig,
    state: BlockageState,
    /// Time at which the current state ends.
    state_until: Instant,
}

impl Fr2Link {
    /// Creates a link starting in LoS at the epoch.
    pub fn new(config: Fr2LinkConfig, rng: &mut SimRng) -> Fr2Link {
        let first = sim::Dist::Exponential { mean: config.mean_los }.sample(rng);
        Fr2Link { config, state: BlockageState::LineOfSight, state_until: Instant::ZERO + first }
    }

    fn advance_to(&mut self, t: Instant, rng: &mut SimRng) {
        while self.state_until <= t {
            let (next_state, mean) = match self.state {
                BlockageState::LineOfSight => (BlockageState::Blocked, self.config.mean_blocked),
                BlockageState::Blocked => (BlockageState::LineOfSight, self.config.mean_los),
            };
            self.state = next_state;
            let dwell = sim::Dist::Exponential { mean }.sample(rng).max(Duration::from_nanos(1)); // guarantee forward progress
            self.state_until += dwell;
        }
    }

    /// Link state at instant `t` (must be queried with non-decreasing `t`).
    pub fn state_at(&mut self, t: Instant, rng: &mut SimRng) -> BlockageState {
        self.advance_to(t, rng);
        self.state
    }

    /// The first instant at or after `t` at which the link is in LoS —
    /// i.e. how long a packet arriving at `t` must wait for the channel
    /// itself (before any protocol waiting even starts).
    pub fn next_los_at(&mut self, t: Instant, rng: &mut SimRng) -> Instant {
        self.advance_to(t, rng);
        match self.state {
            BlockageState::LineOfSight => t,
            BlockageState::Blocked => {
                let resume = self.state_until;
                self.advance_to(resume, rng);
                resume
            }
        }
    }
}

/// A materialised blockage trajectory supporting queries at *arbitrary*
/// (including non-monotonic) instants.
///
/// [`Fr2Link`] samples its process lazily and therefore requires
/// non-decreasing query times; experiments whose per-packet handling can
/// out-run the next packet's arrival (a long blockage wait followed by an
/// earlier arrival) need random access instead. The trace stores the toggle
/// instants and extends itself on demand, so queries are answered by binary
/// search against one consistent trajectory.
#[derive(Debug, Clone)]
pub struct BlockageTrace {
    config: Fr2LinkConfig,
    /// Toggle instants: the state flips at each entry. Before `toggles[0]`
    /// the link is in LoS.
    toggles: Vec<Instant>,
    rng: SimRng,
}

impl BlockageTrace {
    /// Creates a trace starting in LoS at the epoch.
    pub fn new(config: Fr2LinkConfig, rng: SimRng) -> BlockageTrace {
        BlockageTrace { config, toggles: Vec::new(), rng }
    }

    fn extend_past(&mut self, t: Instant) {
        while self.toggles.last().is_none_or(|&last| last <= t) {
            let idx = self.toggles.len();
            // Even indices end LoS dwells, odd indices end blockages.
            let mean =
                if idx.is_multiple_of(2) { self.config.mean_los } else { self.config.mean_blocked };
            let dwell =
                sim::Dist::Exponential { mean }.sample(&mut self.rng).max(Duration::from_nanos(1));
            let base = self.toggles.last().copied().unwrap_or(Instant::ZERO);
            self.toggles.push(base + dwell);
        }
    }

    /// Link state at `t` (any order of queries).
    pub fn state_at(&mut self, t: Instant) -> BlockageState {
        self.extend_past(t);
        let flips = self.toggles.partition_point(|&x| x <= t);
        if flips % 2 == 0 {
            BlockageState::LineOfSight
        } else {
            BlockageState::Blocked
        }
    }

    /// First instant at or after `t` in LoS.
    pub fn next_los_at(&mut self, t: Instant) -> Instant {
        self.extend_past(t);
        let flips = self.toggles.partition_point(|&x| x <= t);
        if flips % 2 == 0 {
            t
        } else {
            self.toggles[flips]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_fraction_formula() {
        let c = Fr2LinkConfig::busy_indoor();
        let f = c.blocked_fraction();
        assert!((f - 14_000.0 / 14_380.0).abs() < 1e-9);
        assert!(Fr2LinkConfig::clear_static().blocked_fraction() < 0.01);
    }

    #[test]
    fn states_alternate_and_time_moves_forward() {
        let mut rng = SimRng::from_seed(0);
        let mut link = Fr2Link::new(Fr2LinkConfig::busy_indoor(), &mut rng);
        let mut t = Instant::ZERO;
        let mut seen_blocked = false;
        let mut seen_los = false;
        for _ in 0..10_000 {
            t += Duration::from_micros(100);
            match link.state_at(t, &mut rng) {
                BlockageState::Blocked => seen_blocked = true,
                BlockageState::LineOfSight => seen_los = true,
            }
        }
        assert!(seen_blocked && seen_los);
    }

    #[test]
    fn observed_blocked_fraction_matches_config() {
        let cfg = Fr2LinkConfig::busy_indoor();
        let mut rng = SimRng::from_seed(1);
        let mut link = Fr2Link::new(cfg, &mut rng);
        let step = Duration::from_micros(50);
        let mut t = Instant::ZERO;
        let n = 400_000u64;
        let mut blocked = 0u64;
        for _ in 0..n {
            t += step;
            if link.state_at(t, &mut rng) == BlockageState::Blocked {
                blocked += 1;
            }
        }
        let observed = blocked as f64 / n as f64;
        assert!(
            (observed - cfg.blocked_fraction()).abs() < 0.02,
            "observed {observed} vs {}",
            cfg.blocked_fraction()
        );
    }

    #[test]
    fn next_los_is_immediate_in_los() {
        let mut rng = SimRng::from_seed(2);
        let mut link = Fr2Link::new(Fr2LinkConfig::clear_static(), &mut rng);
        // At the epoch the link starts in LoS.
        assert_eq!(link.next_los_at(Instant::ZERO, &mut rng), Instant::ZERO);
    }

    #[test]
    fn next_los_waits_out_blockage() {
        let mut rng = SimRng::from_seed(3);
        let mut link = Fr2Link::new(Fr2LinkConfig::busy_indoor(), &mut rng);
        // Walk until we find a blocked instant, then verify the wait.
        let mut t = Instant::ZERO;
        loop {
            t += Duration::from_micros(100);
            if link.state_at(t, &mut rng) == BlockageState::Blocked {
                break;
            }
            assert!(t < Instant::from_millis(100), "never found a blockage");
        }
        let resume = link.next_los_at(t, &mut rng);
        assert!(resume > t);
        assert_eq!(link.state_at(resume, &mut rng), BlockageState::LineOfSight);
    }

    #[test]
    fn trace_matches_stationary_fraction() {
        let cfg = Fr2LinkConfig::busy_indoor();
        let mut trace = BlockageTrace::new(cfg, SimRng::from_seed(11));
        let step = Duration::from_micros(50);
        let n = 200_000u64;
        let mut blocked = 0u64;
        for i in 0..n {
            if trace.state_at(Instant::ZERO + step * i) == BlockageState::Blocked {
                blocked += 1;
            }
        }
        let observed = blocked as f64 / n as f64;
        assert!((observed - cfg.blocked_fraction()).abs() < 0.03, "observed {observed}");
    }

    #[test]
    fn trace_answers_out_of_order_queries_consistently() {
        let mut trace = BlockageTrace::new(Fr2LinkConfig::busy_indoor(), SimRng::from_seed(12));
        // Prime far into the future, then query earlier instants; answers
        // must be identical to a fresh forward pass with the same seed.
        let mut probe = trace.clone();
        let _ = trace.state_at(Instant::from_millis(500));
        for us in [100u64, 5_000, 90_000, 30, 250_000] {
            let t = Instant::from_micros(us);
            assert_eq!(trace.state_at(t), probe.state_at(t), "at {t:?}");
        }
    }

    #[test]
    fn trace_next_los_is_los() {
        let mut trace = BlockageTrace::new(Fr2LinkConfig::busy_indoor(), SimRng::from_seed(13));
        for ms in [0u64, 3, 17, 90, 41] {
            let t = Instant::from_millis(ms);
            let los = trace.next_los_at(t);
            assert!(los >= t);
            assert_eq!(trace.state_at(los), BlockageState::LineOfSight);
            if los > t {
                assert_eq!(trace.state_at(t), BlockageState::Blocked);
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let mut rng = SimRng::from_seed(9);
            let mut link = Fr2Link::new(Fr2LinkConfig::busy_indoor(), &mut rng);
            let mut t = Instant::ZERO;
            (0..1000)
                .map(|_| {
                    t += Duration::from_micros(73);
                    link.state_at(t, &mut rng) == BlockageState::Blocked
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
