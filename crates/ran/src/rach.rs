//! Random access (RACH) — the four-step procedure of TS 38.321 §5.1.
//!
//! When a UE has no grant and its SR budget is exhausted (`sr-TransMax`,
//! see [`crate::sr`]), it falls back to contention-based random access:
//!
//! 1. **Msg1** — a preamble picked uniformly from the pool, on the next
//!    PRACH occasion (modelled as its index: the Zadoff–Chu sequences of
//!    `urllc-phy`'s `prach` are not on this path);
//! 2. **Msg2** — the random-access response with an UL grant;
//! 3. **Msg3** — the identified request on that grant;
//! 4. **Msg4** — contention resolution: if two UEs picked the same
//!    preamble on the same occasion, both reach Msg3 and only now learn of
//!    the collision; losers back off and retry.
//!
//! RACH is the latency cliff under the paper's §9 scalability question:
//! every step waits for its own opportunity, and collisions multiply the
//! whole procedure. The Monte-Carlo contention model here quantifies how
//! fast that cliff approaches as the population grows.

use sim::{Dist, Duration, Instant, LatencyRecorder, SimRng};

/// RACH configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RachConfig {
    /// Spacing of PRACH occasions (typically 10 ms frames, denser for
    /// low-latency configurations).
    pub occasion_period: Duration,
    /// Number of contention preambles per occasion.
    pub preambles: usize,
    /// Msg1 end → Msg2 (RAR) reception.
    pub response_delay: Duration,
    /// Msg2 → Msg3 transmission (UE processing + granted slot).
    pub msg3_delay: Duration,
    /// Msg3 → Msg4 contention resolution.
    pub msg4_delay: Duration,
    /// Maximum backoff drawn by a collision loser before re-attempting.
    pub max_backoff: Duration,
    /// Give up after this many attempts.
    pub max_attempts: u32,
}

impl Default for RachConfig {
    fn default() -> Self {
        RachConfig {
            occasion_period: Duration::from_millis(10),
            preambles: 64,
            response_delay: Duration::from_millis(2),
            msg3_delay: Duration::from_millis(2),
            msg4_delay: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
            max_attempts: 8,
        }
    }
}

impl RachConfig {
    /// Latency of one collision-free procedure starting from `trigger`:
    /// wait for the occasion, then the three response steps.
    pub(crate) fn uncontended_latency(&self, trigger: Instant) -> Duration {
        let occasion = trigger.ceil_to(self.occasion_period);
        (occasion - trigger) + self.response_delay + self.msg3_delay + self.msg4_delay
    }

    /// Worst-case collision-free latency (trigger just after an occasion).
    pub fn uncontended_worst_case(&self) -> Duration {
        self.occasion_period + self.response_delay + self.msg3_delay + self.msg4_delay
    }

    /// Worst case over the whole attempt budget: every attempt but the
    /// last collides, each loser waits a full occasion period, learns of
    /// the collision only at Msg4, and draws the maximum backoff. Upper
    /// bound on every latency [`recovery_latency`] can return.
    pub(crate) fn contended_worst_case(&self) -> Duration {
        let steps = self.response_delay + self.msg3_delay + self.msg4_delay;
        let attempts = u64::from(self.max_attempts.max(1));
        (self.occasion_period + steps) * attempts + self.max_backoff * (attempts - 1)
    }
}

/// Latency of one UE's contention-based random access starting at
/// `trigger`, with `contending` UEs active on each occasion (itself
/// included). Used as the SR-exhaustion recovery path: per attempt the
/// collision probability is the birthday bound
/// `1 − (1 − 1/preambles)^(contending − 1)`; a collision is detected at
/// Msg4, the loser backs off uniformly and retries on the next reachable
/// occasion. Returns `None` when `max_attempts` is exhausted.
///
/// With `contending == 1` the collision probability is zero, no RNG draw
/// is consumed, and the result is fully deterministic (the uncontended
/// four-step latency).
pub fn recovery_latency(
    config: &RachConfig,
    trigger: Instant,
    contending: u32,
    rng: &mut SimRng,
) -> Option<Duration> {
    let p_collide = if contending <= 1 {
        0.0
    } else {
        1.0 - (1.0 - 1.0 / config.preambles as f64).powi(contending as i32 - 1)
    };
    let steps = config.response_delay + config.msg3_delay + config.msg4_delay;
    let mut ready = trigger;
    for _ in 0..config.max_attempts {
        let occasion = ready.ceil_to(config.occasion_period);
        if !rng.chance(p_collide) {
            return Some((occasion - trigger) + steps);
        }
        // Collision: the loss is only learned at Msg4; back off from there.
        // Saturating: repeated backoffs under a pathological occasion
        // period must exhaust the attempt budget, not abort the sweep.
        let backoff = Dist::Uniform { lo: Duration::ZERO, hi: config.max_backoff }.sample(rng);
        ready = occasion.saturating_add(steps).saturating_add(backoff);
    }
    None
}

/// Result of a contention simulation.
#[derive(Debug, Clone)]
pub struct ContentionStats {
    /// UEs that completed random access within the attempt budget.
    pub succeeded: u64,
    /// UEs that exhausted their attempts.
    pub failed: u64,
    /// Completion latency of the successful UEs.
    pub latency: LatencyRecorder,
    /// Mean attempts per successful UE.
    pub mean_attempts: f64,
    /// Fraction of Msg1 transmissions that collided.
    pub collision_rate: f64,
}

/// Simulates `n_ues` triggering random access within one `occasion_period`
/// (the worst burst: e.g. a cell-wide event wakes every sensor at once).
pub fn simulate_contention(config: &RachConfig, n_ues: usize, seed: u64) -> ContentionStats {
    let master = SimRng::from_seed(seed);
    let mut rng = master.stream("rach");
    // Each UE triggers at a random instant within one occasion period.
    let trigger_dist = Dist::Uniform { lo: Duration::ZERO, hi: config.occasion_period };
    #[derive(Clone)]
    struct Ue {
        trigger: Instant,
        next_attempt: Instant,
        attempts: u32,
        done: Option<Instant>,
    }
    let mut ues: Vec<Ue> = (0..n_ues)
        .map(|_| {
            let t = Instant::ZERO + trigger_dist.sample(&mut rng);
            Ue { trigger: t, next_attempt: t, attempts: 0, done: None }
        })
        .collect();

    let mut msg1_total = 0u64;
    let mut msg1_collided = 0u64;
    let horizon = config.occasion_period * (4 * u64::from(config.max_attempts) + 8);
    let mut occasion = Instant::ZERO + config.occasion_period;
    while occasion <= Instant::ZERO + horizon {
        // Who transmits a preamble on this occasion?
        let mut picks: Vec<(usize, usize)> = Vec::new(); // (ue, preamble)
        for (i, ue) in ues.iter_mut().enumerate() {
            if ue.done.is_none() && ue.next_attempt <= occasion && ue.attempts < config.max_attempts
            {
                ue.attempts += 1;
                let p = (rng.next_u64() % config.preambles as u64) as usize;
                picks.push((i, p));
            }
        }
        msg1_total += picks.len() as u64;
        // Preambles picked by exactly one UE succeed; shared ones collide
        // (detected only at Msg4).
        let mut counts = vec![0u32; config.preambles];
        for &(_, p) in &picks {
            counts[p] += 1;
        }
        for (i, p) in picks {
            if counts[p] == 1 {
                ues[i].done =
                    Some(occasion + config.response_delay + config.msg3_delay + config.msg4_delay);
            } else {
                msg1_collided += 1;
                // Loser learns at Msg4 and backs off.
                let backoff =
                    Dist::Uniform { lo: Duration::ZERO, hi: config.max_backoff }.sample(&mut rng);
                ues[i].next_attempt = occasion
                    .saturating_add(config.response_delay)
                    .saturating_add(config.msg3_delay)
                    .saturating_add(config.msg4_delay)
                    .saturating_add(backoff);
            }
        }
        occasion += config.occasion_period;
    }

    let mut latency = LatencyRecorder::new();
    let mut attempts_sum = 0u64;
    let mut succeeded = 0u64;
    for ue in &ues {
        if let Some(done) = ue.done {
            latency.record(done - ue.trigger);
            attempts_sum += u64::from(ue.attempts);
            succeeded += 1;
        }
    }
    ContentionStats {
        succeeded,
        failed: n_ues as u64 - succeeded,
        latency,
        mean_attempts: if succeeded == 0 { 0.0 } else { attempts_sum as f64 / succeeded as f64 },
        collision_rate: if msg1_total == 0 {
            0.0
        } else {
            msg1_collided as f64 / msg1_total as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_latency_bounds() {
        let c = RachConfig::default();
        // Trigger exactly on an occasion: only the three response steps.
        let best = c.uncontended_latency(Instant::from_millis(10));
        assert_eq!(best, Duration::from_millis(6));
        // Just after: nearly a full occasion period extra.
        let worst = c.uncontended_latency(Instant::from_millis(10) + Duration::from_nanos(1));
        assert!(worst > Duration::from_millis(15));
        assert!(worst <= c.uncontended_worst_case());
    }

    #[test]
    fn recovery_latency_uncontended_is_deterministic() {
        let c = RachConfig::default();
        let mut rng = SimRng::from_seed(1);
        let trigger = Instant::from_millis(3);
        let lat = recovery_latency(&c, trigger, 1, &mut rng).expect("always succeeds");
        assert_eq!(lat, c.uncontended_latency(trigger));
        // No draws were consumed: the next draw matches a fresh stream.
        assert_eq!(rng.next_u64(), SimRng::from_seed(1).next_u64());
    }

    #[test]
    fn contended_worst_case_bounds_every_recovery_latency() {
        let c = RachConfig::default();
        let bound = c.contended_worst_case();
        assert!(bound >= c.uncontended_worst_case());
        let mut rng = SimRng::from_seed(17).stream("bound");
        for i in 0..5_000u64 {
            let trigger = Instant::from_micros(i * 137);
            if let Some(lat) = recovery_latency(&c, trigger, 64, &mut rng) {
                assert!(lat <= bound, "latency {lat} exceeds worst case {bound}");
            }
        }
    }

    #[test]
    fn recovery_latency_grows_with_contention() {
        let c = RachConfig::default();
        let mean = |contending: u32, seed: u64| {
            let mut rng = SimRng::from_seed(seed).stream("recovery");
            let mut sum = Duration::ZERO;
            let mut ok = 0u32;
            for _ in 0..2_000 {
                if let Some(l) = recovery_latency(&c, Instant::from_millis(1), contending, &mut rng)
                {
                    sum += l;
                    ok += 1;
                }
            }
            (sum.as_micros_f64() / f64::from(ok.max(1)), ok)
        };
        let (lone, ok1) = mean(1, 2);
        let (crowded, ok2) = mean(200, 2);
        assert_eq!(ok1, 2_000);
        assert!(ok2 > 0);
        assert!(crowded > lone, "crowded {crowded} vs lone {lone}");
    }

    #[test]
    fn recovery_latency_exhausts_under_certain_collision() {
        // preambles = 1 with 2 contenders: every attempt collides.
        let c = RachConfig { preambles: 1, max_attempts: 3, ..RachConfig::default() };
        let mut rng = SimRng::from_seed(3);
        assert_eq!(recovery_latency(&c, Instant::ZERO, 2, &mut rng), None);
    }

    #[test]
    fn single_ue_always_succeeds_first_attempt() {
        let s = simulate_contention(&RachConfig::default(), 1, 1);
        assert_eq!(s.succeeded, 1);
        assert_eq!(s.failed, 0);
        assert_eq!(s.mean_attempts, 1.0);
        assert_eq!(s.collision_rate, 0.0);
    }

    #[test]
    fn collision_rate_tracks_birthday_bound() {
        // With n UEs on one occasion and P preambles, the expected fraction
        // of colliding transmissions is 1 − (1 − 1/P)^(n−1).
        let cfg = RachConfig::default();
        let n = 16usize;
        // Average over seeds for a stable estimate of the FIRST occasion's
        // collision rate; later retry occasions are sparser, so use the
        // analytic bound only as an order-of-magnitude check.
        let mut total_rate = 0.0;
        for seed in 0..20 {
            total_rate += simulate_contention(&cfg, n, seed).collision_rate;
        }
        let observed = total_rate / 20.0;
        let expected = 1.0 - (1.0 - 1.0 / cfg.preambles as f64).powi(n as i32 - 1);
        assert!(
            observed > expected * 0.3 && observed < expected * 3.0,
            "observed {observed:.3} vs first-occasion bound {expected:.3}"
        );
    }

    #[test]
    fn contention_grows_with_population() {
        let cfg = RachConfig::default();
        let small = simulate_contention(&cfg, 4, 2);
        let large = simulate_contention(&cfg, 256, 2);
        assert!(large.collision_rate > small.collision_rate);
        assert!(large.mean_attempts > small.mean_attempts);
        let (mut ls, mut ss) = (large.latency.clone(), small.latency.clone());
        assert!(ls.summary().mean_us > ss.summary().mean_us);
    }

    #[test]
    fn overload_causes_failures() {
        // 4096 UEs on 64 preambles: some must exhaust their budget.
        let cfg = RachConfig { max_attempts: 3, ..RachConfig::default() };
        let s = simulate_contention(&cfg, 4096, 3);
        assert!(s.failed > 0, "expected RACH failures under overload");
        assert!(s.succeeded > 0, "but not a total outage");
    }

    #[test]
    fn rach_latency_dwarfs_the_urllc_budget() {
        // Even the collision-free best case (≥ response+msg3+msg4 = 6 ms
        // here) is an order of magnitude past 0.5 ms: why SR failure is a
        // latency cliff.
        let c = RachConfig::default();
        assert!(c.uncontended_latency(Instant::from_millis(10)) > Duration::from_millis(5));
    }

    #[test]
    fn deterministic_under_seed() {
        let a = simulate_contention(&RachConfig::default(), 64, 7);
        let b = simulate_contention(&RachConfig::default(), 64, 7);
        assert_eq!(a.succeeded, b.succeeded);
        assert_eq!(a.collision_rate, b.collision_rate);
    }

    #[test]
    fn rng_pick_distribution_is_uniformish() {
        // Sanity on the preamble picker itself.
        let mut rng = SimRng::from_seed(5);
        let mut counts = [0u32; 64];
        for _ in 0..64_000 {
            counts[(rng.next_u64() % 64) as usize] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "count {c}");
        }
    }
}
