//! Open-loop arrival processes: traffic that does not wait for the system.
//!
//! The closed-loop ping walk sends one packet, waits for the echo, sends
//! the next — so a queue can never hold more than one packet and overload
//! is structurally invisible. An *open-loop* source keeps emitting on its
//! own clock regardless of completions; when the offered rate approaches
//! the service rate, queues form, and the paper's "heavy traffic" question
//! becomes answerable.
//!
//! Two processes are provided:
//!
//! * [`ArrivalProcess::Poisson`] — memoryless arrivals at a constant mean
//!   rate, the M in the M/D/1 bound the overload sweep is cross-checked
//!   against.
//! * [`ArrivalProcess::Mmpp2`] — a two-state Markov-modulated Poisson
//!   process: a *calm* state and a *burst* state, each with its own rate,
//!   with exponentially distributed dwell times. Same mean rate as a
//!   matched Poisson source but bursty (index of dispersion > 1), which is
//!   what actually breaks provisioned-for-the-mean systems.
//!
//! Generators draw from a caller-supplied [`SimRng`] stream (seed via
//! [`SimRng::stream_indexed`]), so arrivals are deterministic and
//! independent of every other random component in a run.
//!
//! Both are read by slot-driven engines, which only ever ask "what has
//! arrived by this slot start?": [`ArrivalGen`] yields one instant per call
//! over either process, and the engine's slot frame keeps the next peeked.

use crate::dist::Dist;
use crate::rng::SimRng;
use crate::time::{Duration, Instant};

/// An open-loop arrival process (packets per unit time, as mean
/// inter-arrival durations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals: exponential inter-arrival times with the given
    /// mean.
    Poisson {
        /// Mean inter-arrival time (1/λ).
        mean_interval: Duration,
    },
    /// Two-state Markov-modulated Poisson process. The source alternates
    /// between a calm state and a burst state; within each state arrivals
    /// are Poisson at that state's rate.
    Mmpp2 {
        /// Mean inter-arrival time while calm.
        calm_interval: Duration,
        /// Mean inter-arrival time while bursting (smaller = denser).
        burst_interval: Duration,
        /// Mean dwell time in the calm state.
        calm_dwell: Duration,
        /// Mean dwell time in the burst state.
        burst_dwell: Duration,
    },
}

impl ArrivalProcess {
    /// A Poisson process with the given mean rate in packets per second.
    pub fn poisson_pps(rate_pps: f64) -> ArrivalProcess {
        assert!(rate_pps > 0.0, "arrival rate must be positive");
        ArrivalProcess::Poisson { mean_interval: Duration::from_micros_f64(1e6 / rate_pps) }
    }

    /// An MMPP2 whose *mean* rate is `rate_pps` but which spends
    /// `burst_fraction` of its time in a burst state `burstiness` times
    /// denser than the calm state. Dwell times are `dwell`.
    pub fn bursty_pps(
        rate_pps: f64,
        burstiness: f64,
        burst_fraction: f64,
        dwell: Duration,
    ) -> ArrivalProcess {
        assert!(rate_pps > 0.0 && burstiness >= 1.0);
        assert!(burst_fraction > 0.0 && burst_fraction < 1.0);
        // Solve calm rate c from: mean = (1-f)·c + f·(b·c).
        let calm_rate = rate_pps / (1.0 - burst_fraction + burst_fraction * burstiness);
        let burst_rate = calm_rate * burstiness;
        let f = burst_fraction;
        ArrivalProcess::Mmpp2 {
            calm_interval: Duration::from_micros_f64(1e6 / calm_rate),
            burst_interval: Duration::from_micros_f64(1e6 / burst_rate),
            // Stationary fraction in burst = burst_dwell/(calm_dwell+burst_dwell).
            calm_dwell: Duration::from_micros_f64(dwell.as_micros_f64() * (1.0 - f) * 2.0),
            burst_dwell: Duration::from_micros_f64(dwell.as_micros_f64() * f * 2.0),
        }
    }

    /// The long-run mean arrival rate in packets per second.
    pub fn mean_rate_pps(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { mean_interval } => 1e6 / mean_interval.as_micros_f64(),
            ArrivalProcess::Mmpp2 { calm_interval, burst_interval, calm_dwell, burst_dwell } => {
                let pi_burst = burst_dwell.as_micros_f64()
                    / (calm_dwell.as_micros_f64() + burst_dwell.as_micros_f64());
                let calm_rate = 1e6 / calm_interval.as_micros_f64();
                let burst_rate = 1e6 / burst_interval.as_micros_f64();
                (1.0 - pi_burst) * calm_rate + pi_burst * burst_rate
            }
        }
    }
}

/// A deterministic arrival-time generator over an [`ArrivalProcess`].
///
/// `next_arrival` yields strictly increasing instants; the caller draws
/// them on its own clock (typically keeping the next one peeked until a
/// slot start reaches it) without any reference to service completions —
/// that independence is what lets queues build.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: SimRng,
    /// Time of the last emitted arrival.
    now: Instant,
    /// MMPP2 only: `true` while in the burst state.
    bursting: bool,
    /// MMPP2 only: when the current state's dwell ends.
    state_until: Instant,
}

impl ArrivalGen {
    /// A generator starting at `Instant::ZERO`, drawing from `rng` (derive
    /// it with [`SimRng::stream_indexed`] so the stream is independent of
    /// every other consumer).
    ///
    /// # Panics
    /// If `process` is an MMPP2 whose two dwell times are both zero: its
    /// state would flip forever without emitting an arrival.
    pub fn new(process: ArrivalProcess, mut rng: SimRng) -> ArrivalGen {
        if let ArrivalProcess::Mmpp2 { calm_dwell, burst_dwell, .. } = process {
            assert!(
                calm_dwell > Duration::ZERO || burst_dwell > Duration::ZERO,
                "an MMPP2 with two zero dwells never leaves its state switch"
            );
        }
        let (bursting, state_until) = match &process {
            ArrivalProcess::Poisson { .. } => (false, Instant::ZERO),
            ArrivalProcess::Mmpp2 { calm_dwell, .. } => {
                // Start calm; first dwell sampled up front so the state
                // timeline is independent of how far arrivals are consumed.
                (false, Instant::ZERO + exp_sample(*calm_dwell, &mut rng))
            }
        };
        ArrivalGen { process, rng, now: Instant::ZERO, bursting, state_until }
    }

    /// The next arrival instant (strictly after the previous one).
    pub fn next_arrival(&mut self) -> Instant {
        match self.process {
            ArrivalProcess::Poisson { mean_interval } => {
                self.now += exp_sample(mean_interval, &mut self.rng).max(Duration::from_nanos(1));
                self.now
            }
            ArrivalProcess::Mmpp2 { calm_interval, burst_interval, calm_dwell, burst_dwell } => {
                loop {
                    let interval = if self.bursting { burst_interval } else { calm_interval };
                    let candidate =
                        self.now + exp_sample(interval, &mut self.rng).max(Duration::from_nanos(1));
                    if candidate <= self.state_until {
                        self.now = candidate;
                        return self.now;
                    }
                    // The state flips before the candidate arrival: advance
                    // to the switch and redraw (the memoryless property
                    // makes discarding the stale candidate exact).
                    self.now = self.state_until;
                    self.bursting = !self.bursting;
                    let dwell = if self.bursting { burst_dwell } else { calm_dwell };
                    self.state_until = self.now + exp_sample(dwell, &mut self.rng);
                }
            }
        }
    }
}

/// One exponential draw with the given mean (zero mean → zero).
fn exp_sample(mean: Duration, rng: &mut SimRng) -> Duration {
    Dist::Exponential { mean }.sample(rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate_of(arrivals: &[Instant]) -> f64 {
        let span = (*arrivals.last().unwrap() - arrivals[0]).as_micros_f64() / 1e6;
        (arrivals.len() - 1) as f64 / span
    }

    /// Index of dispersion of counts over fixed windows: Poisson ⇒ ≈ 1,
    /// bursty ⇒ > 1.
    fn dispersion(arrivals: &[Instant], window: Duration) -> f64 {
        let horizon = *arrivals.last().unwrap();
        let n_windows = (horizon.as_nanos() / window.as_nanos()) as usize;
        let mut counts = vec![0f64; n_windows];
        for a in arrivals {
            let w = (a.as_nanos() / window.as_nanos()) as usize;
            if w < n_windows {
                counts[w] += 1.0;
            }
        }
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / counts.len() as f64;
        var / mean
    }

    #[test]
    #[should_panic(expected = "two zero dwells")]
    fn gen_rejects_an_mmpp2_whose_dwells_are_both_zero() {
        let p = ArrivalProcess::bursty_pps(1000.0, 8.0, 0.2, Duration::ZERO);
        ArrivalGen::new(p, SimRng::from_seed(1));
    }

    #[test]
    fn poisson_rate_converges() {
        let p = ArrivalProcess::poisson_pps(10_000.0);
        assert!((p.mean_rate_pps() - 10_000.0).abs() < 1.0);
        let mut g = ArrivalGen::new(p, SimRng::from_seed(1).stream("arrivals"));
        let arrivals: Vec<Instant> = (0..50_000).map(|_| g.next_arrival()).collect();
        let rate = rate_of(&arrivals);
        assert!((rate - 10_000.0).abs() / 10_000.0 < 0.03, "rate {rate}");
    }

    #[test]
    fn mmpp_mean_rate_matches_and_is_bursty() {
        let p = ArrivalProcess::bursty_pps(10_000.0, 8.0, 0.2, Duration::from_millis(10));
        assert!((p.mean_rate_pps() - 10_000.0).abs() / 10_000.0 < 1e-9, "{}", p.mean_rate_pps());
        let mut g = ArrivalGen::new(p, SimRng::from_seed(2).stream("arrivals"));
        let arrivals: Vec<Instant> = (0..200_000).map(|_| g.next_arrival()).collect();
        let rate = rate_of(&arrivals);
        assert!((rate - 10_000.0).abs() / 10_000.0 < 0.05, "rate {rate}");

        // Burstiness: dispersion well above Poisson's ≈ 1 at a window
        // comparable to the dwell time.
        let d_mmpp = dispersion(&arrivals, Duration::from_millis(5));
        let mut pg = ArrivalGen::new(
            ArrivalProcess::poisson_pps(10_000.0),
            SimRng::from_seed(2).stream("arrivals"),
        );
        let poisson: Vec<Instant> = (0..200_000).map(|_| pg.next_arrival()).collect();
        let d_poisson = dispersion(&poisson, Duration::from_millis(5));
        assert!(d_poisson < 2.0, "poisson dispersion {d_poisson}");
        assert!(d_mmpp > 3.0 * d_poisson, "mmpp {d_mmpp} vs poisson {d_poisson}");
    }

    #[test]
    fn deterministic_under_seed_and_stream() {
        let p = ArrivalProcess::bursty_pps(5_000.0, 4.0, 0.3, Duration::from_millis(2));
        let a: Vec<Instant> = {
            let mut g = ArrivalGen::new(p, SimRng::from_seed(9).stream_indexed("load", 3));
            (0..1_000).map(|_| g.next_arrival()).collect()
        };
        let b: Vec<Instant> = {
            let mut g = ArrivalGen::new(p, SimRng::from_seed(9).stream_indexed("load", 3));
            (0..1_000).map(|_| g.next_arrival()).collect()
        };
        assert_eq!(a, b);
        // A different stream index decorrelates.
        let mut g = ArrivalGen::new(
            ArrivalProcess::poisson_pps(5_000.0),
            SimRng::from_seed(9).stream_indexed("load", 4),
        );
        let c: Vec<Instant> = (0..1_000).map(|_| g.next_arrival()).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_strictly_increase() {
        for p in [
            ArrivalProcess::poisson_pps(1e6), // dense enough to stress ties
            ArrivalProcess::bursty_pps(1e6, 10.0, 0.1, Duration::from_micros(50)),
        ] {
            let mut g = ArrivalGen::new(p, SimRng::from_seed(3).stream("x"));
            let mut prev = Instant::ZERO;
            for _ in 0..20_000 {
                let t = g.next_arrival();
                assert!(t > prev);
                prev = t;
            }
        }
    }
}
