//! The FR2 (mmWave) latency study — experiment X1.
//!
//! §1/§5 of the paper argue that mmWave's ultra-short slots do not buy
//! URLLC because the link itself is unreliable: the measurements it cites
//! (Fezeu et al.) found sub-millisecond latency only **4.4 %** of the time.
//! This experiment reproduces that *shape*: packets on an FR2 link with a
//! busy-indoor blockage process wait out blockages before their (tiny)
//! slot-aligned transmission, and the sub-1 ms fraction collapses to the
//! low percents even though the slot is 125 µs.

use channel::{BlockageTrace, Fr2LinkConfig};
use phy::Numerology;
use sim::{Dist, Duration, Instant, LatencyRecorder, SimRng};

/// Result of the FR2 study.
#[derive(Debug, Clone)]
pub struct Fr2Study {
    /// Fraction of packets delivered in under 1 ms.
    pub sub_ms_fraction: f64,
    /// Mean one-way latency, µs.
    pub mean_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// Packets simulated.
    pub packets: u64,
}

/// Runs the study: `n` packets, Poisson arrivals, FR2 µ3 slots, the given
/// blockage environment.
pub fn fr2_study(config: Fr2LinkConfig, n: u64, seed: u64) -> Fr2Study {
    let master = SimRng::from_seed(seed);
    let mut rng_arr = master.stream("fr2-arrivals");
    // A materialised trajectory: per-packet waits can exceed the next
    // packet's arrival, so queries are not monotone.
    let mut trace = BlockageTrace::new(config, master.stream("fr2-link"));
    let slot = Numerology::Mu3.slot_duration(); // 125 µs
    let inter = Dist::Exponential { mean: Duration::from_millis(5) };
    let mut rec = LatencyRecorder::new();
    let mut t = Instant::ZERO;
    for _ in 0..n {
        t += inter.sample(&mut rng_arr);
        // The packet needs line of sight, then the next slot boundary, and
        // the link must still be up when that slot ends.
        let mut ready = t;
        let tx_end = loop {
            let los = trace.next_los_at(ready);
            let tx = los.ceil_to(slot);
            if trace.state_at(tx + slot) == channel::BlockageState::LineOfSight {
                break tx + slot;
            }
            ready = tx + slot;
        };
        rec.record(tx_end - t);
    }
    Fr2Study {
        sub_ms_fraction: rec.fraction_within(Duration::from_millis(1)),
        mean_us: {
            let mut r = rec.clone();
            r.summary().mean_us
        },
        p99_us: rec.quantile_us(0.99),
        packets: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_indoor_sub_ms_fraction_is_low_single_digits() {
        // The paper's cited measurement: 4.4 %. Shape target: low single
        // digit percents, nowhere near 99.99 %.
        let s = fr2_study(Fr2LinkConfig::busy_indoor(), 20_000, 1);
        assert!(
            s.sub_ms_fraction > 0.01 && s.sub_ms_fraction < 0.15,
            "sub-ms fraction {}",
            s.sub_ms_fraction
        );
    }

    #[test]
    fn clear_static_environment_is_fine() {
        // The contrast case: with long LoS dwell, mmWave mostly delivers
        // within a millisecond — the conditions of the "optimal conditions"
        // caveat in §8.
        let s = fr2_study(Fr2LinkConfig::clear_static(), 20_000, 2);
        assert!(s.sub_ms_fraction > 0.9, "sub-ms fraction {}", s.sub_ms_fraction);
    }

    #[test]
    fn blockage_dominates_the_tail() {
        let s = fr2_study(Fr2LinkConfig::busy_indoor(), 10_000, 3);
        // p99 is in the tens-of-milliseconds regime (multiple blockages).
        assert!(s.p99_us > 10_000.0, "p99 {}", s.p99_us);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = fr2_study(Fr2LinkConfig::busy_indoor(), 2_000, 7);
        let b = fr2_study(Fr2LinkConfig::busy_indoor(), 2_000, 7);
        assert_eq!(a.sub_ms_fraction, b.sub_ms_fraction);
        assert_eq!(a.mean_us, b.mean_us);
    }
}
