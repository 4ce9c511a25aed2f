//! TX sample ring with air-time deadlines.
//!
//! The MAC scheduler decides at slot *n* what flies at slot *n + k*; the
//! PHY must have delivered the samples to the radio before their air time.
//! If processing + bus + jitter exceeds the margin `k · slot`, the radio
//! transmits garbage — the paper's §4: "Failure to do so may result in the
//! radio not being ready for transmission, leading to a corrupted signal",
//! and §6's link from latency non-determinism to *reliability* loss. The
//! ring records each submission against its deadline and accumulates the
//! underrun statistics the reliability experiments report.

use sim::{Duration, Instant};
use telemetry::{metric, Telemetry};

/// Outcome of one scheduled transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// Samples arrived before their air time, with this much slack.
    OnTime {
        /// Time to spare between arrival and air time.
        margin: Duration,
    },
    /// Samples arrived after their air time: the slot is corrupted.
    Underrun {
        /// How late the samples were.
        late_by: Duration,
    },
}

impl TxOutcome {
    /// `true` when the transmission made its deadline.
    pub fn is_on_time(self) -> bool {
        matches!(self, TxOutcome::OnTime { .. })
    }
}

/// Statistics accumulated by a [`TxRing`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Transmissions that made their air time.
    pub on_time: u64,
    /// Transmissions that missed it.
    pub underruns: u64,
    /// Smallest on-time margin seen (how close calls get).
    pub worst_margin: Option<Duration>,
}

/// The TX ring: deadline bookkeeping for scheduled transmissions.
#[derive(Debug, Clone, Default)]
pub struct TxRing {
    stats: RingStats,
    tel: Telemetry,
}

impl TxRing {
    /// Creates an empty ring.
    pub fn new() -> TxRing {
        TxRing::default()
    }

    /// Attaches a telemetry handle (`radio/ring_*` metrics).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Records a submission whose samples become ready at `ready` for a
    /// transmission scheduled to start at `air_time`.
    pub fn submit(&mut self, ready: Instant, air_time: Instant) -> TxOutcome {
        self.tel.add(metric::RADIO_RING_SUBMITS, 1);
        match air_time.checked_duration_since(ready) {
            Some(margin) => {
                self.stats.on_time += 1;
                self.stats.worst_margin = Some(match self.stats.worst_margin {
                    Some(w) => w.min(margin),
                    None => margin,
                });
                self.tel.observe(metric::RADIO_RING_MARGIN_US, margin);
                TxOutcome::OnTime { margin }
            }
            None => {
                self.stats.underruns += 1;
                let late_by = ready.duration_since(air_time);
                self.tel.add(metric::RADIO_RING_UNDERRUNS, 1);
                self.tel.observe(metric::RADIO_RING_LATE_US, late_by);
                TxOutcome::Underrun { late_by }
            }
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> RingStats {
        self.stats
    }

    /// Fraction of transmissions that made their deadline — the radio-side
    /// component of the URLLC reliability figure.
    pub fn reliability(&self) -> f64 {
        let total = self.stats.on_time + self.stats.underruns;
        if total == 0 {
            return 1.0;
        }
        self.stats.on_time as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_time_submission() {
        let mut ring = TxRing::new();
        let out = ring.submit(Instant::from_micros(100), Instant::from_micros(350));
        assert_eq!(out, TxOutcome::OnTime { margin: Duration::from_micros(250) });
        assert!(out.is_on_time());
        assert_eq!(ring.reliability(), 1.0);
    }

    #[test]
    fn late_submission_is_underrun() {
        let mut ring = TxRing::new();
        let out = ring.submit(Instant::from_micros(400), Instant::from_micros(350));
        assert_eq!(out, TxOutcome::Underrun { late_by: Duration::from_micros(50) });
        assert!(!out.is_on_time());
        assert_eq!(ring.reliability(), 0.0);
    }

    #[test]
    fn exactly_on_deadline_counts_as_on_time() {
        let mut ring = TxRing::new();
        let t = Instant::from_micros(500);
        assert_eq!(ring.submit(t, t), TxOutcome::OnTime { margin: Duration::ZERO });
    }

    #[test]
    fn worst_margin_tracks_minimum() {
        let mut ring = TxRing::new();
        ring.submit(Instant::from_micros(0), Instant::from_micros(300));
        ring.submit(Instant::from_micros(280), Instant::from_micros(300));
        ring.submit(Instant::from_micros(400), Instant::from_micros(600));
        assert_eq!(ring.stats().worst_margin, Some(Duration::from_micros(20)));
    }

    #[test]
    fn reliability_mixes() {
        let mut ring = TxRing::new();
        for i in 0..99 {
            ring.submit(Instant::from_micros(i), Instant::from_micros(i + 10));
        }
        ring.submit(Instant::from_micros(1_000), Instant::from_micros(999));
        assert!((ring.reliability() - 0.99).abs() < 1e-12);
        assert_eq!(ring.stats().on_time, 99);
        assert_eq!(ring.stats().underruns, 1);
    }

    #[test]
    fn empty_ring_is_fully_reliable() {
        assert_eq!(TxRing::new().reliability(), 1.0);
        assert_eq!(TxRing::new().stats().worst_margin, None);
    }
}
