//! The §4 latency taxonomy: protocol vs processing vs radio.
//!
//! "We categorize the different latency sources in a 5G system into three
//! categories: protocol, processing, and radio latencies ... the latency
//! can be bottlenecked if any of these sources are overlooked." This module
//! splits a latency budget into those three shares, both analytically (from
//! a worst-case run) and empirically (from experiment means), and names the
//! bottleneck.

use sim::Duration;

use crate::model::{ConfigUnderTest, ProcessingBudget};
use crate::worst_case::{worst_case, Direction};

/// The three latency categories of §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceShare {
    /// Waiting imposed by protocol mechanisms: slot alignment, TDD
    /// patterns, SR/grant handshakes, per-slot scheduling.
    Protocol,
    /// Decision-making and data processing through the layers.
    Processing,
    /// RF chains, bus queuing and transfer, radio buffering.
    Radio,
}

/// A latency budget decomposed into the three categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Protocol share.
    pub protocol: Duration,
    /// Processing share.
    pub processing: Duration,
    /// Radio share.
    pub radio: Duration,
}

impl LatencyBreakdown {
    /// Total latency.
    pub fn total(&self) -> Duration {
        self.protocol + self.processing + self.radio
    }

    /// The dominant category.
    pub fn bottleneck(&self) -> SourceShare {
        let mut best = (SourceShare::Protocol, self.protocol);
        if self.processing > best.1 {
            best = (SourceShare::Processing, self.processing);
        }
        if self.radio > best.1 {
            best = (SourceShare::Radio, self.radio);
        }
        best.0
    }

    /// Fraction of the total attributed to a category (0 when total is 0).
    pub fn fraction(&self, s: SourceShare) -> f64 {
        let total = self.total().as_micros_f64();
        if total == 0.0 {
            return 0.0;
        }
        let part = match s {
            SourceShare::Protocol => self.protocol,
            SourceShare::Processing => self.processing,
            SourceShare::Radio => self.radio,
        };
        part.as_micros_f64() / total
    }
}

/// Number of over-the-air hops a direction takes (radio latency is paid
/// per hop: SR, grant and data for grant-based UL; one hop otherwise).
fn radio_hops(dir: Direction) -> u64 {
    match dir {
        Direction::UplinkGrantBased => 3,
        Direction::UplinkGrantFree | Direction::Downlink => 1,
    }
}

/// Processing spent by a direction (sum of the budget terms it crosses).
fn processing_spent(dir: Direction, b: &ProcessingBudget) -> Duration {
    match dir {
        Direction::Downlink => b.gnb_tx_prep + b.ue_rx,
        Direction::UplinkGrantFree => b.ue_tx_prep + b.gnb_rx,
        Direction::UplinkGrantBased => b.ue_tx_prep + b.sr_decode + b.grant_decode + b.gnb_rx,
    }
}

/// Decomposes the worst-case latency of `(cfg, dir, budget)` into the three
/// §4 categories: processing and radio are the budget's contributions, and
/// protocol is everything that remains — the waiting the configuration
/// itself imposes.
pub fn decompose_worst_case(
    cfg: &ConfigUnderTest,
    dir: Direction,
    budget: &ProcessingBudget,
) -> LatencyBreakdown {
    let wc = worst_case(cfg, dir, budget);
    let processing = processing_spent(dir, budget);
    let radio = budget.radio * radio_hops(dir);
    let protocol = wc.latency.saturating_sub(processing + radio);
    LatencyBreakdown { protocol, processing, radio }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phy::tdd::TddConfig;

    fn dm() -> ConfigUnderTest {
        ConfigUnderTest::TddCommon(TddConfig::dm_minimal())
    }

    #[test]
    fn zero_budget_is_pure_protocol() {
        let b = decompose_worst_case(&dm(), Direction::Downlink, &ProcessingBudget::zero());
        assert_eq!(b.processing, Duration::ZERO);
        assert_eq!(b.radio, Duration::ZERO);
        assert_eq!(b.protocol, Duration::from_micros(500));
        assert_eq!(b.bottleneck(), SourceShare::Protocol);
        assert_eq!(b.fraction(SourceShare::Protocol), 1.0);
    }

    #[test]
    fn testbed_radio_dominates_grant_based_budgets() {
        // Three radio hops at ~500 µs each: the USB radio is the §7
        // bottleneck for grant-based UL.
        let b = decompose_worst_case(
            &dm(),
            Direction::UplinkGrantBased,
            &ProcessingBudget::testbed_means(),
        );
        assert_eq!(b.radio, Duration::from_micros(1_500));
        assert_eq!(b.bottleneck(), SourceShare::Radio);
    }

    #[test]
    fn totals_are_consistent_with_worst_case() {
        for dir in Direction::TABLE1_ROWS {
            for budget in [ProcessingBudget::zero(), ProcessingBudget::testbed_means()] {
                let wc = worst_case(&dm(), dir, &budget);
                let b = decompose_worst_case(&dm(), dir, &budget);
                // Protocol share absorbs the remainder, so totals can only
                // differ when processing+radio alone exceed the worst case
                // (impossible: they are inside it).
                assert_eq!(b.total(), wc.latency, "{dir:?}");
            }
        }
    }

    #[test]
    fn fractions_sum_to_one() {
        let b = decompose_worst_case(
            &dm(),
            Direction::UplinkGrantFree,
            &ProcessingBudget::testbed_means(),
        );
        let sum = b.fraction(SourceShare::Protocol)
            + b.fraction(SourceShare::Processing)
            + b.fraction(SourceShare::Radio);
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_fraction_is_zero() {
        let b = LatencyBreakdown {
            protocol: Duration::ZERO,
            processing: Duration::ZERO,
            radio: Duration::ZERO,
        };
        assert_eq!(b.fraction(SourceShare::Radio), 0.0);
    }
}
