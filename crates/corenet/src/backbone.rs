//! Transport-network delay models for the N3 (gNB↔UPF) and N6 (UPF↔data
//! network) interfaces.
//!
//! In the paper's testbed the UPF runs next to the gNB, so these links cost
//! tens of microseconds; in a centralised-core deployment they can cost
//! milliseconds and silently eat the whole URLLC budget — the §9 "URLLC in
//! the 5G Core" open problem. The model is a base (propagation + switching)
//! delay plus a jitter distribution.

use sim::{Dist, Duration, SimRng};

/// A transport link delay model.
#[derive(Debug, Clone, PartialEq)]
pub struct BackboneLink {
    /// Fixed one-way delay (propagation + switching).
    pub base: Duration,
    /// Queueing jitter on top.
    pub jitter: Dist,
}

impl BackboneLink {
    /// Co-located edge deployment (the paper's testbed): the UPF is on the
    /// same machine or LAN as the gNB.
    pub fn colocated_edge() -> BackboneLink {
        BackboneLink { base: Duration::from_micros(20), jitter: Dist::lognormal_us(5.0, 3.0) }
    }

    /// A metro-regional core: ~100 km of fibre plus aggregation switching.
    pub fn regional_core() -> BackboneLink {
        BackboneLink { base: Duration::from_micros(900), jitter: Dist::lognormal_us(80.0, 40.0) }
    }

    /// A centralised national core — the deployment that breaks URLLC on
    /// its own.
    pub fn national_core() -> BackboneLink {
        BackboneLink { base: Duration::from_millis(8), jitter: Dist::lognormal_us(500.0, 250.0) }
    }

    /// Zero-delay link for RAN-only analysis.
    pub fn ideal() -> BackboneLink {
        BackboneLink { base: Duration::ZERO, jitter: Dist::zero() }
    }

    /// Samples a one-way traversal.
    pub fn sample(&self, rng: &mut SimRng) -> Duration {
        self.base + self.jitter.sample(rng)
    }

    /// Mean one-way delay.
    pub fn mean(&self) -> Duration {
        self.base + self.jitter.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployments_are_ordered() {
        assert!(BackboneLink::ideal().mean() < BackboneLink::colocated_edge().mean());
        assert!(BackboneLink::colocated_edge().mean() < BackboneLink::regional_core().mean());
        assert!(BackboneLink::regional_core().mean() < BackboneLink::national_core().mean());
    }

    #[test]
    fn edge_stays_within_urllc_budget() {
        // A co-located UPF must not eat a meaningful share of 0.5 ms.
        assert!(BackboneLink::colocated_edge().mean() < Duration::from_micros(50));
    }

    #[test]
    fn national_core_alone_breaks_urllc() {
        assert!(BackboneLink::national_core().mean() > Duration::from_millis(1));
    }

    #[test]
    fn samples_at_least_base() {
        let l = BackboneLink::regional_core();
        let mut rng = SimRng::from_seed(0);
        for _ in 0..1000 {
            assert!(l.sample(&mut rng) >= l.base);
        }
    }

    #[test]
    fn ideal_is_exactly_zero() {
        let mut rng = SimRng::from_seed(1);
        assert_eq!(BackboneLink::ideal().sample(&mut rng), Duration::ZERO);
    }
}
