//! Hop adapter: the supervised backbone crossing packaged as one pipeline
//! unit for the stack's event-driven ping walk.
//!
//! The stack's `backbone` hop consumes a "packet reaches the tunnel
//! endpoint" event and must emit the "packet reaches the UPF" event. What
//! sits between is corenet policy — the supervision state machine deciding
//! whether the packet discovers an outage (and eats the detection delay)
//! and which transport link it ultimately rides. [`plan_crossing`] resolves
//! exactly that policy in one call, returning a [`CrossingPlan`] the hop
//! turns into its emission: the caller journals its own fault record,
//! optionally confirms the adopted path end to end, then draws the N3
//! latency from the planned link. Keeping the latency draw outside the
//! adapter preserves the caller's RNG stream ordering.

use sim::{Duration, Instant};

use crate::backbone::BackboneLink;
use crate::supervision::PathSupervisor;

/// Resolution of one supervised crossing, before the N3 latency draw.
#[derive(Debug)]
pub struct CrossingPlan<'a> {
    /// Whether the packet rides the backup path.
    pub on_backup: bool,
    /// Supervision delay absorbed by this packet (zero in steady state;
    /// the full probe/backoff sequence when this traversal discovers the
    /// outage).
    pub detection: Duration,
    /// The transport link this packet traverses.
    pub link: &'a BackboneLink,
}

impl CrossingPlan<'_> {
    /// Whether this traversal is the one that discovered an outage (and
    /// should therefore be attributed a path-failure fault upstream).
    pub fn discovered_outage(&self) -> bool {
        self.detection > Duration::ZERO
    }
}

/// Runs the supervision state machine for one tunnel traversal at `at` and
/// picks the link the packet rides: the backup when the supervisor has
/// adopted it **and** one is provisioned, the primary otherwise (an outage
/// with no backup stalls on the primary).
pub fn plan_crossing<'a>(
    supervisor: &mut PathSupervisor,
    at: Instant,
    primary_down: bool,
    primary: &'a BackboneLink,
    backup: Option<&'a BackboneLink>,
) -> CrossingPlan<'a> {
    let (on_backup, detection) = supervisor.traverse(at, primary_down);
    let link = match (on_backup, backup) {
        (true, Some(b)) => b,
        _ => primary,
    };
    CrossingPlan { on_backup, detection, link }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervision::SupervisionConfig;

    fn sup() -> PathSupervisor {
        PathSupervisor::new(SupervisionConfig {
            probe_timeout: Duration::from_micros(100),
            max_retries: 2,
            backoff_cap: Duration::from_micros(300),
        })
    }

    #[test]
    fn steady_state_rides_primary_for_free() {
        let primary = BackboneLink::ideal();
        let backup = BackboneLink::ideal();
        let mut s = sup();
        let plan = plan_crossing(&mut s, Instant::ZERO, false, &primary, Some(&backup));
        assert!(!plan.on_backup);
        assert!(!plan.discovered_outage());
        assert!(std::ptr::eq(plan.link, &primary));
    }

    #[test]
    fn discovering_traversal_fails_over_and_charges_detection() {
        let primary = BackboneLink::ideal();
        let backup = BackboneLink::ideal();
        let mut s = sup();
        let plan = plan_crossing(&mut s, Instant::ZERO, true, &primary, Some(&backup));
        assert!(plan.on_backup);
        assert!(plan.discovered_outage());
        assert_eq!(plan.detection, s.config().detection_delay());
        assert!(std::ptr::eq(plan.link, &backup));
        // The next traversal into the same outage is free and stays on the
        // backup.
        let again = plan_crossing(&mut s, Instant::ZERO, true, &primary, Some(&backup));
        assert!(again.on_backup && !again.discovered_outage());
    }

    #[test]
    fn outage_without_backup_stalls_on_primary() {
        let primary = BackboneLink::ideal();
        let mut s = sup();
        let plan = plan_crossing(&mut s, Instant::ZERO, true, &primary, None);
        assert!(plan.on_backup, "supervisor still adopts the (missing) backup");
        assert!(std::ptr::eq(plan.link, &primary), "no backup provisioned: traffic stays put");
    }
}
