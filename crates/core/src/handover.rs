//! Closed-form worst-case handover interruption: what an inter-cell
//! mobility event can cost the downlink stream, bounded analytically.
//!
//! The worst-case methodology of [`crate::recovery`] applied to mobility.
//! One handover's service interruption — UE receives the HO command →
//! data flowing again on the target — decomposes per failure mode:
//!
//! ```text
//! T_handover  = T_reconfig + T_rach_cf + T_complete + 2·T_xn
//! T_too_late  = T_detect + T_rach + T_reestablish + 2·T_xn
//! T_too_early = T_reconfig + T304 + T_too_late_recovery
//! T_fwd_loss  = 2·T_xn                       (re-forwarding the batch)
//! ```
//!
//! * **handover** — the fault-free Xn procedure: `RRCReconfiguration`
//!   processing, contention-free RACH to the target (dedicated preamble,
//!   so [`ran::RachConfig::uncontended_worst_case`] applies), the
//!   completion message, and one Xn round trip for the path switch plus
//!   forwarding flush;
//! * **too-late** — the serving link dies before the command: a full RRC
//!   re-establishment ([`ran::RrcEntity::control_plane_worst_case`]) plus
//!   the Xn context fetch;
//! * **too-early** — target access fails until T304 expires, then the UE
//!   re-establishes: the reconfiguration leg, the full timer, and the
//!   same re-establishment bound;
//! * **forwarding loss** — the forwarded PDCP batch vanishes in the
//!   Xn tunnel once and is replayed: one extra Xn round trip, additive to
//!   whichever mode it decorates.
//!
//! [`HandoverInterruptionModel::worst_case`] upper-bounds every simulated
//! interruption window — asserted here per forced failure mode against
//! `stack::run_mobility`, the same cross-check discipline as
//! `analytical_vs_simulated`.

use ran::{HandoverEntity, RrcEntity};
use sim::Duration;
use stack::StackConfig;

/// Closed-form worst-case service interruption of one mobility event,
/// split by failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandoverInterruptionModel {
    /// Fault-free Xn handover: reconfiguration + contention-free RACH +
    /// completion + path switch and forwarding flush.
    pub handover: Duration,
    /// Too-late failure: RLF recovery plus the Xn context fetch.
    pub too_late: Duration,
    /// Too-early failure: reconfiguration + full T304 + re-establishment.
    pub too_early: Duration,
    /// One forwarding-tunnel loss: the replayed batch's extra Xn round
    /// trip (additive to any mode above).
    pub forwarding_recovery: Duration,
}

impl HandoverInterruptionModel {
    /// Derives every bound from a stack configuration.
    pub fn from_config(cfg: &StackConfig) -> HandoverInterruptionModel {
        let ho = HandoverEntity::new(cfg.handover, cfg.rach);
        let rrc = RrcEntity::new(cfg.rrc, cfg.rach);
        let xn_round_trip = cfg.handover.xn_delay * 2;
        let reestablish = rrc.control_plane_worst_case() + xn_round_trip;
        HandoverInterruptionModel {
            handover: ho.interruption_worst_case() + xn_round_trip,
            too_late: reestablish,
            too_early: cfg.handover.reconfig_processing + cfg.handover.t304 + reestablish,
            forwarding_recovery: xn_round_trip,
        }
    }

    /// The single bound no interruption window — any failure mode, with
    /// or without a forwarding loss — can exceed.
    pub fn worst_case(&self) -> Duration {
        self.handover.max(self.too_late).max(self.too_early) + self.forwarding_recovery
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ran::AccessMode;
    use sim::{FaultPlan, HandoverFaultConfig};
    use stack::{run_mobility, MobilityConfig};

    fn forced(too_late: f64, too_early: f64, ping_pong: f64, fwd: f64) -> FaultPlan {
        FaultPlan {
            handover: Some(HandoverFaultConfig {
                too_late,
                too_early,
                ping_pong,
                forwarding_loss: fwd,
            }),
            ..FaultPlan::none()
        }
    }

    fn assert_bounded(plan: FaultPlan, label: &str) {
        let model = HandoverInterruptionModel::from_config(&StackConfig::testbed_dddu(
            AccessMode::GrantBased,
            true,
        ));
        let bound_us = model.worst_case().as_micros_f64();
        for seed in 0..3u64 {
            let mut cfg = MobilityConfig::for_speed(
                StackConfig::testbed_dddu(AccessMode::GrantBased, true),
                60.0,
                3,
            );
            cfg.stack = cfg.stack.with_seed(seed).with_faults(plan.clone());
            let report = run_mobility(&cfg, None);
            assert!(report.conserved(), "{label}: seed {seed} lost packets");
            for &sample_us in report.interruption.samples_us() {
                assert!(
                    sample_us <= bound_us,
                    "{label}: interruption {sample_us} µs over the {bound_us} µs bound"
                );
            }
        }
    }

    #[test]
    fn model_decomposes_sensibly() {
        let cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true);
        let m = HandoverInterruptionModel::from_config(&cfg);
        assert!(m.handover > Duration::ZERO);
        // Failure modes cost at least as much as the clean procedure, and
        // burning the full T304 makes too-early the costliest.
        assert!(m.too_late >= m.handover);
        assert!(m.too_early > m.too_late);
        assert_eq!(m.forwarding_recovery, cfg.handover.xn_delay * 2);
        assert_eq!(m.worst_case(), m.too_early + m.forwarding_recovery);
    }

    #[test]
    fn bounds_the_fault_free_procedure() {
        assert_bounded(FaultPlan::none(), "fault-free");
    }

    #[test]
    fn bounds_too_late_handovers() {
        assert_bounded(forced(1.0, 0.0, 0.0, 0.0), "too-late");
    }

    #[test]
    fn bounds_too_early_handovers() {
        assert_bounded(forced(0.0, 1.0, 0.0, 0.0), "too-early");
    }

    #[test]
    fn bounds_ping_pong_chains() {
        assert_bounded(forced(0.0, 0.0, 1.0, 0.0), "ping-pong");
    }

    #[test]
    fn bounds_forwarding_loss_replays() {
        assert_bounded(forced(0.0, 0.0, 0.0, 1.0), "forwarding-loss");
    }

    #[test]
    fn bounds_the_full_chaos_plan() {
        assert_bounded(FaultPlan::handover_chaos(1.0), "chaos");
    }
}
