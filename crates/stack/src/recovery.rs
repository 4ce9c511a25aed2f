//! Closed-form worst-case recovery latency: what a radio-link failure or
//! an N3 path outage can cost a packet, bounded analytically.
//!
//! The paper's worst-case methodology (§2/§5) prices the *fault-free*
//! protocol pipeline; this module extends it to the recovery pipeline that
//! the stack runs when things break. One recovery detour decomposes as
//!
//! ```text
//! T_detour = T_detect + T_rach + T_reestablish + T_pdcp_recover
//! ```
//!
//! where `T_pdcp_recover` itself is the status-report round trip plus the
//! retransmission's air time plus the worst-case HARQ/RLC redelivery
//! extra. Each leg has an exact worst case under the stack's semantics:
//!
//! * **detect** — the configured T310-style guard
//!   ([`ran::RrcConfig::detect_delay`]), a constant;
//! * **RACH** — [`ran::RachConfig::uncontended_worst_case`] when a single
//!   UE contends (the testbed), the contended bound otherwise — both via
//!   [`ran::RrcEntity::control_plane_worst_case`];
//! * **reestablish** — `RRCReestablishment` processing, a constant;
//! * **status exchange** — one RLC status round trip on the re-established
//!   link ([`ran::harq::rlc_recovery_round_trip`]), deterministic per
//!   duplex pattern and direction;
//! * **air** — the retransmitted block is no larger than the grant
//!   (uplink) / slot capacity (downlink), and air time is monotone in
//!   bytes;
//! * **redelivery** — the retried block may burn its full HARQ and RLC AM
//!   budgets again: `(rlc_max_retx + 1)·(harq_max_tx − 1)` HARQ round
//!   trips plus `rlc_max_retx` status round trips.
//!
//! The same treatment covers the core-network side: GTP-U path
//! supervision's detection delay is the closed-form probe/backoff sum
//! ([`corenet::SupervisionConfig::detection_delay`]), charged once to the
//! traversal that discovers the outage.
//!
//! [`RecoveryLatencyModel::worst_case`] upper-bounds every simulated
//! recovery detour — asserted against the stack simulation in this
//! module's tests and in the integration suite, the same cross-check
//! discipline as `analytical_vs_simulated`. Its round trips come from
//! `StackConfig::round_trips`, as the ping walk's do: the bound restates
//! the simulator's entity methods rather than re-deriving them.

use ran::RrcEntity;
use sim::Duration;

use crate::config::StackConfig;

/// Closed-form worst-case latency of one recovery detour, per direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryLatencyModel {
    /// RLF declared late + re-access + re-establishment processing:
    /// `detect + rach_worst + reestablish`.
    pub control_plane: Duration,
    /// PDCP status-report round trip on the re-established link
    /// (uplink-data direction).
    pub status_exchange_ul: Duration,
    /// Same, downlink-data direction.
    pub status_exchange_dl: Duration,
    /// Worst-case air time of the retransmitted block (uplink: bounded by
    /// the grant size; downlink: by the slot capacity).
    pub retransmission_air_ul: Duration,
    /// Downlink counterpart.
    pub retransmission_air_dl: Duration,
    /// Worst-case HARQ + RLC AM redelivery extra for the retried block
    /// (uplink).
    pub redelivery_ul: Duration,
    /// Downlink counterpart.
    pub redelivery_dl: Duration,
    /// Worst-case N3 outage detection: the supervision probe/backoff sum,
    /// charged once to the discovering traversal.
    pub path_detection: Duration,
}

impl RecoveryLatencyModel {
    /// Derives every bound from a stack configuration.
    pub fn from_config(cfg: &StackConfig) -> RecoveryLatencyModel {
        let rrc = RrcEntity::new(cfg.rrc, cfg.rach);
        let ([harq_rtt_dl, harq_rtt_ul], [status_dl, status_ul]) = cfg.round_trips();
        let harq_extra = u64::from(cfg.harq_max_tx.saturating_sub(1));
        let rounds = u64::from(cfg.rlc_max_retx) + 1;
        let escalations = u64::from(cfg.rlc_max_retx);
        RecoveryLatencyModel {
            control_plane: rrc.control_plane_worst_case(),
            status_exchange_ul: status_ul,
            status_exchange_dl: status_dl,
            retransmission_air_ul: cfg.data_air_time(cfg.grant_bytes()),
            retransmission_air_dl: cfg.data_air_time(cfg.slot_capacity_bytes()),
            redelivery_ul: harq_rtt_ul * (harq_extra * rounds) + status_ul * escalations,
            redelivery_dl: harq_rtt_dl * (harq_extra * rounds) + status_dl * escalations,
            path_detection: cfg.supervision.detection_delay(),
        }
    }

    /// Worst case for one complete recovery detour (RLF declared → the
    /// recovered block delivered, or re-failed — both are bounded): the
    /// quantity every simulated [`crate::ExperimentResult::recovery`]
    /// sample must stay under.
    pub fn worst_case(&self, dl: bool) -> Duration {
        let (status, air, redelivery) = if dl {
            (self.status_exchange_dl, self.retransmission_air_dl, self.redelivery_dl)
        } else {
            (self.status_exchange_ul, self.retransmission_air_ul, self.redelivery_ul)
        };
        self.control_plane + status + air + redelivery
    }

    /// Worst case over both directions: a bound on any recovery sample
    /// when the direction is not tracked per sample.
    pub fn worst_case_any(&self) -> Duration {
        self.worst_case(false).max(self.worst_case(true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PingExperiment;
    use ran::sched::AccessMode;

    fn testbed() -> StackConfig {
        StackConfig::testbed_dddu(AccessMode::GrantFree, true)
    }

    #[test]
    fn decomposition_is_consistent() {
        let m = RecoveryLatencyModel::from_config(&testbed());
        assert!(m.control_plane > Duration::ZERO);
        assert_eq!(
            m.worst_case(false),
            m.control_plane + m.status_exchange_ul + m.retransmission_air_ul + m.redelivery_ul
        );
        assert!(m.worst_case_any() >= m.worst_case(true));
        // The testbed supervises with the edge policy: 150 + 300 + 600 µs.
        assert_eq!(m.path_detection, Duration::from_micros(1_050));
    }

    #[test]
    fn model_scales_with_the_retransmission_budgets() {
        let base = RecoveryLatencyModel::from_config(&testbed());
        let mut generous = testbed();
        generous.harq_max_tx += 2;
        generous.rlc_max_retx += 1;
        let bigger = RecoveryLatencyModel::from_config(&generous);
        assert!(bigger.worst_case(false) > base.worst_case(false));
        assert!(bigger.worst_case(true) > base.worst_case(true));
    }

    #[test]
    fn worst_case_bounds_every_simulated_recovery_detour() {
        // A burst plan harsh enough to force frequent RLF (including
        // chained re-failures, whose partial detours are bounded too).
        let mut cfg = testbed().with_seed(31);
        cfg.harq_max_tx = 2;
        cfg.rlc_max_retx = 1;
        cfg.faults.channel_burst = Some(sim::GilbertElliott {
            p_enter_bad: 0.3,
            p_exit_bad: 0.4,
            loss_good: 0.1,
            loss_bad: 1.0,
        });
        let model = RecoveryLatencyModel::from_config(&cfg);
        let bound_us = model.worst_case_any().as_micros_f64();
        let res = PingExperiment::new(cfg).run(400);
        assert!(res.recovered > 0, "plan must exercise recovery");
        for &us in res.recovery.samples_us() {
            assert!(us <= bound_us, "simulated detour {us}µs exceeds closed-form {bound_us}µs");
        }
    }

    #[test]
    fn path_detection_matches_the_supervised_simulation() {
        // Every detection the simulation charges equals the closed form:
        // the PathDown event lands exactly detection_delay after the
        // discovering traversal began probing.
        let mut cfg = testbed().with_seed(32);
        cfg.faults.path_failure = Some(sim::PathFailureConfig { enter: 0.25, stay: 0.5 });
        let model = RecoveryLatencyModel::from_config(&cfg);
        let res = PingExperiment::new(cfg).run(150);
        assert!(res.path_failovers > 0);
        let mut probe_runs = 0u64;
        let mut first_probe_at = None;
        for ev in &res.path_events {
            match ev.kind {
                corenet::PathEventKind::ProbeLost => {
                    first_probe_at.get_or_insert(ev.at);
                }
                corenet::PathEventKind::PathDown => {
                    let start = first_probe_at.take().expect("probes precede path-down");
                    // First probe fires one probe_timeout in; the whole
                    // sequence spans the closed-form detection delay.
                    let sequence = ev.at - start + cfg_probe_timeout();
                    assert_eq!(sequence, model.path_detection);
                    probe_runs += 1;
                }
                _ => {}
            }
        }
        assert_eq!(probe_runs, res.path_failovers);
    }

    fn cfg_probe_timeout() -> Duration {
        corenet::SupervisionConfig::edge().probe_timeout
    }
}
