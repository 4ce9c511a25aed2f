//! Cross-crate mobility checks: the two-gNB shuttle driven through the
//! public API stays deterministic, conserves every packet under the full
//! chaos plan, and keeps its interruption windows under the closed-form
//! bound of `stack::HandoverInterruptionModel`.

use ran::AccessMode;
use sim::FaultPlan;
use stack::{run_mobility, HandoverInterruptionModel, MobilityConfig, StackConfig};

fn chaotic(seed: u64, speed_mps: f64) -> MobilityConfig {
    let stack = StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(seed);
    let mut cfg = MobilityConfig::for_speed(stack, speed_mps, 3);
    cfg.stack = cfg.stack.with_faults(FaultPlan::handover_chaos(1.0));
    cfg
}

#[test]
fn chaotic_mobility_is_deterministic() {
    let a = run_mobility(&chaotic(5, 30.0), None);
    let b = run_mobility(&chaotic(5, 30.0), None);
    assert_eq!(a.offered, b.offered);
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(a.handovers, b.handovers);
    assert_eq!(a.tally, b.tally);
    assert_eq!(a.interruption.samples_us(), b.interruption.samples_us());
    assert_eq!(a.latency.samples_us(), b.latency.samples_us());
}

#[test]
fn chaotic_mobility_conserves_and_respects_the_bound() {
    let stack = StackConfig::testbed_dddu(AccessMode::GrantBased, true);
    let bound_us = HandoverInterruptionModel::from_config(&stack).worst_case().as_micros_f64();
    for seed in 0..4u64 {
        let report = run_mobility(&chaotic(seed, 60.0), None);
        assert!(report.conserved(), "seed {seed} lost packets");
        assert!(report.handovers > 0, "seed {seed} never handed over");
        for &sample_us in report.interruption.samples_us() {
            assert!(sample_us <= bound_us, "seed {seed}: {sample_us} µs over {bound_us} µs");
        }
    }
}
