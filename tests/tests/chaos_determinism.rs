//! Determinism properties of the fault-injection subsystem (proptest):
//! identical seed + identical `FaultPlan` ⇒ bit-identical experiment
//! results including fault attribution, and the empty plan reproduces the
//! fault-free baseline byte for byte. The sweep tests at the end check the
//! reliability claims `repro chaos` prints, at one sweep-sized seed.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use ran::sched::AccessMode;
use sim::FaultPlan;
use stack::{ExperimentResult, PingExperiment, StackConfig};

const PINGS: u64 = 30;

fn run_chaos(seed: u64, intensity: f64) -> ExperimentResult {
    let cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true)
        .with_seed(seed)
        .with_faults(FaultPlan::chaos(intensity));
    PingExperiment::new(cfg).run(PINGS)
}

/// chaos(0) is FaultPlan::none(); an experiment of `pings` pings carrying
/// it must be byte-identical to one that never heard of fault injection.
fn empty_plan_reproduces_the_baseline_at(seed: u64, pings: u64) -> Result<(), TestCaseError> {
    let base = StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(seed);
    let injected = PingExperiment::new(base.clone().with_faults(FaultPlan::chaos(0.0))).run(pings);
    let baseline = PingExperiment::new(base).run(pings);
    prop_assert_eq!(injected.rtt.samples_us(), baseline.rtt.samples_us());
    prop_assert_eq!(injected.ul.samples_us(), baseline.ul.samples_us());
    prop_assert_eq!(injected.dl.samples_us(), baseline.dl.samples_us());
    prop_assert!(injected.attribution.is_fault_free());
    prop_assert_eq!(injected.rlf.len(), 0);
    prop_assert_eq!(
        (
            injected.sr_retx,
            injected.rach_recoveries,
            injected.grants_withheld,
            injected.spurious_harq_retx,
            injected.rlc_escalations
        ),
        (0, 0, 0, 0, 0)
    );
    prop_assert_eq!(injected.attribution.total(), pings);
    Ok(())
}

proptest! {
    #[test]
    fn same_seed_same_plan_identical_results(seed in 1u64..1_000, step in 0u32..9) {
        let intensity = f64::from(step) * 0.1;
        let a = run_chaos(seed, intensity);
        let b = run_chaos(seed, intensity);
        prop_assert_eq!(a.rtt.samples_us(), b.rtt.samples_us());
        prop_assert_eq!(a.ul.samples_us(), b.ul.samples_us());
        prop_assert_eq!(a.dl.samples_us(), b.dl.samples_us());
        prop_assert_eq!(a.attribution, b.attribution);
        prop_assert_eq!(a.rlf, b.rlf);
        prop_assert_eq!(
            (a.sr_retx, a.rach_recoveries, a.grants_withheld, a.spurious_harq_retx,
             a.rlc_escalations, a.harq_retx, a.harq_failures, a.underruns),
            (b.sr_retx, b.rach_recoveries, b.grants_withheld, b.spurious_harq_retx,
             b.rlc_escalations, b.harq_retx, b.harq_failures, b.underruns)
        );
    }

    #[test]
    fn empty_plan_reproduces_the_baseline(seed in 1u64..1_000) {
        empty_plan_reproduces_the_baseline_at(seed, PINGS)?;
    }

    #[test]
    fn intensity_changes_change_the_trace(seed in 1u64..200) {
        // Sanity that the injector is not a no-op: a strong plan must
        // perturb the latency samples relative to the empty one.
        let calm = run_chaos(seed, 0.0);
        let wild = run_chaos(seed, 0.9);
        prop_assert_ne!(calm.rtt.samples_us(), wild.rtt.samples_us());
    }
}

/// Pings and seed of the sweep tests: a `repro chaos` row in miniature.
const SWEEP_PINGS: u64 = 200;
const SWEEP_SEED: u64 = 6;

fn sweep_cfg(intensity: f64) -> StackConfig {
    StackConfig::testbed_dddu(AccessMode::GrantBased, true)
        .with_seed(SWEEP_SEED)
        .with_faults(FaultPlan::chaos(intensity))
}

#[test]
fn miss_probability_is_monotone_in_intensity() {
    // More injected faults, never fewer misses.
    let misses: Vec<f64> = [0.0, 0.2, 0.8]
        .iter()
        .map(|&i| PingExperiment::new(sweep_cfg(i)).run(SWEEP_PINGS).attribution.miss_probability())
        .collect();
    assert!(misses[1] >= misses[0] && misses[2] >= misses[1], "{misses:?}");
}

#[test]
fn intensity_zero_is_the_baseline_at_sweep_size() {
    empty_plan_reproduces_the_baseline_at(SWEEP_SEED, SWEEP_PINGS).unwrap();
}

#[test]
fn every_ping_is_classified_at_every_margin() {
    // The §6 trade under chaos: a sweep over the scheduling lead loses no
    // ping to anything but a declared cause.
    for slots in [1u64, 2, 3] {
        let mut cfg = sweep_cfg(0.4);
        cfg.sched_lead = cfg.duplex.slot_duration() * slots;
        let total = PingExperiment::new(cfg).run(SWEEP_PINGS).attribution.total();
        assert_eq!(total, SWEEP_PINGS, "every ping classified at a {slots}-slot lead");
    }
}
