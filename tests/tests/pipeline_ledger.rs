//! The ping walk's successor relation, checked through its dispatch ledger.
//!
//! Every hop returns exactly one successor or ends the ping, so the host
//! profiler's per-hop dispatch counts (one scope per dispatch, keyed by
//! [`HopId::name`]) obey identities that follow from the hop bodies alone:
//!
//! * one `AppDown` per ping (the walk starts at the arrival, once);
//! * one `UeRxUp` per delivered ping (it always ends the walk `Done`), and
//!   every other ping ends `Lost`;
//! * one `RlfRecovery` per radio-link failure (only a failed delivery
//!   routes to it);
//! * two `Backbone` crossings and one `DlWalkDown` per uplink delivery
//!   (the uplink crossing always books the reply's crossing, which always
//!   books the downlink walk).
//!
//! A hop that routes to the wrong successor, or a driver that drops or
//! repeats one, breaks a count.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use ran::sched::AccessMode;
use sim::FaultPlan;
use stack::{
    run_parallel_opts, run_parallel_profiled, ExperimentResult, HopId, StackConfig, BATCH_PINGS,
};
use telemetry::{Profiler, Telemetry};

/// Enough pings for two shards, so the ledger also survives the
/// profiler's shard absorb.
const PINGS: u64 = BATCH_PINGS + 44;

/// Runs `cfg` with a profiler attached and checks every ledger identity;
/// returns the result for coverage checks.
fn check_ledger(cfg: &StackConfig) -> Result<ExperimentResult, TestCaseError> {
    let prof = Profiler::new();
    let result = run_parallel_profiled(cfg, PINGS, 0, None, Some(&prof));
    let rows = prof.snapshot();
    let count = |hop: HopId| rows.iter().find(|r| r.stage == hop.name()).map_or(0, |r| r.count);
    let delivered = result.rtt.count();
    let ul = result.ul.count();
    prop_assert_eq!(count(HopId::AppDown), PINGS);
    prop_assert_eq!(count(HopId::UeRxUp), delivered);
    prop_assert_eq!(delivered + result.attribution.lost, PINGS);
    prop_assert_eq!(count(HopId::RlfRecovery), result.rlf.len() as u64);
    prop_assert_eq!(count(HopId::Backbone), 2 * ul);
    prop_assert_eq!(count(HopId::DlWalkDown), ul);
    Ok(result)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The identities hold for any seed, chaos intensity and access mode.
    #[test]
    fn dispatch_counts_follow_the_successor_relation(
        seed in 1u64..10_000,
        step in 0u32..9,
        grant_free in any::<bool>(),
    ) {
        let access = if grant_free { AccessMode::GrantFree } else { AccessMode::GrantBased };
        let cfg = StackConfig::testbed_dddu(access, true)
            .with_seed(seed)
            .with_faults(FaultPlan::chaos(f64::from(step) * 0.1));
        check_ledger(&cfg)?;
    }
}

/// A plan that forces radio-link failures, recovered and lost, so the
/// `RlfRecovery` and lost-ping identities are exercised with non-zero
/// counts whatever seeds the property draws.
#[test]
fn ledger_holds_through_rlf_detours_and_losses() {
    let mut cfg = StackConfig::testbed_dddu(AccessMode::GrantFree, true).with_seed(21);
    cfg.harq_max_tx = 1;
    cfg.rlc_max_retx = 0;
    cfg.faults.channel_burst = Some(sim::GilbertElliott {
        p_enter_bad: 0.25,
        p_exit_bad: 0.5,
        loss_good: 0.0,
        loss_bad: 1.0,
    });
    let result = check_ledger(&cfg).unwrap_or_else(|e| panic!("{e}"));
    assert!(result.rlf.iter().any(|ev| ev.recovered), "the plan must recover some RLFs");
    assert!(result.attribution.lost > 0, "the plan must lose some pings");
}

/// The walk holds one pending event by construction, so every ping
/// exemplar the flight recorder keeps reports a queue depth of 1.
#[test]
fn ping_exemplars_report_the_one_pending_event() {
    let cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true)
        .with_seed(7)
        .with_faults(FaultPlan::chaos(0.4));
    let tel = Telemetry::new(1_024);
    run_parallel_opts(&cfg, PINGS, 0, Some(&tel));
    let exemplars = tel.flight_exemplars();
    assert!(!exemplars.is_empty(), "a chaos run must keep exemplars");
    assert!(exemplars.iter().all(|ex| ex.max_queue_depth == 1));
}
