//! Cross-validation: the analytical worst-case engine (urllc-core) against
//! the discrete-event stack simulation (urllc-stack).
//!
//! The two models were written independently (closed-form event walk vs
//! per-slot scheduler simulation), so agreement within the simulator's
//! conservative extras (processing, radio, data air time) is strong
//! evidence neither is wrong.

use corenet::BackboneLink;
use phy::duplex::Duplex;
use phy::TddConfig;
use radio::{OsJitterConfig, RadioHeadConfig};
use ran::sched::AccessMode;
use ran::timing::LayerTimings;
use sim::Duration;
use stack::{PingExperiment, StackConfig};
use urllc_core::model::{ConfigUnderTest, ProcessingBudget};
use urllc_core::worst_case::{worst_case, Direction};

/// A stack config with (near-)zero processing and radio latency, isolating
/// protocol latency — the regime the analytical model describes.
fn protocol_only(duplex: Duplex, access: AccessMode) -> StackConfig {
    let mut radio = RadioHeadConfig::asic_integrated();
    radio.jitter = OsJitterConfig::none();
    radio.device_buffering = Duration::ZERO;
    radio.dac_pipeline = Duration::ZERO;
    radio.adc_pipeline = Duration::ZERO;
    radio.interface.setup = sim::Dist::zero();
    radio.interface.per_sample = Duration::ZERO;
    StackConfig {
        duplex,
        access,
        carrier: phy::grid::CarrierConfig::testbed_20mhz(),
        modulation: phy::modulation::Modulation::Qam64,
        code_rate: 0.8,
        data_prbs: 51,
        gnb_timings: LayerTimings::zero(),
        ue_timings: LayerTimings::zero(),
        gnb_radio: radio.clone(),
        ue_radio: radio,
        backbone: BackboneLink::ideal(),
        sched_lead: Duration::ZERO,
        ue_grant_processing: Duration::ZERO,
        payload_bytes: 16,
        link: None,
        harq_max_tx: 1,
        rlc_max_retx: 4,
        sr: ran::sr::SrConfig::default(),
        rach: ran::RachConfig::default(),
        rrc: ran::RrcConfig::default(),
        handover: ran::HandoverConfig::default(),
        supervision: corenet::SupervisionConfig::edge(),
        backup_backbone: None,
        deadline: Duration::from_millis(8),
        faults: sim::FaultPlan::none(),
        policy: ran::PolicySpec::Fcfs,
        seed: 0,
    }
}

#[test]
fn simulated_dl_never_exceeds_analytical_worst_plus_air() {
    // DDDU: analytical protocol-only DL worst case vs 2000 simulated pings
    // with zero processing. The simulator's latency additionally counts the
    // data air time beyond the analytical accounting (which ends at the
    // portion end), so allow one slot of slack.
    let duplex = Duplex::Tdd(TddConfig::dddu_testbed());
    let cfg_a = ConfigUnderTest::TddCommon(TddConfig::dddu_testbed());
    let analytical = worst_case(&cfg_a, Direction::Downlink, &ProcessingBudget::zero()).latency;

    let mut exp = PingExperiment::new(protocol_only(duplex, AccessMode::GrantFree).with_seed(1));
    let mut res = exp.run(2_000);
    let max_dl = Duration::from_micros_f64(res.dl_summary().max_us);
    assert!(
        max_dl <= analytical + Duration::from_micros(500),
        "simulated max DL {max_dl} vs analytical {analytical}"
    );
    assert_eq!(res.integrity_failures, 0);
}

#[test]
fn simulated_grant_free_ul_bounded_by_analytical_worst() {
    let duplex = Duplex::Tdd(TddConfig::dddu_testbed());
    let cfg_a = ConfigUnderTest::TddCommon(TddConfig::dddu_testbed());
    let analytical =
        worst_case(&cfg_a, Direction::UplinkGrantFree, &ProcessingBudget::zero()).latency;

    let mut exp = PingExperiment::new(protocol_only(duplex, AccessMode::GrantFree).with_seed(2));
    let mut res = exp.run(2_000);
    let max_ul = Duration::from_micros_f64(res.ul_summary().max_us);
    // The simulator's UL eligibility is stricter than the analytical
    // soft-join (it waits for a slot whose *start* is ahead), so its worst
    // can exceed the analytical portion-end accounting by up to one slot,
    // plus the air time.
    assert!(
        max_ul <= analytical + Duration::from_millis(1),
        "simulated max UL {max_ul} vs analytical {analytical}"
    );
    // And the simulation must actually exercise latencies near the bound.
    assert!(
        max_ul + Duration::from_millis(1) >= analytical,
        "simulated max UL {max_ul} suspiciously far below analytical {analytical}"
    );
}

#[test]
fn grant_based_handshake_overhead_agrees() {
    // Both models should attribute roughly one DDDU period (2 ms) to the
    // SR/grant handshake.
    let cfg_a = ConfigUnderTest::TddCommon(TddConfig::dddu_testbed());
    let zero = ProcessingBudget::zero();
    let analytic_extra = worst_case(&cfg_a, Direction::UplinkGrantBased, &zero).latency
        - worst_case(&cfg_a, Direction::UplinkGrantFree, &zero).latency;

    let mean = |access| {
        let duplex = Duplex::Tdd(TddConfig::dddu_testbed());
        let mut exp = PingExperiment::new(protocol_only(duplex, access).with_seed(3));
        let mut res = exp.run(1_000);
        res.ul_summary().mean_us
    };
    let sim_extra = mean(AccessMode::GrantBased) - mean(AccessMode::GrantFree);
    let analytic_us = analytic_extra.as_micros_f64();
    assert!(
        (sim_extra - analytic_us).abs() < 1_000.0,
        "handshake cost: simulated {sim_extra} µs vs analytical {analytic_us} µs"
    );
}

#[test]
fn analytical_engine_is_deterministic_and_pure() {
    let cfg = ConfigUnderTest::TddCommon(TddConfig::dm_minimal());
    for dir in Direction::TABLE1_ROWS {
        let a = worst_case(&cfg, dir, &ProcessingBudget::testbed_means());
        let b = worst_case(&cfg, dir, &ProcessingBudget::testbed_means());
        assert_eq!(a, b);
    }
}
