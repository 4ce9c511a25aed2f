//! Overload-subsystem integration tests: packet conservation under random
//! open-loop load, PDCP SN continuity across discardTimer expiries, the
//! M/D/1 cross-check, SLO-governed degradation past saturation, and the
//! fixed-memory histogram's quantile accuracy against the exact recorder.

use bytes::Bytes;
use proptest::prelude::*;
use ran::pdcp::{Direction, PdcpConfig, PdcpEntity};
use ran::sched::AccessMode;
use sim::{ArrivalProcess, Duration, Instant, LatencyRecorder, SimRng};
use stack::{
    run_overload, service_capacity_pps, DropReason, NullHook, OverloadConfig, SloConfig,
    SloSupervisor, StackConfig,
};
use telemetry::{LogLinearHistogram, Telemetry};
use urllc_core::Md1Model;

fn testbed() -> StackConfig {
    StackConfig::testbed_dddu(AccessMode::GrantBased, true)
}

fn capacity_pps() -> f64 {
    let stack = testbed();
    let wire = stack.payload_bytes + 3;
    service_capacity_pps(&stack, wire)
}

#[test]
fn sub_saturation_mean_wait_inside_md1_band() {
    let stack = testbed();
    let mu = capacity_pps();
    let period = stack.duplex.pattern_period();
    for rho in [0.3, 0.5, 0.7] {
        let lambda = rho * mu;
        let cfg = OverloadConfig::testbed(
            stack.clone(),
            ArrivalProcess::poisson_pps(lambda),
            Duration::from_millis(400),
        );
        let rng = SimRng::from_seed(21);
        let mut hook = NullHook;
        let r = run_overload(&cfg, &rng, &mut hook, &Telemetry::disabled());
        assert!(r.conserved(), "rho {rho}: {r:?}");
        assert_eq!(r.drops.total(), 0, "rho {rho} should not drop: {r:?}");
        let model = Md1Model::new(lambda, mu);
        assert!(
            model.wait_in_band(r.mean_queue_wait, period),
            "rho {rho}: measured {} outside band {:?}",
            r.mean_queue_wait,
            model.wait_band(period)
        );
    }
}

#[test]
fn over_saturation_is_bounded_typed_and_slo_governed() {
    let stack = testbed();
    let mu = capacity_pps();
    let cfg = OverloadConfig::testbed(
        stack,
        ArrivalProcess::poisson_pps(mu * 1.5),
        Duration::from_millis(300),
    );
    let rng = SimRng::from_seed(22);
    let mut sup = SloSupervisor::new(SloConfig::default());
    let r = run_overload(&cfg, &rng, &mut sup, &Telemetry::disabled());

    assert!(r.conserved(), "{r:?}");
    // Typed drops, not silent loss: the standing queue ages out in PDCP.
    assert!(r.drops.get(DropReason::PdcpDiscard) > 0, "{r:?}");
    // Memory stays bounded: PDCP holds at most a discardTimer's worth of
    // arrivals, RLC at most its byte cap, HARQ at most its block cap.
    let timer_s = cfg.discard_timer.unwrap().as_micros_f64() / 1e6;
    let pdcp_bound = (mu * 1.5 * timer_s * 2.0) as usize;
    assert!(r.peak_pdcp_queue <= pdcp_bound, "{} > {pdcp_bound}", r.peak_pdcp_queue);
    assert!(r.peak_rlc_bytes <= cfg.rlc_capacity_bytes);
    assert!(r.peak_harq_backlog <= cfg.harq_backlog_cap);
    // The supervisor engaged and its first step was one level, not a jump.
    assert!(r.degraded_slots + r.critical_slots > 0, "supervisor never engaged: {r:?}");
    assert!(!sup.transitions().is_empty());
    assert_eq!(
        sup.transitions()[0].to,
        stack::DegradationLevel::Degraded,
        "first transition must be a single step"
    );
    // Degradation preserved goodput: the governed run still delivers.
    assert!(r.goodput_ratio() > 0.0, "{r:?}");
}

#[test]
fn governed_run_beats_ungoverned_past_saturation() {
    let stack = testbed();
    let mu = capacity_pps();
    let mk = || {
        OverloadConfig::testbed(
            stack.clone(),
            ArrivalProcess::poisson_pps(mu * 1.2),
            Duration::from_millis(300),
        )
    };
    let mut null = NullHook;
    let base = run_overload(&mk(), &SimRng::from_seed(23), &mut null, &Telemetry::disabled());
    let mut sup = SloSupervisor::new(SloConfig::default());
    let gov = run_overload(&mk(), &SimRng::from_seed(23), &mut sup, &Telemetry::disabled());
    assert!(
        gov.goodput_ratio() > base.goodput_ratio(),
        "governed {} vs ungoverned {}",
        gov.goodput_ratio(),
        base.goodput_ratio()
    );
}

#[test]
fn governed_run_with_bler_and_embb_keeps_its_literal_ledger() {
    // One pinned run through every ledger the engine keeps: URLLC packets
    // per outcome and drop reason, eMBB bytes, and slots per SLO level.
    // The numbers are the engine's own, so a change to how it steps
    // through time that moves any of them fails here.
    let stack = testbed();
    let mut cfg = OverloadConfig::testbed(
        stack,
        ArrivalProcess::poisson_pps(0.9 * capacity_pps()),
        Duration::from_millis(200),
    );
    cfg.bler = 0.5;
    cfg.harq_backlog_cap = 1;
    cfg.embb = Some((ArrivalProcess::poisson_pps(2_000.0), 1000));
    let mut sup = SloSupervisor::new(SloConfig::default());
    let r = run_overload(&cfg, &SimRng::from_seed(40), &mut sup, &Telemetry::disabled());
    let drops = DropReason::ALL.map(|reason| r.drops.get(reason));
    assert!(r.conserved() && r.embb_conserved(), "{r:?}");
    // pdcp-discard, rlc-full, mac-backlog-full, harq-exhausted,
    // deadline-clamp, slo-shed.
    assert_eq!(drops, [780, 0, 0, 13, 728, 0]);
    assert_eq!((r.offered, r.delivered, r.late, r.in_flight), (3521, 2000, 1169, 0));
    assert_eq!(
        (
            r.embb_offered_bytes,
            r.embb_sent_bytes,
            r.embb_dropped_bytes,
            r.embb_shed_bytes,
            r.embb_queued_bytes
        ),
        (427_000, 5_000, 3_000, 419_000, 0)
    );
    assert_eq!((r.total_slots, r.degraded_slots, r.critical_slots), (307, 7, 286));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation holds for every (process, rate, horizon, BLER, cap)
    /// combination: offered == delivered + dropped + in-flight, with every
    /// drop attributed to a typed reason.
    #[test]
    fn conservation_across_random_load_and_faults(
        seed in 0u64..1_000,
        rate_frac in 0.1f64..2.5,
        horizon_ms in 20u64..80,
        bler in 0.0f64..0.4,
        harq_cap in 1usize..8,
        timer_ms in 1u64..8,
        bursty in any::<bool>(),
        embb in any::<bool>(),
    ) {
        let stack = testbed();
        let lambda = rate_frac * capacity_pps();
        let arrivals = if bursty {
            ArrivalProcess::bursty_pps(lambda, 6.0, 0.25, Duration::from_millis(2))
        } else {
            ArrivalProcess::poisson_pps(lambda)
        };
        let mut cfg =
            OverloadConfig::testbed(stack, arrivals, Duration::from_millis(horizon_ms));
        cfg.bler = bler;
        cfg.harq_backlog_cap = harq_cap;
        cfg.discard_timer = Some(Duration::from_millis(timer_ms));
        if embb {
            cfg.embb = Some((ArrivalProcess::poisson_pps(800.0), 900));
        }
        let rng = SimRng::from_seed(seed);
        let mut sup = SloSupervisor::new(SloConfig::default());
        let r = run_overload(&cfg, &rng, &mut sup, &Telemetry::disabled());
        prop_assert!(r.conserved(), "packet ledger: {r:?}");
        prop_assert!(r.embb_conserved(), "eMBB byte ledger: {r:?}");
        prop_assert_eq!(r.delivered, r.latency.count());
        prop_assert!(r.peak_rlc_bytes <= cfg.rlc_capacity_bytes);
        prop_assert!(r.peak_harq_backlog <= cfg.harq_backlog_cap);
    }

    /// PDCP SN continuity across discardTimer expiries: pulled COUNTs are
    /// strictly increasing, a COUNT is never reassigned, and enqueued ==
    /// pulled + expired + still-queued.
    #[test]
    fn pdcp_counts_stay_continuous_across_discards(
        gaps_us in prop::collection::vec(1u64..4_000, 4..60),
        timer_us in 500u64..3_000,
        pull_every in 1usize..6,
    ) {
        let mut tx = PdcpEntity::new(PdcpConfig::new(9, 1, Direction::Downlink));
        tx.set_discard_timer(Some(Duration::from_micros(timer_us)));
        let mut now = Instant::ZERO;
        let mut enqueued = 0u64;
        let mut pulled: Vec<u32> = Vec::new();
        for (i, &gap) in gaps_us.iter().enumerate() {
            now += Duration::from_micros(gap);
            let count = tx.tx_enqueue(now, Bytes::from(vec![i as u8; 8]));
            prop_assert_eq!(u64::from(count), enqueued, "COUNTs assigned densely");
            enqueued += 1;
            if i % pull_every == 0 {
                if let Some((count, _pdu)) = tx.pull_tx(now) {
                    pulled.push(count);
                }
            }
        }
        // Drain what survives at the end.
        while let Some((count, _pdu)) = tx.pull_tx(now) {
            pulled.push(count);
        }
        prop_assert!(pulled.windows(2).all(|w| w[0] < w[1]), "non-monotone: {pulled:?}");
        prop_assert_eq!(
            enqueued,
            pulled.len() as u64 + tx.discard_expired_total() + tx.tx_queued() as u64
        );
        prop_assert_eq!(tx.tx_queued(), 0, "final drain left data behind");
    }

    /// The fixed-memory log-linear histogram's nearest-rank quantile is a
    /// lower bound on the exact recorder's, within one sub-bucket
    /// (1/16 ≈ 6.25% relative error).
    #[test]
    fn log_linear_quantiles_track_exact_recorder(
        samples in prop::collection::vec(1u64..10_000_000_000, 1..400),
    ) {
        let mut hist = LogLinearHistogram::new();
        let mut exact = LatencyRecorder::new();
        for &ns in &samples {
            hist.record(ns);
            exact.record(Duration::from_nanos(ns));
        }
        prop_assert_eq!(hist.count(), exact.count());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let approx_ns = hist.quantile(q) as f64;
            let exact_ns = exact.quantile_us(q) * 1_000.0;
            prop_assert!(
                approx_ns <= exact_ns + 1.0,
                "q{q}: approx {approx_ns} above exact {exact_ns}"
            );
            prop_assert!(
                exact_ns <= approx_ns * (1.0 + 1.0 / 16.0) + 1.0,
                "q{q}: approx {approx_ns} more than a sub-bucket below exact {exact_ns}"
            );
        }
    }
}
