//! End-to-end recovery layer: a seeded burst-loss plan must produce RLF
//! events that the RRC re-establishment machinery consumes — pings
//! complete over the recovered link, the detour is visible in the trace,
//! and the closed-form [`stack::RecoveryLatencyModel`] upper-bounds
//! every simulated detour. Plus PDCP SN continuity across
//! re-establishment (proptest) and determinism/baseline-identity of the
//! whole recovery layer.

use bytes::Bytes;
use proptest::prelude::*;
use ran::sched::AccessMode;
use stack::{
    ExperimentResult, GnbStack, PingExperiment, RecoveryLatencyModel, StackConfig, UeStack,
};

const PINGS: u64 = 150;

/// The spans `recover_rlf` adds to the failed leg, in order.
const RECOVERY_SPANS: [&str; 4] =
    ["RLF detect", "RACH re-access", "RRC reestablish", "PDCP recover"];

/// A burst-loss plan harsh enough to exhaust the (reduced) HARQ and RLC
/// budgets: deep fades several slots long, so RLF actually fires.
fn burst_cfg(seed: u64) -> StackConfig {
    let mut cfg = StackConfig::testbed_dddu(AccessMode::GrantFree, true).with_seed(seed);
    cfg.harq_max_tx = 2;
    cfg.rlc_max_retx = 1;
    cfg.faults.channel_burst = Some(sim::GilbertElliott {
        p_enter_bad: 0.25,
        p_exit_bad: 0.5,
        loss_good: 0.05,
        loss_bad: 1.0,
    });
    cfg
}

fn run_with_traces(cfg: StackConfig, n: u64) -> ExperimentResult {
    let mut exp = PingExperiment::new(cfg);
    exp.keep_traces(n as usize);
    exp.run(n)
}

#[test]
fn seeded_burst_plan_recovers_pings_and_shows_the_detour() {
    let cfg = burst_cfg(9);
    let model = RecoveryLatencyModel::from_config(&cfg);
    let res = run_with_traces(cfg, PINGS);

    assert!(!res.rlf.is_empty(), "the plan must force at least one RLF");
    assert!(res.recovered > 0, "at least one ping must complete via re-establishment");
    assert_eq!(res.recovery.count(), res.recovered, "one detour sample per recovery");
    assert_eq!(res.integrity_failures, 0);
    let unrecovered = res.rlf.iter().filter(|ev| !ev.recovered).count() as u64;
    assert_eq!(res.attribution.lost, unrecovered, "only unrecovered RLFs lose the ping");

    // The detour is visible in the recovered ping's trace, with the exact
    // span labels the reporting layer keys on.
    let ev = res.rlf.iter().find(|ev| ev.recovered).expect("a recovered event");
    let trace = res.traces.iter().find(|t| t.id == ev.ping).expect("trace kept");
    let spans = if ev.dl { &trace.dl } else { &trace.ul };
    for label in RECOVERY_SPANS {
        assert!(
            spans.iter().any(|s| s.label.as_str() == label),
            "recovered ping {} is missing the `{label}` span",
            ev.ping
        );
    }

    // The closed form upper-bounds every simulated detour.
    let bound_us = model.worst_case_any().as_micros_f64();
    assert!(res.recovery.count() > 0);
    for &us in res.recovery.samples_us() {
        assert!(us <= bound_us, "simulated detour {us}µs exceeds closed-form {bound_us}µs");
    }
}

#[test]
fn recovered_ping_latency_is_baseline_plus_modeled_detour() {
    let cfg = burst_cfg(9);
    let model = RecoveryLatencyModel::from_config(&cfg);
    let res = run_with_traces(cfg.clone(), PINGS);

    // Fault-free baseline of the identical configuration.
    let mut baseline_cfg = cfg;
    baseline_cfg.faults = sim::FaultPlan::none();
    let mut baseline = PingExperiment::new(baseline_cfg).run(PINGS);

    // Pings that hit exactly one RLF and recovered: their leg latency must
    // decompose into a baseline-class latency plus one recovery detour.
    let mut rlf_count = std::collections::BTreeMap::new();
    for ev in &res.rlf {
        *rlf_count.entry(ev.ping).or_insert(0u32) += 1;
    }
    let singles: Vec<_> =
        res.rlf.iter().filter(|ev| ev.recovered && rlf_count[&ev.ping] == 1).collect();
    assert!(!singles.is_empty(), "the seed must produce single-RLF recoveries");

    let tolerance_us = 1_000.0;
    for ev in &singles {
        let trace = res.traces.iter().find(|t| t.id == ev.ping).expect("trace kept");
        let (spans, base_max_us) = if ev.dl {
            (&trace.dl, baseline.dl_summary().max_us)
        } else {
            (&trace.ul, baseline.ul_summary().max_us)
        };
        let leg_us = (spans.last().unwrap().end - spans.first().unwrap().start).as_micros_f64();
        let detour_us: f64 = spans
            .iter()
            .filter(|s| RECOVERY_SPANS.contains(&s.label.as_str()))
            .map(|s| s.duration().as_micros_f64())
            .sum();
        // The detour itself stays under the modeled worst case…
        assert!(detour_us <= model.worst_case(ev.dl).as_micros_f64());
        // …and what remains after subtracting it is a baseline-class
        // latency plus the wasted (pre-RLF) retransmission time, which the
        // model's redelivery term bounds.
        let wasted_bound_us = if ev.dl {
            (model.redelivery_dl + model.status_exchange_dl).as_micros_f64()
        } else {
            (model.redelivery_ul + model.status_exchange_ul).as_micros_f64()
        };
        let residue_us = leg_us - detour_us;
        assert!(
            residue_us <= base_max_us + wasted_bound_us + tolerance_us,
            "ping {}: leg {leg_us}µs minus detour {detour_us}µs leaves {residue_us}µs, \
             above baseline max {base_max_us}µs + wasted bound {wasted_bound_us}µs",
            ev.ping
        );
        assert!(leg_us >= detour_us, "the leg contains its own detour");
    }
}

#[test]
fn recovery_layer_is_deterministic() {
    let a = run_with_traces(burst_cfg(9), PINGS);
    let b = run_with_traces(burst_cfg(9), PINGS);
    assert_eq!(a.rlf, b.rlf);
    assert_eq!(a.recovered, b.recovered);
    assert_eq!(a.recovery.samples_us(), b.recovery.samples_us());
    assert_eq!(a.rtt.samples_us(), b.rtt.samples_us());
    assert_eq!(a.path_events, b.path_events);
}

#[test]
fn empty_plan_means_zero_recovery_and_baseline_identity() {
    let mut cfg = burst_cfg(9);
    cfg.faults = sim::FaultPlan::none();
    let res = PingExperiment::new(cfg).run(PINGS);
    let baseline =
        PingExperiment::new(StackConfig::testbed_dddu(AccessMode::GrantFree, true).with_seed(9))
            .run(PINGS);
    assert_eq!(res.recovered, 0);
    assert_eq!(res.recovery.count(), 0);
    assert_eq!(res.recovery_failures, 0);
    assert_eq!(res.path_failovers, 0);
    assert!(res.path_events.is_empty());
    assert!(res.rlf.is_empty());
    // Note the harq/rlc budgets differ from the stock testbed preset, so
    // only the fault-free invariants — not the samples — are compared to
    // the untouched baseline here; byte-identity under identical budgets
    // is covered by chaos_determinism.
    assert_eq!(res.attribution.total(), baseline.attribution.total());
    assert!(res.attribution.is_fault_free());
}

fn attach_pair() -> (UeStack, GnbStack) {
    let mut gnb = GnbStack::new();
    gnb.attach_ue(17, 0xABCD, 0x0A00_0001);
    (UeStack::new(17, 0xABCD), gnb)
}

fn payload(i: usize, len: usize) -> Bytes {
    let mut v = format!("sdu {i}:").into_bytes();
    v.resize(v.len() + len, b'a' + (i % 26) as u8);
    Bytes::from(v)
}

proptest! {
    /// PDCP SN continuity across re-establishment, uplink: however many
    /// SDUs were delivered before the loss and however many were in
    /// flight, data recovery redelivers exactly the in-flight ones, in
    /// order, exactly once — and the bearer keeps working afterwards.
    #[test]
    fn pdcp_sn_continuity_across_uplink_reestablishment(
        n_before in 0usize..4,
        n_lost in 1usize..4,
        n_after in 1usize..4,
        len in 1usize..48,
    ) {
        let (mut ue, mut gnb) = attach_pair();
        for i in 0..n_before {
            let p = payload(i, len);
            let mut got = Vec::new();
            for pdu in ue.encode_uplink(&p, 256).unwrap() {
                got.extend(gnb.decode_uplink(17, &pdu).unwrap());
            }
            prop_assert_eq!(got, vec![p]);
        }
        // The in-flight SDUs are encoded but never reach the gNB: RLF.
        let lost: Vec<Bytes> =
            (n_before..n_before + n_lost).map(|i| payload(i, len)).collect();
        for p in &lost {
            let _ = ue.encode_uplink(p, 256).unwrap();
        }
        // Re-establishment: the gNB's PDCP status report drives the UE's
        // data recovery.
        let report = gnb.reestablish_uplink(17).unwrap();
        let mut redelivered = Vec::new();
        for pdu in ue.recover_uplink(&report, 256).unwrap() {
            redelivered.extend(gnb.decode_uplink(17, &pdu).unwrap());
        }
        prop_assert_eq!(redelivered, lost);
        // SN continuity: post-recovery traffic flows unchanged.
        for i in 0..n_after {
            let p = payload(n_before + n_lost + i, len);
            let mut got = Vec::new();
            for pdu in ue.encode_uplink(&p, 256).unwrap() {
                got.extend(gnb.decode_uplink(17, &pdu).unwrap());
            }
            prop_assert_eq!(got, vec![p]);
        }
    }

    /// Same property, downlink direction.
    #[test]
    fn pdcp_sn_continuity_across_downlink_reestablishment(
        n_before in 0usize..4,
        n_lost in 1usize..4,
        n_after in 1usize..4,
        len in 1usize..48,
    ) {
        let (mut ue, mut gnb) = attach_pair();
        for i in 0..n_before {
            let p = payload(i, len);
            let (_, pdus) = gnb.encode_downlink(0x0A00_0001, &p, 256).unwrap();
            let got: Vec<Bytes> =
                pdus.iter().flat_map(|x| ue.decode_downlink(x).unwrap()).collect();
            prop_assert_eq!(got, vec![p]);
        }
        let lost: Vec<Bytes> =
            (n_before..n_before + n_lost).map(|i| payload(i, len)).collect();
        for p in &lost {
            let _ = gnb.encode_downlink(0x0A00_0001, p, 256).unwrap();
        }
        let report = ue.reestablish_downlink();
        let redelivered: Vec<Bytes> = gnb
            .recover_downlink(17, &report, 256)
            .unwrap()
            .iter()
            .flat_map(|x| ue.decode_downlink(x).unwrap())
            .collect();
        prop_assert_eq!(redelivered, lost);
        for i in 0..n_after {
            let p = payload(n_before + n_lost + i, len);
            let (_, pdus) = gnb.encode_downlink(0x0A00_0001, &p, 256).unwrap();
            let got: Vec<Bytes> =
                pdus.iter().flat_map(|x| ue.decode_downlink(x).unwrap()).collect();
            prop_assert_eq!(got, vec![p]);
        }
    }
}
