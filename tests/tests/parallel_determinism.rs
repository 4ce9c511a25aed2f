//! The parallel sweep engine's determinism contract, plus the hardening
//! regressions that ride along with it.
//!
//! The worker count (`--jobs`, `URLLC_JOBS`, `sim::parallel::set_jobs`) is
//! a performance knob only: every sweep in the workspace must produce
//! bit-identical results at 1, 2 and 8 workers. These tests hold that
//! line for the stack ping experiment (the heaviest consumer, via
//! per-batch RNG reseeding) and for the analytic sweeps (margin, design,
//! slot formats, scalability), and add property tests for the RLC UM
//! `so`-hardening and the empty-recorder summary path.

use bytes::Bytes;
use proptest::prelude::*;
use ran::rlc::{RlcError, RlcUmEntity};
use ran::sched::AccessMode;
use sim::{Duration, LatencyRecorder};
use stack::{run_parallel_workers, ExperimentResult, StackConfig, BATCH_PINGS};

/// Everything observable about an experiment result, for byte-identity
/// comparisons across worker counts.
#[allow(clippy::type_complexity)]
fn signature(
    res: &ExperimentResult,
) -> (Vec<f64>, Vec<f64>, Vec<f64>, [u64; 6], [u64; 3], Vec<u64>, Vec<u64>) {
    (
        res.rtt.samples_us().to_vec(),
        res.ul.samples_us().to_vec(),
        res.dl.samples_us().to_vec(),
        [
            res.harq_retx,
            res.sr_retx,
            res.recovered,
            res.recovery_failures,
            res.grants_withheld,
            res.integrity_failures,
        ],
        [res.attribution.on_time, res.attribution.late, res.attribution.lost],
        res.rlf.iter().map(|ev| ev.ping).collect(),
        res.traces.iter().map(|t| t.id).collect(),
    )
}

#[test]
fn repro_subcommand_configs_are_worker_count_invariant() {
    // The stack configs behind repro's simulation subcommands (table2,
    // fig6, harq, chaos, recovery) — each run across several shard
    // boundaries at 1 vs 2 vs 8 workers.
    let mut harq_cfg = StackConfig::testbed_dddu(AccessMode::GrantFree, true).with_seed(13);
    harq_cfg.link = Some(channel::Fr1LinkConfig::cell_edge());
    let mut recovery_cfg = StackConfig::testbed_dddu(AccessMode::GrantFree, true).with_seed(9);
    recovery_cfg.harq_max_tx = 2;
    recovery_cfg.rlc_max_retx = 1;
    recovery_cfg.faults.channel_burst = Some(sim::GilbertElliott {
        p_enter_bad: 0.25,
        p_exit_bad: 0.5,
        loss_good: 0.05,
        loss_bad: 1.0,
    });
    let configs = [
        ("table2", StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(42)),
        ("fig6-gf", StackConfig::testbed_dddu(AccessMode::GrantFree, true).with_seed(6)),
        (
            "chaos",
            StackConfig::testbed_dddu(AccessMode::GrantBased, true)
                .with_seed(6)
                .with_faults(sim::FaultPlan::chaos(0.4)),
        ),
        ("harq", harq_cfg),
        ("recovery", recovery_cfg),
    ];
    let n = BATCH_PINGS + 33; // two shards, one partial
    for (name, cfg) in &configs {
        let seq = signature(&run_parallel_workers(cfg, n, 5, None, 1));
        for workers in [2, 8] {
            let par = signature(&run_parallel_workers(cfg, n, 5, None, workers));
            assert_eq!(seq, par, "{name} diverged at {workers} workers");
        }
    }
}

#[test]
fn analytic_sweeps_are_worker_count_invariant() {
    // margin_sweep / format_survey / DesignSearch / scalability_sweep all
    // shard through the process-wide pool: pin the worker count and demand
    // identical output. (Concurrent tests may also sweep while the global
    // is pinned — harmless, since worker count never changes results.)
    let run_all = || {
        let margins: Vec<Duration> = (1..=8).map(|i| Duration::from_micros(i * 100)).collect();
        let rel = radio::reliability::margin_sweep(
            &radio::RadioHeadConfig::usrp_b210(true),
            Duration::from_micros(100),
            5_760,
            &margins,
            2_000,
            8,
        );
        let fmts: Vec<(u8, bool, [Option<Duration>; 3])> =
            urllc_core::format_survey(&urllc_core::model::ProcessingBudget::zero())
                .iter()
                .map(|v| (v.index, v.all_feasible, v.worst))
                .collect();
        let design: Vec<(&str, bool, bool, Duration)> = urllc_core::DesignSearch::run()
            .points
            .iter()
            .map(|p| (p.pattern, p.grant_free, p.verdict.feasible, p.verdict.worst_ul))
            .collect();
        let scale: Vec<(sim::Recording, Option<f64>)> =
            stack::scalability_sweep(AccessMode::GrantFree, &[1, 8, 32], 11)
                .expect("sweep converges")
                .iter()
                .map(|r| (r.ul.clone(), r.wasted_fraction))
                .collect();
        (rel, fmts, design, scale)
    };
    sim::parallel::set_jobs(1);
    let seq = run_all();
    for jobs in [2, 8] {
        sim::parallel::set_jobs(jobs);
        assert_eq!(run_all(), seq, "sweeps diverged at {jobs} jobs");
    }
    sim::parallel::set_jobs(0); // restore auto-detection
}

#[test]
fn empty_recorder_summary_is_zero_not_panic() {
    // Regression: a zero-delivery chaos run reports through summary() /
    // try_quantile_us without panicking.
    let mut rec = LatencyRecorder::default();
    assert_eq!(rec.try_quantile_us(0.5), None);
    assert_eq!(rec.fraction_within(Duration::from_millis(1)), 0.0);
    let s = rec.summary();
    assert_eq!(s.count, 0);
    assert_eq!(s.p99_us, 0.0);
}

/// Segments `sdu` into UM PDUs under `grant`.
fn segmented(sdu: &Bytes, grant: usize) -> Vec<Bytes> {
    let mut tx = RlcUmEntity::new();
    tx.tx_sdu(sdu.clone());
    let mut pdus = Vec::new();
    while let Some(p) = tx.pull_pdu(grant).expect("grant carries payload") {
        pdus.push(p);
    }
    pdus
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // A corrupted segment offset must never assemble a wrong SDU: either
    // the PDU is rejected with the typed mismatch error, or everything the
    // receiver delivers is byte-identical to the original.
    #[test]
    fn um_reassembly_never_delivers_a_wrong_sdu(
        len in 30usize..300,
        grant in 8usize..64,
        victim in any::<prop::sample::Index>(),
        bad_so in any::<u16>(),
    ) {
        // A payload whose bytes differ under any nonzero shift, so a
        // misplaced-but-accepted segment could only be content-identical.
        let sdu = Bytes::from((0..len).map(|i| (i.wrapping_mul(31) % 251) as u8).collect::<Vec<u8>>());
        let pdus = segmented(&sdu, grant);
        if pdus.len() < 3 {
            return Ok(()); // need a middle/last segment to corrupt
        }
        let victim = 1 + victim.index(pdus.len() - 1); // pdus[1..] carry an SO field
        let mut rx = RlcUmEntity::new();
        let mut delivered = Vec::new();
        let mut mismatched = false;
        for (i, p) in pdus.iter().enumerate() {
            let p = if i == victim {
                let mut bad = p.to_vec();
                bad[1..3].copy_from_slice(&bad_so.to_be_bytes());
                Bytes::from(bad)
            } else {
                p.clone()
            };
            match rx.rx_pdu(&p) {
                Ok(done) => delivered.extend(done),
                Err(RlcError::SegmentMismatch { .. }) => mismatched = true,
                Err(e) => {
                    return Err(proptest::test_runner::TestCaseError::fail(format!(
                        "unexpected error {e:?}"
                    )))
                }
            }
        }
        for d in &delivered {
            prop_assert_eq!(d, &sdu, "assembled SDU differs from the original");
        }
        if mismatched {
            prop_assert!(rx.dropped_incomplete() >= 1, "mismatch must count as a loss");
        }
    }

    // Exact duplicates (MAC retransmissions) are benign: one copy of the
    // SDU comes out, nothing is counted as corrupted.
    #[test]
    fn um_reassembly_tolerates_exact_duplicates(
        len in 30usize..300,
        grant in 8usize..64,
        dup in any::<prop::sample::Index>(),
    ) {
        let sdu = Bytes::from((0..len).map(|i| (i.wrapping_mul(17) % 253) as u8).collect::<Vec<u8>>());
        let pdus = segmented(&sdu, grant);
        if pdus.len() < 2 {
            return Ok(());
        }
        let dup = dup.index(pdus.len());
        let mut rx = RlcUmEntity::new();
        let mut delivered = Vec::new();
        for (i, p) in pdus.iter().enumerate() {
            delivered.extend(rx.rx_pdu(p).expect("honest segment accepted"));
            if i == dup && delivered.is_empty() {
                delivered.extend(rx.rx_pdu(p).expect("exact duplicate accepted"));
            }
        }
        prop_assert_eq!(delivered, vec![sdu]);
        prop_assert_eq!(rx.dropped_incomplete(), 0);
    }

}

proptest! {
    // Fewer cases: each runs the full stack twice across a shard boundary.
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The stack experiment itself: a fresh config at any seed produces the
    // same samples, counters and traces at 1 worker and at many.
    #[test]
    fn stack_parallel_matches_sequential(
        seed in 0u64..512,
        extra in 1u64..48,
        workers in 2usize..9,
    ) {
        let cfg = StackConfig::testbed_dddu(AccessMode::GrantBased, true)
            .with_seed(seed)
            .with_faults(sim::FaultPlan::chaos(0.2));
        let n = BATCH_PINGS + extra; // spans a shard boundary
        let seq = run_parallel_workers(&cfg, n, 3, None, 1);
        let par = run_parallel_workers(&cfg, n, 3, None, workers);
        prop_assert_eq!(signature(&seq), signature(&par));
    }
}
