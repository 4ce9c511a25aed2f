//! Golden-equivalence suite for the hop pipeline.
//!
//! The golden file under `tests/golden/` was rendered from the seed
//! monolithic `ping_flow` walk *before* the event-driven refactor; these
//! tests assert the pipeline reproduces every per-ping `PingTrace` span
//! (label + start + end, to the nanosecond) for the Table 2 configurations
//! plus the fault/recovery regimes that exercise the detour hops.
//!
//! Regenerate (only when intentionally changing journey semantics) with:
//! `UPDATE_GOLDEN=1 cargo test -p urllc-integration --test golden_pipeline`

use ran::sched::AccessMode;
use stack::{PingExperiment, PingTrace, StackConfig};

/// Pings rendered per configuration — enough to cover SR retries, withheld
/// grants, HARQ/RLC escalation and full RLF recovery detours.
const PINGS: u64 = 40;

/// The configurations pinned against the seed monolith: the Table 2
/// testbed in both access modes, the chaos fault plan, and the
/// recovery-forcing burst plan.
fn seed_configs() -> Vec<(&'static str, StackConfig)> {
    let mut recovery = StackConfig::testbed_dddu(AccessMode::GrantFree, true).with_seed(9);
    recovery.harq_max_tx = 2;
    recovery.rlc_max_retx = 1;
    recovery.faults.channel_burst = Some(sim::GilbertElliott {
        p_enter_bad: 0.25,
        p_exit_bad: 0.5,
        loss_good: 0.05,
        loss_bad: 1.0,
    });
    vec![
        (
            "table2-grant-based",
            StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(42),
        ),
        ("table2-grant-free", StackConfig::testbed_dddu(AccessMode::GrantFree, true).with_seed(42)),
        (
            "chaos-grant-based",
            StackConfig::testbed_dddu(AccessMode::GrantBased, true)
                .with_seed(6)
                .with_faults(sim::FaultPlan::chaos(0.2)),
        ),
        ("recovery-burst", recovery),
    ]
}

/// Walk exits the seed sections never reach, pinned from the event-driven
/// pipeline itself: scheduler starvation (`MAX_SCHED_ROUNDS` → lost to
/// `GrantWithheld`), sr-TransMax exhaustion (→ RACH fallback), and a payload
/// larger than a slot (→ the multi-PDU loops on both legs). These sections
/// also carry a `ledger` line, because a lost ping shows only in counters.
fn exit_configs() -> Vec<(&'static str, StackConfig)> {
    let mut starved = StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(11);
    starved.faults.grant_withhold = Some(sim::LossGate { prob: 1.0 });
    let mut sr_exhausted = StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(12);
    sr_exhausted.faults.sr_loss = Some(sim::LossGate { prob: 1.0 });
    let mut segmented = StackConfig::testbed_dddu(AccessMode::GrantBased, true).with_seed(13);
    segmented.payload_bytes = 1500; // > one slot: the grant is capped at slot capacity
    vec![
        ("grant-starvation", starved),
        ("sr-exhaustion-rach", sr_exhausted),
        ("multi-pdu-segmentation", segmented),
    ]
}

/// [`seed_configs`] then [`exit_configs`], in golden-file order.
fn golden_configs() -> Vec<(&'static str, StackConfig, bool)> {
    let seed = seed_configs().into_iter().map(|(name, cfg)| (name, cfg, false));
    seed.chain(exit_configs().into_iter().map(|(name, cfg)| (name, cfg, true))).collect()
}

fn render_trace(t: &PingTrace) -> String {
    let mut out = String::new();
    out.push_str(&format!("ping {}\n", t.id));
    for (side, spans) in [("ul", &t.ul), ("dl", &t.dl)] {
        for s in spans {
            out.push_str(&format!(
                "  {side} {} {} {}\n",
                s.label,
                s.start.as_nanos(),
                s.end.as_nanos()
            ));
        }
    }
    out
}

fn render_all() -> String {
    let mut out = String::new();
    for (name, cfg, ledger) in golden_configs() {
        out.push_str(&format!("== {name} ==\n"));
        let mut exp = PingExperiment::new(cfg);
        exp.keep_traces(PINGS as usize);
        let res = exp.run(PINGS);
        for t in &res.traces {
            out.push_str(&render_trace(t));
        }
        if ledger {
            out.push_str(&format!(
                "ledger delivered={} sr_retx={} rach_recoveries={} grants_withheld={} \
                 missed_grants={} integrity_failures={} {:?}\n",
                res.rtt.count(),
                res.sr_retx,
                res.rach_recoveries,
                res.grants_withheld,
                res.missed_grants,
                res.integrity_failures,
                res.attribution,
            ));
        }
    }
    out
}

#[test]
fn pipeline_reproduces_seed_monolith_traces() {
    let got = render_all();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/ping_traces.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden file present");
    assert_eq!(
        got, want,
        "hop walk diverged from the seed monolith's per-ping spans \
         (run with UPDATE_GOLDEN=1 only for an intentional semantic change)"
    );
}
