//! Property-based tests over the scheduling-policy layer
//! ([`ran::sched::Policy`]): random tagged traces through every
//! policy must conserve slot capacity, honor the scheduling lead, serve
//! every request, and — for equal-size transport blocks — EDF must meet at
//! least as many deadlines as any arrival-order policy.

use phy::duplex::Duplex;
use phy::TddConfig;
use proptest::prelude::*;
use ran::sched::{
    AccessMode, PolicySpec, RequestTag, Scheduler, SchedulerConfig, Slice, SliceShares,
    SlotDecision,
};
use sim::Instant;
use std::collections::BTreeMap;

/// One generated request: (arrival ns, bytes, priority, deadline offset ns,
/// slice index).
type TraceItem = (u64, usize, u8, Option<u64>, u8);

/// Elastic background for the preemptive specs — small enough that the
/// largest generated non-preempting request still fits beside it.
const BACKGROUND: usize = 4096;

/// Every policy the laboratory ships.
fn all_specs() -> Vec<PolicySpec> {
    vec![
        PolicySpec::Fcfs,
        PolicySpec::NonPreemptivePriority,
        PolicySpec::PreemptivePriority { dl_background: BACKGROUND },
        PolicySpec::RoundRobin,
        PolicySpec::EarliestDeadlineFirst,
        PolicySpec::HybridEdfPreemptive { dl_background: BACKGROUND },
        PolicySpec::SliceAware(SliceShares::even()),
    ]
}

fn testbed_config(spec: PolicySpec) -> SchedulerConfig {
    SchedulerConfig::testbed(Duplex::Tdd(TddConfig::dddu_testbed()), AccessMode::GrantBased)
        .with_policy(spec)
}

fn slice_of(idx: u8) -> Slice {
    match idx {
        0 => Slice::Urllc,
        1 => Slice::Embb,
        _ => Slice::Mmtc,
    }
}

fn tag_of(item: &TraceItem) -> RequestTag {
    let (t, _, priority, deadline, slice) = *item;
    RequestTag {
        priority,
        deadline: deadline.map(|d| Instant::from_nanos(t + d)),
        slice: slice_of(slice),
    }
}

/// Feeds the whole trace (DL data tagged by trace index as RNTI, plus an SR
/// per item), then runs scheduling rounds until past the last arrival.
/// Returns each round's boundary instant with its decision.
fn run_trace(spec: PolicySpec, trace: &[TraceItem]) -> Vec<(Instant, SlotDecision)> {
    let config = testbed_config(spec);
    let duplex = config.duplex.clone();
    let mut sched = Scheduler::new(config);
    let mut last = Instant::ZERO;
    for (i, item) in trace.iter().enumerate() {
        let t = Instant::from_nanos(item.0);
        sched.on_dl_data_tagged(i as u16, item.1, t, tag_of(item));
        sched.on_sr(i as u16, t);
        last = last.max(t);
    }
    // Every request ready strictly before a boundary is served in that
    // round, so two slots past the last arrival drains everything.
    let end = duplex.slot_index_at(last) + 2;
    let mut rounds = Vec::new();
    for slot in 1..=end {
        let now = duplex.slot_start(slot);
        rounds.push((now, sched.run_slot(slot)));
    }
    assert_eq!(sched.backlog(), (0, 0), "policy {spec:?} left requests unserved");
    rounds
}

/// Trace generator: bursty arrivals over ~3 ms, request sizes well under
/// the slot capacity (and under every even-share slice budget), three
/// priority classes, optional deadlines, three slices.
fn traces() -> impl Strategy<Value = Vec<TraceItem>> {
    prop::collection::vec(
        (0u64..3_000_000, 1usize..=512, 0u8..3, prop::option::of(1u64..5_000_000), 0u8..3),
        1..40,
    )
}

/// Equal-size trace for the EDF comparison: the exchange argument behind
/// EDF's optimality only holds when every transport block is the same size
/// (first-fit then fills the same slot positions under any ordering).
fn equal_size_traces() -> impl Strategy<Value = Vec<TraceItem>> {
    prop::collection::vec(
        (0u64..3_000_000, Just(256usize), Just(0u8), (1u64..5_000_000).prop_map(Some), Just(0u8)),
        1..40,
    )
}

/// Deadlines met on a trace: completion proxy is the assignment's
/// transmission start (the same criterion for every policy under
/// comparison, so the counts are commensurable).
fn deadlines_met(spec: PolicySpec, trace: &[TraceItem]) -> usize {
    run_trace(spec, trace)
        .iter()
        .flat_map(|(_, d)| &d.dl_assignments)
        .filter(|a| {
            let (t, _, _, deadline, _) = trace[a.rnti as usize];
            deadline.is_some_and(|d| a.dl.tx_start <= Instant::from_nanos(t + d))
        })
        .count()
}

proptest! {
    /// Capacity conservation, for every policy: per DL slot, the
    /// non-preemptible (hard) bytes fit the slot, and the preemptible
    /// (soft) bytes fit beside the elastic background — puncturing only
    /// ever erases background/soft bytes, it never oversubscribes the air
    /// interface. Slice-aware policies additionally keep every (slot,
    /// slice) sum within that slice's budget.
    #[test]
    fn every_policy_conserves_slot_capacity(trace in traces()) {
        for spec in all_specs() {
            let policy = spec.build();
            let cap = testbed_config(spec).dl_slot_capacity;
            let mut hard: BTreeMap<u64, usize> = BTreeMap::new();
            let mut soft: BTreeMap<u64, usize> = BTreeMap::new();
            let mut per_slice: BTreeMap<(u64, u8), usize> = BTreeMap::new();
            for (_, decision) in run_trace(spec, &trace) {
                for a in &decision.dl_assignments {
                    let tag = tag_of(&trace[a.rnti as usize]);
                    if policy.preempts(&tag) {
                        *hard.entry(a.dl.slot).or_insert(0) += a.bytes;
                    } else {
                        *soft.entry(a.dl.slot).or_insert(0) += a.bytes;
                    }
                    *per_slice.entry((a.dl.slot, tag.slice.rank())).or_insert(0) += a.bytes;
                }
            }
            for (&slot, &bytes) in &hard {
                prop_assert!(bytes <= cap, "{spec:?}: slot {slot} hard bytes {bytes} > {cap}");
            }
            for (&slot, &bytes) in &soft {
                prop_assert!(
                    bytes + policy.dl_background() <= cap,
                    "{spec:?}: slot {slot} soft bytes {bytes} + background \
                     {} > {cap}", policy.dl_background()
                );
            }
            if policy.slices() {
                let duplex = Duplex::Tdd(TddConfig::dddu_testbed());
                for (&(slot, rank), &bytes) in &per_slice {
                    let slice = slice_of(rank);
                    let budget = policy.slice_budget(slice, duplex.slot_start(slot), cap);
                    prop_assert!(
                        bytes <= budget,
                        "{spec:?}: slot {slot} slice {} bytes {bytes} > budget {budget}",
                        slice.label()
                    );
                }
            }
        }
    }

    /// The scheduling lead is a hard floor, for every policy: no data
    /// transmission starts before `now + lead`, no grant DCI before
    /// `now + control_lead`, and no granted UL transmission before the UE
    /// has had `ue_grant_processing` after the grant.
    #[test]
    fn no_policy_schedules_before_the_lead(trace in traces()) {
        for spec in all_specs() {
            let config = testbed_config(spec);
            for (now, decision) in run_trace(spec, &trace) {
                for a in &decision.dl_assignments {
                    prop_assert!(
                        a.dl.tx_start >= now + config.lead,
                        "{spec:?}: DL tx at {:?} beats lead {:?} past {now:?}",
                        a.dl.tx_start, config.lead
                    );
                }
                for g in &decision.ul_grants {
                    prop_assert!(g.grant_tx >= now + config.control_lead);
                    prop_assert!(
                        g.ul.tx_start >= g.grant_tx + config.ue_grant_processing,
                        "{spec:?}: UL tx at {:?} beats UE processing after grant at {:?}",
                        g.ul.tx_start, g.grant_tx
                    );
                }
            }
        }
    }

    /// Work conservation: every policy serves the whole trace exactly once
    /// (one DL assignment and one UL grant per request, each with the
    /// requested size).
    #[test]
    fn every_policy_serves_each_request_exactly_once(trace in traces()) {
        for spec in all_specs() {
            let rounds = run_trace(spec, &trace);
            let mut dl_seen = vec![0usize; trace.len()];
            let mut ul_seen = vec![0usize; trace.len()];
            for (_, decision) in &rounds {
                for a in &decision.dl_assignments {
                    dl_seen[a.rnti as usize] += 1;
                    prop_assert_eq!(a.bytes, trace[a.rnti as usize].1);
                }
                for g in &decision.ul_grants {
                    ul_seen[g.rnti as usize] += 1;
                }
            }
            prop_assert!(dl_seen.iter().all(|&n| n == 1), "{spec:?}: {dl_seen:?}");
            prop_assert!(ul_seen.iter().all(|&n| n == 1), "{spec:?}: {ul_seen:?}");
        }
    }

    /// EDF optimality on equal-size transport blocks: with every TB the
    /// same size, first-fit fills the same slot positions whatever the
    /// ordering, and assigning the earliest position to the earliest
    /// deadline (EDF) maximizes the number of deadlines met — so EDF never
    /// meets fewer deadlines than FCFS (or any other arrival-order
    /// policy) on the same trace.
    #[test]
    fn edf_meets_no_fewer_deadlines_than_fcfs(trace in equal_size_traces()) {
        let edf = deadlines_met(PolicySpec::EarliestDeadlineFirst, &trace);
        for spec in [PolicySpec::Fcfs, PolicySpec::NonPreemptivePriority, PolicySpec::RoundRobin] {
            let other = deadlines_met(spec, &trace);
            prop_assert!(
                edf >= other,
                "EDF met {edf} deadlines but {spec:?} met {other} on {trace:?}"
            );
        }
    }
}
