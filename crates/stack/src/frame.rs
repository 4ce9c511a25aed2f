//! The slot frame: the one slot clock under the open-loop engines (DESIGN
//! §12). A gNB decides only at slot starts, so between two boundaries an
//! engine only collects what arrived. One walk per service semantics (§16):
//!
//! * [`serve_classes`] (`multicell`, `overload`) admits an arrival exactly
//!   on a DL `tx_start` to that slot (`<=`): the engine serves it there;
//! * [`serve_packets`] (`schedlab`, `coexistence`, `multi_ue`) leaves a
//!   request ready exactly on a slot start to the next boundary (`<`): the
//!   `Scheduler` round at slot `k` takes what was ready before its start.
//!
//! Both are generic over the engine's closures and sources, so each
//! monomorphises into its engine's own loop: no boxing, no dynamic calls.

use std::collections::{BTreeMap, VecDeque};
use std::iter::Peekable;

use phy::duplex::{Duplex, TxOpportunity};
use ran::sched::{Rnti, Scheduler, SlotDecision};
use sim::Instant;

/// Pattern periods a per-class walk may run past the horizon to drain its
/// queues. A wedged engine surfaces as work still queued, not a hang.
const DRAIN_PERIODS: u64 = 4096;

/// How a per-class walk ended.
pub(crate) struct Walk {
    /// The last served slot's `tx_start`: where the engine reconciles.
    pub(crate) end: Instant,
    /// Sources with an arrival to come at the start (their peak count).
    pub(crate) armed: usize,
}

/// The per-class walk: at each DL `tx_start` from `next_dl_opportunity(0)`
/// every source in turn `admit`s its arrivals due by then (none at or past
/// `horizon`), then the engine `serve`s the slot. It steps on while a
/// source has an arrival to come or the engine has `work_left`, for at most
/// [`DRAIN_PERIODS`] pattern periods past the horizon.
pub(crate) fn serve_classes<S, I: Iterator<Item = Instant>>(
    duplex: &Duplex,
    horizon: Instant,
    sources: &mut [Peekable<I>],
    engine: &mut S,
    mut admit: impl FnMut(&mut S, usize, Instant),
    mut serve: impl FnMut(&mut S, Instant),
    work_left: impl Fn(&S) -> bool,
) -> Walk {
    let drain_limit = horizon + duplex.pattern_period() * DRAIN_PERIODS;
    let armed = |s: &mut Peekable<I>| s.peek().is_some_and(|&t| t < horizon);
    let armed_at_start = sources.iter_mut().map(armed).filter(|&a| a).count();
    let mut op = duplex.next_dl_opportunity(Instant::ZERO);
    loop {
        let now = op.tx_start;
        // Between two slot starts a source only appends to its own queues,
        // so each catches up to the boundary on its own.
        for (i, source) in sources.iter_mut().enumerate() {
            while let Some(at) = source.next_if(|&t| t <= now && t < horizon) {
                admit(engine, i, at);
            }
        }
        serve(engine, now);
        op = duplex.next_dl_opportunity(duplex.slot_start(op.slot + 1));
        if !(sources.iter_mut().any(armed) || work_left(engine)) || op.tx_start > drain_limit {
            return Walk { end: now, armed: armed_at_start };
        }
    }
}

/// The per-packet walk over `(ready, rnti, arrival)` requests in ready
/// order: one round at each boundary `slot_index_at(ready) + 1` that holds
/// a request, after `submit`ting every request due by it. Each decision (DL
/// assignment or UL grant) goes to `served` with its RNTI's oldest
/// undecided arrival — exact for an engine that submits one kind, since
/// every policy is seq-stable. A decision with none stops the walk with
/// its RNTI.
pub(crate) fn serve_packets(
    sched: &mut Scheduler,
    requests: impl IntoIterator<Item = (Instant, Rnti, Instant)>,
    mut submit: impl FnMut(&mut Scheduler, Rnti, Instant),
    mut served: impl FnMut(Rnti, TxOpportunity, Instant),
) -> Result<(), Rnti> {
    let mut requests = requests.into_iter().peekable();
    let mut undecided: BTreeMap<Rnti, VecDeque<Instant>> = BTreeMap::new();
    let mut decision = SlotDecision::default();
    while let Some(&(ready, ..)) = requests.peek() {
        let duplex = &sched.config().duplex;
        let boundary = duplex.slot_index_at(ready) + 1;
        let start = duplex.slot_start(boundary);
        while let Some((ready, rnti, arrival)) = requests.next_if(|&(t, ..)| t < start) {
            undecided.entry(rnti).or_default().push_back(arrival);
            submit(sched, rnti, ready);
        }
        sched.run_slot_into(boundary, &mut decision);
        let dl = decision.dl_assignments.iter().map(|a| (a.rnti, a.dl));
        for (rnti, op) in dl.chain(decision.ul_grants.iter().map(|g| (g.rnti, g.ul))) {
            let arrival = undecided.get_mut(&rnti).and_then(VecDeque::pop_front).ok_or(rnti)?;
            served(rnti, op, arrival);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use phy::numerology::Numerology;
    use phy::tdd::TddConfig;
    use ran::sched::{AccessMode, SchedulerConfig};
    use sim::Duration;
    use std::cell::RefCell;

    fn at(ns: u64) -> Instant {
        Instant::ZERO + Duration::from_nanos(ns)
    }

    /// What the per-class walk asked of an engine that holds `backlog`
    /// slots of work after its last arrival.
    #[derive(Default)]
    struct Log {
        admitted: Vec<(usize, Instant)>,
        served: Vec<Instant>,
        backlog: u64,
    }

    fn walk(horizon: Instant, sources: &[&[Instant]], log: &mut Log) -> Walk {
        let mut sources: Vec<_> = sources.iter().map(|s| s.iter().copied().peekable()).collect();
        serve_classes(
            &Duplex::Tdd(TddConfig::dddu_testbed()),
            horizon,
            &mut sources,
            log,
            |log, source, at| log.admitted.push((source, at)),
            |log, now| {
                log.served.push(now);
                log.backlog = log.backlog.saturating_sub(1);
            },
            |log| log.backlog > 0,
        )
    }

    /// The DDDU testbed's slot, in ns: DL slots start at 0, 1, 2, 4, 5, …
    /// slots, the U slot 3 is skipped.
    fn slot() -> u64 {
        TddConfig::dddu_testbed().numerology().slot_duration().as_nanos()
    }

    #[test]
    fn a_slot_admits_what_is_due_by_its_start_and_the_horizon_silences_a_source() {
        let slot = slot();
        let a: &[Instant] = &[at(slot - 1), at(slot), at(slot + 1), at(3 * slot), at(4 * slot)];
        let b: &[Instant] = &[at(0), at(slot)];
        // Source `c` starts at the horizon: never armed.
        let c: &[Instant] = &[at(4 * slot), at(4 * slot + 1)];
        let mut log = Log::default();
        let w = walk(at(4 * slot), &[a, b, c], &mut log);
        // Due means `<=`: the arrival on slot 1's start is slot 1's; each
        // source catches up in turn, oldest first; the one on the horizon
        // is never offered.
        let admitted = [
            (1, at(0)),
            (0, at(slot - 1)),
            (0, at(slot)),
            (1, at(slot)),
            (0, at(slot + 1)),
            (0, at(3 * slot)),
        ];
        assert_eq!(log.admitted, admitted);
        assert_eq!(log.served, [at(0), at(slot), at(2 * slot), at(4 * slot)]);
        // Then every source is silent and no work is left: the walk ends
        // at the slot that admitted the last arrival. Two of the three
        // sources had an arrival to come at the start.
        assert_eq!((w.end, w.armed), (at(4 * slot), 2));
    }

    #[test]
    fn work_left_keeps_the_walk_going_past_the_last_arrival_until_the_drain_limit() {
        let slot = slot();
        let horizon = at(slot);
        // Three slots of backlog: served at 0, 1 and 2 slots.
        let mut log = Log { backlog: 3, ..Log::default() };
        let w = walk(horizon, &[&[]], &mut log);
        assert_eq!((w.end, log.served.len(), w.armed), (at(2 * slot), 3, 0));
        // Endless work stops at the last DL slot within the drain limit,
        // a D slot `DRAIN_PERIODS` patterns of D D D U after the horizon.
        let mut log = Log { backlog: u64::MAX, ..Log::default() };
        let w = walk(horizon, &[&[]], &mut log);
        assert_eq!(w.end, horizon + Duration::from_nanos(4 * slot) * DRAIN_PERIODS);
        assert_eq!(log.served.len() as u64, 3 * DRAIN_PERIODS + 2);
    }

    #[derive(Debug, PartialEq)]
    enum Step {
        Submit(Rnti),
        /// RNTI, on-air instant, the arrival it was matched to.
        Served(Rnti, Instant, Instant),
    }

    /// FDD with zero lead: every slot is DL, so the round at boundary `k`
    /// puts what it decides on the air at `slot_start(k)`. `copies` DL
    /// requests reach the scheduler per submitted one.
    fn steps(requests: &[(Instant, Rnti)], copies: usize) -> (Vec<Step>, Result<(), Rnti>) {
        let duplex = Duplex::Fdd { numerology: Numerology::Mu1 };
        let mut sched = Scheduler::new(SchedulerConfig::ideal(duplex, AccessMode::GrantFree));
        let log = RefCell::new(Vec::new());
        let outcome = serve_packets(
            &mut sched,
            requests.iter().map(|&(t, rnti)| (t, rnti, t)),
            |sched, rnti, ready| {
                for _ in 0..copies {
                    sched.on_dl_data(rnti, 100, ready);
                }
                log.borrow_mut().push(Step::Submit(rnti));
            },
            |rnti, op, arrival| log.borrow_mut().push(Step::Served(rnti, op.tx_start, arrival)),
        );
        (log.into_inner(), outcome)
    }

    fn fdd_slot() -> u64 {
        Numerology::Mu1.slot_duration().as_nanos()
    }

    #[test]
    fn a_request_on_a_slot_start_is_decided_at_the_next_boundary() {
        let slot = fdd_slot();
        // Ready 1 ns before slot 3's start: slot 3's round decides it.
        // Ready on it: `take_ready`'s `<` leaves it to slot 4's round.
        let (early, on) = (at(3 * slot - 1), at(3 * slot));
        let (log, outcome) = steps(&[(early, 7), (on, 8)], 1);
        use Step::*;
        let third = Served(7, at(3 * slot), early);
        assert_eq!(log, [Submit(7), third, Submit(8), Served(8, at(4 * slot), on)]);
        assert_eq!(outcome, Ok(()));
    }

    #[test]
    fn one_round_per_boundary_in_the_callers_order_oldest_arrival_first() {
        let slot = fdd_slot();
        let (t, u, v) = (at(slot / 2), at(slot - 1), at(5 * slot + 1));
        // Two boundaries hold requests, so two rounds run. FCFS keeps the
        // caller's order among equal instants (seq), and each decision is
        // matched to its RNTI's oldest undecided arrival.
        let (log, _) = steps(&[(t, 9), (t, 2), (u, 9), (v, 4), (v, 1)], 1);
        let (first, sixth) = (at(slot), at(6 * slot));
        use Step::*;
        let expect = [Submit(9), Submit(2), Submit(9), Served(9, first, t), Served(2, first, t)];
        assert_eq!(log[..5], expect);
        let expect = [Served(9, first, u), Submit(4), Submit(1), Served(4, sixth, v)];
        assert_eq!(log[5..9], expect);
        assert_eq!(log[9..], [Served(1, sixth, v)]);
    }

    #[test]
    fn a_decision_with_no_undecided_request_stops_the_walk() {
        // Each request reaches the scheduler twice: its second assignment
        // matches nothing, and the rounds after it never run.
        let slot = fdd_slot();
        let (log, outcome) = steps(&[(at(0), 3), (at(2 * slot), 4)], 2);
        assert_eq!(log, [Step::Submit(3), Step::Served(3, at(slot), at(0))]);
        assert_eq!(outcome, Err(3));
    }
}
