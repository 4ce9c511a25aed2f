//! Deterministic future-event queue.
//!
//! The queue is a binary heap keyed on `(time, priority, sequence)`, where
//! `sequence` is a monotonically increasing insertion counter. The counter
//! guarantees that events scheduled for the *same* instant (and the same
//! priority) pop in the order they were pushed — heap tie-breaking is
//! otherwise unspecified and would make runs depend on allocation details,
//! destroying reproducibility. The priority gives schedulers a *declared*
//! same-instant ordering (e.g. "deliveries fire before arrivals") that does
//! not depend on push order at all.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Instant;

/// Priority used by [`EventQueue::push`]: the highest (events with larger
/// priority values fire later within the same instant).
pub(crate) const DEFAULT_EVENT_PRIO: u8 = 0;

/// An event plus the instant at which it fires.
#[derive(Debug, Clone)]
pub(crate) struct EventEntry<E> {
    /// When the event fires.
    pub at: Instant,
    /// Same-instant tie-break class: lower priorities fire first.
    pub prio: u8,
    /// Insertion sequence number, used only for deterministic FIFO
    /// tie-breaking among events with equal `(at, prio)`.
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

impl<E> EventEntry<E> {
    fn sort_key(&self) -> (Instant, u8, u64) {
        (self.at, self.prio, self.seq)
    }
}

impl<E> PartialEq for EventEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.sort_key() == other.sort_key()
    }
}
impl<E> Eq for EventEntry<E> {}

impl<E> Ord for EventEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other.sort_key().cmp(&self.sort_key())
    }
}
impl<E> PartialOrd for EventEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A future-event list for discrete-event simulation.
///
/// ```
/// use urllc_sim::{EventQueue, Instant};
///
/// let mut q = EventQueue::new();
/// q.push(Instant::from_micros(10), "b");
/// q.push(Instant::from_micros(5), "a");
/// q.push(Instant::from_micros(10), "c"); // same time as "b", pushed later
///
/// assert_eq!(q.pop().unwrap().1, "a");
/// assert_eq!(q.pop().unwrap().1, "b");
/// assert_eq!(q.pop().unwrap().1, "c");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<EventEntry<E>>,
    next_seq: u64,
    now: Instant,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`Instant::ZERO`].
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0, now: Instant::ZERO }
    }

    /// The current simulation time: the fire time of the most recently
    /// popped event (or zero before any pop).
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Schedules `event` to fire at `at` with the default priority.
    ///
    /// # Panics
    /// Panics if `at` is in the past — scheduling into the past would break
    /// causality silently, which is the worst possible failure mode for a
    /// latency study.
    pub fn push(&mut self, at: Instant, event: E) {
        self.push_with_priority(at, DEFAULT_EVENT_PRIO, event);
    }

    /// Schedules `event` at `at` in same-instant tie-break class `prio`.
    ///
    /// Among events with equal fire times, lower priorities pop first;
    /// equal `(at, prio)` pops FIFO. The ordering is therefore a pure
    /// function of what was scheduled, never of heap internals.
    ///
    /// # Panics
    /// Panics if `at` is in the past, like [`push`](Self::push).
    pub fn push_with_priority(&mut self, at: Instant, prio: u8, event: E) {
        assert!(at >= self.now, "event scheduled in the past: {at:?} < now {:?}", self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(EventEntry { at, prio, seq, event });
    }

    /// Pops the earliest event, advancing the clock to its fire time.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Instant::from_micros(30), 3);
        q.push(Instant::from_micros(10), 1);
        q.push(Instant::from_micros(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_among_simultaneous_events() {
        let mut q = EventQueue::new();
        let t = Instant::from_micros(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn priority_breaks_same_instant_ties_before_fifo() {
        let mut q = EventQueue::new();
        let t = Instant::from_micros(9);
        q.push_with_priority(t, 2, "late");
        q.push_with_priority(t, 0, "first");
        q.push_with_priority(t, 1, "mid-a");
        q.push_with_priority(t, 1, "mid-b"); // same prio: FIFO
        q.push(t + Duration::from_micros(1), "after");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["first", "mid-a", "mid-b", "late", "after"]);
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.push(Instant::from_micros(7), ());
        assert_eq!(q.now(), Instant::ZERO);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, Instant::from_micros(7));
        assert_eq!(q.now(), Instant::from_micros(7));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(Instant::from_micros(10), ());
        q.pop();
        q.push(Instant::from_micros(5), ());
    }

    #[test]
    fn push_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.push(Instant::from_micros(10), 1);
        q.pop();
        // A handler may schedule follow-up work at the current instant.
        q.push(q.now(), 2);
        assert_eq!(q.pop().unwrap(), (Instant::from_micros(10), 2));
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Instant::from_micros(4), ());
        q.push(Instant::from_micros(2), ());
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        let mut q = EventQueue::new();
        q.push(Instant::from_micros(10), "first");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "first");
        // Handler schedules two events: one sooner, one later.
        q.push(t + Duration::from_micros(5), "second");
        q.push(t + Duration::from_micros(15), "third");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn drain_sorted_empties_in_fire_order() {
        let mut q = EventQueue::new();
        q.push(Instant::from_micros(8), 2);
        q.push(Instant::from_micros(3), 1);
        q.push_with_priority(Instant::from_micros(8), 1, 9);
        let drained: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(drained, vec![1, 2, 9]);
        assert!(q.is_empty());
        assert_eq!(q.now(), Instant::from_micros(8));
    }

    proptest! {
        /// Same-instant events pop sorted by priority, FIFO within one —
        /// the full tie-break contract, against arbitrary push orders.
        #[test]
        fn same_instant_events_pop_by_priority_then_fifo(
            prios in proptest::collection::vec(0u8..4, 1..64),
        ) {
            let mut q = EventQueue::new();
            let t = Instant::from_micros(17);
            for (i, &p) in prios.iter().enumerate() {
                q.push_with_priority(t, p, i);
            }
            let popped: Vec<usize> =
                std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            let mut want: Vec<usize> = (0..prios.len()).collect();
            want.sort_by_key(|&i| (prios[i], i)); // stable: prio, then push order
            prop_assert_eq!(popped, want);
        }

        /// Mixed times and priorities always drain in `(at, prio, seq)`
        /// order, regardless of interleaving.
        #[test]
        fn drain_order_is_a_pure_function_of_schedule(
            entries in proptest::collection::vec((0u64..50, 0u8..3), 1..80),
        ) {
            let mut q = EventQueue::new();
            for (i, &(us, p)) in entries.iter().enumerate() {
                q.push_with_priority(Instant::from_micros(us), p, i);
            }
            let drained: Vec<usize> =
                std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            let mut want: Vec<usize> = (0..entries.len()).collect();
            want.sort_by_key(|&i| (entries[i].0, entries[i].1, i));
            prop_assert_eq!(drained, want);
        }
    }
}
