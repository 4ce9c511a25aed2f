//! The structured event journal: a bounded ring buffer of typed,
//! sim-time-stamped events.
//!
//! This generalizes the stack's ad-hoc `PingFaultTrace` / `StageSpan`
//! plumbing: every layer appends [`JournalEvent`]s through the
//! [`crate::Telemetry`] handle, the ring keeps the most recent
//! `capacity` of them (counting what it sheds), and the
//! [`crate::perfetto`] exporter renders the surviving window as a
//! flamegraph-style timeline.
//!
//! An event is 32 bytes: three 8-byte words and one-byte codes. The ring,
//! its growth and every copy of it scale with that size, and a lit chaos
//! ping journals about 18 events. So no variant carries a `&'static str`
//! it cannot fit in the budget: a stage span carries a [`Stage`], a drop
//! a [`DropReason`] and a fault a [`FaultKind`], each one byte, and each
//! spelled out only when an exporter prints it. A compile-time assertion
//! below holds the size.

use std::collections::VecDeque;

use sim::{DropReason, Duration, FaultKind, Instant};

use crate::stage::Stage;

/// One sim-time-stamped event. `Copy` so journaling never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JournalEvent {
    /// A Fig-3 journey stage (one bar in the Perfetto timeline).
    Stage {
        /// Ping sequence number.
        ping: u64,
        /// `true` for the downlink half of the journey.
        dl: bool,
        /// Which Fig-3 stage.
        stage: Stage,
        /// Stage start.
        start: Instant,
        /// Stage end.
        end: Instant,
    },
    /// The scheduler issued an uplink grant.
    Grant {
        /// Ping sequence number.
        ping: u64,
        /// When the grant's DCI lands at the UE.
        at: Instant,
        /// Granted transport-block payload bytes.
        bytes: usize,
    },
    /// A scheduling-request transmission (one round of the SR cycle).
    SrAttempt {
        /// Ping sequence number.
        ping: u64,
        /// SR transmission instant.
        at: Instant,
        /// `true` when the PUCCH carrying it was lost.
        lost: bool,
    },
    /// A HARQ round ended in NACK (retransmission follows).
    HarqNack {
        /// Ping sequence number.
        ping: u64,
        /// `true` on the downlink leg.
        dl: bool,
        /// 1-based retransmission round.
        round: u32,
        /// When the NACK was processed.
        at: Instant,
    },
    /// The fault injector fired.
    FaultInjected {
        /// Which fault.
        kind: FaultKind,
        /// When it bit the packet.
        at: Instant,
        /// Extra latency it charged (zero for pure losses).
        extra: Duration,
    },
    /// Radio-link failure declared (RRC re-establishment follows).
    Rlf {
        /// Ping sequence number.
        ping: u64,
        /// `true` when the DL leg failed.
        dl: bool,
        /// Declaration instant.
        at: Instant,
    },
    /// An RRC re-establishment attempt completed.
    RrcReestablished {
        /// Ping sequence number.
        ping: u64,
        /// Completion instant.
        at: Instant,
        /// `false` when the budget ran out and the UE went to idle.
        ok: bool,
    },
    /// A packet dropped by a bounded buffer or a degradation action —
    /// the per-ping drop attribution of the overload subsystem.
    Drop {
        /// Ping / packet sequence number.
        ping: u64,
        /// Drop instant.
        at: Instant,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// An inter-cell handover transition (trigger/detach/complete/
    /// too-late/too-early/ping-pong — labels from `stack::handover`).
    Handover {
        /// Source cell index.
        from: u8,
        /// Target cell index.
        to: u8,
        /// Transition label.
        label: &'static str,
        /// Transition instant.
        at: Instant,
    },
    /// A GTP-U path-supervision transition (probe-lost/path-down/failover/
    /// restored — labels from `corenet::PathEventKind::label`).
    PathEvent {
        /// Transition label.
        label: &'static str,
        /// Transition instant.
        at: Instant,
    },
    /// A free-form point event from any layer.
    Marker {
        /// Event label.
        label: &'static str,
        /// Event instant.
        at: Instant,
    },
}

impl JournalEvent {
    /// Representative timestamp (start for spans).
    pub fn at(&self) -> Instant {
        match *self {
            JournalEvent::Stage { start, .. } => start,
            JournalEvent::Grant { at, .. }
            | JournalEvent::SrAttempt { at, .. }
            | JournalEvent::HarqNack { at, .. }
            | JournalEvent::FaultInjected { at, .. }
            | JournalEvent::Rlf { at, .. }
            | JournalEvent::RrcReestablished { at, .. }
            | JournalEvent::Drop { at, .. }
            | JournalEvent::Handover { at, .. }
            | JournalEvent::PathEvent { at, .. }
            | JournalEvent::Marker { at, .. } => at,
        }
    }

    /// Ping the event belongs to, `None` for events that are not
    /// per-ping (fault injections, path/handover transitions, markers).
    /// The flight recorder's exemplar-only trace export filters on this.
    pub fn ping(&self) -> Option<u64> {
        match *self {
            JournalEvent::Stage { ping, .. }
            | JournalEvent::Grant { ping, .. }
            | JournalEvent::SrAttempt { ping, .. }
            | JournalEvent::HarqNack { ping, .. }
            | JournalEvent::Rlf { ping, .. }
            | JournalEvent::RrcReestablished { ping, .. }
            | JournalEvent::Drop { ping, .. } => Some(ping),
            JournalEvent::FaultInjected { .. }
            | JournalEvent::Handover { .. }
            | JournalEvent::PathEvent { .. }
            | JournalEvent::Marker { .. } => None,
        }
    }

    /// Short kind tag (metrics labels, debugging).
    pub fn kind_name(&self) -> &'static str {
        match self {
            JournalEvent::Stage { .. } => "stage",
            JournalEvent::Grant { .. } => "grant",
            JournalEvent::SrAttempt { .. } => "sr",
            JournalEvent::HarqNack { .. } => "harq-nack",
            JournalEvent::FaultInjected { .. } => "fault",
            JournalEvent::Rlf { .. } => "rlf",
            JournalEvent::RrcReestablished { .. } => "rrc-reestablish",
            JournalEvent::Drop { .. } => "drop",
            JournalEvent::Handover { .. } => "handover",
            JournalEvent::PathEvent { .. } => "path",
            JournalEvent::Marker { .. } => "marker",
        }
    }
}

// The journal's size budget: see the module docs.
const _: () = assert!(std::mem::size_of::<JournalEvent>() <= 32);

/// Bounded ring buffer of [`JournalEvent`]s.
///
/// Overflow sheds the *oldest* events (a crashed run's tail is worth more
/// than its head) and counts them, so exporters can say how much history
/// was lost.
#[derive(Debug, Clone)]
pub struct EventJournal {
    capacity: usize,
    events: VecDeque<JournalEvent>,
    dropped: u64,
}

impl EventJournal {
    /// A journal holding at most `capacity` events (min 1). The ring starts
    /// empty and grows with what is recorded, so a large cap costs nothing
    /// until the events arrive.
    pub fn new(capacity: usize) -> EventJournal {
        let capacity = capacity.max(1);
        EventJournal { capacity, events: VecDeque::new(), dropped: 0 }
    }

    /// Appends an event, shedding the oldest when full.
    pub fn push(&mut self, event: JournalEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// The retained window, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &JournalEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub(crate) fn len(&self) -> usize {
        self.events.len()
    }

    /// Maximum retained events.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events shed to overflow so far.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends another journal's retained window to this ring, oldest
    /// first, and carries over its overflow count: the ring and `dropped`
    /// end as if each event had been [`push`](Self::push)ed, but in one
    /// drain of this ring's front and one extend by `other`'s last
    /// `capacity` events. Used by the parallel reducer: folding shard
    /// journals in shard order approximates one global ring over the
    /// concatenated event stream.
    pub(crate) fn absorb(&mut self, other: &EventJournal) {
        let incoming = other.events.len();
        let skipped = incoming.saturating_sub(self.capacity);
        let shed = (self.events.len() + incoming - skipped).saturating_sub(self.capacity);
        self.events.drain(..shed);
        // Grow by doubling, as pushes would, but never past the ring's
        // bound: `extend` alone would size the storage to each absorb's
        // total and could overshoot `capacity` by most of a shard.
        let len = self.events.len() + incoming - skipped;
        if len > self.events.capacity() {
            let storage = (2 * self.events.capacity()).clamp(len, self.capacity);
            self.events.reserve_exact(storage - self.events.len());
        }
        self.events.extend(other.events.range(skipped..));
        self.dropped += other.dropped + (skipped + shed) as u64;
    }

    /// Empties the ring and its overflow count, keeping the ring's storage
    /// for the next shard that records into it.
    pub(crate) fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn marker(i: u64) -> JournalEvent {
        JournalEvent::Marker { label: "m", at: Instant::from_micros(i) }
    }

    #[test]
    fn ring_keeps_newest_and_counts_dropped() {
        let mut j = EventJournal::new(3);
        for i in 0..5 {
            j.push(marker(i));
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 2);
        let ts: Vec<u64> = j.events.iter().map(|e| e.at().as_nanos() / 1_000).collect();
        assert_eq!(ts, vec![2, 3, 4]);
    }

    #[test]
    fn ring_preserves_insertion_order() {
        let mut j = EventJournal::new(100);
        for i in (0..50).rev() {
            j.push(marker(i)); // deliberately out of time order
        }
        let ts: Vec<u64> = j.events.iter().map(|e| e.at().as_nanos() / 1_000).collect();
        let expected: Vec<u64> = (0..50).rev().collect();
        assert_eq!(ts, expected, "journal must preserve insertion order, not timestamp order");
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn a_cleared_ring_keeps_its_storage_and_forgets_its_drops() {
        let mut j = EventJournal::new(4);
        for i in 0..6 {
            j.push(marker(i));
        }
        let storage = j.events.capacity();
        j.clear();
        assert_eq!((j.len(), j.dropped(), j.events.capacity()), (0, 0, storage));
        j.push(marker(9));
        assert!(j.iter().eq(&[marker(9)]));
    }

    mod bulk_absorb {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn absorb_keeps_what_pushing_each_event_keeps(
                capacity in 1usize..10,
                mine in 0u64..25,
                theirs in 0u64..25,
                their_capacity in 1usize..10,
                their_dropped in 0u64..5,
            ) {
                let mut other = EventJournal::new(their_capacity);
                for i in 0..theirs {
                    other.push(marker(1_000 + i));
                }
                other.dropped += their_dropped;
                let mut bulk = EventJournal::new(capacity);
                for i in 0..mine {
                    bulk.push(marker(i));
                }
                let mut oracle = bulk.clone();
                oracle.dropped += other.dropped;
                for &event in &other.events {
                    oracle.push(event);
                }
                let storage = bulk.events.capacity();
                bulk.absorb(&other);
                let window = |j: &EventJournal| j.iter().copied().collect::<Vec<_>>();
                prop_assert_eq!(window(&bulk), window(&oracle));
                prop_assert_eq!(bulk.dropped(), oracle.dropped());
                // The storage grows up to the ring's bound and no further.
                prop_assert!(bulk.events.capacity() <= storage.max(capacity));
            }
        }
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut j = EventJournal::new(0);
        j.push(marker(1));
        j.push(marker(2));
        assert_eq!(j.len(), 1);
        assert_eq!(j.capacity(), 1);
        assert_eq!(j.dropped(), 1);
    }

    #[test]
    fn event_kind_names_are_distinct() {
        let evs = [
            JournalEvent::Stage {
                ping: 0,
                dl: false,
                stage: Stage::Radio,
                start: Instant::ZERO,
                end: Instant::ZERO,
            },
            JournalEvent::Grant { ping: 0, at: Instant::ZERO, bytes: 32 },
            JournalEvent::SrAttempt { ping: 0, at: Instant::ZERO, lost: false },
            JournalEvent::HarqNack { ping: 0, dl: false, round: 1, at: Instant::ZERO },
            JournalEvent::FaultInjected {
                kind: FaultKind::SrLoss,
                at: Instant::ZERO,
                extra: Duration::ZERO,
            },
            JournalEvent::Rlf { ping: 0, dl: true, at: Instant::ZERO },
            JournalEvent::RrcReestablished { ping: 0, at: Instant::ZERO, ok: true },
            JournalEvent::Drop { ping: 0, at: Instant::ZERO, reason: DropReason::RlcFull },
            JournalEvent::Handover { from: 0, to: 1, label: "complete", at: Instant::ZERO },
            JournalEvent::PathEvent { label: "failover", at: Instant::ZERO },
            JournalEvent::Marker { label: "tick", at: Instant::ZERO },
        ];
        let mut names: Vec<&str> = evs.iter().map(|e| e.kind_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), evs.len());
    }
}
