//! UE-side scheduling request (TS 38.321 §5.4.4).
//!
//! When uplink data arrives and the UE holds no grant, MAC triggers an SR —
//! step ② of the paper's Fig 2. The SR is a single bit on PUCCH, sent at
//! the next SR *opportunity*; the paper's §5 footnote notes that "any UE
//! can send SR (one bit) at any time during the UL slot", which corresponds
//! to a per-UL-slot opportunity configuration. The SR-to-grant handshake is
//! the protocol latency grant-free access eliminates (Fig 6a vs 6b).

use sim::{Duration, Instant};

/// SR opportunity configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrOpportunities {
    /// An SR can ride any uplink portion (the paper's model: 1 bit,
    /// anywhere in a UL slot).
    EveryUplinkSlot,
    /// Periodic PUCCH resources: every `period_slots` slots, at
    /// `offset_slots` (only valid if those slots have UL).
    Periodic {
        /// SR period in slots.
        period_slots: u64,
        /// Slot offset of the opportunity within the period.
        offset_slots: u64,
    },
}

/// SR procedure configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrConfig {
    /// Where SR opportunities occur.
    pub opportunities: SrOpportunities,
    /// `sr-ProhibitTimer`: minimum spacing between SR transmissions while
    /// one is outstanding.
    pub prohibit: Duration,
    /// `sr-TransMax`: give up (and fall back to RACH in a real UE) after
    /// this many transmissions.
    pub max_transmissions: u32,
}

impl Default for SrConfig {
    fn default() -> Self {
        SrConfig {
            opportunities: SrOpportunities::EveryUplinkSlot,
            prohibit: Duration::from_millis(1),
            max_transmissions: 8,
        }
    }
}

/// The SR state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrState {
    /// No SR pending.
    Idle,
    /// Data arrived; SR waiting for an opportunity.
    Pending {
        /// When the triggering data arrived.
        triggered_at: Instant,
    },
    /// SR transmitted; awaiting a grant (prohibit timer running).
    Sent {
        /// Time of the last SR transmission.
        last_tx: Instant,
        /// Transmissions so far.
        count: u32,
    },
    /// `sr-TransMax` exceeded: a real UE would start random access.
    Failed,
}

/// The UE's SR procedure.
#[derive(Debug, Clone)]
pub struct SrProcedure {
    config: SrConfig,
    state: SrState,
}

impl SrProcedure {
    /// Creates the procedure in the idle state.
    pub fn new(config: SrConfig) -> SrProcedure {
        SrProcedure { config, state: SrState::Idle }
    }

    /// Current state.
    pub fn state(&self) -> SrState {
        self.state
    }

    /// New UL data with no grant available: trigger an SR (no-op if one is
    /// already in flight).
    pub fn trigger(&mut self, now: Instant) {
        if matches!(self.state, SrState::Idle) {
            self.state = SrState::Pending { triggered_at: now };
        }
    }

    /// Asks whether an SR should be transmitted at the UL opportunity
    /// starting at `opportunity` in global slot `slot`. Advances the state
    /// machine when the answer is yes.
    pub fn maybe_transmit(&mut self, slot: u64, opportunity: Instant) -> bool {
        if !self.opportunity_valid(slot) {
            return false;
        }
        match self.state {
            SrState::Pending { .. } => {
                self.state = SrState::Sent { last_tx: opportunity, count: 1 };
                true
            }
            SrState::Sent { last_tx, count } => {
                if opportunity
                    .checked_duration_since(last_tx)
                    .is_some_and(|d| d >= self.config.prohibit)
                {
                    if count >= self.config.max_transmissions {
                        self.state = SrState::Failed;
                        false
                    } else {
                        self.state = SrState::Sent { last_tx: opportunity, count: count + 1 };
                        true
                    }
                } else {
                    false
                }
            }
            SrState::Idle | SrState::Failed => false,
        }
    }

    fn opportunity_valid(&self, slot: u64) -> bool {
        match self.config.opportunities {
            SrOpportunities::EveryUplinkSlot => true,
            SrOpportunities::Periodic { period_slots, offset_slots } => {
                slot % period_slots == offset_slots % period_slots
            }
        }
    }

    /// A grant arrived: the SR is satisfied.
    pub fn on_grant(&mut self) {
        self.state = SrState::Idle;
    }

    /// Whether the procedure has exhausted `sr-TransMax` and must fall
    /// back to random access (TS 38.321 §5.4.4: "initiate a Random Access
    /// procedure ... and cancel all pending SRs").
    pub fn needs_rach(&self) -> bool {
        matches!(self.state, SrState::Failed)
    }

    /// Random access completed (Msg4 resolved): the UE holds uplink
    /// access again and the procedure returns to idle, ready for new
    /// triggers. No-op unless the procedure had failed.
    pub fn on_rach_complete(&mut self) {
        if self.needs_rach() {
            self.state = SrState::Idle;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_until_triggered() {
        let mut sr = SrProcedure::new(SrConfig::default());
        assert!(!sr.maybe_transmit(0, Instant::ZERO));
        sr.trigger(Instant::from_micros(10));
        assert_eq!(sr.state(), SrState::Pending { triggered_at: Instant::from_micros(10) });
        assert!(sr.maybe_transmit(1, Instant::from_micros(250)));
        assert!(matches!(sr.state(), SrState::Sent { count: 1, .. }));
    }

    #[test]
    fn grant_resolves() {
        let mut sr = SrProcedure::new(SrConfig::default());
        sr.trigger(Instant::ZERO);
        assert!(sr.maybe_transmit(0, Instant::ZERO));
        sr.on_grant();
        assert_eq!(sr.state(), SrState::Idle);
        // Re-triggerable afterwards.
        sr.trigger(Instant::from_micros(5));
        assert!(matches!(sr.state(), SrState::Pending { .. }));
    }

    #[test]
    fn prohibit_timer_spaces_retransmissions() {
        let cfg = SrConfig { prohibit: Duration::from_millis(2), ..SrConfig::default() };
        let mut sr = SrProcedure::new(cfg);
        sr.trigger(Instant::ZERO);
        assert!(sr.maybe_transmit(0, Instant::ZERO));
        // Too soon.
        assert!(!sr.maybe_transmit(1, Instant::from_millis(1)));
        // Exactly at the prohibit boundary: allowed.
        assert!(sr.maybe_transmit(4, Instant::from_millis(2)));
        assert!(matches!(sr.state(), SrState::Sent { count: 2, .. }));
    }

    #[test]
    fn trans_max_fails_the_procedure() {
        let cfg = SrConfig {
            prohibit: Duration::from_micros(1),
            max_transmissions: 2,
            ..SrConfig::default()
        };
        let mut sr = SrProcedure::new(cfg);
        sr.trigger(Instant::ZERO);
        assert!(sr.maybe_transmit(0, Instant::ZERO));
        assert!(sr.maybe_transmit(1, Instant::from_micros(10)));
        // Third attempt exceeds sr-TransMax.
        assert!(!sr.maybe_transmit(2, Instant::from_micros(20)));
        assert_eq!(sr.state(), SrState::Failed);
    }

    #[test]
    fn periodic_opportunities_filter_slots() {
        let cfg = SrConfig {
            opportunities: SrOpportunities::Periodic { period_slots: 4, offset_slots: 3 },
            ..SrConfig::default()
        };
        let mut sr = SrProcedure::new(cfg);
        sr.trigger(Instant::ZERO);
        assert!(!sr.maybe_transmit(0, Instant::ZERO));
        assert!(!sr.maybe_transmit(2, Instant::from_micros(500)));
        assert!(sr.maybe_transmit(3, Instant::from_micros(750)));
        assert!(matches!(sr.state(), SrState::Sent { .. }));
    }

    #[test]
    fn post_exhaustion_rach_fallback_reacquires_uplink_access() {
        let cfg = SrConfig {
            prohibit: Duration::from_micros(1),
            max_transmissions: 2,
            ..SrConfig::default()
        };
        let mut sr = SrProcedure::new(cfg);
        sr.trigger(Instant::ZERO);
        assert!(sr.maybe_transmit(0, Instant::ZERO));
        assert!(sr.maybe_transmit(1, Instant::from_micros(10)));
        assert!(!sr.maybe_transmit(2, Instant::from_micros(20)));
        assert!(sr.needs_rach(), "exhaustion must demand random access");
        // While failed, the procedure neither transmits nor re-triggers.
        sr.trigger(Instant::from_micros(30));
        assert!(!sr.maybe_transmit(3, Instant::from_micros(30)));
        assert_eq!(sr.state(), SrState::Failed);
        // RACH resolves: the UE re-acquires uplink access and the SR
        // machinery works again end to end.
        let rach = crate::rach::RachConfig::default();
        let recovery = crate::rach::recovery_latency(
            &rach,
            Instant::from_micros(30),
            1,
            &mut sim::SimRng::from_seed(0).stream("rach"),
        )
        .expect("uncontended RACH always completes");
        assert!(recovery >= Duration::from_millis(6), "recovery {recovery}");
        sr.on_rach_complete();
        assert_eq!(sr.state(), SrState::Idle);
        sr.trigger(Instant::from_millis(40));
        assert!(sr.maybe_transmit(100, Instant::from_millis(40)));
        assert!(matches!(sr.state(), SrState::Sent { count: 1, .. }));
    }

    #[test]
    fn on_rach_complete_is_a_noop_unless_failed() {
        let mut sr = SrProcedure::new(SrConfig::default());
        sr.trigger(Instant::ZERO);
        sr.on_rach_complete();
        assert!(matches!(sr.state(), SrState::Pending { .. }));
    }

    #[test]
    fn double_trigger_is_idempotent() {
        let mut sr = SrProcedure::new(SrConfig::default());
        sr.trigger(Instant::from_micros(1));
        sr.trigger(Instant::from_micros(2));
        assert_eq!(sr.state(), SrState::Pending { triggered_at: Instant::from_micros(1) });
    }
}
