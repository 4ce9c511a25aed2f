//! HARQ — hybrid ARQ processes (TS 38.321 §5.3.2/§5.4.2).
//!
//! HARQ is the fast retransmission loop below RLC: each transport block is
//! owned by a HARQ process, the receiver returns ACK/NACK after a feedback
//! delay (the k1 offset), and a NACK triggers a retransmission one
//! scheduling round later. The paper's §8 cites the Nokia/Sennheiser
//! system's latency "going higher in steps of 0.5 ms in case of
//! retransmission" — that step *is* the HARQ round-trip for their pattern,
//! and [`harq_round_trip`] computes it for any configuration. §8 also
//! notes work that avoids retransmissions entirely (its reference \[27\]) because each
//! round costs a pattern period.
//!
//! This module is deliberately independent of the byte-level data path: it
//! manages process state and retransmission *timing*; the payload rides
//! along opaquely.

use bytes::Bytes;
use phy::duplex::Duplex;
use sim::{Duration, Instant};

/// Default number of HARQ processes per direction (NR allows up to 16).
pub const DEFAULT_PROCESSES: usize = 16;

/// HARQ entity configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarqConfig {
    /// Number of parallel processes.
    pub processes: usize,
    /// Maximum transmissions per transport block (1 = no retransmission).
    pub max_transmissions: u32,
}

impl Default for HarqConfig {
    fn default() -> Self {
        HarqConfig { processes: DEFAULT_PROCESSES, max_transmissions: 4 }
    }
}

/// Errors from HARQ operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HarqError {
    /// Process id out of range.
    NoSuchProcess,
    /// The process already holds an unacknowledged transport block.
    ProcessBusy,
    /// The process holds nothing to acknowledge or retransmit.
    ProcessIdle,
}

impl core::fmt::Display for HarqError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HarqError::NoSuchProcess => write!(f, "HARQ process id out of range"),
            HarqError::ProcessBusy => write!(f, "HARQ process already active"),
            HarqError::ProcessIdle => write!(f, "HARQ process has no active transport block"),
        }
    }
}

impl std::error::Error for HarqError {}

/// Outcome of delivering feedback to a process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeedbackOutcome {
    /// ACK: the transport block is delivered; the process is free.
    Delivered(Bytes),
    /// NACK with budget left: retransmit (attempt number included).
    Retransmit {
        /// The transport block to send again.
        data: Bytes,
        /// The upcoming transmission's ordinal (2 = first retransmission).
        attempt: u32,
    },
    /// NACK with the budget exhausted: the block is dropped (RLC AM may
    /// still recover it, at much greater latency).
    Failed(Bytes),
}

#[derive(Debug, Clone)]
struct ProcessState {
    data: Bytes,
    transmissions: u32,
    /// New Data Indicator: toggles per *new* transport block, letting the
    /// receiver distinguish a retransmission from fresh data.
    ndi: bool,
    last_tx: Instant,
}

/// A HARQ entity: one direction's set of processes.
#[derive(Debug, Clone)]
pub struct HarqEntity {
    config: HarqConfig,
    slots: Vec<Option<ProcessState>>,
    ndi: Vec<bool>,
    /// Statistics: (new transmissions, retransmissions, failures).
    stats: (u64, u64, u64),
}

impl HarqEntity {
    /// Creates an entity with all processes idle.
    pub fn new(config: HarqConfig) -> HarqEntity {
        assert!(config.processes > 0, "need at least one process");
        assert!(config.max_transmissions > 0, "need at least one transmission");
        HarqEntity {
            slots: vec![None; config.processes],
            ndi: vec![false; config.processes],
            config,
            stats: (0, 0, 0),
        }
    }

    /// Index of a free process, if any.
    pub fn free_process(&self) -> Option<usize> {
        self.slots.iter().position(Option::is_none)
    }

    /// Number of busy processes.
    pub fn busy(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// `(new transmissions, retransmissions, failures)` so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        self.stats
    }

    /// Starts a new transmission on `process`. Returns the NDI value the
    /// grant/DCI should carry.
    pub fn start(&mut self, process: usize, data: Bytes, now: Instant) -> Result<bool, HarqError> {
        let slot = self.slots.get_mut(process).ok_or(HarqError::NoSuchProcess)?;
        if slot.is_some() {
            return Err(HarqError::ProcessBusy);
        }
        self.ndi[process] = !self.ndi[process];
        *slot = Some(ProcessState { data, transmissions: 1, ndi: self.ndi[process], last_tx: now });
        self.stats.0 += 1;
        Ok(self.ndi[process])
    }

    /// Delivers ACK/NACK feedback for `process`.
    pub fn feedback(
        &mut self,
        process: usize,
        ack: bool,
        now: Instant,
    ) -> Result<FeedbackOutcome, HarqError> {
        let slot = self.slots.get_mut(process).ok_or(HarqError::NoSuchProcess)?;
        let state = slot.as_mut().ok_or(HarqError::ProcessIdle)?;
        if ack {
            let data = state.data.clone();
            *slot = None;
            return Ok(FeedbackOutcome::Delivered(data));
        }
        if state.transmissions >= self.config.max_transmissions {
            let data = state.data.clone();
            *slot = None;
            self.stats.2 += 1;
            return Ok(FeedbackOutcome::Failed(data));
        }
        state.transmissions += 1;
        state.last_tx = now;
        self.stats.1 += 1;
        Ok(FeedbackOutcome::Retransmit { data: state.data.clone(), attempt: state.transmissions })
    }

    /// The NDI currently associated with `process` (receiver side uses it
    /// to detect new data).
    pub fn ndi(&self, process: usize) -> Result<bool, HarqError> {
        self.slots
            .get(process)
            .ok_or(HarqError::NoSuchProcess)
            .map(|s| s.as_ref().map(|st| st.ndi).unwrap_or(self.ndi[process]))
    }
}

/// The HARQ round-trip of a configuration: transmission end → feedback in
/// the reverse direction → retransmission in the next same-direction
/// opportunity. This is the "step" each retransmission adds (§8's 0.5 ms
/// for the Nokia/Sennheiser pattern).
///
/// `dl_data` selects the data direction: `true` for DL data (UL feedback),
/// `false` for UL data (DL feedback).
pub fn harq_round_trip(duplex: &Duplex, dl_data: bool, feedback_processing: Duration) -> Duration {
    // Worst case over data transmissions ending at each slot boundary of
    // one pattern period.
    let slots = duplex.pattern_period() / duplex.slot_duration();
    let mut worst = Duration::ZERO;
    for s in 0..slots {
        let tx_end = duplex.slot_start(s + 1);
        // Feedback rides the first reverse-direction opportunity.
        let fb = if dl_data {
            duplex.next_ul_opportunity(tx_end)
        } else {
            duplex.next_dl_opportunity(tx_end)
        };
        let fb_done = fb.tx_start + duplex.numerology().symbol_offset(1) + feedback_processing;
        // Retransmission in the next same-direction opportunity.
        let retx = if dl_data {
            duplex.next_dl_opportunity(fb_done)
        } else {
            duplex.next_ul_opportunity(fb_done)
        };
        let rtt = retx.tx_start + duplex.slot_duration() - tx_end;
        worst = worst.max(rtt);
    }
    worst
}

/// The RLC AM recovery round-trip: when HARQ exhausts its budget, the
/// receiver's next status report NACKs the SN and the sender retransmits
/// through a fresh HARQ cycle. The status PDU waits for a reverse-direction
/// opportunity — in the worst case a full pattern period — and the
/// retransmission then pays another HARQ round trip. This is the latency
/// step of the paper's §8 escalation path, an order of magnitude above the
/// 0.5 ms HARQ step.
pub fn rlc_recovery_round_trip(
    duplex: &Duplex,
    dl_data: bool,
    feedback_processing: Duration,
) -> Duration {
    duplex.pattern_period() + harq_round_trip(duplex, dl_data, feedback_processing)
}

/// Expected delivery latency of a transport block under per-transmission
/// error probability `p`, HARQ round trip `rtt` and at most `max_tx`
/// transmissions: `Σ_k P(success at k) · (k−1) · rtt`, conditioned on
/// eventual success.
pub fn expected_retx_delay(p: f64, rtt: Duration, max_tx: u32) -> Duration {
    assert!((0.0..1.0).contains(&p), "error probability must be in [0,1)");
    let mut num = 0.0;
    let mut den = 0.0;
    for k in 1..=max_tx {
        let prob = p.powi(k as i32 - 1) * (1.0 - p);
        num += prob * (k - 1) as f64;
        den += prob;
    }
    if den == 0.0 {
        return Duration::ZERO;
    }
    Duration::from_micros_f64(rtt.as_micros_f64() * num / den)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phy::TddConfig;

    fn entity(max: u32) -> HarqEntity {
        HarqEntity::new(HarqConfig { processes: 4, max_transmissions: max })
    }

    #[test]
    fn ack_frees_the_process() {
        let mut h = entity(4);
        let data = Bytes::from_static(b"tb");
        h.start(0, data.clone(), Instant::ZERO).unwrap();
        assert_eq!(h.busy(), 1);
        let out = h.feedback(0, true, Instant::from_micros(500)).unwrap();
        assert_eq!(out, FeedbackOutcome::Delivered(data));
        assert_eq!(h.busy(), 0);
        assert_eq!(h.stats(), (1, 0, 0));
    }

    #[test]
    fn nack_retransmits_until_budget_then_fails() {
        let mut h = entity(3);
        let data = Bytes::from_static(b"tb");
        h.start(1, data.clone(), Instant::ZERO).unwrap();
        let t = Instant::from_micros(500);
        assert_eq!(
            h.feedback(1, false, t).unwrap(),
            FeedbackOutcome::Retransmit { data: data.clone(), attempt: 2 }
        );
        assert_eq!(
            h.feedback(1, false, t).unwrap(),
            FeedbackOutcome::Retransmit { data: data.clone(), attempt: 3 }
        );
        assert_eq!(h.feedback(1, false, t).unwrap(), FeedbackOutcome::Failed(data));
        assert_eq!(h.busy(), 0);
        assert_eq!(h.stats(), (1, 2, 1));
    }

    #[test]
    fn ndi_toggles_per_new_block() {
        let mut h = entity(4);
        let a = h.start(0, Bytes::from_static(b"a"), Instant::ZERO).unwrap();
        h.feedback(0, true, Instant::from_micros(1)).unwrap();
        let b = h.start(0, Bytes::from_static(b"b"), Instant::from_micros(2)).unwrap();
        assert_ne!(a, b);
        // NDI is stable across retransmissions of the same block.
        h.feedback(0, false, Instant::from_micros(3)).unwrap();
        assert_eq!(h.ndi(0).unwrap(), b);
    }

    #[test]
    fn process_discipline_errors() {
        let mut h = entity(4);
        assert_eq!(h.start(9, Bytes::new(), Instant::ZERO), Err(HarqError::NoSuchProcess));
        h.start(0, Bytes::new(), Instant::ZERO).unwrap();
        assert_eq!(h.start(0, Bytes::new(), Instant::ZERO), Err(HarqError::ProcessBusy));
        assert_eq!(h.feedback(1, true, Instant::ZERO), Err(HarqError::ProcessIdle));
    }

    #[test]
    fn parallel_processes_are_independent() {
        let mut h = entity(4);
        for p in 0..4 {
            h.start(p, Bytes::from(vec![p as u8]), Instant::ZERO).unwrap();
        }
        assert_eq!(h.free_process(), None);
        let out = h.feedback(2, true, Instant::from_micros(1)).unwrap();
        assert_eq!(out, FeedbackOutcome::Delivered(Bytes::from(vec![2u8])));
        assert_eq!(h.free_process(), Some(2));
        assert_eq!(h.busy(), 3);
    }

    #[test]
    fn dm_harq_round_trip_is_one_pattern_scale() {
        // §8's "steps of 0.5 ms": the DM pattern's UL-data HARQ round trip
        // lands within 1–3 pattern periods (feedback + retx both wait for
        // their direction's next opportunity).
        let duplex = Duplex::Tdd(TddConfig::dm_minimal());
        let rtt = harq_round_trip(&duplex, false, Duration::from_micros(50));
        assert!(
            rtt >= Duration::from_micros(500) && rtt <= Duration::from_micros(1_500),
            "DM UL HARQ rtt {rtt}"
        );
    }

    #[test]
    fn dddu_ul_harq_round_trip_spans_a_period() {
        // One UL slot per 2 ms: an UL retransmission waits roughly a full
        // pattern — the cost the §8-cited work avoids by design.
        let duplex = Duplex::Tdd(TddConfig::dddu_testbed());
        let rtt = harq_round_trip(&duplex, false, Duration::from_micros(50));
        assert!(rtt >= Duration::from_millis(2), "DDDU UL HARQ rtt {rtt}");
    }

    #[test]
    fn rlc_recovery_costs_a_period_more_than_harq() {
        for duplex in [Duplex::Tdd(TddConfig::dddu_testbed()), Duplex::Tdd(TddConfig::dm_minimal())]
        {
            for dl_data in [false, true] {
                let fb = Duration::from_micros(50);
                let harq = harq_round_trip(&duplex, dl_data, fb);
                let rlc = rlc_recovery_round_trip(&duplex, dl_data, fb);
                assert_eq!(rlc, duplex.pattern_period() + harq);
                assert!(rlc > harq);
            }
        }
    }

    #[test]
    fn expected_delay_grows_with_error_rate() {
        let rtt = Duration::from_micros(500);
        let d0 = expected_retx_delay(0.0, rtt, 4);
        let d1 = expected_retx_delay(0.1, rtt, 4);
        let d5 = expected_retx_delay(0.5, rtt, 4);
        assert_eq!(d0, Duration::ZERO);
        assert!(d1 > d0 && d5 > d1);
        // At p=0.1 the expected extra is ≈ 0.11 · rtt.
        assert!((d1.as_micros_f64() - 55.0).abs() < 3.0, "{d1}");
    }

    #[test]
    fn single_transmission_budget_never_delays() {
        assert_eq!(expected_retx_delay(0.3, Duration::from_micros(500), 1), Duration::ZERO);
    }
}
