//! Exact worst-case one-way latency (the engine behind Table 1 and Fig 4).
//!
//! For each direction the latency, as a function of the arrival instant, is
//! piecewise linear: it decreases at slope −1 between *events* (slot
//! boundaries, portion starts/ends) and jumps upward at them. The supremum
//! over arrivals is therefore attained at an event point, so the engine
//! enumerates every event in one analysis period (plus the period start)
//! and takes the maximum — exact, not sampled.
//!
//! The per-arrival latency follows the four scheduling-semantics rules
//! documented in [`crate::model`].

use sim::{Duration, Instant};

use crate::model::{ConfigUnderTest, ProcessingBudget};

/// Transmission direction under analysis (the rows of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// gNB → UE data.
    Downlink,
    /// UE → gNB data, configured grant.
    UplinkGrantFree,
    /// UE → gNB data, SR/grant handshake.
    UplinkGrantBased,
}

impl Direction {
    /// The three rows of Table 1, in paper order.
    pub const TABLE1_ROWS: [Direction; 3] =
        [Direction::UplinkGrantBased, Direction::UplinkGrantFree, Direction::Downlink];

    /// Row label as printed in the paper.
    pub fn label(self) -> &'static str {
        match self {
            Direction::UplinkGrantBased => "Grant-Based UL",
            Direction::UplinkGrantFree => "Grant-Free UL",
            Direction::Downlink => "DL",
        }
    }
}

/// One event of a worst-case timeline (Fig 4's annotations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Event label.
    pub label: &'static str,
    /// Event instant.
    pub at: Instant,
}

/// The worst case for one (configuration, direction) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct WorstCase {
    /// The worst-case one-way latency.
    pub latency: Duration,
    /// The adversarial arrival instant achieving it (within the first
    /// analysis period).
    pub arrival: Instant,
    /// Annotated timeline of the worst-case packet (Fig 4).
    pub timeline: Vec<TimelineEvent>,
}

/// Upper bound on how far the search walks for the next usable portion;
/// generous (a real pattern has portions every period).
const SEARCH_SLOTS: u64 = 512;

/// Next symbol-grid boundary at or after `t` (symbol offsets follow the
/// exact `slot·k/14` rule, so boundaries are not uniformly spaced — always
/// take them from the offset table).
fn symbol_ceil(cfg: &ConfigUnderTest, t: Instant) -> Instant {
    let nu = cfg.numerology();
    let slot_start = t.floor_to(cfg.slot_duration());
    let within = t - slot_start;
    for k in 0..=phy::numerology::SYMBOLS_PER_SLOT {
        if nu.symbol_offset(k) >= within {
            return slot_start + nu.symbol_offset(k);
        }
    }
    unreachable!("symbol_offset(14) equals the slot duration");
}

/// The SR transmission for data ready at `ready`: one whole symbol, aligned
/// to the symbol grid, inside the first UL portion that can hold it.
/// Returns `(tx_start, tx_end)` with both on symbol boundaries — an SR in a
/// slot's final symbol ends exactly at the slot boundary, with no rounding
/// drift that could sneak it into that boundary's scheduling round.
fn sr_transmission(cfg: &ConfigUnderTest, ready: Instant) -> (Instant, Instant) {
    let nu = cfg.numerology();
    let slot_dur = cfg.slot_duration();
    let first = ready.as_nanos() / slot_dur.as_nanos();
    for slot in first..first + SEARCH_SLOTS {
        for (s, e) in cfg.ul_portions_in_slot(slot) {
            if e <= ready {
                continue;
            }
            let tx = symbol_ceil(cfg, s.max(ready));
            let slot_start = tx.floor_to(slot_dur);
            let within = tx - slot_start;
            let k = (0..phy::numerology::SYMBOLS_PER_SLOT)
                .find(|&k| nu.symbol_offset(k) >= within)
                .unwrap_or(phy::numerology::SYMBOLS_PER_SLOT - 1);
            let end = slot_start + nu.symbol_offset(k + 1);
            if end <= e {
                return (tx, end);
            }
        }
    }
    panic!("no uplink portion fits an SR within the search horizon");
}

/// Two-symbol CORESET (DCI) duration.
fn dci_air(cfg: &ConfigUnderTest) -> Duration {
    cfg.numerology().symbol_offset(2)
}

/// First UL portion whose *end* is strictly after `ready` (rules 3/4:
/// soft join). Returns `(start, end)`.
fn next_open_ul(cfg: &ConfigUnderTest, ready: Instant) -> (Instant, Instant) {
    let slot_dur = cfg.slot_duration();
    let first = ready.as_nanos() / slot_dur.as_nanos();
    for slot in first..first + SEARCH_SLOTS {
        for (s, e) in cfg.ul_portions_in_slot(slot) {
            if e > ready {
                return (s, e);
            }
        }
    }
    panic!("no uplink portion found within the search horizon");
}

/// First DL portion whose *start* is at or after `from` (rule 2).
fn next_dl_from(cfg: &ConfigUnderTest, from: Instant) -> (Instant, Instant) {
    let slot_dur = cfg.slot_duration();
    let first = from.as_nanos() / slot_dur.as_nanos();
    for slot in first..first + SEARCH_SLOTS {
        for (s, e) in cfg.dl_portions_in_slot(slot) {
            if s >= from {
                return (s, e);
            }
        }
    }
    panic!("no downlink portion found within the search horizon");
}

/// Latency and timeline for a packet arriving at `a`.
fn evaluate(
    cfg: &ConfigUnderTest,
    dir: Direction,
    budget: &ProcessingBudget,
    a: Instant,
) -> (Duration, Vec<TimelineEvent>) {
    let mut tl = vec![TimelineEvent { label: "data arrival", at: a }];
    let done = match dir {
        Direction::Downlink => {
            let ready = a + budget.gnb_tx_prep;
            tl.push(TimelineEvent { label: "in RLC queue", at: ready });
            let decision = cfg.next_decision(ready);
            tl.push(TimelineEvent { label: "scheduled", at: decision });
            let (s, e) = next_dl_from(cfg, decision + budget.radio);
            tl.push(TimelineEvent { label: "DL tx start", at: s });
            tl.push(TimelineEvent { label: "DL tx end", at: e });
            let delivered = e + budget.ue_rx;
            tl.push(TimelineEvent { label: "delivered", at: delivered });
            delivered
        }
        Direction::UplinkGrantFree => {
            let ready = a + budget.ue_tx_prep + budget.radio;
            tl.push(TimelineEvent { label: "data ready", at: ready });
            let (s, e) = next_open_ul(cfg, ready);
            tl.push(TimelineEvent { label: "UL tx start", at: s.max(ready) });
            tl.push(TimelineEvent { label: "UL tx end", at: e });
            let delivered = e + budget.gnb_rx;
            tl.push(TimelineEvent { label: "delivered", at: delivered });
            delivered
        }
        Direction::UplinkGrantBased => {
            let ready = a + budget.ue_tx_prep;
            // SR: one symbol, grid-aligned, in the first open UL portion
            // that fits it.
            let (sr_tx, sr_done) = sr_transmission(cfg, ready + budget.radio);
            tl.push(TimelineEvent { label: "SR tx", at: sr_tx });
            let sr_visible = sr_done + budget.sr_decode;
            tl.push(TimelineEvent { label: "SR decoded", at: sr_visible });
            // Scheduling once per slot; grant DCI in the next DL portion.
            let decision = cfg.next_decision(sr_visible);
            tl.push(TimelineEvent { label: "grant scheduled", at: decision });
            let (g_s, g_e) = next_dl_from(cfg, decision + budget.radio);
            let grant_rx = (g_s + dci_air(cfg)).min(g_e);
            tl.push(TimelineEvent { label: "UL grant rx", at: grant_rx });
            let ue_ready = grant_rx + budget.grant_decode + budget.radio;
            // Granted data: earliest still-open UL portion (rule 4).
            let (d_s, d_e) = next_open_ul(cfg, ue_ready);
            tl.push(TimelineEvent { label: "UL tx start", at: d_s.max(ue_ready) });
            tl.push(TimelineEvent { label: "UL tx end", at: d_e });
            let delivered = d_e + budget.gnb_rx;
            tl.push(TimelineEvent { label: "delivered", at: delivered });
            delivered
        }
    };
    (done - a, tl)
}

/// Candidate arrival instants: every event point in one analysis period.
fn candidates(cfg: &ConfigUnderTest) -> Vec<Instant> {
    let period = cfg.analysis_period();
    let slot_dur = cfg.slot_duration();
    let slots = period / slot_dur;
    let mut points = vec![Instant::ZERO];
    for slot in 0..slots.max(1) {
        points.push(Instant::from_nanos(slot * slot_dur.as_nanos()));
        for (s, e) in cfg.ul_portions_in_slot(slot) {
            points.push(s);
            points.push(e);
        }
        for (s, e) in cfg.dl_portions_in_slot(slot) {
            points.push(s);
            points.push(e);
        }
    }
    points.retain(|p| *p < Instant::ZERO + period);
    points.sort_unstable();
    points.dedup();
    points
}

/// Computes the exact worst-case one-way latency for a configuration,
/// direction and processing budget.
pub fn worst_case(cfg: &ConfigUnderTest, dir: Direction, budget: &ProcessingBudget) -> WorstCase {
    let mut best: Option<WorstCase> = None;
    for a in candidates(cfg) {
        let (latency, timeline) = evaluate(cfg, dir, budget, a);
        if best.as_ref().is_none_or(|b| latency > b.latency) {
            best = Some(WorstCase { latency, arrival: a, timeline });
        }
    }
    best.expect("at least one candidate")
}

#[cfg(test)]
mod tests {
    use super::*;
    use phy::mini_slot::{MiniSlotConfig, MiniSlotLen};
    use phy::tdd::TddConfig;
    use phy::Numerology;

    fn dm() -> ConfigUnderTest {
        ConfigUnderTest::TddCommon(TddConfig::dm_minimal())
    }
    fn du() -> ConfigUnderTest {
        ConfigUnderTest::TddCommon(TddConfig::du_minimal())
    }
    fn mu() -> ConfigUnderTest {
        ConfigUnderTest::TddCommon(TddConfig::mu_minimal())
    }
    fn mini() -> ConfigUnderTest {
        ConfigUnderTest::MiniSlot(MiniSlotConfig::new(Numerology::Mu2, MiniSlotLen::Two))
    }
    fn fdd() -> ConfigUnderTest {
        ConfigUnderTest::Fdd { numerology: Numerology::Mu2 }
    }
    fn zero() -> ProcessingBudget {
        ProcessingBudget::zero()
    }

    const HALF_MS: Duration = Duration::from_micros(500);

    #[test]
    fn fig4_dm_worst_cases() {
        // The paper's Fig 4 headline: "for the DM pattern, the worst-case
        // latency of 0.5 ms is achieved for the grant-free UL and DL
        // transmissions, while the grant-based UL violates the requirement."
        let dl = worst_case(&dm(), Direction::Downlink, &zero());
        assert_eq!(dl.latency, HALF_MS, "DM DL worst case");
        let gf = worst_case(&dm(), Direction::UplinkGrantFree, &zero());
        assert_eq!(gf.latency, HALF_MS, "DM grant-free UL worst case");
        let gb = worst_case(&dm(), Direction::UplinkGrantBased, &zero());
        assert!(gb.latency > HALF_MS, "DM grant-based UL = {}", gb.latency);
    }

    #[test]
    fn du_downlink_violates() {
        // Arrival at the start of the D slot waits through U and pays the
        // next full D slot: 0.75 ms.
        let wc = worst_case(&du(), Direction::Downlink, &zero());
        assert_eq!(wc.latency, Duration::from_micros(750));
    }

    #[test]
    fn mu_downlink_violates() {
        let wc = worst_case(&mu(), Direction::Downlink, &zero());
        assert!(wc.latency > HALF_MS, "MU DL = {}", wc.latency);
    }

    #[test]
    fn grant_free_worst_is_one_period_for_all_minimal_patterns() {
        for cfg in [du(), dm(), mu()] {
            let wc = worst_case(&cfg, Direction::UplinkGrantFree, &zero());
            assert!(wc.latency <= HALF_MS, "{cfg:?}: {}", wc.latency);
        }
    }

    #[test]
    fn grant_based_fails_all_minimal_tdd_patterns() {
        for cfg in [du(), dm(), mu()] {
            let wc = worst_case(&cfg, Direction::UplinkGrantBased, &zero());
            assert!(wc.latency > HALF_MS, "{cfg:?}: {}", wc.latency);
        }
    }

    #[test]
    fn mini_slot_meets_everything() {
        for dir in Direction::TABLE1_ROWS {
            let wc = worst_case(&mini(), dir, &zero());
            assert!(wc.latency <= HALF_MS, "{dir:?}: {}", wc.latency);
        }
    }

    #[test]
    fn fdd_meets_everything() {
        for dir in Direction::TABLE1_ROWS {
            let wc = worst_case(&fdd(), dir, &zero());
            assert!(wc.latency <= HALF_MS, "{dir:?}: {}", wc.latency);
        }
    }

    #[test]
    fn grant_based_costs_roughly_one_extra_handshake() {
        // §7: the SR/grant procedure adds about one TDD period.
        let gf = worst_case(&dm(), Direction::UplinkGrantFree, &zero());
        let gb = worst_case(&dm(), Direction::UplinkGrantBased, &zero());
        let extra = gb.latency - gf.latency;
        assert!(
            extra >= Duration::from_micros(400) && extra <= Duration::from_micros(600),
            "handshake overhead {extra}"
        );
    }

    #[test]
    fn processing_budget_increases_latency() {
        let ideal = worst_case(&dm(), Direction::Downlink, &zero());
        let loaded = worst_case(&dm(), Direction::Downlink, &ProcessingBudget::testbed_means());
        assert!(loaded.latency > ideal.latency);
        // With the testbed's ~500 µs radio, even the best pattern blows the
        // 0.5 ms budget — the §4 "any source can bottleneck" claim.
        assert!(loaded.latency > HALF_MS);
    }

    #[test]
    fn timelines_are_ordered_and_annotated() {
        let wc = worst_case(&dm(), Direction::UplinkGrantBased, &zero());
        assert!(wc.timeline.len() >= 6);
        for w in wc.timeline.windows(2) {
            assert!(w[1].at >= w[0].at, "{:?} before {:?}", w[1], w[0]);
        }
        let labels: Vec<_> = wc.timeline.iter().map(|e| e.label).collect();
        assert!(labels.contains(&"SR tx"));
        assert!(labels.contains(&"UL grant rx"));
        assert!(labels.contains(&"delivered"));
    }

    #[test]
    fn dddu_testbed_pattern_worst_cases_are_period_scale() {
        let dddu = ConfigUnderTest::TddCommon(TddConfig::dddu_testbed());
        let gf = worst_case(&dddu, Direction::UplinkGrantFree, &zero());
        // One UL slot per 2 ms period: worst case is the full period.
        assert_eq!(gf.latency, Duration::from_millis(2));
        let gb = worst_case(&dddu, Direction::UplinkGrantBased, &zero());
        // The handshake costs roughly another period (§7 / Fig 6).
        assert!(gb.latency >= Duration::from_millis(3), "gb = {}", gb.latency);
    }
}
