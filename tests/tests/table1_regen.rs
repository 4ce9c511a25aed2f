//! Regeneration gate for the paper's headline artifacts: Table 1 and the
//! Fig 4 worst cases, from a cold start, through the public API only, and
//! the two §5 levers they argue from: the slot duration and the access
//! mode.

use phy::tdd::{TddConfig, TddPattern};
use phy::Numerology;
use sim::Duration;
use urllc_core::feasibility::{feasibility_table, feasibility_table_with_deadline, paper_table1};
use urllc_core::model::{ConfigUnderTest, ProcessingBudget};
use urllc_core::worst_case::{worst_case, Direction};

#[test]
fn table1_regenerates_exactly() {
    let table = feasibility_table(&ProcessingBudget::zero());
    assert_eq!(table.verdicts(), paper_table1());
    // Spot-check the load-bearing numbers behind the verdicts.
    assert_eq!(
        table.cell("DM", Direction::Downlink).unwrap().worst.latency,
        Duration::from_micros(500)
    );
    assert_eq!(
        table.cell("DU", Direction::Downlink).unwrap().worst.latency,
        Duration::from_micros(750)
    );
    assert_eq!(
        table.cell("DM", Direction::UplinkGrantBased).unwrap().worst.latency,
        Duration::from_millis(1)
    );
}

#[test]
fn fig4_headline_numbers() {
    let dm = ConfigUnderTest::TddCommon(TddConfig::dm_minimal());
    let zero = ProcessingBudget::zero();
    assert_eq!(
        worst_case(&dm, Direction::UplinkGrantFree, &zero).latency,
        Duration::from_micros(500)
    );
    assert_eq!(worst_case(&dm, Direction::Downlink, &zero).latency, Duration::from_micros(500));
    assert!(
        worst_case(&dm, Direction::UplinkGrantBased, &zero).latency > Duration::from_micros(500)
    );
}

#[test]
fn relaxing_the_deadline_flips_verdicts_monotonically() {
    // Every cell feasible at deadline d stays feasible at any larger d.
    let deadlines = [250u64, 500, 750, 1_000, 2_000, 5_000];
    let tables: Vec<_> = deadlines
        .iter()
        .map(|&us| {
            feasibility_table_with_deadline(&ProcessingBudget::zero(), Duration::from_micros(us))
        })
        .collect();
    for w in tables.windows(2) {
        for (a, b) in w[0].cells.iter().zip(w[1].cells.iter()) {
            assert!(!a.feasible || b.feasible, "{} {:?} regressed", a.config, a.direction);
        }
    }
    // At 5 ms everything passes; at 0.25 ms nothing slot-based does.
    assert!(tables.last().unwrap().cells.iter().all(|c| c.feasible));
    let strict = &tables[0];
    for config in ["DU", "DM", "MU", "FDD"] {
        assert!(!strict.cell(config, Direction::Downlink).unwrap().feasible, "{config}");
    }
}

#[test]
fn worst_case_is_within_one_period_plus_handshake() {
    // Structural sanity across the whole column set: no worst case exceeds
    // three pattern periods (SR + grant + data each cost at most one).
    let zero = ProcessingBudget::zero();
    for (name, cfg) in ConfigUnderTest::table1_columns() {
        let period = cfg.analysis_period().max(cfg.slot_duration() * 2);
        for dir in Direction::TABLE1_ROWS {
            let wc = worst_case(&cfg, dir, &zero);
            assert!(wc.latency <= period * 3, "{name} {dir:?}: {} exceeds 3 periods", wc.latency);
            assert!(wc.latency > Duration::ZERO);
        }
    }
}

/// The DM analogue at numerology `nu`: one DL slot plus one mixed slot of
/// 6 DL and 6 UL symbols, a period of two slots.
fn dm_at(nu: Numerology) -> ConfigUnderTest {
    let period = nu.slot_duration() * 2;
    let p = TddPattern::new(nu, period, 1, Some((6, 6)), 0).expect("valid DM analogue");
    ConfigUnderTest::TddCommon(TddConfig::single(nu, p))
}

#[test]
fn only_the_quarter_ms_slot_meets_half_a_ms() {
    // §5 PHY configuration: only the 0.25 ms slot (µ2) can meet 0.5 ms;
    // µ1's 0.5 ms slots and µ0's 1 ms slots cannot.
    let deadline = Duration::from_micros(500);
    let zero = ProcessingBudget::zero();
    for (nu, feasible) in
        [(Numerology::Mu0, false), (Numerology::Mu1, false), (Numerology::Mu2, true)]
    {
        let wc = worst_case(&dm_at(nu), Direction::Downlink, &zero);
        assert_eq!(wc.latency <= deadline, feasible, "{nu}: {}", wc.latency);
    }
}

#[test]
fn the_grant_handshake_costs_at_least_a_quarter_ms_on_every_tdd_column() {
    // §5: grant-based UL pays for the SR and the grant on top of the data
    // slot grant-free UL waits for, on every TDD column of Table 1.
    let zero = ProcessingBudget::zero();
    for (name, cfg) in ConfigUnderTest::table1_columns() {
        if matches!(cfg, ConfigUnderTest::Fdd { .. } | ConfigUnderTest::MiniSlot(_)) {
            continue;
        }
        let gf = worst_case(&cfg, Direction::UplinkGrantFree, &zero).latency;
        let gb = worst_case(&cfg, Direction::UplinkGrantBased, &zero).latency;
        assert!(gb > gf, "{name}: the handshake must cost something");
        assert!(gb - gf >= Duration::from_micros(250), "{name}: {gb} - {gf} is under a µ2 slot");
    }
}
