//! The Table 1 generator: URLLC feasibility of every minimal configuration.
//!
//! For each of the five columns (DU, DM, MU, Mini-slot, FDD at the FR1
//! minimum of 0.25 ms slots) and three rows (grant-based UL, grant-free UL,
//! DL), the worst-case engine decides whether the 0.5 ms one-way deadline
//! holds. [`paper_table1`] carries the published ✓/✗ pattern; the unit
//! tests assert the derived table matches it cell for cell.

use sim::Duration;

use crate::model::{ConfigUnderTest, ProcessingBudget};
use crate::worst_case::{worst_case, Direction, WorstCase};

/// The URLLC one-way deadline of the paper: 0.5 ms.
pub(crate) const URLLC_DEADLINE: Duration = Duration::from_micros(500);

/// One cell of the feasibility table.
#[derive(Debug, Clone)]
pub struct FeasibilityCell {
    /// Configuration (column) name.
    pub config: &'static str,
    /// Direction (row).
    pub direction: Direction,
    /// The worst case behind the verdict.
    pub worst: WorstCase,
    /// Whether the deadline holds.
    pub feasible: bool,
}

/// The full feasibility table.
#[derive(Debug, Clone)]
pub struct FeasibilityTable {
    /// The deadline evaluated against.
    pub deadline: Duration,
    /// All cells, row-major in paper order.
    pub cells: Vec<FeasibilityCell>,
}

impl FeasibilityTable {
    /// Looks up a cell.
    pub fn cell(&self, config: &str, direction: Direction) -> Option<&FeasibilityCell> {
        self.cells.iter().find(|c| c.config == config && c.direction == direction)
    }

    /// The ✓/✗ pattern as `(direction, config) -> feasible`, for
    /// comparisons.
    pub fn verdicts(&self) -> Vec<(&'static str, &'static str, bool)> {
        self.cells.iter().map(|c| (c.direction.label(), c.config, c.feasible)).collect()
    }

    /// Renders the table as ASCII in the paper's layout.
    pub fn render(&self) -> String {
        let configs: Vec<&str> = {
            let mut v: Vec<&str> = Vec::new();
            for c in &self.cells {
                if !v.contains(&c.config) {
                    v.push(c.config);
                }
            }
            v
        };
        let mut out = String::new();
        out.push_str(&format!("{:<16}", ""));
        for c in &configs {
            out.push_str(&format!("{c:>10}"));
        }
        out.push('\n');
        for dir in Direction::TABLE1_ROWS {
            out.push_str(&format!("{:<16}", dir.label()));
            for c in &configs {
                let cell = self.cell(c, dir).expect("cell exists");
                out.push_str(&format!("{:>10}", if cell.feasible { "OK" } else { "x" }));
            }
            out.push('\n');
        }
        out
    }
}

/// Builds the feasibility table for the given processing budget (zero for
/// the paper's pure-protocol Table 1).
pub fn feasibility_table(budget: &ProcessingBudget) -> FeasibilityTable {
    feasibility_table_with_deadline(budget, URLLC_DEADLINE)
}

/// Builds the table against an arbitrary deadline (used by the 6G ablation:
/// 0.1 ms).
pub fn feasibility_table_with_deadline(
    budget: &ProcessingBudget,
    deadline: Duration,
) -> FeasibilityTable {
    let mut cells = Vec::new();
    for dir in Direction::TABLE1_ROWS {
        for (name, cfg) in ConfigUnderTest::table1_columns() {
            let worst = worst_case(&cfg, dir, budget);
            cells.push(FeasibilityCell {
                config: name,
                direction: dir,
                feasible: worst.latency <= deadline,
                worst,
            });
        }
    }
    FeasibilityTable { deadline, cells }
}

/// The published Table 1, as `(direction label, config, feasible)`.
pub fn paper_table1() -> Vec<(&'static str, &'static str, bool)> {
    vec![
        ("Grant-Based UL", "DU", false),
        ("Grant-Based UL", "DM", false),
        ("Grant-Based UL", "MU", false),
        ("Grant-Based UL", "Mini-slot", true),
        ("Grant-Based UL", "FDD", true),
        ("Grant-Free UL", "DU", true),
        ("Grant-Free UL", "DM", true),
        ("Grant-Free UL", "MU", true),
        ("Grant-Free UL", "Mini-slot", true),
        ("Grant-Free UL", "FDD", true),
        ("DL", "DU", false),
        ("DL", "DM", true),
        ("DL", "MU", false),
        ("DL", "Mini-slot", true),
        ("DL", "FDD", true),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_table_matches_the_paper_exactly() {
        let table = feasibility_table(&ProcessingBudget::zero());
        assert_eq!(table.verdicts(), paper_table1());
    }

    #[test]
    fn dm_is_the_only_fully_feasible_tdd_common_config() {
        // §5: "only one configuration, DM, satisfies the latency
        // requirements of URLLC on both downlink and uplink for the
        // grant-free scenario".
        let table = feasibility_table(&ProcessingBudget::zero());
        for config in ["DU", "DM", "MU"] {
            let gf = table.cell(config, Direction::UplinkGrantFree).unwrap().feasible;
            let dl = table.cell(config, Direction::Downlink).unwrap().feasible;
            assert_eq!(gf && dl, config == "DM", "{config}");
        }
    }

    #[test]
    fn testbed_budget_makes_everything_infeasible() {
        // With the B210's ~500 µs radio and Table 2 processing, no
        // configuration survives — the §7 conclusion that "URLLC
        // requirements are not met in this real-world demonstration".
        let table = feasibility_table(&ProcessingBudget::testbed_means());
        assert!(table.cells.iter().all(|c| !c.feasible));
    }

    #[test]
    fn six_g_deadline_kills_slot_based_configs() {
        // 6G's 0.1 ms one-way target (§1): only sub-slot scheduling can
        // survive at µ2; every slot-aligned configuration fails.
        let table =
            feasibility_table_with_deadline(&ProcessingBudget::zero(), Duration::from_micros(100));
        for config in ["DU", "DM", "MU", "FDD"] {
            for dir in Direction::TABLE1_ROWS {
                assert!(!table.cell(config, dir).unwrap().feasible, "{config} {dir:?}");
            }
        }
    }

    #[test]
    fn render_has_all_rows_and_columns() {
        let table = feasibility_table(&ProcessingBudget::zero());
        let s = table.render();
        for label in ["Grant-Based UL", "Grant-Free UL", "DL", "DU", "DM", "MU", "Mini-slot", "FDD"]
        {
            assert!(s.contains(label), "missing {label} in:\n{s}");
        }
    }

    #[test]
    fn cell_lookup() {
        let table = feasibility_table(&ProcessingBudget::zero());
        assert!(table.cell("DM", Direction::Downlink).is_some());
        assert!(table.cell("XX", Direction::Downlink).is_none());
    }
}
