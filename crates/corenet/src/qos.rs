//! Standardised QoS: the 5QI table (TS 23.501 Table 5.7.4-1, subset).
//!
//! Every QoS flow maps to a 5QI carrying a *packet delay budget* (PDB) and
//! a *packet error rate* (PER) target. The paper's 0.5 ms / 99.999 %
//! URLLC figure comes from the radio-access requirements (TR 38.913);
//! the end-to-end 5QIs the core signals are looser — the tightest
//! standardised delay-critical budgets are 5 ms (5QI 85/86) and 10 ms
//! (82/83). Holding a configuration's measured or worst-case latency
//! against these budgets tells you which *services* it can legally carry,
//! which is how the workspace's examples decide if a deployment is fit for
//! its use case.

use sim::Duration;

/// Resource type of a 5QI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceType {
    /// Guaranteed bit rate.
    Gbr,
    /// Non-guaranteed bit rate.
    NonGbr,
    /// Delay-critical GBR — the URLLC family (5QIs 82–86).
    DelayCriticalGbr,
}

/// One row of the 5QI table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiveQi {
    /// The 5QI value.
    pub value: u8,
    /// Resource type.
    pub resource_type: ResourceType,
    /// Default priority level (lower = more important).
    pub priority: u8,
    /// Packet delay budget (UE ↔ N6 termination).
    pub pdb: Duration,
    /// Packet error rate target, as a power of ten (−2 means 10⁻²).
    pub per_exponent: i8,
    /// Example service from the specification.
    pub example: &'static str,
}

impl FiveQi {
    /// A representative subset of TS 23.501 Table 5.7.4-1: the classic
    /// GBR/non-GBR rows plus the complete delay-critical GBR family.
    pub const TABLE: &'static [FiveQi] = &[
        FiveQi {
            value: 1,
            resource_type: ResourceType::Gbr,
            priority: 20,
            pdb: Duration::from_millis(100),
            per_exponent: -2,
            example: "conversational voice",
        },
        FiveQi {
            value: 2,
            resource_type: ResourceType::Gbr,
            priority: 40,
            pdb: Duration::from_millis(150),
            per_exponent: -3,
            example: "conversational video",
        },
        FiveQi {
            value: 3,
            resource_type: ResourceType::Gbr,
            priority: 30,
            pdb: Duration::from_millis(50),
            per_exponent: -3,
            example: "real-time gaming",
        },
        FiveQi {
            value: 4,
            resource_type: ResourceType::Gbr,
            priority: 50,
            pdb: Duration::from_millis(300),
            per_exponent: -6,
            example: "non-conversational video",
        },
        FiveQi {
            value: 5,
            resource_type: ResourceType::NonGbr,
            priority: 10,
            pdb: Duration::from_millis(100),
            per_exponent: -6,
            example: "IMS signalling",
        },
        FiveQi {
            value: 7,
            resource_type: ResourceType::NonGbr,
            priority: 70,
            pdb: Duration::from_millis(100),
            per_exponent: -3,
            example: "voice/video/interactive",
        },
        FiveQi {
            value: 9,
            resource_type: ResourceType::NonGbr,
            priority: 90,
            pdb: Duration::from_millis(300),
            per_exponent: -6,
            example: "default bearer",
        },
        FiveQi {
            value: 65,
            resource_type: ResourceType::Gbr,
            priority: 7,
            pdb: Duration::from_millis(75),
            per_exponent: -2,
            example: "mission-critical push-to-talk",
        },
        FiveQi {
            value: 79,
            resource_type: ResourceType::NonGbr,
            priority: 65,
            pdb: Duration::from_millis(50),
            per_exponent: -2,
            example: "V2X messages",
        },
        FiveQi {
            value: 80,
            resource_type: ResourceType::NonGbr,
            priority: 68,
            pdb: Duration::from_millis(10),
            per_exponent: -6,
            example: "low-latency eMBB / AR",
        },
        FiveQi {
            value: 82,
            resource_type: ResourceType::DelayCriticalGbr,
            priority: 19,
            pdb: Duration::from_millis(10),
            per_exponent: -4,
            example: "discrete automation",
        },
        FiveQi {
            value: 83,
            resource_type: ResourceType::DelayCriticalGbr,
            priority: 22,
            pdb: Duration::from_millis(10),
            per_exponent: -4,
            example: "discrete automation (small)",
        },
        FiveQi {
            value: 84,
            resource_type: ResourceType::DelayCriticalGbr,
            priority: 24,
            pdb: Duration::from_millis(30),
            per_exponent: -5,
            example: "intelligent transport",
        },
        FiveQi {
            value: 85,
            resource_type: ResourceType::DelayCriticalGbr,
            priority: 21,
            pdb: Duration::from_millis(5),
            per_exponent: -5,
            example: "electricity distribution",
        },
        FiveQi {
            value: 86,
            resource_type: ResourceType::DelayCriticalGbr,
            priority: 18,
            pdb: Duration::from_millis(5),
            per_exponent: -4,
            example: "V2X advanced driving",
        },
    ];

    /// Looks up a 5QI by value.
    pub fn by_value(value: u8) -> Option<FiveQi> {
        FiveQi::TABLE.iter().copied().find(|q| q.value == value)
    }

    /// The delay-critical (URLLC-family) rows.
    pub fn delay_critical() -> Vec<FiveQi> {
        FiveQi::TABLE
            .iter()
            .copied()
            .filter(|q| q.resource_type == ResourceType::DelayCriticalGbr)
            .collect()
    }

    /// PER target as a probability.
    pub fn per_target(&self) -> f64 {
        10f64.powi(i32::from(self.per_exponent))
    }

    /// Whether a (one-way) latency bound meets this 5QI's budget.
    ///
    /// TS 23.501 allots the radio access a share of the end-to-end PDB
    /// (the rest covers the core and transport); `ran_share` expresses
    /// that split (e.g. 0.8 for delay-critical flows with a local UPF).
    pub(crate) fn ran_budget(&self, ran_share: f64) -> Duration {
        assert!((0.0..=1.0).contains(&ran_share), "share is a fraction");
        Duration::from_micros_f64(self.pdb.as_micros_f64() * ran_share)
    }

    /// Does a worst-case/percentile latency meet this 5QI's RAN budget?
    pub fn admits(&self, latency: Duration, ran_share: f64) -> bool {
        latency <= self.ran_budget(ran_share)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lookup_and_uniqueness() {
        let mut seen = std::collections::BTreeSet::new();
        for q in FiveQi::TABLE {
            assert!(seen.insert(q.value), "duplicate 5QI {}", q.value);
        }
        assert_eq!(FiveQi::by_value(82).unwrap().pdb, Duration::from_millis(10));
        assert_eq!(FiveQi::by_value(200), None);
    }

    #[test]
    fn delay_critical_family_is_complete() {
        let dc: Vec<u8> = FiveQi::delay_critical().iter().map(|q| q.value).collect();
        assert_eq!(dc, vec![82, 83, 84, 85, 86]);
        // All delay-critical budgets are ≤ 30 ms, far tighter than the
        // classic rows.
        for q in FiveQi::delay_critical() {
            assert!(q.pdb <= Duration::from_millis(30));
        }
    }

    #[test]
    fn tightest_standardised_budget_is_5ms() {
        let min = FiveQi::TABLE.iter().map(|q| q.pdb).min().unwrap();
        assert_eq!(min, Duration::from_millis(5));
        // The paper's 0.5 ms radio target is *below* every standardised
        // end-to-end PDB: URLLC RAN work outruns the core's own QoS table.
        assert!(Duration::from_micros(500) < min);
    }

    #[test]
    fn per_targets() {
        assert!((FiveQi::by_value(82).unwrap().per_target() - 1e-4).abs() < 1e-12);
        assert!((FiveQi::by_value(9).unwrap().per_target() - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn admission_respects_ran_share() {
        let q = FiveQi::by_value(85).unwrap(); // 5 ms PDB
        assert!(q.admits(Duration::from_millis(4), 1.0));
        assert!(!q.admits(Duration::from_millis(4), 0.5)); // RAN share 2.5 ms
        assert!(q.admits(Duration::from_micros(2_400), 0.5));
    }

    #[test]
    #[should_panic(expected = "share is a fraction")]
    fn rejects_bad_share() {
        FiveQi::by_value(82).unwrap().ran_budget(1.5);
    }
}
