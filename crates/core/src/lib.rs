//! # urllc-core — the paper's contribution: system-level URLLC latency
//! analysis
//!
//! *Ultra-Reliable Low-Latency in 5G: A Close Reality or a Distant Goal?*
//! (HotNets '24) argues that URLLC feasibility can only be judged by
//! analysing the **whole system** — protocol, processing and radio latency
//! together — and backs it with a worst-case analysis of every minimal 5G
//! configuration (Table 1, Fig 4) plus testbed measurements. This crate is
//! that analysis as a library:
//!
//! * [`model`] — the configuration space under analysis (TDD Common
//!   Configuration / Mini-Slot / FDD × grant-based / grant-free) and the
//!   deterministic processing budget that can be layered on top;
//! * [`mod@worst_case`] — exact worst-case one-way latency for DL, grant-free
//!   UL and grant-based UL under the slot-boundary scheduling semantics of
//!   §2/§5 (documented in detail there), with event timelines (Fig 4);
//! * [`feasibility`] — the Table 1 generator: evaluates the 0.5 ms URLLC
//!   deadline over all minimal configurations and cross-checks the paper's
//!   ✓/✗ pattern;
//! * [`decompose`] — the §4 latency taxonomy: protocol vs processing vs
//!   radio shares of a latency budget;
//! * [`reliability`] — the §6 analysis: how non-deterministic latency
//!   converts into deadline misses, and a first-order closed-form model
//!   of the miss probability under chaos injection;
//! * `design` — design-space search over numerology × pattern × access ×
//!   radio × kernel, quantifying §5's conclusion that "the set of possible
//!   system designs is quite limited";
//! * `queueing` — the closed-form M/D/1 bound cross-checking the
//!   open-loop overload sweep's sub-saturation queueing delay.
//!
//! The crate depends on `sim` and `phy` only (`tests/tests/layering.rs`
//! pins it). The analysis of simulated runs lives beside the code it
//! reads: `stack::{audit, slo, recovery}`, `stack::handover`'s
//! interruption bound and `radio::reliability`'s margin sweep.

pub mod decompose;
pub(crate) mod design;
pub mod feasibility;
pub mod formats;
pub mod model;
pub(crate) mod queueing;
pub mod reliability;
pub mod worst_case;

pub use decompose::SourceShare;
pub use design::DesignSearch;
pub use feasibility::feasibility_table;
pub use formats::format_survey;
pub use model::ProcessingBudget;
pub use queueing::Md1Model;
pub use reliability::ChaosMissModel;
