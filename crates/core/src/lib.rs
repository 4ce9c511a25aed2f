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
//!   (OS jitter) converts into deadline misses, and the
//!   margin-vs-reliability trade;
//! * [`audit`] — the per-ping deadline-budget audit: folds simulated
//!   stage traces onto the model's terms and reports the residuals;
//! * [`recovery`] — closed-form worst-case recovery latency: what an RLF
//!   re-establishment detour or an N3 path-outage detection costs,
//!   cross-checked against the stack simulation;
//! * [`handover`] — closed-form worst-case handover interruption: what an
//!   inter-cell mobility event (clean, too-late, too-early, or with a
//!   lost forwarding batch) costs the stream, cross-checked against the
//!   mobility simulation;
//! * [`design`] — design-space search over numerology × pattern × access ×
//!   radio × kernel, quantifying §5's conclusion that "the set of possible
//!   system designs is quite limited";
//! * [`queueing`] — the closed-form M/D/1 bound cross-checking the
//!   open-loop overload sweep's sub-saturation queueing delay;
//! * [`slo`] — the windowed, hysteresis-guarded SLO supervisor that drives
//!   `stack::overload`'s graceful degradation.

pub(crate) mod audit;
pub mod decompose;
pub(crate) mod design;
pub mod feasibility;
pub mod formats;
pub(crate) mod handover;
pub mod model;
pub(crate) mod queueing;
pub(crate) mod recovery;
pub mod reliability;
pub(crate) mod slo;
pub mod worst_case;

pub use audit::{audit_traces, decompose_tail, TailBaseline};
pub use decompose::SourceShare;
pub use design::DesignSearch;
pub use feasibility::feasibility_table;
pub use formats::format_survey;
pub use handover::HandoverInterruptionModel;
pub use model::ProcessingBudget;
pub use queueing::Md1Model;
pub use recovery::RecoveryLatencyModel;
pub use reliability::ChaosMissModel;
pub use slo::{SloConfig, SloSupervisor};
