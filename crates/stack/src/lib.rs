//! # urllc-stack — the composed 5G system
//!
//! This crate wires every substrate together into the system of the paper's
//! Fig 2 — UE application down through SDAP/PDCP/RLC/MAC/PHY, over the
//! radio heads and the air, up the gNB stack, through GTP-U to the UPF —
//! and drives ping round trips through it under a discrete-event clock.
//!
//! * `config` — one struct gathering every knob (duplexing, access mode,
//!   processing models, radio heads, backbone), with presets for the
//!   paper's §7 testbed and the §5 ideal URLLC designs;
//! * `node` — the UE and gNB protocol stacks: real PDU encode/decode
//!   through every layer (packets are actually built, ciphered, segmented,
//!   multiplexed, modulated — not just delayed);
//! * `journey` — per-stage latency traces of a ping (Fig 2's eleven steps
//!   / Fig 3's timeline), with an ASCII renderer;
//! * `experiment` — the end-to-end ping experiment: per-direction latency
//!   distributions (Fig 6), per-layer processing statistics (Table 2),
//!   radio deadline bookkeeping (§6 reliability);
//! * `pipeline` — the stage pipeline: the ping walk as a state machine of
//!   one function per hop behind a single exhaustive `match` on the
//!   event, each hop returning the one event that follows it, with faults
//!   applied by gate functions in front of the hops they perturb;
//! * `stage_labels` — the canonical Fig-3 stage vocabulary shared by
//!   traces, telemetry keys and the deadline-budget auditor;
//! * `multi_ue` — the §9 scalability experiment: uplink latency and
//!   resource waste as the UE population grows, grant-free vs grant-based;
//! * `multicell` — the city-scale N-gNB topology: slot-stepped cells
//!   and heterogeneous UE mixes, sharded with cells as the boundary,
//!   recording fixed-memory up to 10⁶ total UEs;
//! * `coexistence` — URLLC sharing the downlink with eMBB: queueing vs
//!   preemption (the §1 coexistence literature, on this stack);
//! * `frame` — the one slot clock under the open-loop engines: a per-class
//!   walk (`multicell`, `overload`) and a per-packet walk on the scheduler
//!   (`schedlab`, `coexistence`, `multi_ue`).
//!
//! Beside the engines sits the analysis of their runs: `audit` (the
//! per-ping deadline-budget audit and the tail decomposition), `slo` (the
//! SLO supervisor driving `overload`'s degradation), and the closed-form
//! bounds built from entity methods — `recovery` (RLF detour, N3 outage
//! detection) and `handover`'s interruption model.

pub(crate) mod audit;
pub(crate) mod coexistence;
pub(crate) mod config;
pub(crate) mod experiment;
pub(crate) mod frame;
pub(crate) mod handover;
pub(crate) mod journey;
pub(crate) mod multi_ue;
pub(crate) mod multicell;
pub(crate) mod node;
pub mod overload;
pub(crate) mod pipeline;
pub(crate) mod recovery;
pub mod schedlab;
pub(crate) mod slo;
pub(crate) mod stage_labels;

pub use audit::{audit_traces, decompose_tail, TailBaseline};
pub use coexistence::coexistence_sweep;
pub use config::StackConfig;
pub use experiment::{
    run_parallel, run_parallel_opts, run_parallel_profiled, run_parallel_workers, ExperimentResult,
    PingExperiment, BATCH_PINGS,
};
pub use handover::{
    run_mobility, run_mobility_profiled, HandoverInterruptionModel, MobilityConfig, MobilityReport,
};
pub use journey::{PingTrace, StageSpan};
pub use multi_ue::{run_multi_ue, scalability_sweep, MultiUeConfig};
pub use multicell::{run_multicell, CellReport, MulticellConfig, MulticellReport};
pub use node::{GnbStack, UeStack};
pub use overload::{
    run_overload, run_overload_profiled, service_capacity_pps, DegradationLevel, DropReason,
    NullHook, OverloadConfig, OverloadReport,
};
pub use pipeline::HopId;
pub use recovery::RecoveryLatencyModel;
pub use schedlab::{run_sched_lab, SchedLabConfig};
pub use slo::{SloConfig, SloSupervisor};
