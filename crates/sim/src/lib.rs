//! # urllc-sim — deterministic discrete-event simulation engine
//!
//! This crate provides the substrate on which the whole `urllc-5g` workspace
//! runs: a nanosecond-resolution notion of time, a deterministic event queue,
//! reproducible random-number streams, service-time distributions, and
//! streaming statistics.
//!
//! ## Design
//!
//! Following the event-driven, poll-based style of embedded network stacks
//! (e.g. smoltcp), the engine is fully synchronous and deterministic:
//!
//! * [`time::Instant`] and [`time::Duration`] are thin wrappers over integer
//!   nanoseconds — no floating point in the time arithmetic, so event
//!   ordering is exact and platform independent.
//! * [`event::EventQueue`] breaks ties by insertion order, so two events
//!   scheduled for the same instant always fire in the order they were
//!   scheduled, independent of heap internals.
//! * [`rng::SimRng`] derives independent child streams from a single master
//!   seed, so adding a new random component does not perturb the draws seen
//!   by existing components (a classic simulation-reproducibility pitfall).
//!
//! Identical seeds and identical inputs therefore produce bit-identical
//! traces, which is what lets the benchmark harness regenerate each figure
//! of the paper exactly.

pub(crate) mod arrivals;
pub(crate) mod dist;
pub(crate) mod event;
pub mod faults;
pub mod parallel;
pub(crate) mod rng;
pub(crate) mod stats;
pub(crate) mod time;

pub use arrivals::{ArrivalGen, ArrivalProcess};
pub use dist::Dist;
pub use event::EventQueue;
pub use faults::{
    DropReason, FaultAttribution, FaultInjector, FaultKind, FaultPlan, FaultTally, GilbertElliott,
    HandoverFaultConfig, LossGate, PathFailureConfig, PingFaultTrace,
};
pub use rng::SimRng;
pub use stats::{
    BucketExemplar, Histogram, LatencyRecorder, LogLinearHistogram, Recording, StreamingStats,
    Summary, SUB_BUCKETS,
};
pub use time::{Duration, Instant};
