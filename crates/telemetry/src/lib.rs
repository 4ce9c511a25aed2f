//! Cross-layer telemetry backbone for the URLLC workspace.
//!
//! The paper's core move is *attribution* — splitting the 0.5 ms budget
//! into protocol, processing and radio sources (Fig 2/3). This crate
//! supplies the machinery to do that attribution continuously rather
//! than via hand-picked stage spans:
//!
//! * [`metric`] — the static metric vocabulary: every `(layer, name,
//!   label)` key the program records, each named by a [`MetricId`].
//! * `MetricsRegistry` — counters and log-linear histograms in dense
//!   slots indexed by [`MetricId`] (keys outside the vocabulary get slots
//!   appended on first use), snapshotable to text/CSV/JSON
//!   (`MetricsSnapshot`).
//! * [`EventJournal`] — a bounded ring buffer of typed, sim-time-stamped
//!   [`JournalEvent`]s (grants, SR cycles, HARQ NACKs, fault injections,
//!   RLF/recovery transitions, path failovers), 32 bytes each.
//! * [`Stage`] — the paper's Fig-3 stage vocabulary as a one-byte code,
//!   the label a journaled stage span carries.
//! * [`perfetto`] — a Chrome trace-event / Perfetto JSON exporter that
//!   renders the journal as a flamegraph-style timeline.
//! * [`FlightRecorder`] — an always-on, bounded tail-forensics buffer
//!   retaining full evidence (spans, fault attribution, drop reasons,
//!   queue depths) for the K slowest pings plus every deadline-miss /
//!   RLF / loss / handover-failure ping.
//! * [`Profiler`] — a *host* wall-time profiler (scoped timers around
//!   hop dispatches), kept strictly apart from sim-time telemetry so
//!   host noise can never reach a deterministic artifact.
//! * [`Telemetry`] — the cheap cloneable handle threaded through the
//!   stack; disabled by default, in which case every call is a no-op.
//!
//! The crate sits next to `sim` in the dependency order so every layer
//! crate (phy, radio, channel, ran, corenet, stack, core, bench) can
//! record into it. Recording consumes no RNG draws and no simulated
//! time; telemetry on/off leaves simulation results bit-identical.

#![warn(missing_docs)]

pub(crate) mod flight;
pub mod handle;
pub(crate) mod journal;
pub mod metric;
pub mod perfetto;
pub(crate) mod profiler;
pub(crate) mod registry;
pub(crate) mod stage;

pub use flight::{
    ExemplarOutcome, ExemplarSpan, FlightRecorder, TailExemplar, DEFAULT_FORCED_CAP,
    DEFAULT_WORST_K,
};
pub use handle::{Sink, Telemetry, TelemetrySummary};
pub use journal::{EventJournal, JournalEvent};
pub use metric::MetricId;
pub use profiler::Profiler;
pub use registry::LogLinearHistogram;
pub use stage::Stage;
