//! # urllc-bench — experiment harness support
//!
//! Shared machinery for the `repro` binary:
//!
//! * [`report`] — a figure's [`Report`](report::Report) (its text, files,
//!   self-checks and latency distributions), the ASCII plots (histograms,
//!   series) and CSV writer it is rendered with, and the `BENCH_repro.json`
//!   document, so every regenerated table/figure is both human-readable
//!   and machine-checkable;
//! * [`fr2study`] — the §1/§5 mmWave argument as an experiment: even with
//!   15.625–125 µs slots, FR2 blockage keeps the sub-millisecond fraction
//!   in the low percents (the "4.4 % of the time" measurement the paper
//!   cites).

pub mod fr2study;
pub mod report;

pub use fr2study::{fr2_study, Fr2Study};
