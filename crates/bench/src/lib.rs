//! # urllc-bench — experiment harness support
//!
//! Shared machinery for the `repro` binary:
//!
//! * [`report`] — ASCII plotting (histograms, series) and CSV emission, so
//!   every regenerated table/figure is both human-readable and
//!   machine-checkable;
//! * [`fr2study`] — the §1/§5 mmWave argument as an experiment: even with
//!   15.625–125 µs slots, FR2 blockage keeps the sub-millisecond fraction
//!   in the low percents (the "4.4 % of the time" measurement the paper
//!   cites);
//! * [`ratchet`] — the gating CI wall-time ratchet judging
//!   `BENCH_repro.json` against the checked-in `ci/wall_baseline.json`.

pub mod fr2study;
pub mod ratchet;
pub mod report;

pub use fr2study::{fr2_study, Fr2Study};
pub use ratchet::{RatchetBaseline, RatchetReport, RatchetViolation, Tolerance, WallEntry};
