//! # urllc-channel — wireless channel models
//!
//! Latency experiments need a *delay + loss* channel, not an IQ-accurate
//! propagation simulator (the substitution is recorded in DESIGN.md). Two
//! models cover the paper's arguments:
//!
//! * `fr1` — sub-6 GHz link: an SNR/PER curve with log-normal shadowing.
//!   FR1 is the reliable workhorse of the paper's §5 design choices; its
//!   loss rate feeds the RLC retransmission and reliability experiments.
//! * [`fr2`] — mmWave link: a two-state line-of-sight blockage process.
//!   This reproduces the §1/§5 argument that FR2's 15.625 µs slots don't
//!   help because the link itself vanishes for milliseconds at a time —
//!   the "sub-millisecond latencies only 4.4 % of the time" observation
//!   from the Fezeu et al. measurements the paper cites.
//! * [`propagation`] — distance-based propagation delay (sub-µs at private
//!   5G scale; included so the end-to-end account is complete).

pub(crate) mod fr1;
pub mod fr2;
pub mod propagation;

pub use fr1::{Fr1Link, Fr1LinkConfig};
pub use fr2::{BlockageState, BlockageTrace, Fr2LinkConfig};
