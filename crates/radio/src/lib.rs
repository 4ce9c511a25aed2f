//! # urllc-radio — radio head and SDR fronthaul models
//!
//! The paper's third latency category is *radio latency*: "the time spent
//! in RF chains (e.g. analog-to-digital and digital-to-analog conversions),
//! queuing delays on interface buses, and the bus transmission time" (§4),
//! and §6/Fig 5 show its most treacherous component — OS-scheduling spikes
//! in the sample-submission path of a software radio.
//!
//! This crate stands in for the paper's USRP B210 (USB) radio head:
//!
//! * `interface` — fronthaul bus models (USB 2.0, USB 3.0, PCIe,
//!   Ethernet): per-transfer setup cost plus per-sample throughput cost,
//!   the linear part of Fig 5;
//! * [`jitter`] — a Markov-modulated OS-scheduling delay process producing
//!   the spikes of Fig 5 and the non-determinism §6 warns about;
//! * `head` — the radio-head pipeline (DAC/ADC group delay, analog
//!   front-end) and the end-to-end submit/receive latency;
//! * `ring` — the TX sample ring with deadline tracking: samples arriving
//!   after their air-time cause an *underrun* (the paper's "corrupted
//!   signal" when the scheduler margin is too small, §4);
//! * [`reliability`] — the §6 margin-vs-reliability sweep: Monte Carlo
//!   scheduler margins against a head's stochastic submission time.

pub(crate) mod head;
pub(crate) mod interface;
pub mod jitter;
pub mod reliability;
pub(crate) mod ring;

pub use head::{RadioHead, RadioHeadConfig};
pub use interface::{FronthaulInterface, InterfaceKind};
pub use jitter::OsJitterConfig;
pub use ring::TxRing;
