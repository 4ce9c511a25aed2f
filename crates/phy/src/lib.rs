//! # urllc-phy — 5G NR physical-layer model
//!
//! Timing-faithful implementation of the parts of the NR physical layer the
//! paper's analysis rests on:
//!
//! * [`numerology`] — the seven numerologies µ0–µ6 of TS 38.211, their
//!   subcarrier spacings and slot/symbol durations, and the FR1/FR2 split
//!   that drives the paper's "only 0.25 ms slots are feasible in FR1"
//!   argument (§5, *PHY Configuration*);
//! * [`tdd`] — TDD *Common Configuration* patterns (TS 38.331
//!   `tdd-UL-DL-ConfigurationCommon`), including the standard's restriction
//!   of pattern periods to {0.5, 0.625, 1, 1.25, 2, 2.5, 5, 10} ms and the
//!   mandatory guard symbols in the mixed slot (paper §2, Fig 1a);
//! * [`slot_format`] — the predefined slot formats of TS 38.213
//!   Table 11.1.1-1 (paper §2, Fig 1c);
//! * [`mini_slot`] — Type-B (mini-slot) scheduling granularity (paper §2,
//!   Fig 1b);
//! * [`band`] + [`duplex`] — FR1/FR2 operating bands, the sub-2.6 GHz FDD
//!   restriction that forces private 5G onto TDD (paper §2, §9);
//! * [`frame`] — bijection between simulation time and (SFN, slot, symbol);
//! * [`grid`] — resource-grid allocation and transport-block sizing;
//! * [`modulation`], [`scrambling`], [`crc`], [`transport`] — the bit-level
//!   data path (Gray-mapped QAM per TS 38.211 §5.1, Gold-sequence
//!   scrambling per §5.2.1, the CRC polynomials of TS 38.212 §5.1, and
//!   code-block segmentation per §5.2.2);
//! * [`equalize`] — single-tap channels, pilot-based estimation and
//!   zero-forcing equalisation (the receive-side half of the PHY cost
//!   Table 2 measures);
//! * [`ofdm`] — the OFDM baseband itself: subcarrier mapping, radix-2
//!   (I)FFT and cyclic prefix — the transform that produces the sample
//!   stream Fig 5's bus carries;
//! * [`prach`] — Zadoff–Chu random-access preambles and a correlation
//!   detector (the PHY under `urllc-ran`'s RACH procedure);
//! * [`timing`] — the PHY processing-time model used when the full stack
//!   runs in the discrete-event simulator.

pub mod band;
pub mod crc;
pub mod duplex;
pub mod equalize;
pub mod frame;
pub mod grid;
pub mod mini_slot;
pub mod modulation;
pub mod numerology;
pub mod ofdm;
pub mod prach;
pub mod scrambling;
pub mod slot_format;
pub mod tdd;
pub mod timing;
pub mod transport;

pub use duplex::Duplex;
pub use mini_slot::MiniSlotConfig;
pub use numerology::Numerology;
pub use slot_format::SlotFormat;
pub use tdd::TddConfig;
