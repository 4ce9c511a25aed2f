//! # urllc-ran — the 5G NR layer-2 stack
//!
//! Every layer a packet crosses in the paper's Fig 2 between the IP stack
//! and the PHY, with real PDU formats and real state machines:
//!
//! * [`sdap`] — Service Data Adaptation Protocol (TS 37.324): QoS-flow to
//!   radio-bearer mapping and the one-byte SDAP header;
//! * [`pdcp`] — Packet Data Convergence Protocol (TS 38.323): sequence
//!   numbering/COUNT, ciphering, and receive-side reordering;
//! * [`rlc`] — Radio Link Control (TS 38.322): UM segmentation/reassembly
//!   and AM with status reporting and retransmission;
//! * [`mac`] — Medium Access Control (TS 38.321): subheader mux/demux,
//!   BSR, and padding;
//! * [`pdu`] — the PDUs passed between those layers, so that a ping leg
//!   costs one transmit buffer and one receive copy;
//! * [`sr`] — the UE-side scheduling-request state machine (the ② of the
//!   paper's Fig 2);
//! * [`harq`] — hybrid-ARQ processes and retransmission-timing analysis
//!   (the §8 "+0.5 ms steps per retransmission");
//! * [`rach`] — the four-step random-access fallback and its contention
//!   behaviour under load (§9 scalability);
//! * [`rrc`] — connection re-establishment after radio-link failure
//!   (TS 38.331 §5.3.7): detection, re-access, and the recovery timeline;
//! * [`sched`] — the gNB per-slot scheduler: SR handling, grant-based and
//!   grant-free (configured-grant) uplink, downlink allocation, and the
//!   radio-readiness margin of §4;
//! * [`timing`] — per-layer processing-time models calibrated to the
//!   paper's Table 2.

pub mod harq;
#[cfg(test)]
mod hostile;
pub mod mac;
pub mod pdcp;
pub mod pdu;
pub mod rach;
pub mod rlc;
pub mod rrc;
pub mod sched;
pub mod sdap;
pub mod sr;
pub mod timing;

pub use pdcp::{PdcpConfig, PdcpEntity, PdcpStatusReport};
pub use rach::{simulate_contention, RachConfig};
pub use rlc::{RlcAmEntity, RlcUmEntity};
pub use rrc::{HandoverConfig, HandoverEntity, RrcConfig, RrcEntity};
pub use sched::{AccessMode, PolicySpec};
pub use sdap::SdapEntity;
