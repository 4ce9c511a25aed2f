//! # urllc-corenet — 5G core user plane
//!
//! The last hop of the paper's Fig 2: the gNB encapsulates the
//! reconstructed packet in GTP-U and forwards it over the N3 interface to
//! the User Plane Function, which decapsulates it onto the data network.
//! The paper scopes its analysis to the RAN (§9: "URLLC in the 5G Core" is
//! an open problem), so the core here is deliberately thin but real:
//!
//! * [`gtpu`] — the GTP-U header codec (TS 29.281);
//! * [`upf`] — TEID-keyed session lookup, encapsulation/decapsulation;
//! * `backbone` — N3/N6 transport delay models;
//! * `supervision` — GTP-U echo keepalive with retry/backoff and
//!   failover onto a backup path;
//! * `hop` — the supervised crossing packaged as one pipeline unit for
//!   the stack's ping walk;
//! * [`qos`] — the standardised 5QI table (TS 23.501): packet delay
//!   budgets and error-rate targets, and what a configuration's latency
//!   can legally carry;
//! * `xn` — the Xn-U data-forwarding tunnel used during inter-gNB
//!   handover: sequenced G-PDU forwarding, SN status transfer, and the
//!   end marker that closes the tunnel after the path switch.

pub(crate) mod backbone;
pub mod gtpu;
pub(crate) mod hop;
pub mod qos;
pub(crate) mod supervision;
pub mod upf;
pub(crate) mod xn;

pub use backbone::BackboneLink;
pub use gtpu::GtpuHeader;
pub use hop::plan_crossing;
pub use supervision::{PathEvent, PathEventKind, PathSupervisor, SupervisionConfig};
pub use upf::Upf;
pub use xn::{SnStatusTransfer, XnDelivery, XnForwardingTunnel, XnReceiver};
