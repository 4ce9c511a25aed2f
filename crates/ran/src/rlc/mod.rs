//! RLC — Radio Link Control (TS 38.322).
//!
//! The paper's Fig 2 stops at RLC for "segmentation and reassembly", and
//! Table 2 shows why the layer matters to latency: RLC processing itself is
//! 4 µs, but the *RLC queue* — where DL data waits for the next scheduling
//! round — is 484 µs, two orders of magnitude larger and the single biggest
//! row in the table. This module implements both transmission modes used on
//! data bearers:
//!
//! * `um` — Unacknowledged Mode: segmentation/reassembly only, no
//!   retransmission. The mode URLLC traffic typically rides (one shot, no
//!   retx latency).
//! * [`am`] — Acknowledged Mode: adds status reporting and retransmission,
//!   trading latency for delivery guarantees (the reliability side of §6).
//!
//! Transparent Mode (TM) carries only signalling and has no data-path
//! machinery worth modelling here.

pub mod am;
pub(crate) mod um;

pub use am::{AmConfig, RlcAmEntity, StatusPdu};
pub use um::RlcUmEntity;

/// Segmentation Info — position of a PDU's payload within its SDU
/// (TS 38.322 §6.2.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentInfo {
    /// The whole SDU.
    Full,
    /// First segment (offset 0, more follow).
    First,
    /// A middle segment.
    Middle,
    /// The last segment.
    Last,
}

impl SegmentInfo {
    /// The 2-bit wire encoding (00 full, 01 first, 11 middle, 10 last).
    pub(crate) fn to_bits(self) -> u8 {
        match self {
            SegmentInfo::Full => 0b00,
            SegmentInfo::First => 0b01,
            SegmentInfo::Middle => 0b11,
            SegmentInfo::Last => 0b10,
        }
    }

    /// Decodes the 2-bit field.
    pub(crate) fn from_bits(bits: u8) -> SegmentInfo {
        match bits & 0b11 {
            0b00 => SegmentInfo::Full,
            0b01 => SegmentInfo::First,
            0b11 => SegmentInfo::Middle,
            _ => SegmentInfo::Last,
        }
    }

    /// Whether a PDU with this SI carries a segment offset field.
    pub fn has_so(self) -> bool {
        matches!(self, SegmentInfo::Middle | SegmentInfo::Last)
    }
}

/// Errors common to both RLC modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RlcError {
    /// PDU too short for its declared header.
    Truncated,
    /// Grant too small to fit any payload next to the header.
    GrantTooSmall {
        /// The offered grant in bytes.
        grant: usize,
        /// Minimum useful grant for the pending PDU.
        needed: usize,
    },
    /// AM: an SDU exhausted its retransmission budget.
    MaxRetxReached {
        /// Sequence number of the abandoned SDU.
        sn: u16,
    },
    /// Transmission buffer at capacity: the SDU was tail-dropped instead
    /// of growing the queue without bound (overload protection).
    TxBufferFull {
        /// Bytes already queued when the SDU arrived.
        queued: usize,
        /// Configured transmission-buffer capacity in bytes.
        cap: usize,
    },
    /// UM: a received segment's offset or length contradicts segments
    /// already buffered for the same SN (overlapping bytes differ, or the
    /// claimed SDU end moved) — a corrupted `SO` field on the wire. The
    /// reassembly is abandoned and counted as a loss.
    SegmentMismatch {
        /// Sequence number of the abandoned reassembly.
        sn: u8,
    },
}

impl core::fmt::Display for RlcError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RlcError::Truncated => write!(f, "RLC PDU shorter than its header"),
            RlcError::GrantTooSmall { grant, needed } => {
                write!(f, "grant of {grant} B cannot fit a PDU (need ≥ {needed} B)")
            }
            RlcError::MaxRetxReached { sn } => {
                write!(f, "SDU with SN {sn} exceeded maxRetxThreshold")
            }
            RlcError::TxBufferFull { queued, cap } => {
                write!(f, "tx buffer full ({queued} B queued, cap {cap} B)")
            }
            RlcError::SegmentMismatch { sn } => {
                write!(f, "segment for SN {sn} contradicts buffered segments (corrupt SO)")
            }
        }
    }
}

impl std::error::Error for RlcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_info_bits_roundtrip() {
        for si in [SegmentInfo::Full, SegmentInfo::First, SegmentInfo::Middle, SegmentInfo::Last] {
            assert_eq!(SegmentInfo::from_bits(si.to_bits()), si);
        }
    }

    #[test]
    fn so_presence() {
        assert!(!SegmentInfo::Full.has_so());
        assert!(!SegmentInfo::First.has_so());
        assert!(SegmentInfo::Middle.has_so());
        assert!(SegmentInfo::Last.has_so());
    }
}
