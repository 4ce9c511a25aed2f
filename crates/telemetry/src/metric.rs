//! The metric vocabulary: every `(layer, name, label)` key the program
//! records, declared once and named by a [`MetricId`] constant.
//!
//! A layer records `tel.add(metric::PDCP_TX_PDUS, 1)` rather than
//! `tel.count("pdcp", "tx_pdus", 1)`: the id is the key's slot in the
//! registry's dense arrays, so recording is a lock plus an array store
//! with no string compared, and a misspelt metric is a compile error
//! instead of a new row. The string API stays for keys outside this list
//! (the benchmark's and the tests'); it resolves a vocabulary key to the
//! same slot, see [`crate::registry`].

use std::hash::{BuildHasherDefault, Hasher};

use crate::registry::MetricKey;

/// A key of the vocabulary: its index in [`VOCABULARY`] and the registry
/// slot every sink keeps for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(u16);

impl MetricId {
    /// The registry slot of this key.
    pub(crate) fn slot(self) -> usize {
        usize::from(self.0)
    }

    /// The `(layer, name, label)` key this id names.
    pub fn key(self) -> MetricKey {
        VOCABULARY[self.slot()]
    }
}

macro_rules! vocabulary {
    (@label) => { "" };
    (@label $label:literal) => { $label };
    ($($id:ident = $layer:literal / $name:literal $({ $label:literal })?;)*) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        enum Slot { $($id,)* }
        $(
            #[doc = concat!("`", $layer, "/", $name, $("{", $label, "}",)? "`")]
            pub const $id: MetricId = MetricId(Slot::$id as u16);
        )*
        /// Every key of the vocabulary, in slot order.
        pub(crate) const VOCABULARY: &[MetricKey] = &[$(MetricKey {
            layer: $layer,
            name: $name,
            label: vocabulary!(@label $($label)?),
        },)*];
    };
}

vocabulary! {
    AUDIT_OVERLAP_US = "audit" / "overlap_us";
    AUDIT_RECOVERY_OVER_BOUND = "audit" / "recovery_over_bound";
    AUDIT_RESIDUAL_US = "audit" / "residual_us";
    AUDIT_TERM_US_PROTOCOL = "audit" / "term_us" {"protocol"};
    AUDIT_TERM_US_PROCESSING = "audit" / "term_us" {"processing"};
    AUDIT_TERM_US_RADIO = "audit" / "term_us" {"radio"};
    AUDIT_TERM_US_CORE = "audit" / "term_us" {"core"};
    AUDIT_TERM_US_RECOVERY = "audit" / "term_us" {"recovery"};
    CHANNEL_PKT = "channel" / "pkt";
    CHANNEL_PKT_LOST = "channel" / "pkt_lost";
    CORENET_DETECTION_US = "corenet" / "detection_us";
    CORENET_DL_GPDU = "corenet" / "dl_gpdu";
    CORENET_ECHO_RSP = "corenet" / "echo_rsp";
    CORENET_FAILOVERS = "corenet" / "failovers";
    CORENET_GTPU_DECODE_ERR = "corenet" / "gtpu_decode_err";
    CORENET_N3_US = "corenet" / "n3_us";
    CORENET_PROBES_LOST = "corenet" / "probes_lost";
    CORENET_PROBES_SENT = "corenet" / "probes_sent";
    CORENET_UL_GPDU = "corenet" / "ul_gpdu";
    JOURNEY_RTT = "journey" / "rtt";
    JOURNEY_SPAN_INVERTED = "journey" / "span_inverted";
    MAC_GRANTS_WITHHELD = "mac" / "grants_withheld";
    MAC_HARQ_FAILURES = "mac" / "harq_failures";
    MAC_HARQ_RETX = "mac" / "harq_retx";
    MAC_PROC_US = "mac" / "proc_us";
    MAC_RACH_RECOVERIES = "mac" / "rach_recoveries";
    MAC_SPURIOUS_HARQ_RETX = "mac" / "spurious_harq_retx";
    MAC_SR_RETX = "mac" / "sr_retx";
    PDCP_DISCARD_EXPIRED = "pdcp" / "discard_expired";
    PDCP_PROC_US = "pdcp" / "proc_us";
    PDCP_RETX_PDUS = "pdcp" / "retx_pdus";
    PDCP_RX_PDUS = "pdcp" / "rx_pdus";
    PDCP_TX_PDUS = "pdcp" / "tx_pdus";
    PHY_PROC_US = "phy" / "proc_us";
    RADIO_BUS_JITTER_US = "radio" / "bus_jitter_us";
    RADIO_RING_LATE_US = "radio" / "ring_late_us";
    RADIO_RING_MARGIN_US = "radio" / "ring_margin_us";
    RADIO_RING_SUBMITS = "radio" / "ring_submits";
    RADIO_RING_UNDERRUNS = "radio" / "ring_underruns";
    RADIO_RX_US = "radio" / "rx_us";
    RADIO_STORM_US = "radio" / "storm_us";
    RADIO_SUBMIT_US = "radio" / "submit_us";
    RADIO_TX_US = "radio" / "tx_us";
    RLC_AM_RETX_ROUNDS = "rlc" / "am_retx_rounds";
    RLC_PROC_US = "rlc" / "proc_us";
    RLC_QUEUE_US = "rlc" / "queue_us";
    RLC_RX_PDUS = "rlc" / "rx_pdus";
    RLC_SEGMENT_MISMATCHES = "rlc" / "segment_mismatches";
    RLC_TX_DROPPED_FULL = "rlc" / "tx_dropped_full";
    RLC_TX_SDUS = "rlc" / "tx_sdus";
    RRC_HO_ATTEMPT = "rrc" / "ho_attempt";
    RRC_HO_COMPLETE = "rrc" / "ho_complete";
    RRC_HO_INTERRUPTION_US = "rrc" / "ho_interruption_us";
    RRC_HO_PING_PONG = "rrc" / "ho_ping_pong";
    RRC_HO_TOO_EARLY = "rrc" / "ho_too_early";
    RRC_HO_TOO_LATE = "rrc" / "ho_too_late";
    RRC_RECOVERY_US = "rrc" / "recovery_us";
    RRC_REESTABLISH_FAILED = "rrc" / "reestablish_failed";
    RRC_REESTABLISH_OK = "rrc" / "reestablish_ok";
    RRC_RLF_DETECTED = "rrc" / "rlf_detected";
    SDAP_PROC_US = "sdap" / "proc_us";
    SDAP_RX_PDUS = "sdap" / "rx_pdus";
    SDAP_TX_PDUS = "sdap" / "tx_pdus";
}

/// The vocabulary id of `key`, if it has one: how the string API lands a
/// vocabulary key in the slot its id names. A scan, because a registry
/// asks once per key and remembers the answer.
pub(crate) fn lookup(key: &MetricKey) -> Option<MetricId> {
    VOCABULARY.iter().position(|k| k == key).map(|slot| MetricId(slot as u16))
}

/// The hasher of the registry's key index. Keys are three short strings,
/// where SipHash's set-up costs more than the bytes.
pub(crate) type KeyHash = BuildHasherDefault<WordHasher>;

/// An Fx-style hasher that mixes eight bytes per step. The tail is
/// gathered byte by byte rather than copied, so no call reaches `memcpy`.
#[derive(Default)]
pub(crate) struct WordHasher(u64);

impl WordHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("an eight-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            self.mix(tail.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)));
        }
    }

    fn write_u8(&mut self, b: u8) {
        self.mix(u64::from(b));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocabulary_keys_are_unique() {
        let mut keys = VOCABULARY.to_vec();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), VOCABULARY.len());
    }

    #[test]
    fn every_vocabulary_key_looks_up_to_its_own_id() {
        for (slot, key) in VOCABULARY.iter().enumerate() {
            let id = lookup(key).expect("a vocabulary key");
            assert_eq!((id.slot(), id.key()), (slot, *key));
        }
        let outside = MetricKey { layer: "phy", name: "walk_us", label: "" };
        assert_eq!(lookup(&outside), None);
        assert_eq!(AUDIT_TERM_US_RECOVERY.key().label, "recovery");
    }
}
