//! RLC Acknowledged Mode (TS 38.322 §5.2.3, 12-bit SN).
//!
//! AM adds delivery guarantees on top of UM: every data PDU is held until
//! acknowledged, the transmitter polls the receiver for status (P bit), and
//! NACKed PDUs are retransmitted up to `maxRetxThreshold` times. Each
//! recovery costs at least one scheduling round trip — the latency price of
//! reliability the paper's §6 weighs.
//!
//! Simplifications relative to the full spec (recorded in DESIGN.md):
//! PDUs carry whole SDUs (no AM re-segmentation: our MAC sizes grants to
//! the PDU, so SO-based segment recovery is never exercised), and polling
//! is count-based (`pollPDU`) rather than timer-based. The wire formats:
//!
//! ```text
//! AMD PDU:    | D/C=1 | P | SI(2)=00 | SN(11:8) | SN(7:0) | payload...
//! STATUS PDU: | D/C=0 | CPT(3)=000 | ACK_SN(11:8) | ACK_SN(7:0)
//!             | nack_count(8) | NACK_SN(16)* |
//! ```

use bytes::{BufMut, Bytes, BytesMut};
use std::collections::{BTreeMap, VecDeque};

use super::RlcError;

/// AM sequence-number modulus (12-bit).
pub(crate) const AM_SN_MODULUS: u32 = 4096;

/// Half the SN space — the AM window.
pub(crate) const AM_WINDOW: u32 = AM_SN_MODULUS / 2;

/// AM entity configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AmConfig {
    /// Maximum retransmissions per SDU before it is abandoned
    /// (`maxRetxThreshold`).
    pub max_retx: u8,
    /// Request a status report every this many data PDUs (`pollPDU`).
    pub poll_pdu: u32,
}

impl Default for AmConfig {
    fn default() -> Self {
        AmConfig { max_retx: 4, poll_pdu: 4 }
    }
}

/// A decoded status PDU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusPdu {
    /// SN of the next PDU the receiver has *not* fully received (all SNs
    /// below it, other than the NACKed ones, are acknowledged).
    pub ack_sn: u16,
    /// Missing SNs below `ack_sn`.
    pub nacks: Vec<u16>,
}

impl StatusPdu {
    /// Encodes to wire format. The one-byte NACK count caps the list at
    /// 255 entries; any excess is dropped from the tail, which is safe —
    /// an un-NACKed missing SN is simply reported by the next status PDU
    /// (the spec's own behaviour when a status PDU doesn't fit its grant).
    pub fn encode(&self) -> Bytes {
        let nacks = &self.nacks[..self.nacks.len().min(255)];
        let mut out = BytesMut::with_capacity(3 + 2 * nacks.len());
        out.put_u8(((self.ack_sn >> 8) as u8) & 0x0F); // D/C=0, CPT=000
        out.put_u8(self.ack_sn as u8);
        out.put_u8(nacks.len() as u8);
        for &n in nacks {
            out.put_u16(n);
        }
        out.freeze()
    }

    /// Decodes from wire format.
    pub fn decode(pdu: &Bytes) -> Result<StatusPdu, RlcError> {
        if pdu.len() < 3 {
            return Err(RlcError::Truncated);
        }
        let ack_sn = (u16::from(pdu[0] & 0x0F) << 8) | u16::from(pdu[1]);
        let count = pdu[2] as usize;
        if pdu.len() < 3 + 2 * count {
            return Err(RlcError::Truncated);
        }
        let nacks =
            (0..count).map(|i| u16::from_be_bytes([pdu[3 + 2 * i], pdu[4 + 2 * i]])).collect();
        Ok(StatusPdu { ack_sn, nacks })
    }
}

/// What a received PDU produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AmRxOutcome {
    /// SDUs now deliverable in order.
    pub delivered: Vec<Bytes>,
    /// SDUs the *transmit* side abandoned after `maxRetxThreshold`
    /// (surfaced when a status PDU NACKs them once too often).
    pub failed: Vec<Bytes>,
}

#[derive(Debug, Clone)]
struct TxEntry {
    sdu: Bytes,
    retx: u8,
}

/// An RLC AM entity (transmit + receive sides).
#[derive(Debug, Clone)]
pub struct RlcAmEntity {
    config: AmConfig,
    // ---- transmit side ----
    wait_queue: VecDeque<Bytes>,
    /// Unacknowledged PDUs, keyed by absolute count (SN = count mod 4096).
    tx_buffer: BTreeMap<u64, TxEntry>,
    retx_queue: VecDeque<u64>,
    tx_next: u64,
    pdus_since_poll: u32,
    // ---- receive side ----
    /// Absolute count of the next in-order SDU to deliver.
    rx_deliv: u64,
    /// One past the highest absolute count received.
    rx_highest: u64,
    rx_buffer: BTreeMap<u64, Bytes>,
    status_requested: bool,
    /// Times this entity has been re-established after an RLF.
    reestablishments: u64,
    /// Transmission-buffer capacity in payload bytes (`None` = unbounded).
    tx_capacity_bytes: Option<usize>,
    /// SDUs tail-dropped by [`try_tx_sdu`](Self::try_tx_sdu).
    tx_dropped_full: u64,
}

impl RlcAmEntity {
    /// Creates a fresh entity.
    pub fn new(config: AmConfig) -> RlcAmEntity {
        RlcAmEntity {
            config,
            wait_queue: VecDeque::new(),
            tx_buffer: BTreeMap::new(),
            retx_queue: VecDeque::new(),
            tx_next: 0,
            pdus_since_poll: 0,
            rx_deliv: 0,
            rx_highest: 0,
            rx_buffer: BTreeMap::new(),
            status_requested: false,
            reestablishments: 0,
            tx_capacity_bytes: None,
            tx_dropped_full: 0,
        }
    }

    /// RLC re-establishment (TS 38.322 §5.1.2): discard every buffered
    /// SDU and PDU and reset all state variables to their initial values.
    /// In-flight data is *not* recovered here — that is PDCP's job via the
    /// status-report exchange, which is what preserves SN continuity.
    pub fn reestablish(&mut self) {
        self.wait_queue.clear();
        self.tx_buffer.clear();
        self.retx_queue.clear();
        self.tx_next = 0;
        self.pdus_since_poll = 0;
        self.rx_deliv = 0;
        self.rx_highest = 0;
        self.rx_buffer.clear();
        self.status_requested = false;
        self.reestablishments += 1;
    }

    /// Times this entity has been re-established.
    pub fn reestablishments(&self) -> u64 {
        self.reestablishments
    }

    /// Queues an SDU for transmission.
    pub fn tx_sdu(&mut self, sdu: Bytes) {
        self.wait_queue.push_back(sdu);
    }

    /// Bounds the transmission buffer at `cap` payload bytes (`None`
    /// removes the bound). Applies to [`try_tx_sdu`](Self::try_tx_sdu);
    /// the infallible [`tx_sdu`](Self::tx_sdu) path is unchanged.
    pub fn set_tx_capacity(&mut self, cap: Option<usize>) {
        self.tx_capacity_bytes = cap;
    }

    /// Queues an SDU if the transmission buffer has room, tail-dropping it
    /// with a typed error otherwise. The cap counts fresh and pending-retx
    /// payload bytes, mirroring what a buffer status report advertises.
    pub fn try_tx_sdu(&mut self, sdu: Bytes) -> Result<(), RlcError> {
        if let Some(cap) = self.tx_capacity_bytes {
            let queued = self.queued_bytes();
            if queued + sdu.len() > cap {
                self.tx_dropped_full += 1;
                return Err(RlcError::TxBufferFull { queued, cap });
            }
        }
        self.tx_sdu(sdu);
        Ok(())
    }

    /// SDUs tail-dropped because the transmission buffer was full.
    pub fn tx_dropped_full(&self) -> u64 {
        self.tx_dropped_full
    }

    /// Bytes awaiting first transmission or retransmission.
    pub fn queued_bytes(&self) -> usize {
        let fresh: usize = self.wait_queue.iter().map(Bytes::len).sum();
        let retx: usize =
            self.retx_queue.iter().filter_map(|c| self.tx_buffer.get(c)).map(|e| e.sdu.len()).sum();
        fresh + retx
    }

    /// Unacknowledged PDUs held in the transmit buffer.
    pub fn unacked(&self) -> usize {
        self.tx_buffer.len()
    }

    /// `true` when the peer asked for (or polling produced) a status PDU
    /// that has not been sent yet.
    pub fn status_pending(&self) -> bool {
        self.status_requested
    }

    fn encode_data_pdu(&self, count: u64, poll: bool, sdu: &Bytes) -> Bytes {
        let sn = (count % u64::from(AM_SN_MODULUS)) as u16;
        let mut out = BytesMut::with_capacity(2 + sdu.len());
        out.put_u8(0x80 | (u8::from(poll) << 6) | ((sn >> 8) as u8 & 0x0F));
        out.put_u8(sn as u8);
        out.put_slice(sdu);
        out.freeze()
    }

    /// Builds the next PDU under a grant of `grant` bytes. Status PDUs take
    /// priority, then retransmissions, then fresh SDUs (TS 38.322 §5.2.3.1
    /// ordering).
    pub fn pull_pdu(&mut self, grant: usize) -> Result<Option<Bytes>, RlcError> {
        if self.status_requested {
            let status = self.build_status();
            let pdu = status.encode();
            if pdu.len() > grant {
                return Err(RlcError::GrantTooSmall { grant, needed: pdu.len() });
            }
            self.status_requested = false;
            return Ok(Some(pdu));
        }
        while let Some(&count) = self.retx_queue.front() {
            // A queued count whose buffer entry has since been acked or
            // abandoned is stale: drop it and move on rather than panic.
            let Some(entry) = self.tx_buffer.get(&count) else {
                self.retx_queue.pop_front();
                continue;
            };
            let needed = 2 + entry.sdu.len();
            if grant < needed {
                return Err(RlcError::GrantTooSmall { grant, needed });
            }
            let sdu = entry.sdu.clone();
            self.retx_queue.pop_front();
            self.pdus_since_poll += 1;
            let poll = self.should_poll();
            return Ok(Some(self.encode_data_pdu(count, poll, &sdu)));
        }
        let Some(sdu) = self.wait_queue.pop_front() else {
            return Ok(None);
        };
        let needed = 2 + sdu.len();
        if grant < needed {
            self.wait_queue.push_front(sdu);
            return Err(RlcError::GrantTooSmall { grant, needed });
        }
        let count = self.tx_next;
        self.tx_next += 1;
        self.pdus_since_poll += 1;
        self.tx_buffer.insert(count, TxEntry { sdu: sdu.clone(), retx: 0 });
        let poll = self.should_poll();
        Ok(Some(self.encode_data_pdu(count, poll, &sdu)))
    }

    fn should_poll(&mut self) -> bool {
        // Poll every pollPDU PDUs, or when both queues drained (the spec's
        // "last PDU in the buffer" trigger).
        let drained = self.wait_queue.is_empty() && self.retx_queue.is_empty();
        if drained || self.pdus_since_poll >= self.config.poll_pdu {
            self.pdus_since_poll = 0;
            true
        } else {
            false
        }
    }

    /// Infers the absolute count of a received SN relative to the delivery
    /// edge (same window logic as PDCP).
    fn infer_rx_count(&self, sn: u16) -> u64 {
        let sn = u64::from(sn);
        let modulus = u64::from(AM_SN_MODULUS);
        let window = u64::from(AM_WINDOW);
        let deliv_sn = self.rx_deliv % modulus;
        let deliv_hfn = self.rx_deliv / modulus;
        let hfn = if sn + window < deliv_sn {
            deliv_hfn + 1
        } else if sn >= deliv_sn + window {
            deliv_hfn.saturating_sub(1)
        } else {
            deliv_hfn
        };
        hfn * modulus + sn
    }

    /// Processes any received RLC-AM PDU (data or status).
    pub fn rx_pdu(&mut self, pdu: &Bytes) -> Result<AmRxOutcome, RlcError> {
        if pdu.is_empty() {
            return Err(RlcError::Truncated);
        }
        if pdu[0] & 0x80 == 0 {
            let status = StatusPdu::decode(pdu)?;
            return self.on_status(&status);
        }
        if pdu.len() < 2 {
            return Err(RlcError::Truncated);
        }
        let poll = pdu[0] & 0x40 != 0;
        let sn = (u16::from(pdu[0] & 0x0F) << 8) | u16::from(pdu[1]);
        let count = self.infer_rx_count(sn);
        let mut outcome = AmRxOutcome::default();
        // Only the receive window is held (TS 38.322 §5.2.3.2.2). Before
        // the first wrap, `infer_rx_count` maps an SN from behind the
        // window to a COUNT far ahead of it.
        let window = self.rx_deliv..self.rx_deliv + u64::from(AM_WINDOW);
        if window.contains(&count) && !self.rx_buffer.contains_key(&count) {
            self.rx_buffer.insert(count, pdu.slice(2..));
            self.rx_highest = self.rx_highest.max(count + 1);
            while let Some(sdu) = self.rx_buffer.remove(&self.rx_deliv) {
                outcome.delivered.push(sdu);
                self.rx_deliv += 1;
            }
        }
        if poll {
            self.status_requested = true;
        }
        Ok(outcome)
    }

    /// Receive-side t-Reassembly expiry: give up on missing PDUs, deliver
    /// everything buffered (in order) and advance the delivery edge past
    /// the highest received count. Without this, a transmitter abandoning
    /// an SDU at `maxRetxThreshold` would stall in-order delivery forever.
    pub fn rx_flush_gaps(&mut self) -> Vec<Bytes> {
        let mut out = Vec::new();
        for (c, sdu) in core::mem::take(&mut self.rx_buffer) {
            out.push(sdu);
            self.rx_deliv = c + 1;
        }
        self.rx_deliv = self.rx_deliv.max(self.rx_highest);
        out
    }

    /// Builds the current receiver status.
    fn build_status(&self) -> StatusPdu {
        let ack_count = self.rx_highest.max(self.rx_deliv);
        let nacks = (self.rx_deliv..ack_count)
            .filter(|c| !self.rx_buffer.contains_key(c))
            .map(|c| (c % u64::from(AM_SN_MODULUS)) as u16)
            .collect();
        StatusPdu { ack_sn: (ack_count % u64::from(AM_SN_MODULUS)) as u16, nacks }
    }

    /// Applies a received status PDU to the transmit buffer.
    fn on_status(&mut self, status: &StatusPdu) -> Result<AmRxOutcome, RlcError> {
        let mut outcome = AmRxOutcome::default();
        // Infer absolute ack edge relative to the oldest unacked count.
        let base = self.tx_buffer.keys().next().copied().unwrap_or(self.tx_next);
        let ack_count = infer_from_base(status.ack_sn, base);
        let nack_counts: Vec<u64> =
            status.nacks.iter().map(|&sn| infer_from_base(sn, base)).collect();
        // Positive acknowledgements: everything below ack_count not NACKed.
        let acked: Vec<u64> = self
            .tx_buffer
            .keys()
            .copied()
            .filter(|c| *c < ack_count && !nack_counts.contains(c))
            .collect();
        for c in acked {
            self.tx_buffer.remove(&c);
            self.retx_queue.retain(|&q| q != c);
        }
        // Retransmissions.
        for c in nack_counts {
            match self.tx_buffer.get_mut(&c) {
                Some(entry) if entry.retx >= self.config.max_retx => {
                    if let Some(entry) = self.tx_buffer.remove(&c) {
                        self.retx_queue.retain(|&q| q != c);
                        outcome.failed.push(entry.sdu);
                    }
                }
                Some(entry) => {
                    entry.retx += 1;
                    if !self.retx_queue.contains(&c) {
                        self.retx_queue.push_back(c);
                    }
                }
                None => {}
            }
        }
        Ok(outcome)
    }
}

/// Maps a 12-bit wire SN to the absolute count closest to `base` (at or
/// above `base - WINDOW`).
fn infer_from_base(sn: u16, base: u64) -> u64 {
    let modulus = u64::from(AM_SN_MODULUS);
    let window = u64::from(AM_WINDOW);
    let sn = u64::from(sn);
    let base_sn = base % modulus;
    let base_hfn = base / modulus;
    let hfn = if sn + window < base_sn {
        base_hfn + 1
    } else if sn >= base_sn + window {
        base_hfn.saturating_sub(1)
    } else {
        base_hfn
    };
    hfn * modulus + sn
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostile::mutate;
    use proptest::prelude::*;

    const BIG: usize = 1 << 16;

    fn drain(tx: &mut RlcAmEntity) -> Vec<Bytes> {
        let mut out = Vec::new();
        while let Some(p) = tx.pull_pdu(BIG).unwrap() {
            out.push(p);
        }
        out
    }

    #[test]
    fn lossless_exchange_delivers_in_order() {
        let mut a = RlcAmEntity::new(AmConfig::default());
        let mut b = RlcAmEntity::new(AmConfig::default());
        let sdus: Vec<Bytes> = (0..10u8).map(|i| Bytes::from(vec![i; 16])).collect();
        for s in &sdus {
            a.tx_sdu(s.clone());
        }
        let mut delivered = Vec::new();
        for pdu in drain(&mut a) {
            delivered.extend(b.rx_pdu(&pdu).unwrap().delivered);
        }
        assert_eq!(delivered, sdus);
        // b owes a status (polls were set); deliver it and the buffer clears.
        for pdu in drain(&mut b) {
            a.rx_pdu(&pdu).unwrap();
        }
        assert_eq!(a.unacked(), 0);
    }

    #[test]
    fn status_pdu_codec_roundtrip() {
        let s = StatusPdu { ack_sn: 4_000, nacks: vec![3_990, 3_993] };
        assert_eq!(StatusPdu::decode(&s.encode()).unwrap(), s);
        let empty = StatusPdu { ack_sn: 0, nacks: vec![] };
        assert_eq!(StatusPdu::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn status_pdu_encode_truncates_oversized_nack_lists() {
        let s = StatusPdu { ack_sn: 300, nacks: (0..400u16).collect() };
        let wire = s.encode();
        let decoded = StatusPdu::decode(&wire).unwrap();
        assert_eq!(decoded.ack_sn, 300);
        assert_eq!(decoded.nacks.len(), 255);
        assert_eq!(decoded.nacks, (0..255u16).collect::<Vec<_>>());
    }

    #[test]
    fn lost_pdu_is_retransmitted_and_recovered() {
        let mut a = RlcAmEntity::new(AmConfig { max_retx: 4, poll_pdu: 100 });
        let mut b = RlcAmEntity::new(AmConfig::default());
        let sdus: Vec<Bytes> = (0..3u8).map(|i| Bytes::from(vec![i; 8])).collect();
        for s in &sdus {
            a.tx_sdu(s.clone());
        }
        let pdus = drain(&mut a);
        assert_eq!(pdus.len(), 3);
        // Lose the middle PDU.
        let mut delivered = Vec::new();
        delivered.extend(b.rx_pdu(&pdus[0]).unwrap().delivered);
        delivered.extend(b.rx_pdu(&pdus[2]).unwrap().delivered);
        assert_eq!(delivered, vec![sdus[0].clone()]);
        // PDU 2 carried the poll (queue drained): b has a status pending.
        assert!(b.status_pending());
        let status = b.pull_pdu(BIG).unwrap().unwrap();
        a.rx_pdu(&status).unwrap();
        // a retransmits SN 1.
        let retx = drain(&mut a);
        assert_eq!(retx.len(), 1);
        delivered.extend(b.rx_pdu(&retx[0]).unwrap().delivered);
        assert_eq!(delivered, sdus);
        // Final status clears a's buffer.
        let status = b.pull_pdu(BIG).unwrap().unwrap();
        a.rx_pdu(&status).unwrap();
        assert_eq!(a.unacked(), 0);
    }

    #[test]
    fn max_retx_abandons_sdu() {
        let mut a = RlcAmEntity::new(AmConfig { max_retx: 2, poll_pdu: 1 });
        a.tx_sdu(Bytes::from_static(b"doomed"));
        let _first = drain(&mut a);
        let mut failed = Vec::new();
        // NACK it repeatedly: 2 retx allowed, third NACK abandons.
        for round in 0..3 {
            let status = StatusPdu { ack_sn: 1, nacks: vec![0] };
            let out = a.rx_pdu(&status.encode()).unwrap();
            failed.extend(out.failed);
            let retx = drain(&mut a);
            if round < 2 {
                assert_eq!(retx.len(), 1, "round {round}");
            } else {
                assert!(retx.is_empty());
            }
        }
        assert_eq!(failed, vec![Bytes::from_static(b"doomed")]);
        assert_eq!(a.unacked(), 0);
    }

    #[test]
    fn duplicate_data_pdus_ignored() {
        let mut a = RlcAmEntity::new(AmConfig::default());
        let mut b = RlcAmEntity::new(AmConfig::default());
        a.tx_sdu(Bytes::from_static(b"one"));
        let pdus = drain(&mut a);
        assert_eq!(b.rx_pdu(&pdus[0]).unwrap().delivered.len(), 1);
        assert!(b.rx_pdu(&pdus[0]).unwrap().delivered.is_empty());
    }

    #[test]
    fn poll_every_n_pdus() {
        let mut a = RlcAmEntity::new(AmConfig { max_retx: 4, poll_pdu: 2 });
        for i in 0..100u8 {
            a.tx_sdu(Bytes::from(vec![i; 4]));
        }
        let pdus: Vec<Bytes> = (0..4).map(|_| a.pull_pdu(BIG).unwrap().unwrap()).collect();
        let polls: Vec<bool> = pdus.iter().map(|p| p[0] & 0x40 != 0).collect();
        assert_eq!(polls, vec![false, true, false, true]);
    }

    #[test]
    fn grant_too_small_preserves_data() {
        let mut a = RlcAmEntity::new(AmConfig::default());
        a.tx_sdu(Bytes::from(vec![9u8; 50]));
        let err = a.pull_pdu(10).unwrap_err();
        assert_eq!(err, RlcError::GrantTooSmall { grant: 10, needed: 52 });
        assert_eq!(a.queued_bytes(), 50);
        assert!(a.pull_pdu(52).unwrap().is_some());
    }

    #[test]
    fn bounded_tx_buffer_counts_retx_backlog() {
        let mut a = RlcAmEntity::new(AmConfig::default());
        a.set_tx_capacity(Some(64));
        assert!(a.try_tx_sdu(Bytes::from(vec![1u8; 40])).is_ok());
        let err = a.try_tx_sdu(Bytes::from(vec![2u8; 30])).unwrap_err();
        assert_eq!(err, RlcError::TxBufferFull { queued: 40, cap: 64 });
        assert_eq!(a.tx_dropped_full(), 1);
        // Pulling the PDU moves the SDU out of the wait queue (into the
        // unacked buffer, which the cap does not count) — room again.
        assert!(a.pull_pdu(64).unwrap().is_some());
        assert!(a.try_tx_sdu(Bytes::from(vec![3u8; 30])).is_ok());
    }

    #[test]
    fn sn_wrap_survives_long_exchange() {
        let mut a = RlcAmEntity::new(AmConfig { max_retx: 4, poll_pdu: 64 });
        let mut b = RlcAmEntity::new(AmConfig::default());
        let n = u64::from(AM_SN_MODULUS) + 50;
        let mut delivered = 0u64;
        for i in 0..n {
            a.tx_sdu(Bytes::copy_from_slice(&i.to_be_bytes()));
            for pdu in drain(&mut a) {
                delivered += b.rx_pdu(&pdu).unwrap().delivered.len() as u64;
            }
            for pdu in drain(&mut b) {
                a.rx_pdu(&pdu).unwrap();
            }
        }
        assert_eq!(delivered, n);
        assert_eq!(a.unacked(), 0);
    }

    #[test]
    fn rx_flush_gaps_unblocks_delivery_after_abandonment() {
        let mut a = RlcAmEntity::new(AmConfig { max_retx: 0, poll_pdu: 100 });
        let mut b = RlcAmEntity::new(AmConfig::default());
        for i in 0..3u8 {
            a.tx_sdu(Bytes::from(vec![i; 4]));
        }
        let pdus = drain(&mut a);
        // PDU 0 is lost forever (max_retx = 0 abandons on first NACK).
        let out = a.rx_pdu(&StatusPdu { ack_sn: 1, nacks: vec![0] }.encode()).unwrap();
        assert_eq!(out.failed.len(), 1);
        // The receiver gets 1 and 2 but cannot deliver past the gap...
        assert!(b.rx_pdu(&pdus[1]).unwrap().delivered.is_empty());
        assert!(b.rx_pdu(&pdus[2]).unwrap().delivered.is_empty());
        // ...until its reassembly timer fires.
        let flushed = b.rx_flush_gaps();
        assert_eq!(flushed, vec![Bytes::from(vec![1u8; 4]), Bytes::from(vec![2u8; 4])]);
        // Delivery continues normally afterwards.
        a.tx_sdu(Bytes::from_static(b"next"));
        for pdu in drain(&mut a) {
            if pdu[0] & 0x80 != 0 {
                let out = b.rx_pdu(&pdu).unwrap();
                assert_eq!(out.delivered, vec![Bytes::from_static(b"next")]);
            }
        }
    }

    #[test]
    fn rx_flush_gaps_on_clean_state_is_empty() {
        let mut e = RlcAmEntity::new(AmConfig::default());
        assert!(e.rx_flush_gaps().is_empty());
    }

    #[test]
    fn reestablish_resets_all_state_and_restarts_numbering() {
        let mut a = RlcAmEntity::new(AmConfig { max_retx: 4, poll_pdu: 100 });
        let mut b = RlcAmEntity::new(AmConfig::default());
        for i in 0..5u8 {
            a.tx_sdu(Bytes::from(vec![i; 4]));
        }
        let pdus = drain(&mut a);
        // Only PDU 3 gets through before the link dies.
        assert!(b.rx_pdu(&pdus[3]).unwrap().delivered.is_empty());
        assert!(a.unacked() > 0);
        assert_eq!(b.rx_buffer.len(), 1);

        a.reestablish();
        b.reestablish();
        assert_eq!(a.unacked(), 0);
        assert_eq!(a.queued_bytes(), 0);
        assert!(b.rx_buffer.is_empty());
        assert_eq!((a.reestablishments(), b.reestablishments()), (1, 1));

        // Numbering restarts from SN 0 and the link works cleanly again.
        a.tx_sdu(Bytes::from_static(b"fresh"));
        let pdus = drain(&mut a);
        assert_eq!((u16::from(pdus[0][0] & 0x0F) << 8) | u16::from(pdus[0][1]), 0);
        assert_eq!(b.rx_pdu(&pdus[0]).unwrap().delivered, vec![Bytes::from_static(b"fresh")]);
    }

    #[test]
    fn malformed_pdus_rejected() {
        let mut e = RlcAmEntity::new(AmConfig::default());
        assert_eq!(e.rx_pdu(&Bytes::new()).unwrap_err(), RlcError::Truncated);
        assert_eq!(e.rx_pdu(&Bytes::from_static(&[0x80])).unwrap_err(), RlcError::Truncated);
        assert_eq!(e.rx_pdu(&Bytes::from_static(&[0x00, 0x05])).unwrap_err(), RlcError::Truncated);
        // Status that declares more NACKs than it carries.
        assert_eq!(
            e.rx_pdu(&Bytes::from_static(&[0x00, 0x05, 3, 0, 1])).unwrap_err(),
            RlcError::Truncated
        );
    }

    /// Where the hostile tests start counting: COUNT 0, six short of the
    /// 12-bit SN wrap, and mid-space three wraps in.
    const STARTS: [u64; 3] = [0, 4_090, 3 * 4_096 + 2_040];

    /// A transmitter and a receiver whose next COUNT is `count`.
    fn pair_at(count: u64) -> (RlcAmEntity, RlcAmEntity) {
        let mut tx = RlcAmEntity::new(AmConfig::default());
        let mut rx = RlcAmEntity::new(AmConfig::default());
        tx.tx_next = count;
        (rx.rx_deliv, rx.rx_highest) = (count, count);
        (tx, rx)
    }

    /// The SN of a data PDU, or `None` for a STATUS PDU or a stub.
    fn data_sn(pdu: &[u8]) -> Option<u16> {
        (pdu.len() >= 2 && pdu[0] & 0x80 != 0)
            .then(|| (u16::from(pdu[0] & 0x0F) << 8) | u16::from(pdu[1]))
    }

    proptest! {
        #![proptest_config(ProptestConfig::cases_from_env_or(128))]
        #[test]
        fn a_hostile_amd_pdu_is_a_typed_error_or_a_round_trip_and_spares_the_next(
            lens in prop::collection::vec(0usize..200, 1..6),
            start in 0usize..3,
            mutation in (0u8..5, any::<usize>(), any::<u32>()),
            victim in any::<usize>(),
        ) {
            let (mut tx, mut rx) = pair_at(STARTS[start]);
            let sdus: Vec<Bytes> = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| (0..len).map(|j| (31 * i + j) as u8).collect())
                .collect();
            let mut wire: Vec<Vec<u8>> = Vec::new();
            for sdu in &sdus {
                tx.tx_sdu(sdu.clone());
                wire.push(tx.pull_pdu(BIG).unwrap().unwrap().to_vec());
            }
            let honest = wire.clone();
            let victim = victim % wire.len();
            match mutation.0 {
                // A duplicated PDU, and a PDU overtaken by the next.
                3 => wire.insert(victim, wire[victim].clone()),
                4 if victim + 1 < wire.len() => wire.swap(victim, victim + 1),
                // A lie in the SN (and the D/C and P bits in front of it),
                // or a bit flip or a truncation anywhere.
                _ => wire[victim] = mutate(&wire[victim], 0..2, mutation),
            }
            let mut out = Vec::new();
            for w in &wire {
                match rx.rx_pdu(&Bytes::copy_from_slice(w)) {
                    Ok(o) => {
                        // A PDU the lie made a STATUS fails nothing: this
                        // side has sent nothing.
                        prop_assert!(o.failed.is_empty());
                        out.extend(o.delivered);
                    }
                    Err(RlcError::Truncated) => prop_assert!(w.len() < 2 || w[0] & 0x80 == 0),
                    Err(e) => prop_assert!(false, "{} from a received PDU", e),
                }
                // Nothing is held outside the receive window, whatever SN a
                // PDU names.
                prop_assert!(
                    rx.rx_highest <= rx.rx_deliv + u64::from(AM_WINDOW),
                    "header {:02x?} at COUNT {} held COUNT {}",
                    &w[..w.len().min(2)], rx.rx_deliv, rx.rx_highest - 1
                );
            }
            out.extend(rx.rx_flush_gaps());
            if mutation.0 >= 3 {
                // Repeated or reordered, every SDU arrives once, in order.
                prop_assert_eq!(&out, &sdus);
            } else {
                // A lie costs at most the SDUs of the SNs it names; every
                // other SDU arrives whole, and nothing else arrives but the
                // lie's own payload.
                let named = [data_sn(&honest[victim]), data_sn(&wire[victim])];
                for (sdu, pdu) in sdus.iter().zip(&honest) {
                    if !named.contains(&data_sn(pdu)) {
                        prop_assert!(out.contains(sdu), "an SDU the lie never named was lost");
                    }
                }
                let lie = wire[victim].get(2..);
                prop_assert!(out.iter().all(|got| sdus.contains(got) || Some(&got[..]) == lie));
            }
            // The next valid PDU, at the receiver's delivery edge, delivers
            // byte-exact.
            let (mut peer, _) = pair_at(rx.rx_deliv);
            let next = Bytes::from_static(b"the next valid PDU");
            peer.tx_sdu(next.clone());
            let pdu = peer.pull_pdu(BIG).unwrap().unwrap();
            prop_assert_eq!(rx.rx_pdu(&pdu).unwrap().delivered, vec![next]);
        }

        #[test]
        fn a_hostile_status_pdu_is_a_typed_error_or_a_round_trip_and_spares_the_transmitter(
            sent in 1usize..12,
            lost in prop::collection::btree_set(0usize..12, 0..4),
            start in 0usize..3,
            field in 0usize..3,
            mutation in (0u8..4, any::<usize>(), any::<u32>()),
        ) {
            let (mut tx, mut rx) = pair_at(STARTS[start]);
            let sdus: Vec<Bytes> = (0..sent).map(|i| Bytes::from(vec![i as u8; 1 + i])).collect();
            for (i, sdu) in sdus.iter().enumerate() {
                tx.tx_sdu(sdu.clone());
                let pdu = tx.pull_pdu(BIG).unwrap().unwrap();
                if !lost.contains(&i) {
                    rx.rx_pdu(&pdu).unwrap();
                }
            }
            rx.status_requested = true;
            let status = rx.pull_pdu(BIG).unwrap().unwrap();
            // A lie in the ACK_SN, the NACK count or the first NACK_SN, a
            // bit flip or a truncation; kind 3 is the honest STATUS twice.
            let wire = Bytes::from(mutate(&status, [0..2, 2..3, 3..5][field].clone(), mutation));
            match StatusPdu::decode(&wire) {
                Ok(decoded) => prop_assert_eq!(StatusPdu::decode(&decoded.encode()), Ok(decoded)),
                Err(RlcError::Truncated) => {
                    prop_assert!(wire.len() < 3 || wire.len() < 3 + 2 * usize::from(wire[2]));
                }
                Err(e) => prop_assert!(false, "{} from StatusPdu::decode", e),
            }
            for _ in 0..1 + usize::from(mutation.0 == 3) {
                match tx.rx_pdu(&wire) {
                    Ok(_) | Err(RlcError::Truncated) => {}
                    Err(e) => prop_assert!(false, "{} from a STATUS PDU", e),
                }
            }
            // pull_pdu ends: at most one retransmission per SDU sent, and one
            // STATUS if the lie turned the PDU into a polling data PDU.
            let mut emitted = Vec::new();
            for _ in 0..sent + 2 {
                match tx.pull_pdu(BIG) {
                    Ok(Some(pdu)) => emitted.push(pdu),
                    Ok(None) => break,
                    Err(e) => prop_assert!(false, "{} from pull_pdu", e),
                }
            }
            prop_assert!(emitted.len() <= sent + 1, "pull_pdu kept producing PDUs");
            // Every retransmission is an SDU that was sent, under its own SN.
            let modulus = u64::from(AM_SN_MODULUS);
            for pdu in &emitted {
                if let Some(sn) = data_sn(pdu) {
                    let i = (u64::from(sn) + modulus - STARTS[start] % modulus) % modulus;
                    prop_assert!(i < sent as u64, "SN {} was never sent", sn);
                    prop_assert_eq!(&pdu[2..], &sdus[i as usize][..]);
                }
            }
            // A fresh SDU after the STATUS still delivers byte-exact.
            let next = Bytes::from_static(b"the next SDU");
            tx.tx_sdu(next.clone());
            emitted.push(tx.pull_pdu(BIG).unwrap().unwrap());
            let mut out = Vec::new();
            for pdu in &emitted {
                out.extend(rx.rx_pdu(pdu).unwrap().delivered);
            }
            out.extend(rx.rx_flush_gaps());
            prop_assert!(out.contains(&next));
            prop_assert!(out.iter().all(|got| sdus.contains(got) || *got == next));
        }
    }
}
