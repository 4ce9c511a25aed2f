//! PDCP — Packet Data Convergence Protocol (TS 38.323).
//!
//! PDCP numbers every SDU with a COUNT (hyper-frame number ‖ sequence
//! number), ciphers the payload, and restores order on the receive side.
//! In the paper's journey it is the "encryption" stop of Fig 2 and the
//! second row of Table 2.
//!
//! The cipher is an XOR keystream generated from a Gold sequence seeded by
//! `(key, COUNT, bearer, direction)` — structurally identical to how NEA1
//! consumes its inputs, but *not* a secure algorithm; it stands in for the
//! AES/SNOW kernels whose latency (sub-µs for ping-sized packets) is folded
//! into the PDCP row of the Table 2 timing model. DESIGN.md records this
//! substitution.

use crate::pdu::{RxPdu, TxPdu};
use bytes::{BufMut, Bytes, BytesMut};
use phy::scrambling::GoldSequence;
use sim::{Duration, Instant};
use std::collections::{BTreeMap, VecDeque};
use telemetry::{metric, Telemetry};

/// PDCP sequence-number length in bits (this implementation fixes the
/// 12-bit DRB variant; 18-bit exists in the spec for high-rate bearers).
pub(crate) const SN_BITS: u32 = 12;

/// Sequence numbers per HFN increment.
pub(crate) const SN_MODULUS: u32 = 1 << SN_BITS;

/// Half the SN space — the reordering window.
pub(crate) const WINDOW: u32 = SN_MODULUS / 2;

/// Link direction, an input to the cipher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// UE → gNB.
    Uplink,
    /// gNB → UE.
    Downlink,
}

/// Static PDCP entity configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PdcpConfig {
    /// Ciphering key (128-bit keys in the real system; 64 bits suffice for
    /// the stand-in keystream).
    pub key: u64,
    /// Bearer identity (cipher input).
    pub bearer: u8,
    /// Direction this entity transmits in.
    pub direction: Direction,
}

impl PdcpConfig {
    /// A test/default configuration.
    pub fn new(key: u64, bearer: u8, direction: Direction) -> PdcpConfig {
        PdcpConfig { key, bearer, direction }
    }
}

/// Errors from PDCP receive processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PdcpError {
    /// PDU shorter than the 2-byte header.
    Truncated,
    /// Control-PDU bit set (not carried on this data path).
    NotDataPdu,
    /// A status report whose bitmap marks a COUNT past the last one
    /// (`u32::MAX`).
    CountOverflow,
}

impl core::fmt::Display for PdcpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PdcpError::Truncated => write!(f, "PDCP PDU shorter than its header"),
            PdcpError::NotDataPdu => write!(f, "not a PDCP data PDU"),
            PdcpError::CountOverflow => write!(f, "PDCP status report past the last COUNT"),
        }
    }
}

impl std::error::Error for PdcpError {}

/// A PDCP status report (TS 38.323 §6.2.3.1): the receiver's first missing
/// COUNT plus a bitmap of what it holds beyond that. Exchanged after RLC
/// re-establishment so the transmitter retransmits exactly the SDUs that
/// were in flight — SN continuity instead of data loss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PdcpStatusReport {
    /// First missing COUNT (the receiver's delivery edge).
    pub fmc: u32,
    /// COUNTs above `fmc` already held in the reordering buffer.
    pub received: Vec<u32>,
}

impl PdcpStatusReport {
    /// Encodes as a control PDU: D/C=0, PDU type 0, 4-byte FMC, then a
    /// bitmap where bit `7-j` of byte `i` marks COUNT `fmc + 1 + 8i + j`
    /// as received.
    pub fn encode(&self) -> Bytes {
        const HDR: usize = 5; // D/C+type byte, 4-byte FMC
        let offset = |c: u32| {
            debug_assert!(c > self.fmc);
            (c - self.fmc - 1) as usize
        };
        // Sized once: the bitmap runs to the byte of the highest COUNT held.
        let bitmap = self.received.iter().map(|&c| offset(c) / 8 + 1).max().unwrap_or(0);
        let mut out = BytesMut::with_capacity(HDR + bitmap);
        out.put_u8(0x00);
        out.put_u32(self.fmc);
        out.put_bytes(0, bitmap);
        for &c in &self.received {
            let off = offset(c);
            out[HDR + off / 8] |= 0x80 >> (off % 8);
        }
        out.freeze()
    }

    /// Decodes a control PDU produced by [`encode`](Self::encode). Any
    /// other bytes are a typed error or a report that encodes back to
    /// itself.
    pub fn decode(pdu: &Bytes) -> Result<PdcpStatusReport, PdcpError> {
        if pdu.len() < 5 {
            return Err(PdcpError::Truncated);
        }
        if pdu[0] & 0x80 != 0 {
            return Err(PdcpError::NotDataPdu);
        }
        let fmc = u32::from_be_bytes([pdu[1], pdu[2], pdu[3], pdu[4]]);
        let mut received = Vec::new();
        for (i, &b) in pdu[5..].iter().enumerate() {
            for j in 0..8 {
                if b & (0x80 >> j) != 0 {
                    let count = u32::try_from(u64::from(fmc) + 1 + 8 * i as u64 + j)
                        .map_err(|_| PdcpError::CountOverflow)?;
                    received.push(count);
                }
            }
        }
        Ok(PdcpStatusReport { fmc, received })
    }
}

fn keystream_cinit(cfg: &PdcpConfig, count: u32, rx: bool) -> u32 {
    // Direction of the *data*: the receiver must derive the same stream the
    // transmitter used.
    let dir = match (cfg.direction, rx) {
        (Direction::Uplink, false) | (Direction::Downlink, true) => 1u64,
        _ => 0u64,
    };
    let mut h = cfg.key ^ u64::from(count).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= (u64::from(cfg.bearer) << 33) | (dir << 32);
    h ^= h >> 29;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 32;
    (h as u32) & 0x7FFF_FFFF
}

/// Ciphers `data` in place with the keystream seeded by `c_init`, or
/// deciphers it: the keystream is XORed, so it undoes itself.
pub(crate) fn apply_keystream(c_init: u32, data: &mut [u8]) {
    GoldSequence::new(c_init).scramble_in_place(data);
}

/// A PDCP entity: transmit numbering/ciphering plus receive
/// deciphering/reordering.
#[derive(Debug, Clone)]
pub struct PdcpEntity {
    config: PdcpConfig,
    /// COUNT of the next SDU to transmit.
    tx_next: u32,
    /// COUNT of the next SDU expected to be delivered in order.
    rx_deliv: u32,
    /// COUNT after the highest received.
    rx_next: u32,
    /// Out-of-order buffer, keyed by COUNT.
    reorder: BTreeMap<u32, Bytes>,
    /// Received-then-discarded (duplicate / stale) counter.
    discarded: u64,
    /// Transmitted SDUs not yet confirmed delivered, in COUNT order — the
    /// retransmission buffer that makes status-report recovery possible.
    /// Each is held as the view it was submitted as (its header bytes and
    /// the payload it shares), so holding it allocates nothing.
    tx_pending: VecDeque<(u32, TxPdu)>,
    /// SDUs retransmitted through status-report recovery.
    retransmitted: u64,
    /// discardTimer (TS 38.323 §5.5): SDUs older than this are dropped
    /// from the transmission queue before ever reaching RLC. `None`
    /// disables expiry (the spec's `infinity` value).
    discard_timer: Option<Duration>,
    /// Transmission queue for the timed path: SDUs awaiting a lower-layer
    /// pull, each carrying the COUNT assigned at enqueue and its expiry
    /// deadline. COUNT-at-enqueue means a discarded SDU leaves an SN gap
    /// on the wire, exactly as the spec's receiver sees it.
    tx_queue: VecDeque<(u32, Option<Instant>, Bytes)>,
    /// SDUs dropped by discardTimer expiry.
    discard_expired: u64,
    tel: Telemetry,
}

impl PdcpEntity {
    /// Creates a fresh entity (all state zero).
    pub fn new(config: PdcpConfig) -> PdcpEntity {
        PdcpEntity {
            config,
            tx_next: 0,
            rx_deliv: 0,
            rx_next: 0,
            reorder: BTreeMap::new(),
            discarded: 0,
            tx_pending: VecDeque::new(),
            retransmitted: 0,
            discard_timer: None,
            tx_queue: VecDeque::new(),
            discard_expired: 0,
            tel: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle (PDU counters under `pdcp/*`).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// COUNT the next transmitted SDU will carry.
    pub fn tx_next_count(&self) -> u32 {
        self.tx_next
    }

    /// COUNT of the next SDU to be delivered in order: everything below it
    /// has been delivered (or given up on by a reordering flush).
    pub fn rx_deliv_count(&self) -> u32 {
        self.rx_deliv
    }

    /// Number of PDUs discarded as duplicates or stale.
    pub fn discarded(&self) -> u64 {
        self.discarded
    }

    /// Number of PDUs waiting in the reordering buffer.
    pub fn buffered(&self) -> usize {
        self.reorder.len()
    }

    /// Numbers an SDU and frames it as a PDCP data PDU: 2-byte header
    /// (D/C=1, R,R,R, SN\[11:8\] ‖ SN\[7:0\]) in front of the SDU, which is
    /// ciphered wherever a lower layer writes the PDU. The SDU is retained
    /// in the retransmission buffer until
    /// [`confirm_up_to`](Self::confirm_up_to) or a status report releases
    /// it.
    pub fn tx_submit(&mut self, sdu: TxPdu) -> TxPdu {
        let count = self.tx_next;
        self.tx_next = self.tx_next.wrapping_add(1);
        self.hold(count, sdu.clone());
        self.tel.add(metric::PDCP_TX_PDUS, 1);
        self.pdu_for(count, sdu)
    }

    /// [`tx_submit`](Self::tx_submit), with the PDU written into a buffer
    /// of its own.
    pub fn tx_encode(&mut self, sdu: &Bytes) -> Bytes {
        self.tx_submit(TxPdu::new(sdu.clone())).to_bytes()
    }

    /// `sdu` as the data PDU carrying COUNT `count`.
    fn pdu_for(&self, count: u32, sdu: TxPdu) -> TxPdu {
        let sn = count % SN_MODULUS;
        let header = [0x80 | ((sn >> 8) as u8 & 0x0F), sn as u8];
        sdu.ciphered(&header, keystream_cinit(&self.config, count, false))
    }

    /// Keeps `sdu` for retransmission under `count`, in COUNT order.
    fn hold(&mut self, count: u32, sdu: TxPdu) {
        let at = self.tx_pending.partition_point(|&(c, _)| c < count);
        match self.tx_pending.get_mut(at) {
            Some((c, held)) if *c == count => *held = sdu,
            _ => self.tx_pending.insert(at, (count, sdu)),
        }
    }

    /// Sets the COUNT the next transmitted SDU will carry — the receiving
    /// side of an Xn SN STATUS TRANSFER (TS 38.423 §9.1.1.4): the target
    /// gNB resumes downlink numbering exactly where the source stopped, so
    /// forwarded PDUs (original COUNTs) and fresh ones stay contiguous.
    /// Only meaningful on a freshly created entity taking over a bearer.
    pub fn set_tx_next(&mut self, count: u32) {
        self.tx_next = count;
    }

    /// SDUs still awaiting delivery confirmation.
    pub fn tx_pending(&self) -> usize {
        self.tx_pending.len()
    }

    /// SDUs retransmitted via status-report recovery so far.
    pub fn retransmitted(&self) -> u64 {
        self.retransmitted
    }

    /// Confirms in-order delivery of every SDU with COUNT < `count`,
    /// releasing them from the retransmission buffer. The caller stands in
    /// for the lower layers' acknowledgement: the ping walk confirms up to
    /// the peer's delivery edge ([`rx_deliv_count`](Self::rx_deliv_count))
    /// after every leg, the handover engine each delivery and each
    /// forwarding flush, and [`recover`](Self::recover) the status report's
    /// first missing COUNT. Without a caller the buffer keeps every SDU
    /// sent.
    pub fn confirm_up_to(&mut self, count: u32) {
        let confirmed = self.tx_pending.partition_point(|&(c, _)| c < count);
        self.tx_pending.drain(..confirmed);
    }

    /// Receive side: compiles the status report the peer needs to resume
    /// transmission after re-establishment.
    pub fn status_report(&self) -> PdcpStatusReport {
        PdcpStatusReport { fmc: self.rx_deliv, received: self.reorder.keys().copied().collect() }
    }

    /// Transmit side of PDCP data recovery (TS 38.323 §5.4): applies the
    /// peer's status report — dropping everything it confirms — and frames
    /// the still-unconfirmed SDUs again with their **original** COUNTs,
    /// preserving SN continuity across the re-established link.
    pub fn recover(&mut self, report: &PdcpStatusReport) -> Vec<TxPdu> {
        self.confirm_up_to(report.fmc);
        for c in &report.received {
            if let Ok(at) = self.tx_pending.binary_search_by_key(c, |&(count, _)| count) {
                self.tx_pending.remove(at);
            }
        }
        let pdus: Vec<TxPdu> =
            self.tx_pending.iter().map(|(count, sdu)| self.pdu_for(*count, sdu.clone())).collect();
        self.retransmitted += pdus.len() as u64;
        self.tel.add(metric::PDCP_RETX_PDUS, pdus.len() as u64);
        pdus
    }

    /// [`recover`](Self::recover), with each PDU written into a buffer of
    /// its own.
    pub fn retransmit_unconfirmed(&mut self, report: &PdcpStatusReport) -> Vec<Bytes> {
        self.recover(report).iter().map(TxPdu::to_bytes).collect()
    }

    /// Processes a received data PDU. Returns the SDUs now deliverable in
    /// order (possibly empty while a gap is outstanding).
    pub fn rx_decode(&mut self, pdu: &Bytes) -> Result<Vec<Bytes>, PdcpError> {
        let mut sdus = Vec::new();
        self.receive(RxPdu::Shared(pdu.clone()), &mut Bytes::new(), &mut sdus)?;
        Ok(sdus)
    }

    /// [`rx_decode`](Self::rx_decode) on a view of the block being walked,
    /// appending the deliverable SDUs to `sdus`. An accepted PDU is
    /// deciphered in place when its buffer is the walk's alone, and
    /// otherwise into one copy of it that keeps
    /// [`RX_HEADROOM`](crate::pdu::RX_HEADROOM) spare bytes in front:
    /// either way the SDU holds one buffer, and no other handle on it. The
    /// copy is made in `spare`'s storage when nothing else holds it
    /// ([`reclaimed`](crate::pdu::reclaimed)), which leaves `spare` empty;
    /// a PDU that needs no copy, or is rejected, leaves it as it was.
    pub fn receive(
        &mut self,
        pdu: RxPdu<'_>,
        spare: &mut Bytes,
        sdus: &mut Vec<Bytes>,
    ) -> Result<(), PdcpError> {
        if pdu.len() < 2 {
            return Err(PdcpError::Truncated);
        }
        if pdu[0] & 0x80 == 0 {
            return Err(PdcpError::NotDataPdu);
        }
        let sn = (u32::from(pdu[0] & 0x0F) << 8) | u32::from(pdu[1]);
        self.tel.add(metric::PDCP_RX_PDUS, 1);
        let count = self.infer_count(sn);
        if count < self.rx_deliv || self.reorder.contains_key(&count) {
            self.discarded += 1;
            return Ok(());
        }
        let (mut buf, at) = pdu.into_mut(spare);
        apply_keystream(keystream_cinit(&self.config, count, true), &mut buf[at + 2..]);
        self.reorder.insert(count, buf.freeze().slice(at + 2..));
        if count >= self.rx_next {
            self.rx_next = count + 1;
        }
        while let Some(sdu) = self.reorder.remove(&self.rx_deliv) {
            sdus.push(sdu);
            self.rx_deliv += 1;
        }
        Ok(())
    }

    /// TS 38.323 §5.2.2 COUNT inference from a received SN, relative to the
    /// delivery edge.
    fn infer_count(&self, rcvd_sn: u32) -> u32 {
        let deliv_sn = self.rx_deliv % SN_MODULUS;
        let deliv_hfn = self.rx_deliv / SN_MODULUS;
        let hfn = if rcvd_sn + WINDOW < deliv_sn {
            deliv_hfn + 1
        } else if rcvd_sn >= deliv_sn + WINDOW {
            deliv_hfn.saturating_sub(1)
        } else {
            deliv_hfn
        };
        hfn * SN_MODULUS + rcvd_sn
    }

    /// Configures the discardTimer for the timed transmission path
    /// ([`tx_enqueue`](Self::tx_enqueue) / [`pull_tx`](Self::pull_tx)).
    /// `None` means SDUs never expire.
    pub fn set_discard_timer(&mut self, timer: Option<Duration>) {
        self.discard_timer = timer;
    }

    /// Enqueues an SDU on the timed transmission path, assigning its COUNT
    /// immediately (TS 38.323 associates the COUNT at SDU reception, so a
    /// later discard leaves an SN gap). The PDU itself is built when a
    /// lower-layer grant pulls it via [`pull_tx`](Self::pull_tx). Returns
    /// the assigned COUNT.
    pub fn tx_enqueue(&mut self, now: Instant, sdu: Bytes) -> u32 {
        let count = self.tx_next;
        self.tx_next = self.tx_next.wrapping_add(1);
        let deadline = self.discard_timer.map(|t| now + t);
        self.tx_queue.push_back((count, deadline, sdu));
        count
    }

    /// Drops every queued SDU whose discardTimer has expired at `now`.
    /// Returns how many were dropped. Because COUNTs were assigned at
    /// enqueue, each drop is a permanent SN gap; the receiver recovers via
    /// its reordering flush. Memory stays bounded as a corollary: no SDU
    /// dwells in the queue longer than the timer.
    pub(crate) fn expire_discards(&mut self, now: Instant) -> u64 {
        let before = self.tx_queue.len();
        self.tx_queue.retain(|(_, deadline, _)| match deadline {
            Some(d) => *d > now,
            None => true,
        });
        let dropped = (before - self.tx_queue.len()) as u64;
        self.discard_expired += dropped;
        self.tel.add(metric::PDCP_DISCARD_EXPIRED, dropped);
        dropped
    }

    /// Pulls the next queued SDU as a data PDU (after expiring stale heads
    /// at `now`), moving it to the retransmission buffer. Returns the
    /// assigned COUNT alongside the PDU, or `None` when the queue is empty.
    pub fn pull_tx(&mut self, now: Instant) -> Option<(u32, Bytes)> {
        self.pull_tx_pdu(now).map(|(count, pdu)| (count, pdu.to_bytes()))
    }

    /// [`pull_tx`](Self::pull_tx), with the PDU framed for a lower layer to
    /// write (as [`tx_submit`](Self::tx_submit) frames it).
    pub fn pull_tx_pdu(&mut self, now: Instant) -> Option<(u32, TxPdu)> {
        self.expire_discards(now);
        let (count, _, sdu) = self.tx_queue.pop_front()?;
        let sdu = TxPdu::new(sdu);
        self.hold(count, sdu.clone());
        self.tel.add(metric::PDCP_TX_PDUS, 1);
        Some((count, self.pdu_for(count, sdu)))
    }

    /// SDUs waiting on the timed transmission path.
    pub fn tx_queued(&self) -> usize {
        self.tx_queue.len()
    }

    /// Bytes waiting on the timed transmission path.
    pub fn tx_queued_bytes(&self) -> usize {
        self.tx_queue.iter().map(|(_, _, sdu)| sdu.len()).sum()
    }

    /// SDUs dropped by discardTimer expiry so far.
    pub fn discard_expired_total(&self) -> u64 {
        self.discard_expired
    }

    /// t-Reordering expiry: give up on the gap and deliver everything
    /// buffered, in COUNT order, advancing the delivery edge past it.
    pub fn flush_reordering(&mut self) -> Vec<Bytes> {
        let mut out = Vec::new();
        for (c, sdu) in core::mem::take(&mut self.reorder) {
            out.push(sdu);
            self.rx_deliv = c + 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostile::{mutate, Mutation};
    use crate::pdu::RX_HEADROOM;
    use proptest::prelude::*;

    /// Peer entities: the UE side transmits uplink, the gNB side transmits
    /// downlink — `direction` names each entity's *own* transmit direction,
    /// which is how both ends derive the same keystream for a given PDU.
    fn pair() -> (PdcpEntity, PdcpEntity) {
        let tx = PdcpEntity::new(PdcpConfig::new(0xDEAD_BEEF_CAFE, 1, Direction::Uplink));
        let rx = PdcpEntity::new(PdcpConfig::new(0xDEAD_BEEF_CAFE, 1, Direction::Downlink));
        (tx, rx)
    }

    #[test]
    fn in_order_roundtrip() {
        let (mut tx, mut rx) = pair();
        for i in 0..50u8 {
            let sdu = Bytes::from(vec![i; 20]);
            let pdu = tx.tx_encode(&sdu);
            let delivered = rx.rx_decode(&pdu).unwrap();
            assert_eq!(delivered, vec![sdu]);
        }
    }

    #[test]
    fn payload_is_actually_ciphered() {
        let (mut tx, _) = pair();
        let sdu = Bytes::from_static(b"plaintext ping payload");
        let pdu = tx.tx_encode(&sdu);
        assert_ne!(&pdu[2..], &sdu[..], "payload went out in the clear");
    }

    #[test]
    fn wrong_key_garbles() {
        let mut tx = PdcpEntity::new(PdcpConfig::new(1, 1, Direction::Uplink));
        let mut rx = PdcpEntity::new(PdcpConfig::new(2, 1, Direction::Uplink));
        let sdu = Bytes::from_static(b"secret");
        let pdu = tx.tx_encode(&sdu);
        let out = rx.rx_decode(&pdu).unwrap();
        assert_eq!(out.len(), 1);
        assert_ne!(out[0], sdu);
    }

    #[test]
    fn reordering_buffer_holds_gap() {
        let (mut tx, mut rx) = pair();
        let a = Bytes::from_static(b"A");
        let b = Bytes::from_static(b"B");
        let c = Bytes::from_static(b"C");
        let pa = tx.tx_encode(&a);
        let pb = tx.tx_encode(&b);
        let pc = tx.tx_encode(&c);
        // Deliver out of order: C, A, B.
        assert!(rx.rx_decode(&pc).unwrap().is_empty());
        assert_eq!(rx.buffered(), 1);
        assert_eq!(rx.rx_decode(&pa).unwrap(), vec![a.clone()]);
        assert_eq!(rx.rx_decode(&pb).unwrap(), vec![b, c]);
        assert_eq!(rx.buffered(), 0);
    }

    #[test]
    fn duplicates_are_discarded() {
        let (mut tx, mut rx) = pair();
        let sdu = Bytes::from_static(b"once");
        let pdu = tx.tx_encode(&sdu);
        assert_eq!(rx.rx_decode(&pdu).unwrap().len(), 1);
        assert!(rx.rx_decode(&pdu).unwrap().is_empty());
        assert_eq!(rx.discarded(), 1);
    }

    #[test]
    fn sn_wrap_is_transparent() {
        let (mut tx, mut rx) = pair();
        // Push across the 12-bit wrap.
        for i in 0..(SN_MODULUS + 10) {
            let sdu = Bytes::copy_from_slice(&i.to_be_bytes());
            let pdu = tx.tx_encode(&sdu);
            let out = rx.rx_decode(&pdu).unwrap();
            assert_eq!(out, vec![sdu], "at count {i}");
        }
        assert_eq!(rx.discarded(), 0);
    }

    #[test]
    fn flush_delivers_past_gap() {
        let (mut tx, mut rx) = pair();
        let a = tx.tx_encode(&Bytes::from_static(b"0"));
        let _lost = tx.tx_encode(&Bytes::from_static(b"1"));
        let c = tx.tx_encode(&Bytes::from_static(b"2"));
        assert_eq!(rx.rx_decode(&a).unwrap().len(), 1);
        assert!(rx.rx_decode(&c).unwrap().is_empty());
        let flushed = rx.flush_reordering();
        assert_eq!(flushed, vec![Bytes::from_static(b"2")]);
        // Delivery edge advanced: retransmission of "1" is now stale.
        let mut tx2 = PdcpEntity::new(PdcpConfig::new(0xDEAD_BEEF_CAFE, 1, Direction::Uplink));
        let _ = tx2.tx_encode(&Bytes::new());
        let late = tx2.tx_encode(&Bytes::from_static(b"1"));
        assert!(rx.rx_decode(&late).unwrap().is_empty());
        assert_eq!(rx.discarded(), 1);
    }

    #[test]
    fn rejects_malformed() {
        let (_, mut rx) = pair();
        assert_eq!(rx.rx_decode(&Bytes::from_static(b"\x80")).unwrap_err(), PdcpError::Truncated);
        assert_eq!(
            rx.rx_decode(&Bytes::from_static(b"\x00\x00\x00")).unwrap_err(),
            PdcpError::NotDataPdu
        );
    }

    #[test]
    fn empty_sdu_roundtrips() {
        let (mut tx, mut rx) = pair();
        let pdu = tx.tx_encode(&Bytes::new());
        assert_eq!(rx.rx_decode(&pdu).unwrap(), vec![Bytes::new()]);
    }

    #[test]
    fn status_report_codec_roundtrips() {
        let r = PdcpStatusReport { fmc: 4095, received: vec![4097, 4100, 4111] };
        let pdu = r.encode();
        assert_eq!(pdu[0] & 0x80, 0, "status report must be a control PDU");
        assert_eq!(PdcpStatusReport::decode(&pdu).unwrap(), r);
        // Empty bitmap.
        let r = PdcpStatusReport { fmc: 0, received: vec![] };
        assert_eq!(PdcpStatusReport::decode(&r.encode()).unwrap(), r);
        // A data PDU is rejected.
        let mut tx = PdcpEntity::new(PdcpConfig::new(1, 1, Direction::Uplink));
        let data = tx.tx_encode(&Bytes::from_static(b"12345"));
        assert_eq!(PdcpStatusReport::decode(&data).unwrap_err(), PdcpError::NotDataPdu);
        assert_eq!(
            PdcpStatusReport::decode(&Bytes::from_static(b"\x00\x00")).unwrap_err(),
            PdcpError::Truncated
        );
    }

    #[test]
    fn confirm_releases_retransmission_buffer() {
        let (mut tx, _) = pair();
        for i in 0..10u8 {
            tx.tx_encode(&Bytes::from(vec![i]));
        }
        assert_eq!(tx.tx_pending(), 10);
        tx.confirm_up_to(7);
        assert_eq!(tx.tx_pending(), 3);
        tx.confirm_up_to(7); // idempotent
        assert_eq!(tx.tx_pending(), 3);
    }

    #[test]
    fn status_report_recovery_delivers_exactly_once_in_order() {
        let (mut tx, mut rx) = pair();
        let sdus: Vec<Bytes> = (0..6u8).map(|i| Bytes::from(vec![i; 4])).collect();
        let pdus: Vec<Bytes> = sdus.iter().map(|s| tx.tx_encode(s)).collect();
        // PDUs 0 and 4 arrive; 1,2,3,5 are lost in the RLF.
        let mut delivered: Vec<Bytes> = Vec::new();
        delivered.extend(rx.rx_decode(&pdus[0]).unwrap());
        delivered.extend(rx.rx_decode(&pdus[4]).unwrap());
        assert_eq!(delivered, vec![sdus[0].clone()]);

        // Re-establishment: rx reports, tx retransmits the survivors' gaps.
        let report = PdcpStatusReport::decode(&rx.status_report().encode()).unwrap();
        assert_eq!(report.fmc, 1);
        assert_eq!(report.received, vec![4]);
        let retx = tx.retransmit_unconfirmed(&report);
        assert_eq!(retx.len(), 4, "counts 1,2,3,5 (0 confirmed by FMC, 4 by the bitmap)");
        assert_eq!(tx.retransmitted(), 4);
        for pdu in &retx {
            delivered.extend(rx.rx_decode(pdu).unwrap());
        }
        // Every SDU delivered exactly once, in COUNT order.
        assert_eq!(delivered, sdus);
        assert_eq!(rx.discarded(), 0);
        // Nothing left pending once a full report confirms delivery.
        let final_report = rx.status_report();
        assert_eq!(final_report.fmc, 6);
        assert!(tx.retransmit_unconfirmed(&final_report).is_empty());
        assert_eq!(tx.tx_pending(), 0);
    }

    #[test]
    fn discard_timer_expires_stale_sdus_and_leaves_sn_gap() {
        let (mut tx, mut rx) = pair();
        tx.set_discard_timer(Some(Duration::from_millis(5)));
        let t0 = Instant::ZERO;
        let c0 = tx.tx_enqueue(t0, Bytes::from_static(b"fresh"));
        let c1 = tx.tx_enqueue(t0, Bytes::from_static(b"stale"));
        let c2 = tx.tx_enqueue(t0 + Duration::from_millis(4), Bytes::from_static(b"late"));
        assert_eq!((c0, c1, c2), (0, 1, 2));
        assert_eq!(tx.tx_queued(), 3);

        // Pull the head before anything expires.
        let (count, pdu0) = tx.pull_tx(t0 + Duration::from_millis(1)).unwrap();
        assert_eq!(count, 0);
        assert_eq!(rx.rx_decode(&pdu0).unwrap(), vec![Bytes::from_static(b"fresh")]);

        // At t=6ms the t0 SDU has expired but the t=4ms one has not.
        let (count, pdu2) = tx.pull_tx(t0 + Duration::from_millis(6)).unwrap();
        assert_eq!(count, 2, "COUNT 1 must be skipped, not reassigned");
        assert_eq!(tx.discard_expired_total(), 1);
        assert_eq!(tx.tx_queued(), 0);

        // The receiver sees the gap: COUNT 2 stalls in reordering until the
        // flush gives up on the hole left by the discarded SDU.
        assert!(rx.rx_decode(&pdu2).unwrap().is_empty());
        assert_eq!(rx.flush_reordering(), vec![Bytes::from_static(b"late")]);
    }

    #[test]
    fn discard_timer_none_never_expires() {
        let (mut tx, _) = pair();
        tx.tx_enqueue(Instant::ZERO, Bytes::from_static(b"forever"));
        assert_eq!(tx.expire_discards(Instant::from_micros(u64::MAX / 2_000)), 0);
        assert_eq!(tx.tx_queued(), 1);
        assert_eq!(tx.tx_queued_bytes(), 7);
    }

    #[test]
    fn retransmission_preserves_original_counts_and_bytes() {
        let (mut tx, _) = pair();
        let sdu = Bytes::from_static(b"keep my count");
        let original = tx.tx_encode(&sdu);
        let report = PdcpStatusReport { fmc: 0, received: vec![] };
        let retx = tx.retransmit_unconfirmed(&report);
        assert_eq!(retx, vec![original], "same COUNT ⇒ byte-identical PDU");
    }

    /// A spare as a caller may hand one over: none (`kind` 0), a buffer of
    /// `cap` stale bytes nobody else holds (1), or one a clone still holds
    /// (2), returned with that clone.
    fn spare_of(kind: u8, cap: usize) -> (Bytes, Option<Bytes>) {
        let stale = Bytes::from(vec![0xEE; cap]);
        match kind {
            0 => (Bytes::new(), None),
            1 => (stale, None),
            _ => (stale.clone(), Some(stale)),
        }
    }

    /// `sdu` as the receiver should deliver it from its PDU after
    /// `mutation`, when the lie spares the 2-byte header: the keystream is
    /// XORed, so a flipped ciphertext bit flips the same plaintext bit, and
    /// a truncated PDU deciphers to a prefix.
    fn mutated_sdu(sdu: &Bytes, (kind, at, value): Mutation) -> Option<Bytes> {
        let n = sdu.len() + 2;
        match kind {
            0 if at % n >= 2 => {
                let mut b = sdu.to_vec();
                b[at % n - 2] ^= 1 << (value % 8);
                Some(Bytes::from(b))
            }
            1 if at % (n + 1) >= 2 => Some(sdu.slice(..at % (n + 1) - 2)),
            0 | 1 => None,
            _ => Some(sdu.clone()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::cases_from_env_or(128))]
        #[test]
        fn a_hostile_data_pdu_is_a_typed_error_or_a_round_trip_and_spares_the_next(
            lens in prop::collection::vec(0usize..200, 1..6),
            mutation in (0u8..5, any::<usize>(), any::<u32>()),
            victim in any::<usize>(),
            spare in (0u8..3, 0usize..300),
            borrowed in any::<bool>(),
        ) {
            let (spare_kind, spare_cap) = spare;
            let (mut tx, mut rx) = pair();
            let sdus: Vec<Bytes> = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| (0..len).map(|j| (31 * i + j) as u8).collect())
                .collect();
            let mut wire: Vec<Vec<u8>> = sdus.iter().map(|s| tx.tx_encode(s).to_vec()).collect();
            let victim = victim % wire.len();
            match mutation.0 {
                // A duplicated PDU, and a PDU overtaken by the next.
                3 => wire.insert(victim, wire[victim].clone()),
                4 if victim + 1 < wire.len() => wire.swap(victim, victim + 1),
                // A lie in the SN, or a bit flip or a truncation anywhere.
                _ => wire[victim] = mutate(&wire[victim], 0..2, mutation),
            }
            let mut out = Vec::new();
            for w in &wire {
                let (mut spare, held) = spare_of(spare_kind, spare_cap);
                let sent = w.clone();
                let pdu = if borrowed {
                    RxPdu::Borrowed(w)
                } else {
                    RxPdu::Shared(Bytes::copy_from_slice(w))
                };
                match rx.receive(pdu, &mut spare, &mut out) {
                    Ok(()) => {}
                    Err(PdcpError::Truncated) => prop_assert!(w.len() < 2),
                    Err(PdcpError::NotDataPdu) => prop_assert_eq!(w[0] & 0x80, 0),
                    Err(e) => prop_assert!(false, "{} from a data PDU", e),
                }
                prop_assert_eq!(w, &sent, "a caller's block was written to");
                if let Some(held) = held {
                    prop_assert!(held.iter().all(|&b| b == 0xEE), "a held spare was written to");
                }
            }
            // A lie that spares the header round-trips to the SDU it
            // describes; a reordered or duplicated PDU changes nothing.
            let lied = mutated_sdu(&sdus[victim], mutation);
            if let Some(lied) = lied.filter(|_| matches!(mutation.0, 0 | 1 | 3 | 4)) {
                let mut want = sdus.clone();
                want[victim] = lied;
                prop_assert_eq!(&out, &want);
            }
            // The next valid PDU, at the receiver's delivery edge, delivers
            // byte-exact, into the spare when nothing else holds it.
            let mut peer = PdcpEntity::new(PdcpConfig::new(0xDEAD_BEEF_CAFE, 1, Direction::Uplink));
            peer.set_tx_next(rx.rx_deliv_count());
            let next = Bytes::from_static(b"the next valid PDU");
            let pdu = peer.tx_encode(&next);
            let (mut spare, held) = spare_of(spare_kind, spare_cap);
            let reusable = spare_kind == 1 && spare_cap >= RX_HEADROOM + pdu.len();
            let spare_at = spare.as_ptr() as usize;
            let mut got = Vec::new();
            rx.receive(RxPdu::Borrowed(&pdu), &mut spare, &mut got).unwrap();
            prop_assert_eq!(got.first(), Some(&next));
            let at = got[0].as_ptr() as usize - RX_HEADROOM - 2;
            prop_assert_eq!(at == spare_at, reusable, "the copy's storage");
            drop(held);
        }

        #[test]
        fn a_hostile_status_report_is_a_typed_error_or_a_round_trip(
            fmc in 0u32..10_000,
            held in prop::collection::btree_set(1u32..200, 0..20),
            mutation in (0u8..3, any::<usize>(), any::<u32>()),
            near_the_top in any::<bool>(),
        ) {
            let report = PdcpStatusReport { fmc, received: held.iter().map(|o| fmc + o).collect() };
            // A lie in the FMC field, at times one whose bitmap would run
            // past the last COUNT.
            let (kind, at, value) = mutation;
            let value = if near_the_top { u32::MAX - value % 2048 } else { value };
            let wire = mutate(&report.encode(), 1..5, (kind, at, value));
            match PdcpStatusReport::decode(&Bytes::from(wire.clone())) {
                Ok(decoded) => {
                    let counts = &decoded.received;
                    prop_assert!(counts.windows(2).all(|w| w[0] < w[1]));
                    prop_assert!(counts.first().is_none_or(|&c| c > decoded.fmc));
                    prop_assert_eq!(PdcpStatusReport::decode(&decoded.encode()), Ok(decoded));
                }
                Err(PdcpError::Truncated) => prop_assert!(wire.len() < 5),
                Err(PdcpError::NotDataPdu) => prop_assert_ne!(wire[0] & 0x80, 0),
                Err(PdcpError::CountOverflow) => {
                    prop_assert!(wire[5..].iter().any(|&b| b != 0));
                }
            }
        }
    }
}
