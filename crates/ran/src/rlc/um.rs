//! RLC Unacknowledged Mode (TS 38.322 §5.2.2, 6-bit SN).
//!
//! UM segments SDUs to fit MAC grants and reassembles them at the far end.
//! No retransmission: a lost segment costs the whole SDU (after the
//! reassembly timer), which is exactly the latency/reliability trade URLLC
//! traffic signs up for.
//!
//! Wire formats (6-bit SN):
//!
//! ```text
//! full SDU:        | SI=00 | R(6) |  payload...
//! first segment:   | SI=01 | SN(6) |  payload...
//! middle segment:  | SI=11 | SN(6) | SO(16) |  payload...
//! last segment:    | SI=10 | SN(6) | SO(16) |  payload...
//! ```

use bytes::{BufMut, Bytes, BytesMut};
use std::collections::{BTreeMap, VecDeque};
use telemetry::{metric, Telemetry};

use super::{RlcError, SegmentInfo};
use crate::pdu::{RxPdu, TxPdu};

/// UM sequence-number modulus (6-bit).
pub(crate) const UM_SN_MODULUS: u8 = 64;

/// An SDU being segmented: written once into a buffer of its own, which
/// each segment copies its slice of.
#[derive(Debug, Clone)]
struct InFlight {
    sn: u8,
    sdu: Bytes,
    offset: usize,
}

#[derive(Debug, Clone, Default)]
struct Reassembly {
    /// Received segments keyed by offset.
    segments: BTreeMap<usize, Bytes>,
    /// Total SDU length, known once the last segment arrives.
    total: Option<usize>,
}

impl Reassembly {
    /// Validates an incoming segment against everything already buffered
    /// and inserts it. The segment offset comes straight off the wire, so
    /// a HARQ-corrupted `SO` can claim any placement; a segment is only
    /// accepted when it is consistent with the current reassembly state:
    ///
    /// * where it overlaps a buffered segment, the overlapping bytes must
    ///   be identical (true duplicates from MAC retransmissions pass);
    /// * it must not extend past an already-known SDU end;
    /// * a `Last` segment must not move an already-known SDU end, nor end
    ///   before buffered data.
    fn insert_checked(&mut self, so: usize, body: Bytes, is_last: bool) -> Result<(), ()> {
        let end = so + body.len();
        if is_last && self.total.is_some_and(|t| t != end) {
            return Err(()); // the claimed SDU end moved
        }
        let total = self.total.or(is_last.then_some(end));
        if total.is_some_and(|t| end > t) {
            return Err(()); // segment extends past the SDU end
        }
        if is_last && self.segments.iter().any(|(&off, seg)| off + seg.len() > end) {
            return Err(()); // buffered data already extends past this end
        }
        for (&off, seg) in &self.segments {
            let lo = off.max(so);
            let hi = (off + seg.len()).min(end);
            if lo < hi && seg[lo - off..hi - off] != body[lo - so..hi - so] {
                return Err(()); // overlapping bytes differ
            }
        }
        self.total = total;
        // A shorter duplicate at the same offset is a subset of what is
        // already buffered — keep the longer segment.
        if self.segments.get(&so).is_none_or(|seg| seg.len() < body.len()) {
            self.segments.insert(so, body);
        }
        Ok(())
    }

    fn try_complete(&self) -> Option<Bytes> {
        let total = self.total?;
        let mut next = 0usize;
        for (&off, seg) in &self.segments {
            if off > next {
                return None; // gap
            }
            next = next.max(off + seg.len());
        }
        if next < total {
            return None;
        }
        // Contiguous cover of [0, total): stitch each segment's bytes past
        // what is already written. `insert_checked` verified that
        // overlapping segments agree byte for byte, so which copy of an
        // overlap lands cannot change the result.
        let mut out = BytesMut::with_capacity(total);
        for (&off, seg) in &self.segments {
            let end = (off + seg.len()).min(total);
            if end > out.len() {
                out.put_slice(&seg[out.len() - off..end - off]);
            }
        }
        Some(out.freeze())
    }
}

/// An RLC UM entity (transmit + receive sides).
#[derive(Debug, Clone, Default)]
pub struct RlcUmEntity {
    /// SDUs waiting for a grant, as the layers above framed them: each is
    /// written out only when a PDU carrying it is pulled.
    queue: VecDeque<TxPdu>,
    in_flight: Option<InFlight>,
    tx_next: u8,
    rx: BTreeMap<u8, Reassembly>,
    delivered: u64,
    dropped_incomplete: u64,
    /// Transmission-buffer capacity in payload bytes (`None` = unbounded,
    /// the pre-overload behaviour).
    tx_capacity_bytes: Option<usize>,
    /// SDUs tail-dropped by [`try_tx_sdu`](Self::try_tx_sdu).
    tx_dropped_full: u64,
    tel: Telemetry,
}

impl RlcUmEntity {
    /// Creates an empty entity.
    pub fn new() -> RlcUmEntity {
        RlcUmEntity::default()
    }

    /// Attaches a telemetry handle (PDU counters under `rlc/*`).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// RLC re-establishment (TS 38.322 §5.1.3): a fresh entity — buffers
    /// discarded, SNs reset — that keeps the attached telemetry handle.
    pub fn reestablished(&self) -> RlcUmEntity {
        let mut e = RlcUmEntity::new();
        e.set_telemetry(self.tel.clone());
        e
    }

    /// Queues an SDU for transmission (the "RLC queue" of Table 2 — data
    /// sits here until the MAC scheduler grants resources).
    pub fn enqueue(&mut self, sdu: TxPdu) {
        self.tel.add(metric::RLC_TX_SDUS, 1);
        self.queue.push_back(sdu);
    }

    /// [`enqueue`](Self::enqueue) for an SDU already in a buffer.
    pub fn tx_sdu(&mut self, sdu: Bytes) {
        self.enqueue(TxPdu::new(sdu));
    }

    /// Bounds the transmission buffer at `cap` payload bytes (`None`
    /// removes the bound). Applies to [`try_tx_sdu`](Self::try_tx_sdu);
    /// the infallible [`tx_sdu`](Self::tx_sdu) path is unchanged.
    pub fn set_tx_capacity(&mut self, cap: Option<usize>) {
        self.tx_capacity_bytes = cap;
    }

    /// Queues an SDU if the transmission buffer has room, tail-dropping it
    /// with a typed error otherwise — bounded memory under overload
    /// instead of unbounded `VecDeque` growth.
    pub fn try_enqueue(&mut self, sdu: TxPdu) -> Result<(), RlcError> {
        if let Some(cap) = self.tx_capacity_bytes {
            let queued = self.queued_bytes();
            if queued + sdu.len() > cap {
                self.tx_dropped_full += 1;
                self.tel.add(metric::RLC_TX_DROPPED_FULL, 1);
                return Err(RlcError::TxBufferFull { queued, cap });
            }
        }
        self.enqueue(sdu);
        Ok(())
    }

    /// [`try_enqueue`](Self::try_enqueue) for an SDU already in a buffer.
    pub fn try_tx_sdu(&mut self, sdu: Bytes) -> Result<(), RlcError> {
        self.try_enqueue(TxPdu::new(sdu))
    }

    /// SDUs tail-dropped because the transmission buffer was full.
    pub fn tx_dropped_full(&self) -> u64 {
        self.tx_dropped_full
    }

    /// Bytes waiting to be transmitted (payload only), as reported in a
    /// buffer status report.
    pub fn queued_bytes(&self) -> usize {
        let inflight = self.in_flight.as_ref().map(|f| f.sdu.len() - f.offset).unwrap_or(0);
        inflight + self.queue.iter().map(TxPdu::len).sum::<usize>()
    }

    /// Number of SDUs not yet fully handed to MAC.
    pub fn queued_sdus(&self) -> usize {
        self.queue.len() + usize::from(self.in_flight.is_some())
    }

    /// SDUs delivered to the upper layer by the receive side.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Builds the next UMD PDU under a MAC grant of `grant` bytes.
    ///
    /// Returns `Ok(None)` when nothing is queued. Errors when data is
    /// queued but the grant cannot carry a single payload byte.
    pub fn pull_pdu(&mut self, grant: usize) -> Result<Option<Bytes>, RlcError> {
        self.pull_pdu_with(grant, BytesMut::with_capacity)
    }

    /// [`pull_pdu`](Self::pull_pdu), written into the buffer `alloc`
    /// returns for a PDU of the length it is passed — the lower layer's
    /// buffer, with its headers already in front and room for exactly that
    /// many more bytes. Returns that buffer, frozen, with the PDU appended.
    pub fn pull_pdu_with(
        &mut self,
        grant: usize,
        alloc: impl FnOnce(usize) -> BytesMut,
    ) -> Result<Option<Bytes>, RlcError> {
        // Continue an in-flight segmented SDU first.
        if let Some(flight) = self.in_flight.take() {
            const HDR: usize = 3; // SI|SN + SO(16)
            if grant < HDR + 1 {
                self.in_flight = Some(flight);
                return Err(RlcError::GrantTooSmall { grant, needed: HDR + 1 });
            }
            let remaining = flight.sdu.len() - flight.offset;
            let take = remaining.min(grant - HDR);
            let si = if take == remaining { SegmentInfo::Last } else { SegmentInfo::Middle };
            let mut pdu = alloc(HDR + take);
            pdu.put_u8((si.to_bits() << 6) | (flight.sn & 0x3F));
            pdu.put_u16(flight.offset as u16);
            pdu.put_slice(&flight.sdu[flight.offset..flight.offset + take]);
            if take < remaining {
                self.in_flight =
                    Some(InFlight { sn: flight.sn, sdu: flight.sdu, offset: flight.offset + take });
            }
            return Ok(Some(pdu.freeze()));
        }

        let Some(sdu) = self.queue.pop_front() else {
            return Ok(None);
        };
        if grant > sdu.len() {
            // Whole SDU fits: SI=00 header without SN, the SDU written (and
            // ciphered) straight behind it.
            let mut pdu = alloc(1 + sdu.len());
            pdu.put_u8(SegmentInfo::Full.to_bits() << 6);
            sdu.write_into(&mut pdu);
            return Ok(Some(pdu.freeze()));
        }
        // Must segment: first segment header is SI|SN (1 byte).
        const HDR: usize = 1;
        if grant < HDR + 1 {
            self.queue.push_front(sdu);
            return Err(RlcError::GrantTooSmall { grant, needed: HDR + 1 });
        }
        let sn = self.tx_next;
        self.tx_next = (self.tx_next + 1) % UM_SN_MODULUS;
        let take = grant - HDR;
        let sdu = sdu.to_bytes();
        let mut pdu = alloc(HDR + take);
        pdu.put_u8((SegmentInfo::First.to_bits() << 6) | (sn & 0x3F));
        pdu.put_slice(&sdu[..take]);
        self.in_flight = Some(InFlight { sn, sdu, offset: take });
        Ok(Some(pdu.freeze()))
    }

    /// Processes a received UMD PDU; returns any SDUs completed by it.
    pub fn rx_pdu(&mut self, pdu: &Bytes) -> Result<Vec<Bytes>, RlcError> {
        let sdu = self.receive(RxPdu::Shared(pdu.clone()))?;
        Ok(sdu.map(RxPdu::into_shared).into_iter().collect())
    }

    /// [`rx_pdu`](Self::rx_pdu) on a view of the block being walked. A
    /// whole SDU comes back as a view of the same block; a segment is kept
    /// (as a copy when the block is borrowed), and the SDU the last one
    /// completes comes back in the one buffer the segments are stitched
    /// into.
    pub fn receive<'a>(&mut self, pdu: RxPdu<'a>) -> Result<Option<RxPdu<'a>>, RlcError> {
        if pdu.is_empty() {
            return Err(RlcError::Truncated);
        }
        self.tel.add(metric::RLC_RX_PDUS, 1);
        let si = SegmentInfo::from_bits(pdu[0] >> 6);
        let sn = pdu[0] & 0x3F;
        let done = match si {
            SegmentInfo::Full => Some(pdu.slice(1..pdu.len())),
            SegmentInfo::First => {
                let body = pdu.slice(1..pdu.len()).into_shared();
                self.insert_segment(sn, 0, body, false)?.map(RxPdu::Shared)
            }
            SegmentInfo::Middle | SegmentInfo::Last => {
                if pdu.len() < 3 {
                    return Err(RlcError::Truncated);
                }
                let so = u16::from_be_bytes([pdu[1], pdu[2]]) as usize;
                let body = pdu.slice(3..pdu.len()).into_shared();
                self.insert_segment(sn, so, body, si == SegmentInfo::Last)?.map(RxPdu::Shared)
            }
        };
        if done.is_some() {
            self.delivered += 1;
        }
        Ok(done)
    }

    /// Validates and buffers one segment, returning the SDU it completes;
    /// a segment that contradicts the buffered state abandons the whole
    /// reassembly for that SN (counted as a loss, like AM's hardened decode
    /// path) and surfaces a typed error instead of silently assembling a
    /// wrong SDU.
    fn insert_segment(
        &mut self,
        sn: u8,
        so: usize,
        body: Bytes,
        is_last: bool,
    ) -> Result<Option<Bytes>, RlcError> {
        let entry = self.rx.entry(sn).or_default();
        if entry.insert_checked(so, body, is_last).is_err() {
            self.rx.remove(&sn);
            self.dropped_incomplete += 1;
            self.tel.add(metric::RLC_SEGMENT_MISMATCHES, 1);
            return Err(RlcError::SegmentMismatch { sn });
        }
        let done = self.rx.get(&sn).and_then(Reassembly::try_complete);
        if done.is_some() {
            self.rx.remove(&sn);
        }
        Ok(done)
    }

    /// t-Reassembly expiry: drop all incomplete SDUs (UM never recovers
    /// them — the latency-for-reliability trade).
    pub fn flush_reassembly(&mut self) -> u64 {
        let dropped = self.rx.len() as u64;
        self.dropped_incomplete += dropped;
        self.rx.clear();
        dropped
    }

    /// SDUs abandoned by reassembly timeouts or corrupted segments.
    pub fn dropped_incomplete(&self) -> u64 {
        self.dropped_incomplete
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostile::mutate;
    use proptest::prelude::*;

    #[test]
    fn full_sdu_single_pdu() {
        let mut tx = RlcUmEntity::new();
        let mut rx = RlcUmEntity::new();
        let sdu = Bytes::from_static(b"fits in one grant");
        tx.tx_sdu(sdu.clone());
        let pdu = tx.pull_pdu(100).unwrap().unwrap();
        assert_eq!(pdu.len(), sdu.len() + 1);
        assert_eq!(rx.rx_pdu(&pdu).unwrap(), vec![sdu]);
        assert!(tx.pull_pdu(100).unwrap().is_none());
    }

    #[test]
    fn segmentation_and_reassembly() {
        let ramp = Bytes::from((0..=255u8).collect::<Vec<_>>());
        let flat = |n: usize| Bytes::from(vec![0xA5u8; n]);
        for (sdu, grant) in [(ramp, 50), (flat(64), 128), (flat(512), 128), (flat(4096), 128)] {
            let mut tx = RlcUmEntity::new();
            let mut rx = RlcUmEntity::new();
            tx.tx_sdu(sdu.clone());
            let mut delivered = Vec::new();
            let mut pdus = 0;
            while let Some(pdu) = tx.pull_pdu(grant).unwrap() {
                pdus += 1;
                delivered.extend(rx.rx_pdu(&pdu).unwrap());
            }
            assert!(pdus > (sdu.len() - 1) / grant, "{} B: only {pdus} segments", sdu.len());
            assert_eq!(delivered, vec![sdu]);
            assert_eq!(tx.queued_bytes(), 0);
        }
    }

    #[test]
    fn out_of_order_segments_reassemble() {
        let mut tx = RlcUmEntity::new();
        let mut rx = RlcUmEntity::new();
        let sdu = Bytes::from(vec![7u8; 120]);
        tx.tx_sdu(sdu.clone());
        let mut pdus = Vec::new();
        while let Some(p) = tx.pull_pdu(50).unwrap() {
            pdus.push(p);
        }
        pdus.reverse();
        let mut delivered = Vec::new();
        for p in &pdus {
            delivered.extend(rx.rx_pdu(p).unwrap());
        }
        assert_eq!(delivered, vec![sdu]);
    }

    #[test]
    fn missing_segment_blocks_until_flush() {
        let mut tx = RlcUmEntity::new();
        let mut rx = RlcUmEntity::new();
        tx.tx_sdu(Bytes::from(vec![1u8; 150]));
        let mut pdus = Vec::new();
        while let Some(p) = tx.pull_pdu(60).unwrap() {
            pdus.push(p);
        }
        assert!(pdus.len() >= 3);
        pdus.remove(1); // lose a middle segment
        for p in &pdus {
            assert!(rx.rx_pdu(p).unwrap().is_empty());
        }
        assert_eq!(rx.delivered(), 0);
        assert_eq!(rx.flush_reassembly(), 1);
        assert_eq!(rx.dropped_incomplete(), 1);
    }

    #[test]
    fn interleaved_sdus_use_distinct_sns() {
        let mut tx = RlcUmEntity::new();
        let mut rx = RlcUmEntity::new();
        let a = Bytes::from(vec![0xAA; 80]);
        let b = Bytes::from(vec![0xBB; 80]);
        tx.tx_sdu(a.clone());
        tx.tx_sdu(b.clone());
        let mut all = Vec::new();
        while let Some(p) = tx.pull_pdu(45).unwrap() {
            all.push(p);
        }
        // Interleave the two SDUs' segments.
        all.swap(1, 2);
        let mut delivered = Vec::new();
        for p in &all {
            delivered.extend(rx.rx_pdu(p).unwrap());
        }
        assert_eq!(delivered.len(), 2);
        assert!(delivered.contains(&a) && delivered.contains(&b));
    }

    #[test]
    fn queued_bytes_tracks_progress() {
        let mut tx = RlcUmEntity::new();
        tx.tx_sdu(Bytes::from(vec![0u8; 100]));
        assert_eq!(tx.queued_bytes(), 100);
        assert_eq!(tx.queued_sdus(), 1);
        let _ = tx.pull_pdu(51).unwrap().unwrap(); // 50 payload bytes out
        assert_eq!(tx.queued_bytes(), 50);
        assert_eq!(tx.queued_sdus(), 1); // still in flight
        let _ = tx.pull_pdu(100).unwrap().unwrap();
        assert_eq!(tx.queued_bytes(), 0);
        assert_eq!(tx.queued_sdus(), 0);
    }

    #[test]
    fn tiny_grant_is_rejected_not_lost() {
        let mut tx = RlcUmEntity::new();
        tx.tx_sdu(Bytes::from(vec![5u8; 10]));
        let err = tx.pull_pdu(1).unwrap_err();
        assert_eq!(err, RlcError::GrantTooSmall { grant: 1, needed: 2 });
        // The SDU is still queued and retrievable.
        assert_eq!(tx.queued_bytes(), 10);
        assert!(tx.pull_pdu(20).unwrap().is_some());
    }

    #[test]
    fn empty_grant_on_empty_queue_is_none() {
        let mut tx = RlcUmEntity::new();
        assert!(tx.pull_pdu(0).unwrap().is_none());
    }

    #[test]
    fn rx_rejects_truncated() {
        let mut rx = RlcUmEntity::new();
        assert_eq!(rx.rx_pdu(&Bytes::new()).unwrap_err(), RlcError::Truncated);
        // Middle-segment header claims SO but PDU is 2 bytes.
        let bad = Bytes::from(vec![0b11_000001, 0x00]);
        assert_eq!(rx.rx_pdu(&bad).unwrap_err(), RlcError::Truncated);
    }

    /// Segments a 120-byte SDU into PDUs of ≤ 50 B (first/middle/last).
    fn segmented_pdus() -> (Bytes, Vec<Bytes>) {
        let mut tx = RlcUmEntity::new();
        let sdu = Bytes::from((0..120u8).collect::<Vec<_>>());
        tx.tx_sdu(sdu.clone());
        let mut pdus = Vec::new();
        while let Some(p) = tx.pull_pdu(50).unwrap() {
            pdus.push(p);
        }
        assert!(pdus.len() >= 3);
        (sdu, pdus)
    }

    #[test]
    fn exact_duplicate_segments_are_benign() {
        let (sdu, pdus) = segmented_pdus();
        let mut rx = RlcUmEntity::new();
        let mut delivered = Vec::new();
        for p in &pdus {
            delivered.extend(rx.rx_pdu(p).unwrap());
            if delivered.is_empty() {
                // MAC retransmission: byte-identical PDU arrives twice.
                delivered.extend(rx.rx_pdu(p).unwrap());
            }
        }
        assert_eq!(delivered, vec![sdu]);
        assert_eq!(rx.dropped_incomplete(), 0);
    }

    #[test]
    fn corrupted_so_overlap_is_rejected_and_counted() {
        let (_, pdus) = segmented_pdus();
        let mut rx = RlcUmEntity::new();
        assert!(rx.rx_pdu(&pdus[0]).unwrap().is_empty());
        // Corrupt the middle segment's SO so it lands inside the first
        // segment with different bytes.
        let mut bad = pdus[1].to_vec();
        bad[1] = 0;
        bad[2] = 10;
        let sn = bad[0] & 0x3F;
        let err = rx.rx_pdu(&Bytes::from(bad)).unwrap_err();
        assert_eq!(err, RlcError::SegmentMismatch { sn });
        assert_eq!(rx.dropped_incomplete(), 1);
        // The reassembly was abandoned: the remaining honest segments can
        // no longer complete the SDU, and nothing wrong is delivered.
        for p in &pdus[1..] {
            assert!(rx.rx_pdu(p).unwrap().is_empty());
        }
        assert_eq!(rx.delivered(), 0);
    }

    #[test]
    fn contradictory_last_segment_end_is_rejected() {
        let (_, pdus) = segmented_pdus();
        let mut rx = RlcUmEntity::new();
        let last = pdus.last().unwrap();
        assert!(rx.rx_pdu(last).unwrap().is_empty());
        // A second Last for the same SN claiming a different SDU end.
        let mut moved = last.to_vec();
        let so = u16::from_be_bytes([moved[1], moved[2]]);
        moved[1..3].copy_from_slice(&(so + 4).to_be_bytes());
        let sn = moved[0] & 0x3F;
        assert_eq!(rx.rx_pdu(&Bytes::from(moved)).unwrap_err(), RlcError::SegmentMismatch { sn });
        assert_eq!(rx.dropped_incomplete(), 1);
    }

    #[test]
    fn segment_past_known_total_is_rejected() {
        let (_, pdus) = segmented_pdus();
        let mut rx = RlcUmEntity::new();
        let last = pdus.last().unwrap();
        assert!(rx.rx_pdu(last).unwrap().is_empty());
        // A middle segment whose corrupted SO pushes it past the SDU end.
        let mut bad = pdus[1].to_vec();
        bad[0] = (SegmentInfo::Middle.to_bits() << 6) | (bad[0] & 0x3F);
        bad[1..3].copy_from_slice(&u16::MAX.to_be_bytes());
        let sn = bad[0] & 0x3F;
        assert_eq!(rx.rx_pdu(&Bytes::from(bad)).unwrap_err(), RlcError::SegmentMismatch { sn });
    }

    #[test]
    fn bounded_tx_buffer_tail_drops_with_typed_error() {
        let mut tx = RlcUmEntity::new();
        tx.set_tx_capacity(Some(100));
        assert!(tx.try_tx_sdu(Bytes::from(vec![0u8; 60])).is_ok());
        assert!(tx.try_tx_sdu(Bytes::from(vec![1u8; 40])).is_ok());
        let err = tx.try_tx_sdu(Bytes::from(vec![2u8; 1])).unwrap_err();
        assert_eq!(err, RlcError::TxBufferFull { queued: 100, cap: 100 });
        assert_eq!(tx.tx_dropped_full(), 1);
        assert_eq!(tx.queued_bytes(), 100, "rejected SDU must not be queued");
        // Draining frees capacity again.
        while tx.pull_pdu(200).unwrap().is_some() {}
        assert!(tx.try_tx_sdu(Bytes::from(vec![3u8; 100])).is_ok());
    }

    #[test]
    fn sn_wraps_after_64_segmented_sdus() {
        let mut tx = RlcUmEntity::new();
        let mut rx = RlcUmEntity::new();
        for i in 0..70u32 {
            let sdu = Bytes::from(i.to_be_bytes().repeat(10)); // 40 B
            tx.tx_sdu(sdu.clone());
            let mut delivered = Vec::new();
            while let Some(p) = tx.pull_pdu(30).unwrap() {
                delivered.extend(rx.rx_pdu(&p).unwrap());
            }
            assert_eq!(delivered, vec![sdu], "sdu {i}");
        }
    }

    /// The SN a UMD PDU's header names, if it is a segment's.
    fn segment_sn(pdu: &[u8]) -> Option<u8> {
        let si = SegmentInfo::from_bits(*pdu.first()? >> 6);
        (si != SegmentInfo::Full).then_some(pdu[0] & 0x3F)
    }

    proptest! {
        #![proptest_config(ProptestConfig::cases_from_env_or(128))]
        #[test]
        fn a_hostile_umd_pdu_is_a_typed_error_or_a_round_trip(
            lens in prop::collection::vec(1usize..300, 1..5),
            grant in 4usize..120,
            mutation in (0u8..5, any::<usize>(), any::<u32>()),
            victim in any::<usize>(),
            borrowed in any::<bool>(),
        ) {
            let (mut tx, mut rx) = (RlcUmEntity::new(), RlcUmEntity::new());
            // Each SDU with the indices of the PDUs that carry it.
            let mut sdus = Vec::new();
            let mut wire: Vec<Vec<u8>> = Vec::new();
            for (i, &len) in lens.iter().enumerate() {
                let sdu: Bytes = (0..len).map(|j| (31 * i + j) as u8).collect();
                tx.tx_sdu(sdu.clone());
                let first = wire.len();
                while let Some(pdu) = tx.pull_pdu(grant).unwrap() {
                    wire.push(pdu.to_vec());
                }
                sdus.push((sdu, first..wire.len()));
            }
            let victim = victim % wire.len();
            let honest = wire.clone();
            match mutation.0 {
                // A duplicated segment, and a PDU overtaken by the next.
                3 => wire.insert(victim, wire[victim].clone()),
                4 if victim + 1 < wire.len() => wire.swap(victim, victim + 1),
                // A bit flip, a truncation, or a lie in the SO field.
                _ => wire[victim] = mutate(&wire[victim], 1..3, mutation),
            }
            let mut out = Vec::new();
            for w in &wire {
                let sent = w.clone();
                let pdu = if borrowed {
                    RxPdu::Borrowed(w)
                } else {
                    RxPdu::Shared(Bytes::copy_from_slice(w))
                };
                match rx.receive(pdu) {
                    Ok(sdu) => out.extend(sdu.map(RxPdu::into_shared)),
                    Err(RlcError::Truncated | RlcError::SegmentMismatch { .. }) => {}
                    Err(e) => prop_assert!(false, "{} from a received PDU", e),
                }
                prop_assert_eq!(w, &sent, "a caller's block was written to");
            }
            if mutation.0 >= 3 {
                // Reordered or repeated, every SDU still arrives whole.
                prop_assert!(sdus.iter().all(|(sdu, _)| out.contains(sdu)));
                prop_assert!(out.iter().all(|got| sdus.iter().any(|(sdu, _)| sdu == got)));
            } else {
                // A lie costs at most the SDUs of the SNs it names; every
                // other SDU arrives whole.
                let named = [segment_sn(&honest[victim]), segment_sn(&wire[victim])];
                for (sdu, carried) in &sdus {
                    let sn = segment_sn(&honest[carried.start]);
                    if !carried.contains(&victim) && (sn.is_none() || !named.contains(&sn)) {
                        prop_assert!(out.contains(sdu), "an SDU the lie never named was lost");
                    }
                }
            }
            // Once reassembly gives up on what the lie left, the next SDUs,
            // whole and segmented, are delivered byte-exact.
            rx.flush_reassembly();
            let next: Vec<Bytes> = [20, 5 * grant].iter().map(|&n| vec![0x5A; n].into()).collect();
            let mut got = Vec::new();
            for sdu in &next {
                tx.tx_sdu(sdu.clone());
                while let Some(pdu) = tx.pull_pdu(grant.max(24)).unwrap() {
                    got.extend(rx.rx_pdu(&pdu).unwrap());
                }
            }
            prop_assert_eq!(got, next);
        }
    }
}
