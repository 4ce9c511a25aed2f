//! Property-based tests over the workspace's core invariants (proptest).

use bytes::Bytes;
use corenet::GtpuHeader;
use phy::crc::{CRC16, CRC24A};
use phy::modulation::Modulation;
use phy::scrambling::GoldSequence;
use phy::transport::{decode, encode, ShChConfig, SharedChannel, MAX_CODE_BLOCK_BYTES};
use proptest::prelude::*;
use ran::mac::{MacPdu, MacSubPdu};
use ran::pdcp::{Direction, PdcpConfig, PdcpEntity};
use ran::rlc::RlcUmEntity;
use sim::{Duration, Histogram, Instant, StreamingStats};

proptest! {
    // ---------------- time arithmetic ----------------

    #[test]
    fn ceil_floor_bracket_the_instant(t in 0u64..10_000_000_000, p in 1u64..10_000_000) {
        let t = Instant::from_nanos(t);
        let p = Duration::from_nanos(p);
        let up = t.ceil_to(p);
        let down = t.floor_to(p);
        prop_assert!(down <= t && t <= up);
        prop_assert!(up - down < p + Duration::from_nanos(1));
        prop_assert_eq!(up.as_nanos() % p.as_nanos(), 0);
        prop_assert_eq!(down.as_nanos() % p.as_nanos(), 0);
    }

    #[test]
    fn duration_add_sub_roundtrip(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let (a, b) = (Duration::from_nanos(a), Duration::from_nanos(b));
        prop_assert_eq!((a + b) - b, a);
        prop_assert_eq!((a + b).saturating_sub(a + b), Duration::ZERO);
    }

    // ---------------- statistics ----------------

    #[test]
    fn welford_matches_naive_mean(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut st = StreamingStats::new();
        for &x in &xs {
            st.push(x);
        }
        let naive = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((st.mean() - naive).abs() < 1e-6 * (1.0 + naive.abs()));
        prop_assert!(st.min() <= st.max());
        prop_assert!(st.variance() >= 0.0);
    }

    #[test]
    fn histogram_mass_conserved(xs in prop::collection::vec(-5.0f64..15.0, 1..300)) {
        let mut h = Histogram::new(0.0, 10.0, 17);
        for &x in &xs {
            h.push(x);
        }
        prop_assert_eq!(h.count(), xs.len() as u64);
        let total: f64 = h.probabilities().map(|(_, p)| p).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(h.cdf(10.0) == 1.0 && h.cdf(0.0) == 0.0);
    }

    // ---------------- PHY codecs ----------------

    #[test]
    fn crc_roundtrip_and_single_flip_detection(
        data in prop::collection::vec(any::<u8>(), 0..128),
        flip_byte in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let msg = CRC24A.attach(&data);
        prop_assert_eq!(CRC24A.check(&msg), Some(&data[..]));
        let mut corrupted = msg.clone();
        let idx = flip_byte.index(corrupted.len());
        corrupted[idx] ^= 1 << flip_bit;
        prop_assert_eq!(CRC24A.check(&corrupted), None);

        let msg16 = CRC16.attach(&data);
        prop_assert_eq!(CRC16.check(&msg16), Some(&data[..]));
    }

    #[test]
    fn scrambling_is_involution(c_init in 0u32..0x7FFF_FFFF, data in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut buf = data.clone();
        GoldSequence::new(c_init).scramble_in_place(&mut buf);
        GoldSequence::new(c_init).scramble_in_place(&mut buf);
        prop_assert_eq!(buf, data);
    }

    #[test]
    fn modulation_roundtrips(bits in prop::collection::vec(0u8..2, 0..96)) {
        for m in Modulation::ALL {
            let qm = m.bits_per_symbol() as usize;
            let len = (bits.len() / qm) * qm;
            let slice = &bits[..len];
            let samples = m.modulate(slice);
            prop_assert_eq!(m.demodulate(&samples), slice.to_vec());
        }
    }

    #[test]
    fn transport_block_roundtrips(payload in prop::collection::vec(any::<u8>(), 0..600), c_init in 0u32..0x7FFF_FFFF) {
        let cfg = ShChConfig { modulation: Modulation::Qam16, c_init };
        let (samples, _) = encode(cfg, &payload);
        prop_assert_eq!(decode(cfg, &samples).unwrap(), payload);
    }

    #[test]
    fn shared_channel_equals_the_cold_wrappers_bit_for_bit(
        m in 0usize..5,
        c_init in 0u32..0x7FFF_FFFF,
        big in 0usize..=3 * MAX_CODE_BLOCK_BYTES,
        small in 0usize..200,
        salt in any::<u8>(),
    ) {
        // One transmit and one receive channel carry a large block (up to
        // four code blocks), then a small one, then a large one again: what
        // an earlier block left in the buffers must not reach a later one.
        let cfg = ShChConfig { modulation: Modulation::ALL[m], c_init };
        let (mut tx, mut rx) = (SharedChannel::new(cfg), SharedChannel::new(cfg));
        prop_assert_eq!(tx.config(), cfg);
        for (round, len) in [big, small, big].into_iter().enumerate() {
            let payload: Vec<u8> =
                (0..len).map(|i| (i as u8).wrapping_mul(29) ^ salt ^ round as u8).collect();
            let (cold, cold_blocks) = encode(cfg, &payload);
            let (warm, warm_blocks) = tx.encode(&payload);
            prop_assert_eq!(warm_blocks, cold_blocks);
            let bits = |s: &[phy::modulation::Iq]| -> Vec<(u32, u32)> {
                s.iter().map(|s| (s.i.to_bits(), s.q.to_bits())).collect()
            };
            prop_assert_eq!(bits(warm), bits(&cold));
            prop_assert_eq!(rx.decode(warm).map(<[u8]>::to_vec), decode(cfg, &cold));
            prop_assert_eq!(rx.decode(&cold), Ok(&payload[..]));
        }
    }

    // ---------------- L2 codecs ----------------

    #[test]
    fn rlc_um_identity_under_any_grant(
        payload in prop::collection::vec(any::<u8>(), 1..800),
        grant in 4usize..200,
    ) {
        let mut tx = RlcUmEntity::new();
        let mut rx = RlcUmEntity::new();
        let sdu = Bytes::from(payload);
        tx.tx_sdu(sdu.clone());
        let mut delivered = Vec::new();
        let mut guard = 0;
        while let Some(pdu) = tx.pull_pdu(grant).unwrap() {
            delivered.extend(rx.rx_pdu(&pdu).unwrap());
            guard += 1;
            prop_assert!(guard < 2_000);
        }
        prop_assert_eq!(delivered, vec![sdu]);
        prop_assert_eq!(tx.queued_bytes(), 0);
    }

    #[test]
    fn rlc_um_reassembles_any_delivery_order(
        payload in prop::collection::vec(any::<u8>(), 50..400),
        grant in 10usize..60,
        seed in any::<u64>(),
    ) {
        let mut tx = RlcUmEntity::new();
        let mut rx = RlcUmEntity::new();
        let sdu = Bytes::from(payload);
        tx.tx_sdu(sdu.clone());
        let mut pdus = Vec::new();
        while let Some(pdu) = tx.pull_pdu(grant).unwrap() {
            pdus.push(pdu);
        }
        // Deterministic shuffle from the seed.
        let mut order: Vec<usize> = (0..pdus.len()).collect();
        let mut s = seed;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }
        let mut delivered = Vec::new();
        for &i in &order {
            delivered.extend(rx.rx_pdu(&pdus[i]).unwrap());
        }
        prop_assert_eq!(delivered, vec![sdu]);
    }

    #[test]
    fn pdcp_in_order_stream_identity(
        sdus in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..50),
        key in any::<u64>(),
    ) {
        let mut tx = PdcpEntity::new(PdcpConfig::new(key, 3, Direction::Uplink));
        let mut rx = PdcpEntity::new(PdcpConfig::new(key, 3, Direction::Downlink));
        for sdu in &sdus {
            let sdu = Bytes::from(sdu.clone());
            let pdu = tx.tx_encode(&sdu);
            let out = rx.rx_decode(&pdu).unwrap();
            prop_assert_eq!(out, vec![sdu]);
        }
        prop_assert_eq!(rx.discarded(), 0);
    }

    #[test]
    fn mac_mux_demux_identity(
        subpdus in prop::collection::vec(
            (0u8..33, prop::collection::vec(any::<u8>(), 0..300)),
            0..8
        ),
        pad_extra in 0usize..64,
    ) {
        let pdu = MacPdu::new(
            subpdus
                .iter()
                .map(|(lcid, p)| MacSubPdu::new(*lcid, Bytes::from(p.clone())))
                .collect(),
        );
        let min: usize = pdu.subpdus.iter().map(MacSubPdu::encoded_len).sum();
        let enc = pdu.encode(Some(min + pad_extra + 1)).unwrap();
        prop_assert_eq!(enc.len(), min + pad_extra + 1);
        let dec = MacPdu::decode(&enc).unwrap();
        prop_assert_eq!(dec, pdu);
    }

    // ---------------- core network ----------------

    #[test]
    fn gtpu_roundtrips(
        teid in any::<u32>(),
        seq in prop::option::of(any::<u16>()),
        payload in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let h = GtpuHeader { message_type: 255, teid, sequence: seq };
        let pkt = h.encode(&payload);
        let (dec, body) = GtpuHeader::decode(&pkt).unwrap();
        prop_assert_eq!(dec, h);
        prop_assert_eq!(&body[..], &payload[..]);
    }

    // ---------------- TDD timing ----------------

    #[test]
    fn tdd_slot_maps_are_total_and_periodic(slot in 0u64..10_000) {
        for (_, cfg) in phy::TddConfig::minimal_configs() {
            let k1 = cfg.slot_kind(slot);
            let k2 = cfg.slot_kind(slot + cfg.slots_per_period());
            prop_assert_eq!(k1, k2);
        }
    }

    #[test]
    fn duplex_opportunities_respect_ready_time(ready_us in 0u64..20_000) {
        let ready = Instant::from_micros(ready_us);
        for duplex in [
            phy::Duplex::Tdd(phy::TddConfig::dddu_testbed()),
            phy::Duplex::Tdd(phy::TddConfig::dm_minimal()),
            phy::Duplex::Fdd { numerology: phy::Numerology::Mu2 },
        ] {
            let ul = duplex.next_ul_opportunity(ready);
            let dl = duplex.next_dl_opportunity(ready);
            prop_assert!(ul.tx_start >= ready);
            prop_assert!(dl.tx_start >= ready);
            prop_assert!(!ul.tx_duration.is_zero());
            prop_assert!(!dl.tx_duration.is_zero());
            // Monotone in the ready time.
            let later = duplex.next_ul_opportunity(ready + Duration::from_micros(700));
            prop_assert!(later.tx_start >= ul.tx_start);
        }
    }
}
