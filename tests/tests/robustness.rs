//! Decoder robustness: every wire-format decoder in the workspace must
//! reject arbitrary garbage with a typed error — never panic, never hang.
//! A base station parses attacker-controlled bytes; `Result` is the only
//! acceptable failure mode.

use bytes::Bytes;
use corenet::GtpuHeader;
use phy::modulation::{Iq, Modulation};
use phy::transport::{ShChConfig, SharedChannel, TransportError, MAX_CODE_BLOCK_BYTES};
use proptest::prelude::*;
use ran::mac::MacPdu;
use ran::pdcp::{Direction, PdcpConfig, PdcpEntity};
use ran::rlc::{AmConfig, RlcAmEntity, RlcUmEntity, StatusPdu};
use ran::sdap::SdapEntity;

/// An IQ sample whose components are each, four times in ten, one of NaN,
/// +∞, −∞ and −0.0, and otherwise finite in [−2, 2).
fn wild_sample() -> impl Strategy<Value = Iq> {
    let component = || {
        (0u8..10, -2.0f32..2.0).prop_map(|(kind, finite)| match kind {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => -0.0,
            _ => finite,
        })
    };
    (component(), component()).prop_map(|(i, q)| Iq::new(i, q))
}

/// Decodes through both entry points, which must agree: the cold wrapper,
/// and a [`SharedChannel`] whose buffers an earlier, failed block has used.
fn decode(cfg: ShChConfig, samples: &[Iq]) -> Result<Vec<u8>, TransportError> {
    let cold = phy::transport::decode(cfg, samples);
    let mut channel = SharedChannel::new(cfg);
    assert!(channel.decode(&[Iq::new(f32::NAN, -1.0); 96]).is_err());
    assert_eq!(channel.decode(samples).map(<[u8]>::to_vec), cold);
    cold
}

proptest! {
    #[test]
    fn mac_decoder_never_panics(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = MacPdu::decode(&Bytes::from(data));
    }

    #[test]
    fn rlc_um_rx_never_panics(pdus in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..128), 0..16)) {
        let mut e = RlcUmEntity::new();
        for p in pdus {
            let _ = e.rx_pdu(&Bytes::from(p));
        }
        e.flush_reassembly();
    }

    #[test]
    fn rlc_am_rx_never_panics(pdus in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..128), 0..16)) {
        let mut e = RlcAmEntity::new(AmConfig::default());
        for p in pdus {
            let _ = e.rx_pdu(&Bytes::from(p));
        }
        let _ = e.rx_flush_gaps();
        // The garbage may have requested a status; producing it must also
        // be safe.
        let _ = e.pull_pdu(1 << 12);
    }

    #[test]
    fn rlc_status_decoder_never_panics(data in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = StatusPdu::decode(&Bytes::from(data));
    }

    #[test]
    fn pdcp_rx_never_panics(pdus in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..96), 0..12)) {
        let mut e = PdcpEntity::new(PdcpConfig::new(0xF00D, 1, Direction::Downlink));
        for p in pdus {
            let _ = e.rx_decode(&Bytes::from(p));
        }
        let _ = e.flush_reordering();
    }

    #[test]
    fn sdap_decoder_never_panics(data in prop::collection::vec(any::<u8>(), 0..64)) {
        let e = SdapEntity::new();
        let _ = e.decode_pdu(&Bytes::from(data));
    }

    #[test]
    fn gtpu_decoder_never_panics(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = GtpuHeader::decode(&Bytes::from(data));
    }

    #[test]
    fn transport_decoder_never_panics(
        m in 0usize..5,
        iq in prop::collection::vec(wild_sample(), 0..512),
    ) {
        // Any length (so any number of trailing bits short of a byte), any
        // mix of finite, NaN, ±∞ and −0.0 components: a `Result` comes back.
        let cfg = ShChConfig { modulation: Modulation::ALL[m], c_init: 1 };
        let _ = decode(cfg, &iq);
    }

    #[test]
    fn transport_decoder_round_trips_or_errs_on_ragged_blocks(
        m in 0usize..5,
        payload in prop::collection::vec(any::<u8>(), 0..96),
        tail in prop::collection::vec(wild_sample(), 0..9),
        cut in 1usize..4,
    ) {
        let cfg = ShChConfig { modulation: Modulation::ALL[m], c_init: 0x2_4680 };
        let (samples, _) = phy::transport::encode(cfg, &payload);
        // Samples past the framed stream — whole bytes or a partial one,
        // finite or not — are not part of the block: a clean round trip.
        let longer: Vec<Iq> = samples.iter().copied().chain(tail).collect();
        prop_assert_eq!(decode(cfg, &longer), Ok(payload));
        // A block cut short loses stream bits: a typed error.
        let shorter = &samples[..samples.len() - cut];
        prop_assert_eq!(decode(cfg, shorter), Err(TransportError::Framing));
    }

    #[test]
    fn transport_decoder_rejects_bit_garbage(
        payload in prop::collection::vec(any::<u8>(), 1..128),
        c_init in 1u32..0x7FFF_FFFF,
        flips in prop::collection::vec((any::<prop::sample::Index>(), 0u8..2), 1..8),
    ) {
        // Encode, then corrupt samples by negating both components (a
        // guaranteed decision-boundary crossing); decode must fail or
        // produce different bytes — silent corruption is the only failure.
        let cfg = ShChConfig { modulation: Modulation::Qpsk, c_init };
        let (mut samples, _) = phy::transport::encode(cfg, &payload);
        for (idx, _) in flips {
            let i = idx.index(samples.len());
            samples[i].i = -samples[i].i;
            samples[i].q = -samples[i].q;
        }
        match decode(cfg, &samples) {
            Err(_) => {}
            Ok(out) => prop_assert_ne!(out, payload, "corruption went undetected"),
        }
    }

    #[test]
    fn a_failed_decode_leaves_the_channel_usable(
        m in 0usize..5,
        len in 0usize..2 * MAX_CODE_BLOCK_BYTES,
        garbage in prop::collection::vec(wild_sample(), 0..512),
        hit in any::<prop::sample::Index>(),
    ) {
        let cfg = ShChConfig { modulation: Modulation::ALL[m], c_init: 0x1_2345 };
        let payload: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
        let (clean, blocks) = phy::transport::encode(cfg, &payload);
        // Negate the symbol holding a bit of the first code block's body
        // (24 bits in: past the block count and the length prefix), which
        // its CRC — the transport block's when there is one block — catches.
        let body_bits = 8 * (len + 3).min(MAX_CODE_BLOCK_BYTES);
        let at = (24 + hit.index(body_bits)) / cfg.modulation.bits_per_symbol() as usize;
        let mut flipped = clean.clone();
        flipped[at] = Iq::new(-flipped[at].i, -flipped[at].q);
        let crc_error = if blocks == 1 {
            TransportError::TransportCrc
        } else {
            TransportError::CodeBlockCrc { index: 0 }
        };
        // After each way a block can fail, the same channel decodes the
        // clean block; `decode` has checked it fails as the cold wrapper does.
        let mut channel = SharedChannel::new(cfg);
        for (bad, error) in [
            (&clean[..clean.len() / 2], Some(TransportError::Framing)),
            (&flipped[..], Some(crc_error)),
            (&garbage[..], decode(cfg, &garbage).err()),
        ] {
            prop_assert_eq!(channel.decode(bad).err(), error);
            prop_assert_eq!(channel.decode(&clean), Ok(&payload[..]));
        }
    }

    #[test]
    fn stack_decoders_survive_garbage_mac_pdus(
        pdus in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 0..8)
    ) {
        use stack::{GnbStack, UeStack};
        let mut ue = UeStack::new(1, 0x1234);
        let mut gnb = GnbStack::new();
        gnb.attach_ue(1, 0x1234, 42);
        for p in pdus {
            let b = Bytes::from(p);
            let _ = ue.decode_downlink(&b);
            let _ = gnb.decode_uplink(1, &b);
        }
    }
}
