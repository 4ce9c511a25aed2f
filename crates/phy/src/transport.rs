//! Transport-block processing (TS 38.212 §5.2 simplified).
//!
//! The downlink/uplink shared-channel chain implemented here:
//!
//! 1. attach CRC24A to the transport block;
//! 2. segment into code blocks of at most [`MAX_CODE_BLOCK_BYTES`] with a
//!    CRC24B per code block (only when segmentation occurs, as in the spec);
//! 3. scramble with the UE-specific Gold sequence;
//! 4. modulate to IQ samples.
//!
//! The LDPC encode/rate-match stage is replaced by a pass-through: channel
//! errors are modelled at packet granularity by the `channel` crate, so the
//! code here preserves *structure* (segmentation, CRCs, scrambling — all the
//! pieces whose latency and framing matter to the paper) without
//! re-implementing a soft decoder whose behaviour the experiments never
//! observe. DESIGN.md records this substitution.

use crate::crc::{CRC24A, CRC24B};
use crate::modulation::{Iq, Modulation};
use crate::scrambling::GoldSequence;

/// Maximum code-block payload (LDPC base graph 1 allows 8448 bits total;
/// we use its byte form minus the CRC24B).
pub const MAX_CODE_BLOCK_BYTES: usize = 8448 / 8 - 3;

/// Largest payload [`encode`] accepts: the stream header counts code blocks
/// in one byte, so payload + CRC24A may fill at most 255 of them.
pub(crate) const MAX_TRANSPORT_BLOCK_BYTES: usize = 255 * MAX_CODE_BLOCK_BYTES - 3;

/// Errors from transport-block decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// A code-block CRC24B failed.
    CodeBlockCrc {
        /// Index of the failing code block.
        index: usize,
    },
    /// The transport-block CRC24A failed.
    TransportCrc,
    /// The sample stream didn't contain a whole number of bit groups or
    /// the framing lengths were inconsistent.
    Framing,
}

impl core::fmt::Display for TransportError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TransportError::CodeBlockCrc { index } => write!(f, "code block {index} CRC failed"),
            TransportError::TransportCrc => write!(f, "transport block CRC failed"),
            TransportError::Framing => write!(f, "malformed sample stream"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Parameters of the shared-channel processing chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShChConfig {
    /// Modulation scheme.
    pub modulation: Modulation,
    /// Scrambling sequence initialiser (RNTI/cell-derived, see
    /// [`crate::scrambling::data_scrambling_c_init`]).
    pub c_init: u32,
}

/// One direction of one UE's shared channel, set up once: the Gold
/// generator is run past its `Nc` warm-up here, not per transport block (a
/// block clones the warmed state — two words), and the intermediate buffers
/// of [`encode`](Self::encode) and [`decode`](Self::decode) are kept between
/// calls, so a block in steady state allocates nothing. Every call clears
/// what it reuses first: a failed decode leaves nothing behind for the next.
#[derive(Debug)]
pub struct SharedChannel {
    config: ShChConfig,
    /// The scrambling sequence positioned at `c(0)`.
    warmed: GoldSequence,
    /// Framed code blocks, before scrambling on transmit and after
    /// descrambling on receive.
    stream: Vec<u8>,
    /// `stream` as one `u8` per bit, the form [`Modulation::map`] takes.
    bits: Vec<u8>,
    /// What [`encode`](Self::encode) returns a view of.
    samples: Vec<Iq>,
    /// The reassembled transport block [`decode`](Self::decode) returns a
    /// view of.
    tb: Vec<u8>,
}

impl SharedChannel {
    /// Sets the channel up for `config`: this is where the 1600-step Gold
    /// warm-up is paid.
    pub fn new(config: ShChConfig) -> SharedChannel {
        SharedChannel {
            config,
            warmed: GoldSequence::new(config.c_init),
            stream: Vec::new(),
            bits: Vec::new(),
            samples: Vec::new(),
            tb: Vec::new(),
        }
    }

    /// The parameters the channel was set up with.
    pub fn config(&self) -> ShChConfig {
        self.config
    }

    /// Encodes a transport block into IQ samples, valid until the next call.
    ///
    /// Returns the samples and the number of code blocks used (for
    /// processing-time models that scale with segmentation).
    ///
    /// # Panics
    /// Panics if `payload` is longer than `MAX_TRANSPORT_BLOCK_BYTES`. On
    /// the stack path this cannot happen: the payload is a MAC PDU that
    /// `ran::mac::MacPdu::encode` has already held to its grant's
    /// transport-block size (`MacError::ExceedsTransportBlock`), and no grant
    /// exceeds one slot — a few kilobytes against this limit's 268 512 B.
    pub fn encode(&mut self, payload: &[u8]) -> (&[Iq], usize) {
        assert!(
            payload.len() <= MAX_TRANSPORT_BLOCK_BYTES,
            "transport block of {} B exceeds MAX_TRANSPORT_BLOCK_BYTES \
             ({MAX_TRANSPORT_BLOCK_BYTES}): its code-block count would not fit the one-byte \
             stream header",
            payload.len()
        );
        // 1. TB CRC: the transport block is `payload ‖ CRC24A`, never
        //    materialised — its code blocks are cut from the two parts.
        let tb_crc = CRC24A.compute(payload).to_be_bytes();
        let (p, tb_len) = (payload.len(), payload.len() + 3);
        let n_blocks = tb_len.div_ceil(MAX_CODE_BLOCK_BYTES);
        // 2./3. Segmentation (+ per-CB CRC only when more than one CB, as in
        //    the spec), each block behind a 2-byte length prefix so the
        //    receiver can re-segment (stands in for the rate-matching
        //    metadata carried in DCI in a real system).
        let cb_crc = if n_blocks > 1 { 3 } else { 0 };
        let stream = &mut self.stream;
        stream.clear();
        stream.reserve(1 + tb_len + n_blocks * (2 + cb_crc));
        stream.push(n_blocks as u8);
        for start in (0..tb_len).step_by(MAX_CODE_BLOCK_BYTES) {
            let end = (start + MAX_CODE_BLOCK_BYTES).min(tb_len);
            stream.extend_from_slice(&((end - start + cb_crc) as u16).to_be_bytes());
            let block_at = stream.len();
            stream.extend_from_slice(&payload[start.min(p)..end.min(p)]);
            stream.extend_from_slice(&tb_crc[1..][start.max(p) - p..end.max(p) - p]);
            if cb_crc != 0 {
                let crc = CRC24B.compute(&stream[block_at..]).to_be_bytes();
                stream.extend_from_slice(&crc[1..]);
            }
        }
        // 4. Scramble.
        self.warmed.clone().scramble_in_place(stream);
        // 5. Modulate (pad the bit stream to a whole number of symbols).
        let qm = self.config.modulation.bits_per_symbol() as usize;
        let bits = &mut self.bits;
        bits.clear();
        bits.reserve(stream.len() * 8 + qm);
        for byte in stream.iter() {
            for i in (0..8).rev() {
                bits.push((byte >> i) & 1);
            }
        }
        while !bits.len().is_multiple_of(qm) {
            bits.push(0);
        }
        self.samples.clear();
        self.config.modulation.modulate_into(bits, &mut self.samples);
        (&self.samples, n_blocks)
    }

    /// Decodes IQ samples back into the transport-block payload, valid until
    /// the next call.
    ///
    /// Total over its input: any sample slice — wrong length, NaN or
    /// infinite components (sliced by `Modulation::demap`'s non-finite
    /// rule), trailing symbols that do not fill a byte (dropped) — yields
    /// the payload or a [`TransportError`], never a panic.
    pub fn decode(&mut self, samples: &[Iq]) -> Result<&[u8], TransportError> {
        let stream = &mut self.stream;
        stream.clear();
        self.config.modulation.demodulate_bytes_into(samples, stream);
        self.warmed.clone().scramble_in_place(stream);
        let n_blocks = match stream.first() {
            None | Some(0) => return Err(TransportError::Framing),
            Some(&n) => n as usize,
        };
        let mut pos = 1usize;
        let tb = &mut self.tb;
        tb.clear();
        for index in 0..n_blocks {
            if pos + 2 > stream.len() {
                return Err(TransportError::Framing);
            }
            let len = u16::from_be_bytes([stream[pos], stream[pos + 1]]) as usize;
            pos += 2;
            if pos + len > stream.len() {
                return Err(TransportError::Framing);
            }
            let block = &stream[pos..pos + len];
            pos += len;
            if n_blocks == 1 {
                tb.extend_from_slice(block);
            } else {
                let payload = CRC24B.check(block).ok_or(TransportError::CodeBlockCrc { index })?;
                tb.extend_from_slice(payload);
            }
        }
        CRC24A.check(tb).ok_or(TransportError::TransportCrc)
    }
}

/// Encodes a transport block into IQ samples on a channel set up for this
/// one call — [`SharedChannel::encode`] with the warm-up and the buffers
/// paid every time. Returns the samples and the number of code blocks.
///
/// # Panics
/// As [`SharedChannel::encode`].
pub fn encode(config: ShChConfig, payload: &[u8]) -> (Vec<Iq>, usize) {
    let mut channel = SharedChannel::new(config);
    let n_blocks = channel.encode(payload).1;
    (channel.samples, n_blocks)
}

/// Decodes IQ samples back into the transport-block payload on a channel
/// set up for this one call — [`SharedChannel::decode`], total over its
/// input in the same way.
pub fn decode(config: ShChConfig, samples: &[Iq]) -> Result<Vec<u8>, TransportError> {
    let mut channel = SharedChannel::new(config);
    let len = channel.decode(samples)?.len();
    channel.tb.truncate(len);
    Ok(channel.tb)
}

/// Number of IQ samples produced for a payload of `bytes` bytes — used by
/// the radio model to translate transport blocks into bus traffic without
/// materialising the samples. Pure arithmetic, so unlike [`encode`] it does
/// not stop at `MAX_TRANSPORT_BLOCK_BYTES`; beyond that it counts samples
/// of a block [`encode`] refuses to build.
pub fn sample_count(config: ShChConfig, bytes: usize) -> usize {
    let tb = bytes + 3; // CRC24A
    let blocks = tb.div_ceil(MAX_CODE_BLOCK_BYTES);
    let with_cb_crc = if blocks == 1 { tb } else { tb + 3 * blocks };
    let stream = 1 + with_cb_crc + 2 * blocks;
    let bits = stream * 8;
    bits.div_ceil(config.modulation.bits_per_symbol() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(m: Modulation) -> ShChConfig {
        ShChConfig { modulation: m, c_init: 0x2_4680 }
    }

    #[test]
    fn roundtrip_small_payload_all_modulations() {
        let payload = b"ping request payload".to_vec();
        for m in Modulation::ALL {
            let (samples, blocks) = encode(cfg(m), &payload);
            assert_eq!(blocks, 1);
            let decoded = decode(cfg(m), &samples).unwrap();
            assert_eq!(decoded, payload, "{m:?}");
        }
    }

    #[test]
    fn roundtrip_empty_payload() {
        let (samples, _) = encode(cfg(Modulation::Qpsk), &[]);
        assert_eq!(decode(cfg(Modulation::Qpsk), &samples).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn roundtrip_every_modulation_across_padding_and_segmentation_lengths() {
        // 64-QAM pads the bit stream to a multiple of 6 whenever the stream
        // length is not a multiple of 3 B; past MAX_CODE_BLOCK_BYTES - 3 the
        // CRC24B path runs.
        const CB: usize = MAX_CODE_BLOCK_BYTES;
        for m in Modulation::ALL {
            for len in [0, 1, 2, 3, 5, 64, 67, 1000, CB - 1, CB + 1, 2 * CB + 5] {
                let payload: Vec<u8> = (0..len).map(|i| (i * 31 + len) as u8).collect();
                let (samples, blocks) = encode(cfg(m), &payload);
                assert_eq!(blocks, (len + 3).div_ceil(CB), "{m:?} {len} B");
                assert_eq!(decode(cfg(m), &samples).as_deref(), Ok(&payload[..]), "{m:?} {len} B");
            }
        }
    }

    #[test]
    fn largest_transport_block_fills_255_code_blocks() {
        let payload = vec![0xC3u8; MAX_TRANSPORT_BLOCK_BYTES];
        let (samples, blocks) = encode(cfg(Modulation::Qam256), &payload);
        assert_eq!(blocks, 255);
        assert_eq!(samples.len(), sample_count(cfg(Modulation::Qam256), payload.len()));
        assert_eq!(decode(cfg(Modulation::Qam256), &samples).unwrap(), payload);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_TRANSPORT_BLOCK_BYTES")]
    fn one_byte_past_the_largest_transport_block_is_refused() {
        // 256 code blocks used to encode as a header byte of 0.
        encode(cfg(Modulation::Qam256), &vec![0u8; MAX_TRANSPORT_BLOCK_BYTES + 1]);
    }

    #[test]
    fn large_payload_segments() {
        let payload = vec![0x5Au8; 3 * MAX_CODE_BLOCK_BYTES];
        let (samples, blocks) = encode(cfg(Modulation::Qam64), &payload);
        assert!(blocks >= 3, "expected segmentation, got {blocks} blocks");
        let decoded = decode(cfg(Modulation::Qam64), &samples).unwrap();
        assert_eq!(decoded, payload);
    }

    #[test]
    fn wrong_c_init_fails_crc() {
        let payload = b"scrambled".to_vec();
        let (samples, _) = encode(cfg(Modulation::Qpsk), &payload);
        let bad = ShChConfig { modulation: Modulation::Qpsk, c_init: 0x999 };
        assert!(decode(bad, &samples).is_err());
    }

    #[test]
    fn corrupted_samples_detected() {
        let payload = vec![7u8; 64];
        let (mut samples, _) = encode(cfg(Modulation::Qpsk), &payload);
        // Flip a sample hard enough to cross a decision boundary.
        let mid = samples.len() / 2;
        samples[mid].i = -samples[mid].i;
        samples[mid].q = -samples[mid].q;
        assert!(decode(cfg(Modulation::Qpsk), &samples).is_err());
    }

    #[test]
    fn sample_count_matches_encode() {
        for m in Modulation::ALL {
            for bytes in [0usize, 1, 32, 1000, MAX_CODE_BLOCK_BYTES + 5] {
                let payload = vec![0xABu8; bytes];
                let (samples, _) = encode(cfg(m), &payload);
                assert_eq!(samples.len(), sample_count(cfg(m), bytes), "{m:?} {bytes}B");
            }
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode(cfg(Modulation::Qpsk), &[]), Err(TransportError::Framing));
        let junk = vec![Iq::new(0.7, 0.7); 4];
        assert!(decode(cfg(Modulation::Qpsk), &junk).is_err());
    }
}
