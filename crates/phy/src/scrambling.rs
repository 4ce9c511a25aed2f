//! Pseudo-random (Gold) sequence generation (TS 38.211 §5.2.1).
//!
//! NR scrambles every physical channel with a length-31 Gold sequence:
//! two LFSRs `x1`, `x2` advanced past `Nc = 1600` warm-up steps, XORed to
//! produce the sequence `c(n)`. `x1` always starts as `1,0,…,0`; `x2` is
//! initialised from `c_init` (a function of RNTI/cell id per channel).

/// Warm-up offset Nc of TS 38.211 §5.2.1.
pub(crate) const NC: usize = 1600;

/// A Gold-sequence generator producing `c(n)` bit by bit.
#[derive(Debug, Clone)]
pub struct GoldSequence {
    x1: u32, // bits x1(n)..x1(n+30) in bits 0..31
    x2: u32,
}

impl GoldSequence {
    /// Creates a generator for the given `c_init`, advanced past the
    /// standard's 1600-step warm-up so the next bit is `c(0)`.
    pub fn new(c_init: u32) -> GoldSequence {
        let mut g = GoldSequence { x1: 1, x2: c_init & 0x7FFF_FFFF };
        for _ in 0..NC {
            g.step();
        }
        g
    }

    /// Advances both LFSRs one step, returning the *current* output bit
    /// `c(n) = (x1(n) + x2(n)) mod 2` before the shift.
    fn step(&mut self) -> u8 {
        let out = ((self.x1 ^ self.x2) & 1) as u8;
        // x1(n+31) = (x1(n+3) + x1(n)) mod 2
        let f1 = ((self.x1 >> 3) ^ self.x1) & 1;
        // x2(n+31) = (x2(n+3) + x2(n+2) + x2(n+1) + x2(n)) mod 2
        let f2 = ((self.x2 >> 3) ^ (self.x2 >> 2) ^ (self.x2 >> 1) ^ self.x2) & 1;
        self.x1 = (self.x1 >> 1) | (f1 << 30);
        self.x2 = (self.x2 >> 1) | (f2 << 30);
        out
    }

    /// Next sequence bit (0 or 1).
    pub(crate) fn next_bit(&mut self) -> u8 {
        self.step()
    }

    /// Fills `out` with the next `out.len()` sequence bytes (8 bits each,
    /// MSB first).
    pub fn next_bytes(&mut self, out: &mut [u8]) {
        for byte in out.iter_mut() {
            let mut b = 0u8;
            for _ in 0..8 {
                b = (b << 1) | self.next_bit();
            }
            *byte = b;
        }
    }

    /// Scrambles (XORs) `data` in place with the sequence — its own inverse,
    /// which is how descrambling works on the receive side.
    pub fn scramble_in_place(&mut self, data: &mut [u8]) {
        for byte in data.iter_mut() {
            let mut mask = 0u8;
            for _ in 0..8 {
                mask = (mask << 1) | self.next_bit();
            }
            *byte ^= mask;
        }
    }
}

/// Computes the PDSCH/PUSCH data-scrambling `c_init`
/// (TS 38.211 §7.3.1.1 / §6.3.1.1): `rnti·2¹⁵ + q·2¹⁴ + n_id`.
pub fn data_scrambling_c_init(rnti: u16, codeword: u8, n_id: u16) -> u32 {
    assert!(codeword < 2, "NR has at most two codewords");
    assert!(n_id < 1024, "n_id is 10 bits");
    (u32::from(rnti) << 15) + (u32::from(codeword) << 14) + u32::from(n_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_c_init() {
        let mut a = GoldSequence::new(0x1234);
        let mut b = GoldSequence::new(0x1234);
        for _ in 0..256 {
            assert_eq!(a.next_bit(), b.next_bit());
        }
    }

    #[test]
    fn different_c_init_diverges() {
        let mut a = GoldSequence::new(1);
        let mut b = GoldSequence::new(2);
        let differing = (0..1024).filter(|_| a.next_bit() != b.next_bit()).count();
        // Gold sequences with different seeds agree on ~half the positions.
        assert!(differing > 400 && differing < 625, "differing = {differing}");
    }

    #[test]
    fn sequence_is_balanced() {
        // A maximal-length-derived sequence has ~equal zeros and ones.
        let mut g = GoldSequence::new(0x0ABCDE);
        let n = 100_000;
        let ones: u32 = (0..n).map(|_| u32::from(g.next_bit())).sum();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "ones fraction {frac}");
    }

    #[test]
    fn low_autocorrelation_at_shift() {
        // Compare the sequence against itself shifted by 63: agreement
        // should be ~50%.
        let mut g = GoldSequence::new(0x31415);
        let bits: Vec<u8> = (0..10_000).map(|_| g.next_bit()).collect();
        let agree = bits.iter().zip(bits[63..].iter()).filter(|(a, b)| a == b).count();
        let frac = agree as f64 / (bits.len() - 63) as f64;
        assert!((frac - 0.5).abs() < 0.02, "agreement {frac}");
    }

    #[test]
    fn scramble_is_involution() {
        let mut data = b"some MAC PDU bytes".to_vec();
        let original = data.clone();
        GoldSequence::new(0x55AA).scramble_in_place(&mut data);
        assert_ne!(data, original);
        GoldSequence::new(0x55AA).scramble_in_place(&mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn next_bytes_matches_bits() {
        let mut a = GoldSequence::new(7);
        let mut b = GoldSequence::new(7);
        let mut bytes = [0u8; 4];
        a.next_bytes(&mut bytes);
        for byte in bytes {
            for bit in (0..8).rev() {
                assert_eq!((byte >> bit) & 1, b.next_bit());
            }
        }
    }

    #[test]
    fn c_init_formula() {
        assert_eq!(data_scrambling_c_init(0, 0, 0), 0);
        assert_eq!(data_scrambling_c_init(1, 0, 0), 1 << 15);
        assert_eq!(data_scrambling_c_init(0, 1, 0), 1 << 14);
        assert_eq!(data_scrambling_c_init(0x1234, 1, 500), (0x1234 << 15) + (1 << 14) + 500);
    }

    #[test]
    #[should_panic(expected = "two codewords")]
    fn c_init_rejects_bad_codeword() {
        data_scrambling_c_init(0, 2, 0);
    }
}
