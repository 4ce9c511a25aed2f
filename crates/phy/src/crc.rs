//! CRC attachment (TS 38.212 §5.1).
//!
//! NR uses five cyclic generator polynomials: CRC24A (transport blocks),
//! CRC24B (code blocks), CRC24C (BCH), CRC16 (small transport blocks) and
//! CRC11/CRC6 (polar-coded control).
//!
//! The hot path is table-driven: each standard polynomial gets a
//! compile-time 256-entry lookup table and consumes input a byte at a time.
//! Polynomials narrower than 8 bits (CRC6) run left-aligned at 8 bits (the
//! register and polynomial are shifted up by `8 − width`; the final shift
//! back recovers the remainder — the alignment commutes with the division).
//! The original MSB-first bit-at-a-time engine survives as
//! `CrcPoly::compute_bitwise`, both as the fallback for non-standard
//! polynomials and as the reference the equivalence tests compare against.

/// A CRC generator polynomial with its width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CrcPoly {
    /// Polynomial width in bits (degree).
    pub width: u32,
    /// Polynomial coefficients below the leading term, MSB-first.
    pub poly: u32,
}

/// gCRC24A(D) = D²⁴+D²³+D¹⁸+D¹⁷+D¹⁴+D¹¹+D¹⁰+D⁷+D⁶+D⁵+D⁴+D³+D+1 —
/// attached to transport blocks.
pub const CRC24A: CrcPoly = CrcPoly { width: 24, poly: 0x86_4C_FB };
/// gCRC24B(D) = D²⁴+D²³+D⁶+D⁵+D+1 — attached to code blocks.
pub(crate) const CRC24B: CrcPoly = CrcPoly { width: 24, poly: 0x80_00_63 };
/// gCRC24C(D) — broadcast channel.
pub(crate) const CRC24C: CrcPoly = CrcPoly { width: 24, poly: 0xB2_B1_17 };
/// gCRC16(D) = D¹⁶+D¹²+D⁵+1 (CCITT) — small transport blocks.
pub const CRC16: CrcPoly = CrcPoly { width: 16, poly: 0x10_21 };
/// gCRC11(D) = D¹¹+D¹⁰+D⁹+D⁵+1 — polar-coded UCI.
pub(crate) const CRC11: CrcPoly = CrcPoly { width: 11, poly: 0x6_21 };
/// gCRC6(D) = D⁶+D⁵+1 — short UCI.
pub(crate) const CRC6: CrcPoly = CrcPoly { width: 6, poly: 0x21 };

/// Builds the 256-entry byte-at-a-time table for `poly`, left-aligned to
/// `max(width, 8)` bits. Evaluated at compile time for the standard
/// polynomials below.
const fn crc_table(width: u32, poly: u32) -> [u32; 256] {
    // Left-align sub-byte polynomials so the byte loop always has ≥ 8 bits
    // of register to shift through.
    let shift = 8u32.saturating_sub(width);
    let w = width + shift;
    let poly = poly << shift;
    let mask: u32 = if w == 32 { u32::MAX } else { (1 << w) - 1 };
    let top: u32 = 1 << (w - 1);
    let mut table = [0u32; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut reg = (b as u32) << (w - 8);
        let mut i = 0;
        while i < 8 {
            reg = if reg & top != 0 { ((reg << 1) ^ poly) & mask } else { (reg << 1) & mask };
            i += 1;
        }
        table[b] = reg;
        b += 1;
    }
    table
}

static CRC24A_TABLE: [u32; 256] = crc_table(CRC24A.width, CRC24A.poly);
static CRC24B_TABLE: [u32; 256] = crc_table(CRC24B.width, CRC24B.poly);
static CRC24C_TABLE: [u32; 256] = crc_table(CRC24C.width, CRC24C.poly);
static CRC16_TABLE: [u32; 256] = crc_table(CRC16.width, CRC16.poly);
static CRC11_TABLE: [u32; 256] = crc_table(CRC11.width, CRC11.poly);
static CRC6_TABLE: [u32; 256] = crc_table(CRC6.width, CRC6.poly);

impl CrcPoly {
    /// The precomputed table for the standard polynomials (`None` for an
    /// ad-hoc polynomial, which falls back to the bitwise engine).
    fn table(&self) -> Option<&'static [u32; 256]> {
        match (self.width, self.poly) {
            (24, 0x86_4C_FB) => Some(&CRC24A_TABLE),
            (24, 0x80_00_63) => Some(&CRC24B_TABLE),
            (24, 0xB2_B1_17) => Some(&CRC24C_TABLE),
            (16, 0x10_21) => Some(&CRC16_TABLE),
            (11, 0x6_21) => Some(&CRC11_TABLE),
            (6, 0x21) => Some(&CRC6_TABLE),
            _ => None,
        }
    }

    /// Computes the CRC remainder of `data` (MSB-first, zero initial state,
    /// no final XOR — the TS 38.212 convention). Table-driven for the
    /// standard polynomials, bitwise otherwise.
    pub fn compute(&self, data: &[u8]) -> u32 {
        let Some(table) = self.table() else {
            return self.compute_bitwise(data);
        };
        let shift = 8u32.saturating_sub(self.width);
        let w = self.width + shift;
        let mask: u32 = if w == 32 { u32::MAX } else { (1 << w) - 1 };
        let mut reg: u32 = 0;
        for &byte in data {
            let idx = ((reg >> (w - 8)) ^ u32::from(byte)) & 0xFF;
            reg = ((reg << 8) & mask) ^ table[idx as usize];
        }
        reg >> shift
    }

    /// The reference MSB-first bit-at-a-time engine (the original
    /// implementation): kept for ad-hoc polynomials and as the ground
    /// truth the table equivalence tests compare against.
    pub(crate) fn compute_bitwise(&self, data: &[u8]) -> u32 {
        let mut reg: u32 = 0;
        let mask: u32 = if self.width == 32 { u32::MAX } else { (1 << self.width) - 1 };
        for &byte in data {
            for bit in (0..8).rev() {
                let inbit = u32::from((byte >> bit) & 1);
                let feedback = ((reg >> (self.width - 1)) & 1) ^ inbit;
                reg = (reg << 1) & mask;
                if feedback == 1 {
                    reg ^= self.poly & mask;
                }
            }
        }
        reg & mask
    }

    /// Appends the CRC to `data` as whole bytes (width rounded up to a
    /// multiple of 8, left-padded with zero bits — 24- and 16-bit CRCs are
    /// byte-aligned already, which is all the data path uses).
    pub fn attach(&self, data: &[u8]) -> Vec<u8> {
        let crc = self.compute(data);
        let bytes = self.width.div_ceil(8) as usize;
        let mut out = Vec::with_capacity(data.len() + bytes);
        out.extend_from_slice(data);
        for i in (0..bytes).rev() {
            out.push((crc >> (8 * i)) as u8);
        }
        out
    }

    /// Checks a CRC-suffixed message; returns the payload on success.
    pub fn check<'a>(&self, message: &'a [u8]) -> Option<&'a [u8]> {
        let bytes = self.width.div_ceil(8) as usize;
        if message.len() < bytes {
            return None;
        }
        let (payload, tail) = message.split_at(message.len() - bytes);
        let mut got: u32 = 0;
        for &b in tail {
            got = (got << 8) | u32::from(b);
        }
        if self.compute(payload) == got {
            Some(payload)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_of_empty_is_zero() {
        for p in [CRC24A, CRC24B, CRC24C, CRC16, CRC11, CRC6] {
            assert_eq!(p.compute(&[]), 0);
        }
    }

    #[test]
    fn crc_of_zeros_is_zero() {
        assert_eq!(CRC24A.compute(&[0u8; 16]), 0);
        assert_eq!(CRC16.compute(&[0u8; 16]), 0);
    }

    #[test]
    fn crc16_ccitt_known_vector() {
        // CRC16/XMODEM ("123456789") = 0x31C3; gCRC16 is the same
        // polynomial with zero init and no final XOR.
        assert_eq!(CRC16.compute(b"123456789"), 0x31C3);
    }

    #[test]
    fn table_matches_bitwise_on_random_payloads() {
        // xorshift64* — deterministic pseudo-random payloads without
        // pulling the sim crate into phy's dev-deps.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for len in 0..64 {
            let payload: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            for p in [CRC24A, CRC24B, CRC24C, CRC16, CRC11, CRC6] {
                assert_eq!(
                    p.compute(&payload),
                    p.compute_bitwise(&payload),
                    "table/bitwise disagree for {p:?} on {payload:?}"
                );
            }
        }
        // Larger blocks, TB-sized.
        for _ in 0..8 {
            let payload: Vec<u8> = (0..1500).map(|_| next() as u8).collect();
            for p in [CRC24A, CRC24B, CRC24C, CRC16, CRC11, CRC6] {
                assert_eq!(p.compute(&payload), p.compute_bitwise(&payload));
            }
        }
    }

    #[test]
    fn ad_hoc_polynomial_falls_back_to_bitwise() {
        let odd = CrcPoly { width: 8, poly: 0x07 }; // CRC-8/ATM, not in NR
        assert!(odd.table().is_none());
        assert_eq!(odd.compute(b"123456789"), odd.compute_bitwise(b"123456789"));
        // Known CRC-8 (poly 0x07, zero init): "123456789" → 0xF4.
        assert_eq!(odd.compute(b"123456789"), 0xF4);
    }

    #[test]
    fn attach_check_roundtrip() {
        let data = b"hello 5G world";
        for p in [CRC24A, CRC24B, CRC24C, CRC16, CRC11, CRC6] {
            let msg = p.attach(data);
            assert_eq!(p.check(&msg), Some(&data[..]), "poly {p:?}");
        }
    }

    #[test]
    fn detects_single_bit_errors() {
        let data = b"payload under test";
        let msg = CRC24A.attach(data);
        for byte in 0..msg.len() {
            for bit in 0..8 {
                let mut corrupted = msg.clone();
                corrupted[byte] ^= 1 << bit;
                assert_eq!(CRC24A.check(&corrupted), None, "missed flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn detects_burst_errors_up_to_width() {
        // A CRC of width w detects all burst errors of length <= w.
        let data = vec![0xA5u8; 64];
        let msg = CRC16.attach(&data);
        for start in 0..(msg.len() - 2) {
            let mut corrupted = msg.clone();
            corrupted[start] ^= 0xFF;
            corrupted[start + 1] ^= 0xFF;
            assert_eq!(CRC16.check(&corrupted), None, "missed burst at {start}");
        }
    }

    #[test]
    fn check_rejects_short_messages() {
        assert_eq!(CRC24A.check(&[0x00, 0x01]), None);
        assert_eq!(CRC24A.check(&[]), None);
    }

    #[test]
    fn different_polys_disagree() {
        let data = b"disambiguate";
        let a = CRC24A.compute(data);
        let b = CRC24B.compute(data);
        let c = CRC24C.compute(data);
        assert!(a != b && b != c && a != c);
    }
}
