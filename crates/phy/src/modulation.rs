//! QAM modulation mapping (TS 38.211 §5.1).
//!
//! Gray-mapped BPSK/QPSK/16-QAM/64-QAM/256-QAM constellation mapping and
//! hard-decision demapping. The radio crate moves *samples*; this module is
//! what turns coded bits into those samples and back, and its
//! bits-per-symbol figures feed the transport-block sizing in [`crate::grid`].
//!
//! # The demapper is a slicer, not a search
//!
//! With `s(b) = 1 − 2b`, the §5.1 formulas give every QAM symbol as two
//! independent axes, I from the even bits and Q from the odd ones:
//!
//! ```text
//! QPSK     I·√2   = s(b0)
//! 16-QAM   I·√10  = s(b0)·(2 − s(b2))
//! 64-QAM   I·√42  = s(b0)·(4 − s(b2)·(2 − s(b4)))
//! 256-QAM  I·√170 = s(b0)·(8 − s(b2)·(4 − s(b4)·(2 − s(b6))))
//! ```
//!
//! (Q likewise from b1, b3, b5, b7.) Read outside in, the nearest point on an
//! axis is recovered without looking at any other point: `b0` is the sign of
//! I; `a = |I|·√10` is `2 − s(b2) ∈ {1, 3}`, so `b2 = a > 2`; one order up
//! `a = |I|·√42 ∈ {3, 1, 5, 7}`, so `b2 = a > 4`, and the fold
//! `a' = |a − 4| = 2 − s(b4)` puts the next bit back in the 16-QAM position,
//! `b4 = a' > 2`. In general bit `b(2j)`, j ≥ 1, of a 2^(2m)-QAM axis is
//! `a > 2^(m−j)` after the j−1 folds `a ← |a − 2^(m−i)|`, i = 1 … j−1. BPSK
//! puts one bit on the diagonal, `I = Q = s(b0)/√2`, and the nearer point is
//! the sign of `I + Q`. That is Qm comparisons per symbol where a
//! nearest-neighbour search makes 2^Qm distance computations.
//!
//! **Tie rule.** Every comparison is strict (`I < 0`, `a > t`), so a sample
//! exactly on a decision boundary — either zero, or `|I|·k` equal to a
//! threshold — takes the 0 bit: the lowest group value among the tied
//! points, as a first-minimum search in group order returns.
//!
//! **Non-finite rule.** Each axis is sliced alone. A comparison with NaN is
//! false, so a NaN component reads as all-zero bits on its axis (for BPSK a
//! NaN sum, including `∞ + −∞`, reads as 0); `±∞` saturates to the outermost
//! point of its sign, as any large finite amplitude does. Samples off a real
//! channel are finite, so no clean trace ever meets this rule; it exists so
//! that [`crate::transport::decode`] is total over `f32`.

/// A complex baseband sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Iq {
    /// In-phase component.
    pub i: f32,
    /// Quadrature component.
    pub q: f32,
}

impl Iq {
    /// Creates a sample.
    pub const fn new(i: f32, q: f32) -> Iq {
        Iq { i, q }
    }

    /// Squared Euclidean distance to another sample.
    pub fn dist2(self, other: Iq) -> f32 {
        let di = self.i - other.i;
        let dq = self.q - other.q;
        di * di + dq * dq
    }

    /// Power of the sample.
    pub fn power(self) -> f32 {
        self.i * self.i + self.q * self.q
    }
}

/// NR modulation schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// π/2-less plain BPSK (1 bit/symbol).
    Bpsk,
    /// QPSK (2 bits/symbol).
    Qpsk,
    /// 16-QAM (4 bits/symbol).
    Qam16,
    /// 64-QAM (6 bits/symbol).
    Qam64,
    /// 256-QAM (8 bits/symbol).
    Qam256,
}

impl Modulation {
    /// All supported schemes.
    pub const ALL: [Modulation; 5] = [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
        Modulation::Qam256,
    ];

    /// Modulation order Qm: bits per symbol.
    pub const fn bits_per_symbol(self) -> u32 {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
            Modulation::Qam256 => 8,
        }
    }

    /// Maps one group of [`Self::bits_per_symbol`] bits (values 0/1,
    /// b\[0\] first as in the spec) to a constellation point.
    ///
    /// # Panics
    /// Panics if `bits.len() != bits_per_symbol()`.
    pub(crate) fn map(self, bits: &[u8]) -> Iq {
        assert_eq!(bits.len() as u32, self.bits_per_symbol(), "wrong bit-group size");
        let s = |b: u8| 1.0 - 2.0 * f32::from(b); // 0 -> +1, 1 -> -1
        match self {
            Modulation::Bpsk => {
                let v = s(bits[0]) / core::f32::consts::SQRT_2;
                Iq::new(v, v)
            }
            Modulation::Qpsk => {
                let k = 1.0 / 2f32.sqrt();
                Iq::new(k * s(bits[0]), k * s(bits[1]))
            }
            Modulation::Qam16 => {
                let k = 1.0 / 10f32.sqrt();
                Iq::new(k * s(bits[0]) * (2.0 - s(bits[2])), k * s(bits[1]) * (2.0 - s(bits[3])))
            }
            Modulation::Qam64 => {
                let k = 1.0 / 42f32.sqrt();
                Iq::new(
                    k * s(bits[0]) * (4.0 - s(bits[2]) * (2.0 - s(bits[4]))),
                    k * s(bits[1]) * (4.0 - s(bits[3]) * (2.0 - s(bits[5]))),
                )
            }
            Modulation::Qam256 => {
                let k = 1.0 / 170f32.sqrt();
                Iq::new(
                    k * s(bits[0]) * (8.0 - s(bits[2]) * (4.0 - s(bits[4]) * (2.0 - s(bits[6])))),
                    k * s(bits[1]) * (8.0 - s(bits[3]) * (4.0 - s(bits[5]) * (2.0 - s(bits[7])))),
                )
            }
        }
    }

    /// Modulates a bit slice (length must be a multiple of
    /// `bits_per_symbol`) into samples.
    pub fn modulate(self, bits: &[u8]) -> Vec<Iq> {
        let mut samples = Vec::new();
        self.modulate_into(bits, &mut samples);
        samples
    }

    /// [`Self::modulate`], appending to a buffer the caller keeps.
    pub(crate) fn modulate_into(self, bits: &[u8], out: &mut Vec<Iq>) {
        let qm = self.bits_per_symbol() as usize;
        assert_eq!(bits.len() % qm, 0, "bit count not a multiple of Qm");
        out.extend(bits.chunks(qm).map(|c| self.map(c)));
    }

    /// The full constellation as `(bit-group value, point)` pairs; the
    /// group value has b\[0\] as its MSB.
    pub fn constellation(self) -> Vec<(u32, Iq)> {
        let qm = self.bits_per_symbol();
        (0..(1u32 << qm))
            .map(|v| {
                let bits: Vec<u8> = (0..qm).map(|i| ((v >> (qm - 1 - i)) & 1) as u8).collect();
                (v, self.map(&bits))
            })
            .collect()
    }

    /// Axis scale `k` (so that `|I|·k` sits on the odd integers) and the top
    /// folded threshold `2^(m−1)` of the slicer. BPSK and QPSK carry no
    /// amplitude bits: their threshold is below the first one tested.
    fn slicer(self) -> (f32, f32) {
        match self {
            Modulation::Bpsk | Modulation::Qpsk => (1.0, 1.0),
            Modulation::Qam16 => (10f32.sqrt(), 2.0),
            Modulation::Qam64 => (42f32.sqrt(), 4.0),
            Modulation::Qam256 => (170f32.sqrt(), 8.0),
        }
    }

    /// Hard-decision demaps one sample to its bit group (b\[0\] as the MSB):
    /// the nearest constellation point, found by the per-axis threshold
    /// slicer the module docs derive. Boundaries take the 0 bit; NaN reads
    /// as 0 bits and `±∞` saturates (module docs, tie and non-finite rules).
    pub(crate) fn demap(self, sample: Iq) -> u32 {
        if self == Modulation::Bpsk {
            return u32::from(sample.i + sample.q < 0.0);
        }
        let (k, top) = self.slicer();
        slice_axis(sample.i, k, top) << 1 | slice_axis(sample.q, k, top)
    }

    /// Demodulates samples back to bits (hard decisions), one `u8` per bit.
    pub fn demodulate(self, samples: &[Iq]) -> Vec<u8> {
        let qm = self.bits_per_symbol() as usize;
        let mut bits = vec![0u8; samples.len() * qm];
        for (group, &s) in bits.chunks_exact_mut(qm).zip(samples) {
            let v = self.demap(s);
            for (i, bit) in group.iter_mut().enumerate() {
                *bit = ((v >> (qm - 1 - i)) & 1) as u8;
            }
        }
        bits
    }

    /// Demodulates samples straight into bytes appended to `bytes`: bit
    /// groups packed MSB-first in sample order, which is the stream
    /// [`crate::transport::SharedChannel::decode`] descrambles. Trailing
    /// bits that do not fill a byte are dropped.
    pub(crate) fn demodulate_bytes_into(self, samples: &[Iq], bytes: &mut Vec<u8>) {
        let qm = self.bits_per_symbol();
        bytes.reserve(samples.len() * qm as usize / 8);
        // Qm ≤ 8, so at most one byte completes per symbol; bits shifted out
        // of the accumulator's top have already been emitted.
        let (mut acc, mut held) = (0u32, 0u32);
        for &s in samples {
            acc = acc << qm | self.demap(s);
            held += qm;
            if held >= 8 {
                held -= 8;
                bytes.push((acc >> held) as u8);
            }
        }
    }
}

/// One axis of the slicer: the sign bit of `x`, then one bit per folded
/// threshold `top, top/2, … 2` on `|x|·k`, each bit two places above the
/// next so that the I and Q results interleave with a shift and an OR.
fn slice_axis(x: f32, k: f32, top: f32) -> u32 {
    let mut v = u32::from(x < 0.0);
    let mut a = x.abs() * k;
    let mut t = top;
    while t >= 2.0 {
        v = v << 2 | u32::from(a > t);
        a = (a - t).abs();
        t *= 0.5;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::SimRng;

    /// The demapper this module shipped before the slicer, kept as the
    /// equivalence oracle: first minimum of the squared distance over the
    /// whole constellation, in group order.
    fn demap_search(sample: Iq, constellation: &[(u32, Iq)]) -> u32 {
        constellation
            .iter()
            .min_by(|a, b| sample.dist2(a.1).total_cmp(&sample.dist2(b.1)))
            .map_or(0, |(v, _)| *v)
    }

    fn unit_mean_power(m: Modulation) -> f32 {
        let c = m.constellation();
        c.iter().map(|(_, p)| p.power()).sum::<f32>() / c.len() as f32
    }

    #[test]
    fn constellations_have_unit_mean_power() {
        for m in Modulation::ALL {
            let p = unit_mean_power(m);
            assert!((p - 1.0).abs() < 1e-5, "{m:?} mean power {p}");
        }
    }

    #[test]
    fn constellation_points_are_distinct() {
        for m in Modulation::ALL {
            let c = m.constellation();
            for i in 0..c.len() {
                for j in (i + 1)..c.len() {
                    assert!(c[i].1.dist2(c[j].1) > 1e-6, "{m:?}: {i} and {j} collide");
                }
            }
        }
    }

    #[test]
    fn qpsk_known_points() {
        let k = 1.0 / 2f32.sqrt();
        assert_eq!(Modulation::Qpsk.map(&[0, 0]), Iq::new(k, k));
        assert_eq!(Modulation::Qpsk.map(&[1, 1]), Iq::new(-k, -k));
        assert_eq!(Modulation::Qpsk.map(&[0, 1]), Iq::new(k, -k));
    }

    #[test]
    fn qam16_corner_point() {
        // b = 0,0,0,0: I = (1)(2-1) = 1/√10... per spec (1-2·0)[2-(1-2·0)]
        // = 1·(2-1) = 1 → 1/√10.
        let k = 1.0 / 10f32.sqrt();
        let p = Modulation::Qam16.map(&[0, 0, 0, 0]);
        assert!((p.i - k).abs() < 1e-6 && (p.q - k).abs() < 1e-6);
        // b = 0,0,1,1: I = 1·(2+1) = 3/√10 (outer ring).
        let p = Modulation::Qam16.map(&[0, 0, 1, 1]);
        assert!((p.i - 3.0 * k).abs() < 1e-6 && (p.q - 3.0 * k).abs() < 1e-6);
    }

    #[test]
    fn modulate_demodulate_roundtrip_all_schemes() {
        for m in Modulation::ALL {
            let qm = m.bits_per_symbol() as usize;
            // All possible bit groups, concatenated.
            let mut bits = Vec::new();
            for v in 0..(1u32 << qm) {
                for i in (0..qm).rev() {
                    bits.push(((v >> i) & 1) as u8);
                }
            }
            let samples = m.modulate(&bits);
            let back = m.demodulate(&samples);
            assert_eq!(bits, back, "{m:?}");
        }
    }

    #[test]
    fn slicer_returns_every_constellation_point_to_its_group() {
        for m in Modulation::ALL {
            for (v, p) in m.constellation() {
                assert_eq!(m.demap(p), v, "{m:?} point {v:#b}");
            }
        }
    }

    #[test]
    fn slicer_agrees_with_the_search_on_random_samples() {
        let mut rng = SimRng::from_seed(0x51_1CE);
        for m in Modulation::ALL {
            let c = m.constellation();
            for n in 0..200_000 {
                let mut draw = || (rng.uniform01() * 4.0 - 2.0) as f32;
                let s = Iq::new(draw(), draw());
                assert_eq!(m.demap(s), demap_search(s, &c), "{m:?} sample {n} {s:?}");
            }
        }
    }

    #[test]
    fn boundary_samples_take_the_lowest_tied_group() {
        // Scaled by k = 1 the axis levels are the odd integers and every
        // boundary is an exactly representable even one.
        for top in [1.0f32, 2.0, 4.0, 8.0] {
            let outermost = 2.0 * top - 1.0;
            let mut u = 0.0;
            while u < outermost {
                for x in [u, -u] {
                    let tied = [slice_axis(x - 1.0, 1.0, top), slice_axis(x + 1.0, 1.0, top)];
                    assert_ne!(tied[0], tied[1], "top {top}: {x} is not a boundary");
                    assert_eq!(slice_axis(x, 1.0, top), tied[0].min(tied[1]), "top {top} at {x}");
                }
                u += 2.0;
            }
        }
        // Through `demap`, on the boundary no scaling can move: the search
        // ties exactly at ±0.0 and its first minimum is the slicer's answer.
        for m in Modulation::ALL {
            let c = m.constellation();
            for zero in [0.0f32, -0.0] {
                let on_axes = c.iter().flat_map(|&(_, p)| [Iq::new(zero, p.q), Iq::new(p.i, zero)]);
                for s in on_axes.chain([Iq::new(zero, zero)]) {
                    assert_eq!(m.demap(s), demap_search(s, &c), "{m:?} {s:?}");
                }
            }
        }
        assert_eq!(Modulation::Bpsk.demap(Iq::new(0.25, -0.25)), 0, "I + Q == 0 reads as 0");
    }

    #[test]
    fn non_finite_components_slice_per_axis() {
        const INF: f32 = f32::INFINITY;
        const NAN: f32 = f32::NAN;
        for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64, Modulation::Qam256] {
            let qm = m.bits_per_symbol();
            let c = m.constellation();
            // Masks of the I bits (even positions from the MSB) and Q bits.
            let q_bits = (0..qm / 2).fold(0u32, |acc, j| acc | 1 << (2 * j));
            let i_bits = q_bits << 1;
            for &(v, p) in &c {
                // NaN: zero bits on its own axis, the other axis untouched.
                assert_eq!(m.demap(Iq::new(NAN, p.q)), v & q_bits, "{m:?} NaN on I");
                assert_eq!(m.demap(Iq::new(p.i, NAN)), v & i_bits, "{m:?} NaN on Q");
                // ±∞: the outermost level of that sign, as f32::MAX reads.
                for big in [INF, -INF] {
                    let clipped = f32::MAX.copysign(big);
                    assert_eq!(m.demap(Iq::new(big, p.q)), m.demap(Iq::new(clipped, p.q)));
                    assert_eq!(m.demap(Iq::new(p.i, big)), m.demap(Iq::new(p.i, clipped)));
                }
            }
            assert_eq!(m.demap(Iq::new(NAN, NAN)), 0);
        }
        let bpsk = Modulation::Bpsk;
        assert_eq!(bpsk.demap(Iq::new(NAN, -1.0)), 0);
        assert_eq!(bpsk.demap(Iq::new(INF, -INF)), 0, "∞ − ∞ is NaN");
        assert_eq!(bpsk.demap(Iq::new(-INF, 1.0)), 1);
        assert_eq!(bpsk.demap(Iq::new(INF, -1.0)), 0);
    }

    #[test]
    fn byte_demodulation_packs_the_bit_demodulation_msb_first() {
        let mut rng = SimRng::from_seed(7);
        for m in Modulation::ALL {
            // 0..=9 samples: every residue of Qm·n mod 8, 64-QAM's included.
            for n in 0..10 {
                let mut draw = || (rng.uniform01() * 4.0 - 2.0) as f32;
                let samples: Vec<Iq> = (0..n).map(|_| Iq::new(draw(), draw())).collect();
                let bits = m.demodulate(&samples);
                let folded: Vec<u8> = bits
                    .chunks_exact(8)
                    .map(|c| c.iter().fold(0u8, |acc, &b| acc << 1 | b))
                    .collect();
                let mut bytes = Vec::new();
                m.demodulate_bytes_into(&samples, &mut bytes);
                assert_eq!(bytes, folded, "{m:?} × {n}");
            }
        }
    }

    #[test]
    fn roundtrip_survives_small_noise() {
        // Perturb each QPSK sample by less than half the minimum distance.
        let bits = vec![0, 1, 1, 0, 1, 1, 0, 0];
        let mut samples = Modulation::Qpsk.modulate(&bits);
        for (n, s) in samples.iter_mut().enumerate() {
            s.i += if n % 2 == 0 { 0.2 } else { -0.2 };
            s.q += 0.15;
        }
        assert_eq!(Modulation::Qpsk.demodulate(&samples), bits);
    }

    #[test]
    #[should_panic(expected = "wrong bit-group size")]
    fn map_rejects_wrong_group() {
        Modulation::Qam16.map(&[0, 1]);
    }

    #[test]
    #[should_panic(expected = "not a multiple of Qm")]
    fn modulate_rejects_ragged_input() {
        Modulation::Qam64.modulate(&[0, 1, 0]);
    }

    #[test]
    fn bits_per_symbol_table() {
        assert_eq!(Modulation::Bpsk.bits_per_symbol(), 1);
        assert_eq!(Modulation::Qpsk.bits_per_symbol(), 2);
        assert_eq!(Modulation::Qam16.bits_per_symbol(), 4);
        assert_eq!(Modulation::Qam64.bits_per_symbol(), 6);
        assert_eq!(Modulation::Qam256.bits_per_symbol(), 8);
    }
}
