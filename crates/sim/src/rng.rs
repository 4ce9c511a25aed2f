//! Reproducible random-number streams.
//!
//! A simulation with several stochastic components (per-layer processing
//! times, OS jitter, channel loss, traffic arrivals) must give each
//! component its *own* stream: if they all drew from one generator, adding a
//! draw anywhere would shift every subsequent draw everywhere, making
//! experiments impossible to compare across code versions. [`SimRng`]
//! therefore derives independent child streams from a master seed via a
//! SplitMix64 hash of the child's label.

/// SplitMix64 step — a high-quality 64-bit mixer used to derive child seeds
/// and to expand a seed into a xoshiro256** state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a label into a 64-bit stream discriminator.
fn hash_label(label: &str) -> u64 {
    // FNV-1a, then one splitmix round to spread low-entropy labels.
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in label.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut s = h;
    splitmix64(&mut s)
}

/// A deterministic random-number generator with labelled sub-streams:
/// xoshiro256** (Blackman & Vigna), its state seeded through SplitMix64.
///
/// ```
/// use urllc_sim::SimRng;
///
/// let mut a = SimRng::from_seed(42).stream("os-jitter");
/// let mut b = SimRng::from_seed(42).stream("os-jitter");
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed+label => same draws
///
/// let mut c = SimRng::from_seed(42).stream("channel");
/// assert_ne!(SimRng::from_seed(42).stream("os-jitter").next_u64(),
///            c.next_u64()); // different labels => independent streams
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    state: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a master seed.
    pub fn from_seed(seed: u64) -> SimRng {
        let mut s = seed;
        SimRng::seeded(seed, splitmix64(&mut s))
    }

    /// A generator reporting `seed` whose xoshiro256** state is four
    /// SplitMix64 steps from `derived`.
    fn seeded(seed: u64, mut derived: u64) -> SimRng {
        let state = [(); 4].map(|()| splitmix64(&mut derived));
        SimRng { seed, state }
    }

    /// The master seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child generator for the component `label`.
    ///
    /// Children with the same `(master seed, label)` are identical; children
    /// with different labels are statistically independent.
    pub fn stream(&self, label: &str) -> SimRng {
        let mut s = self.seed ^ hash_label(label);
        let derived = splitmix64(&mut s);
        SimRng::seeded(s, derived)
    }

    /// Derives an independent child generator for an indexed entity
    /// (e.g. UE #3).
    pub fn stream_indexed(&self, label: &str, index: u64) -> SimRng {
        let mut s = self.seed ^ hash_label(label) ^ splitmix64(&mut { index.wrapping_add(1) });
        let derived = splitmix64(&mut s);
        SimRng::seeded(s, derived)
    }

    /// Draws a uniformly distributed `u64` (one xoshiro256** step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Draws a uniformly distributed `f64` in `[0, 1)` from the top 53
    /// bits of one `next_u64`.
    pub fn uniform01(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform01() < p
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::from_seed(7);
        let mut b = SimRng::from_seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::from_seed(7);
        let mut b = SimRng::from_seed(8);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn streams_are_reproducible_and_independent() {
        let master = SimRng::from_seed(1234);
        let mut s1 = master.stream("alpha");
        let mut s2 = master.stream("alpha");
        let mut s3 = master.stream("beta");
        let a = s1.next_u64();
        assert_eq!(a, s2.next_u64());
        assert_ne!(a, s3.next_u64());
    }

    #[test]
    fn indexed_streams_differ_by_index() {
        let master = SimRng::from_seed(1);
        let mut u0 = master.stream_indexed("ue", 0);
        let mut u1 = master.stream_indexed("ue", 1);
        assert_ne!(u0.next_u64(), u1.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::from_seed(9);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn uniform01_in_range_and_roughly_uniform() {
        let mut r = SimRng::from_seed(5);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.uniform01();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }

    /// The first 64 draws of every sampler the engines run, pinned bit for
    /// bit as `(first draw, FNV-1a fold of all 64)`: a change to the
    /// generator, the seeding or any sampler's float operations moves a
    /// figure here before it moves an artifact.
    #[test]
    fn golden_draws() {
        use crate::{Dist, Duration};
        let lognormal = Dist::lognormal_us(8.29, 8.99);
        let exponential = Dist::Exponential { mean: Duration::from_micros(250) };
        let uniform = Dist::Uniform { lo: Duration::ZERO, hi: Duration::from_millis(2) };
        let sources = [
            ("seed 0", SimRng::from_seed(0)),
            ("seed 2024", SimRng::from_seed(2024)),
            ("seed 2024 ue #3", SimRng::from_seed(2024).stream_indexed("ue", 3)),
        ];
        // Per source: next_u64, uniform01 (its bits), chance(0.3), then the
        // log-normal, exponential and uniform samples in ns.
        let expected = [
            [
                (0xfb54_05f7_bd79_c540, 0xb174_b370_fbfa_4429),
                (0x3fef_6a80_bef7_af38, 0x81d2_f73f_ab7a_cb3d),
                (0, 0x508c_b303_9801_2ed1),
                (0x1e6, 0xc04b_b8d7_52bb_575f),
                (0xf_45cd, 0x1b52_27af_a0c3_2121),
                (0x1d_f5ee, 0x09d0_0be9_f81e_512c),
            ],
            [
                (0xc609_3552_c38d_c564, 0x6dad_1f82_c66b_707c),
                (0x3fe8_c126_aa58_71b8, 0x9a3b_1c27_03cb_a99e),
                (0, 0x1f52_f6f0_edc2_b610),
                (0xa36, 0x78b5_e86e_a847_8264),
                (0x5_aa8b, 0x6c6e_2ac5_0838_f869),
                (0x17_9b94, 0xab2a_421d_be04_45ab),
            ],
            [
                (0x65bc_b749_7861_4cf2, 0xc322_d435_542c_aedf),
                (0x3fd9_6f2d_d25e_1852, 0xfb12_8e18_d1c4_bede),
                (0, 0xeeea_919b_49ee_4b8b),
                (0xbad, 0x99e3_4d5a_2cb7_3af7),
                (0x1_eea6, 0xcb18_3514_88d7_5797),
                (0xc_20c6, 0xd0ba_fd19_37f6_0d62),
            ],
        ];
        for ((source, rng), want) in sources.iter().zip(expected) {
            let got = [
                pin(rng, |r| r.next_u64()),
                pin(rng, |r| r.uniform01().to_bits()),
                pin(rng, |r| u64::from(r.chance(0.3))),
                pin(rng, |r| lognormal.sample(r).as_nanos()),
                pin(rng, |r| exponential.sample(r).as_nanos()),
                pin(rng, |r| uniform.sample(r).as_nanos()),
            ];
            assert_eq!(got, want, "draws from {source}");
        }
    }

    /// `(first draw, FNV-1a fold of the first 64)` of `draw` on a copy of
    /// `rng`.
    pub(crate) fn pin(rng: &SimRng, draw: impl Fn(&mut SimRng) -> u64) -> (u64, u64) {
        let mut rng = rng.clone();
        let draws: Vec<u64> = (0..64).map(|_| draw(&mut rng)).collect();
        let fold = draws
            .iter()
            .fold(0xCBF2_9CE4_8422_2325, |h, &x| (h ^ x).wrapping_mul(0x0000_0100_0000_01B3));
        (draws[0], fold)
    }
}
