//! PRACH preambles: Zadoff–Chu sequences (TS 38.211 §6.3.3.1).
//!
//! Random access begins with a preamble the gNB must detect without knowing
//! who sent it. NR builds preambles from Zadoff–Chu sequences, which are
//! CAZAC: **c**onstant **a**mplitude, **z**ero (periodic) **a**uto-
//! **c**orrelation. Cyclic shifts of one root are orthogonal, so one root
//! yields many preambles, and different roots stay nearly orthogonal —
//! which is what lets the gNB separate simultaneous attempts (until two
//! UEs pick the *same* preamble: the collision case the RACH procedure in
//! `urllc-ran` models).

use crate::modulation::Iq;

/// Length of the short PRACH preamble sequence (L_RA = 139, formats A/B/C).
pub const SHORT_PREAMBLE_LEN: usize = 139;

/// A Zadoff–Chu sequence definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZadoffChu {
    /// Sequence length (must be prime for ideal CAZAC properties; NR uses
    /// 139 and 839).
    pub length: usize,
    /// Root index `u`, coprime with `length` (1 ≤ u < length).
    pub root: usize,
    /// Cyclic shift applied to the root sequence.
    pub shift: usize,
}

impl ZadoffChu {
    /// A short-format NR preamble with the given root and shift.
    pub fn short(root: usize, shift: usize) -> ZadoffChu {
        assert!((1..SHORT_PREAMBLE_LEN).contains(&root), "root out of range");
        ZadoffChu { length: SHORT_PREAMBLE_LEN, root, shift: shift % SHORT_PREAMBLE_LEN }
    }

    /// Generates the complex sequence
    /// `x_u(n) = exp(-jπ·u·n·(n+1)/L)`, cyclically shifted.
    pub fn generate(&self) -> Vec<Iq> {
        let l = self.length as f64;
        (0..self.length)
            .map(|i| {
                let n = ((i + self.shift) % self.length) as f64;
                let phase = -core::f64::consts::PI * self.root as f64 * n * (n + 1.0) / l;
                Iq::new(phase.cos() as f32, phase.sin() as f32)
            })
            .collect()
    }
}

/// Magnitude of the periodic cross-correlation of `a` and `b` at `lag`,
/// normalised by the length.
pub fn xcorr_mag(a: &[Iq], b: &[Iq], lag: usize) -> f64 {
    assert_eq!(a.len(), b.len(), "sequences must have equal length");
    let n = a.len();
    let (mut re, mut im) = (0.0f64, 0.0f64);
    for i in 0..n {
        let x = a[i];
        let y = b[(i + lag) % n];
        // x · conj(y)
        re += f64::from(x.i * y.i + x.q * y.q);
        im += f64::from(x.q * y.i - x.i * y.q);
    }
    (re * re + im * im).sqrt() / n as f64
}

/// A correlation-based preamble detector: given a received signal, reports
/// which of the candidate preambles are present (normalised correlation
/// above `threshold`).
pub fn detect_preambles(received: &[Iq], candidates: &[ZadoffChu], threshold: f64) -> Vec<usize> {
    candidates
        .iter()
        .enumerate()
        .filter(|(_, zc)| {
            let seq = zc.generate();
            xcorr_mag(received, &seq, 0) >= threshold
        })
        .map(|(idx, _)| idx)
        .collect()
}

/// Adds `signal` into `mix` sample-wise (superposition of simultaneous
/// transmissions on the shared PRACH occasion).
pub fn superpose(mix: &mut [Iq], signal: &[Iq]) {
    assert_eq!(mix.len(), signal.len());
    for (m, s) in mix.iter_mut().zip(signal) {
        m.i += s.i;
        m.q += s.q;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_amplitude() {
        let seq = ZadoffChu::short(1, 0).generate();
        for s in &seq {
            assert!((s.power() - 1.0).abs() < 1e-5);
        }
        assert_eq!(seq.len(), SHORT_PREAMBLE_LEN);
    }

    #[test]
    fn zero_autocorrelation_at_nonzero_lags() {
        let seq = ZadoffChu::short(7, 0).generate();
        assert!((xcorr_mag(&seq, &seq, 0) - 1.0).abs() < 1e-6, "peak at lag 0");
        for lag in 1..SHORT_PREAMBLE_LEN {
            let c = xcorr_mag(&seq, &seq, lag);
            assert!(c < 1e-4, "lag {lag}: {c}");
        }
    }

    #[test]
    fn different_roots_have_low_cross_correlation() {
        // Prime-length ZC roots cross-correlate at exactly 1/√L.
        let a = ZadoffChu::short(3, 0).generate();
        let b = ZadoffChu::short(5, 0).generate();
        let bound = 1.0 / (SHORT_PREAMBLE_LEN as f64).sqrt();
        for lag in 0..SHORT_PREAMBLE_LEN {
            let c = xcorr_mag(&a, &b, lag);
            assert!((c - bound).abs() < 1e-4, "lag {lag}: {c} vs {bound}");
        }
    }

    #[test]
    fn cyclic_shifts_are_orthogonal_preambles() {
        let a = ZadoffChu::short(11, 0).generate();
        let b = ZadoffChu::short(11, 23).generate();
        assert!(xcorr_mag(&a, &b, 0) < 1e-4, "shifted copies separate at lag 0");
    }

    #[test]
    fn detector_finds_superposed_preambles() {
        let candidates: Vec<ZadoffChu> = (0..8).map(|k| ZadoffChu::short(11, k * 17)).collect();
        let mut air = vec![Iq::new(0.0, 0.0); SHORT_PREAMBLE_LEN];
        superpose(&mut air, &candidates[2].generate());
        superpose(&mut air, &candidates[5].generate());
        let detected = detect_preambles(&air, &candidates, 0.5);
        assert_eq!(detected, vec![2, 5]);
    }

    #[test]
    fn detector_rejects_noise_floor() {
        let candidates: Vec<ZadoffChu> = (0..4).map(|k| ZadoffChu::short(11, k * 29)).collect();
        let air = vec![Iq::new(0.01, -0.01); SHORT_PREAMBLE_LEN];
        assert!(detect_preambles(&air, &candidates, 0.5).is_empty());
    }

    #[test]
    fn collision_is_indistinguishable() {
        // Two UEs picking the SAME preamble superpose coherently: the gNB
        // sees one (stronger) arrival — the undetectable-collision case
        // that forces contention resolution in RACH.
        let zc = ZadoffChu::short(11, 34);
        let mut air = vec![Iq::new(0.0, 0.0); SHORT_PREAMBLE_LEN];
        superpose(&mut air, &zc.generate());
        superpose(&mut air, &zc.generate());
        let c = xcorr_mag(&air, &zc.generate(), 0);
        assert!((c - 2.0).abs() < 1e-5, "coherent sum looks like one loud UE: {c}");
    }

    #[test]
    #[should_panic(expected = "root out of range")]
    fn rejects_bad_root() {
        ZadoffChu::short(0, 0);
    }
}
