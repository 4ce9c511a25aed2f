//! OFDM baseband processing (TS 38.211 §5.3): subcarrier mapping, IFFT,
//! cyclic prefix.
//!
//! This is the step that turns the modulated constellation points of
//! [`crate::modulation`] into the time-domain sample stream the radio head
//! actually moves over USB/PCIe (the x-axis of the paper's Fig 5 counts
//! these samples). The transform is an in-house iterative radix-2 FFT — no
//! external DSP dependency, exact enough for roundtrip-perfect operation
//! at the sizes NR uses (256–4096).

use crate::modulation::Iq;

/// In-place iterative radix-2 decimation-in-time FFT.
///
/// `inverse = true` computes the unnormalised inverse transform; callers
/// scale by `1/N` (as [`OfdmConfig::modulate`] does).
///
/// # Panics
/// Panics unless `data.len()` is a power of two.
pub fn fft(data: &mut [Iq], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT size must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if i < j {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let sign = if inverse { 1.0f64 } else { -1.0f64 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * core::f64::consts::PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        for start in (0..n).step_by(len) {
            let (mut cr, mut ci) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let a = data[start + k];
                let b = data[start + k + len / 2];
                let tr = cr * f64::from(b.i) - ci * f64::from(b.q);
                let ti = cr * f64::from(b.q) + ci * f64::from(b.i);
                data[start + k] =
                    Iq::new((f64::from(a.i) + tr) as f32, (f64::from(a.q) + ti) as f32);
                data[start + k + len / 2] =
                    Iq::new((f64::from(a.i) - tr) as f32, (f64::from(a.q) - ti) as f32);
                let ncr = cr * wr - ci * wi;
                ci = cr * wi + ci * wr;
                cr = ncr;
            }
        }
        len <<= 1;
    }
}

/// OFDM symbol dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfdmConfig {
    /// FFT size (power of two, ≥ occupied subcarriers).
    pub fft_size: usize,
    /// Occupied (data) subcarriers, mapped symmetrically around DC, DC
    /// itself unused.
    pub subcarriers: usize,
    /// Cyclic-prefix length in samples.
    pub cp_len: usize,
}

impl OfdmConfig {
    /// A 20 MHz-class FR1 carrier: 1272 usable subcarriers (106 PRB) in a
    /// 2048-point FFT, normal CP scaled to the FFT size.
    pub fn fr1_20mhz() -> OfdmConfig {
        OfdmConfig { fft_size: 2_048, subcarriers: 1_272, cp_len: 144 }
    }

    /// A small configuration for tests and examples (one PRB cluster).
    pub fn tiny() -> OfdmConfig {
        OfdmConfig { fft_size: 256, subcarriers: 72, cp_len: 18 }
    }

    /// Samples per OFDM symbol including the cyclic prefix.
    pub(crate) fn samples_per_symbol(&self) -> usize {
        self.fft_size + self.cp_len
    }

    fn validate(&self) {
        assert!(self.fft_size.is_power_of_two(), "FFT size must be a power of two");
        assert!(self.subcarriers < self.fft_size, "subcarriers must fit the FFT");
        assert!(self.cp_len < self.fft_size, "CP longer than the symbol");
    }

    /// Bin index for logical subcarrier `k` (0-based over the occupied
    /// set): negative-frequency half first, DC skipped.
    fn bin(&self, k: usize) -> usize {
        let half = self.subcarriers / 2;
        if k < half {
            // Negative frequencies wrap to the top of the FFT.
            self.fft_size - half + k
        } else {
            // Positive frequencies start at bin 1 (DC unused).
            k - half + 1
        }
    }

    /// Maps `subcarriers`-many constellation points into one time-domain
    /// OFDM symbol with cyclic prefix.
    ///
    /// # Panics
    /// Panics if `freq.len() != self.subcarriers`.
    pub fn modulate(&self, freq: &[Iq]) -> Vec<Iq> {
        self.validate();
        assert_eq!(freq.len(), self.subcarriers, "wrong number of subcarriers");
        let mut grid = vec![Iq::new(0.0, 0.0); self.fft_size];
        for (k, &v) in freq.iter().enumerate() {
            grid[self.bin(k)] = v;
        }
        fft(&mut grid, true);
        let scale = 1.0 / self.fft_size as f32;
        for s in &mut grid {
            s.i *= scale;
            s.q *= scale;
        }
        // Cyclic prefix: the tail copied in front.
        let mut out = Vec::with_capacity(self.samples_per_symbol());
        out.extend_from_slice(&grid[self.fft_size - self.cp_len..]);
        out.extend_from_slice(&grid);
        out
    }

    /// Recovers the constellation points from one time-domain symbol.
    ///
    /// # Panics
    /// Panics if `time.len() != self.samples_per_symbol()`.
    pub fn demodulate(&self, time: &[Iq]) -> Vec<Iq> {
        self.validate();
        assert_eq!(time.len(), self.samples_per_symbol(), "wrong symbol length");
        let mut grid: Vec<Iq> = time[self.cp_len..].to_vec();
        fft(&mut grid, false);
        (0..self.subcarriers).map(|k| grid[self.bin(k)]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulation::Modulation;

    fn close(a: Iq, b: Iq, eps: f32) -> bool {
        (a.i - b.i).abs() < eps && (a.q - b.q).abs() < eps
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut d = vec![Iq::new(0.0, 0.0); 8];
        d[0] = Iq::new(1.0, 0.0);
        fft(&mut d, false);
        for s in &d {
            assert!(close(*s, Iq::new(1.0, 0.0), 1e-5));
        }
    }

    #[test]
    fn fft_of_tone_is_impulse() {
        // exp(j2πkn/N) with k=3 → single bin 3.
        let n = 64;
        let mut d: Vec<Iq> = (0..n)
            .map(|i| {
                let ph = 2.0 * core::f64::consts::PI * 3.0 * i as f64 / n as f64;
                Iq::new(ph.cos() as f32, ph.sin() as f32)
            })
            .collect();
        fft(&mut d, false);
        for (k, s) in d.iter().enumerate() {
            if k == 3 {
                assert!((s.i - n as f32).abs() < 1e-3, "bin 3: {s:?}");
            } else {
                assert!(s.power() < 1e-6, "bin {k}: {s:?}");
            }
        }
    }

    #[test]
    fn fft_ifft_roundtrip() {
        let mut d: Vec<Iq> =
            (0..128).map(|i| Iq::new((i as f32).sin(), (i as f32 * 0.7).cos())).collect();
        let orig = d.clone();
        fft(&mut d, false);
        fft(&mut d, true);
        for (a, b) in d.iter().zip(&orig) {
            // Inverse is unnormalised: divide by N.
            assert!(close(Iq::new(a.i / 128.0, a.q / 128.0), *b, 1e-4));
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let mut d: Vec<Iq> = (0..256).map(|i| Iq::new(((i * 13) % 7) as f32 - 3.0, 1.0)).collect();
        let time_energy: f64 = d.iter().map(|s| f64::from(s.power())).sum();
        fft(&mut d, false);
        let freq_energy: f64 = d.iter().map(|s| f64::from(s.power())).sum::<f64>() / 256.0;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-6);
    }

    #[test]
    fn ofdm_roundtrip_recovers_constellation() {
        let cfg = OfdmConfig::tiny();
        // 72 QPSK points.
        let bits: Vec<u8> = (0..144).map(|i| ((i * 7) % 3 == 0) as u8).collect();
        let points = Modulation::Qpsk.modulate(&bits);
        assert_eq!(points.len(), cfg.subcarriers);
        let time = cfg.modulate(&points);
        assert_eq!(time.len(), cfg.samples_per_symbol());
        let back = cfg.demodulate(&time);
        for (a, b) in back.iter().zip(&points) {
            assert!(close(*a, *b, 1e-4), "{a:?} vs {b:?}");
        }
        // And the bits survive.
        assert_eq!(Modulation::Qpsk.demodulate(&back), bits);
    }

    #[test]
    fn cyclic_prefix_is_a_tail_copy() {
        let cfg = OfdmConfig::tiny();
        let points = vec![Iq::new(0.7, -0.7); cfg.subcarriers];
        let time = cfg.modulate(&points);
        let (cp, body) = time.split_at(cfg.cp_len);
        assert_eq!(
            cp.iter().map(|s| (s.i.to_bits(), s.q.to_bits())).collect::<Vec<_>>(),
            body[cfg.fft_size - cfg.cp_len..]
                .iter()
                .map(|s| (s.i.to_bits(), s.q.to_bits()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn roundtrip_survives_circular_timing_error_within_cp() {
        // The point of the CP: a receiver FFT window late by up to cp_len
        // samples sees a phase rotation per bin but no inter-symbol mixing.
        // With a 4-sample delay the recovered points keep their magnitude.
        let cfg = OfdmConfig::tiny();
        let bits: Vec<u8> = (0..144).map(|i| (i % 2) as u8).collect();
        let points = Modulation::Qpsk.modulate(&bits);
        let time = cfg.modulate(&points);
        // Start the window 4 samples early (inside the CP).
        let shifted: Vec<Iq> = time[cfg.cp_len - 4..cfg.cp_len - 4 + cfg.fft_size].to_vec();
        let mut grid = shifted;
        fft(&mut grid, false);
        let back: Vec<Iq> = (0..cfg.subcarriers).map(|k| grid[cfg.bin(k)]).collect();
        for (a, b) in back.iter().zip(&points) {
            assert!((a.power() - b.power()).abs() < 1e-3, "magnitude changed: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn fr1_dimensions() {
        let c = OfdmConfig::fr1_20mhz();
        assert_eq!(c.samples_per_symbol(), 2_192);
        // 14 symbols of this carrier ≈ the 11 520-sample slot figure used
        // by the radio tests is the B210's decimated rate; the full-rate
        // slot is an order of magnitude more — both regimes fall inside
        // Fig 5's 2 000–20 000 sample sweep.
        assert!(14 * c.samples_per_symbol() > 20_000);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        let mut d = vec![Iq::new(0.0, 0.0); 12];
        fft(&mut d, false);
    }

    #[test]
    #[should_panic(expected = "wrong number of subcarriers")]
    fn modulate_rejects_wrong_width() {
        OfdmConfig::tiny().modulate(&[Iq::new(1.0, 0.0); 3]);
    }
}
