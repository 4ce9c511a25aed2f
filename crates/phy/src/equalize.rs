//! Single-tap channel and pilot-based equalisation.
//!
//! A flat-fading (or per-subcarrier) channel rotates and scales every
//! constellation point by a complex gain `h`. The receiver estimates `h`
//! from known pilot symbols (DMRS in NR) and divides it back out before
//! demapping. This closes the loop the other `phy` modules open: bits →
//! QAM → OFDM → *channel* → estimate/equalise → QAM⁻¹ → bits, all
//! verifiable end to end — and channel estimation is part of the PHY
//! processing time Table 2 measures at 41.55 µs.

use crate::modulation::Iq;

/// A complex channel coefficient (gain + phase).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelTap {
    /// Real part.
    pub re: f32,
    /// Imaginary part.
    pub im: f32,
}

impl ChannelTap {
    /// Creates a tap from magnitude and phase (radians).
    pub fn from_polar(magnitude: f32, phase: f32) -> ChannelTap {
        ChannelTap { re: magnitude * phase.cos(), im: magnitude * phase.sin() }
    }

    /// The identity channel.
    pub const IDENTITY: ChannelTap = ChannelTap { re: 1.0, im: 0.0 };

    /// Squared magnitude.
    pub(crate) fn mag2(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    /// Applies the tap to a sample: `y = h · x`.
    pub fn apply(self, x: Iq) -> Iq {
        Iq::new(self.re * x.i - self.im * x.q, self.re * x.q + self.im * x.i)
    }

    /// Inverts the tap on a sample: `x̂ = y / h` (zero-forcing).
    ///
    /// # Panics
    /// Panics on a zero tap — a dead subcarrier cannot be equalised.
    pub(crate) fn invert(self, y: Iq) -> Iq {
        let m = self.mag2();
        assert!(m > f32::EPSILON, "cannot equalise a zero channel tap");
        Iq::new((self.re * y.i + self.im * y.q) / m, (self.re * y.q - self.im * y.i) / m)
    }
}

/// Applies one tap to a whole symbol (flat fading).
pub fn apply_channel(symbols: &mut [Iq], h: ChannelTap) {
    for s in symbols {
        *s = h.apply(*s);
    }
}

/// Least-squares channel estimate from received pilots and their known
/// transmitted values: `ĥ = mean(rxᵢ / txᵢ)`.
///
/// # Panics
/// Panics on empty input or a zero pilot.
pub fn estimate_channel(rx_pilots: &[Iq], tx_pilots: &[Iq]) -> ChannelTap {
    assert_eq!(rx_pilots.len(), tx_pilots.len(), "pilot count mismatch");
    assert!(!rx_pilots.is_empty(), "need at least one pilot");
    let (mut re, mut im) = (0.0f64, 0.0f64);
    for (rx, tx) in rx_pilots.iter().zip(tx_pilots) {
        let m = f64::from(tx.power());
        assert!(m > f64::EPSILON, "zero pilot symbol");
        // rx / tx = rx · conj(tx) / |tx|²
        re += (f64::from(rx.i * tx.i) + f64::from(rx.q * tx.q)) / m;
        im += (f64::from(rx.q * tx.i) - f64::from(rx.i * tx.q)) / m;
    }
    let n = rx_pilots.len() as f64;
    ChannelTap { re: (re / n) as f32, im: (im / n) as f32 }
}

/// Equalises a whole symbol in place with the estimated tap.
pub fn equalize(symbols: &mut [Iq], h: ChannelTap) {
    for s in symbols {
        *s = h.invert(*s);
    }
}

/// Inserts pilots every `spacing`-th position into a data stream, returning
/// the combined grid and the pilot positions (the NR comb-type DMRS
/// pattern, simplified).
pub fn insert_pilots(data: &[Iq], pilot: Iq, spacing: usize) -> (Vec<Iq>, Vec<usize>) {
    assert!(spacing >= 2, "pilot spacing must leave room for data");
    let mut grid = Vec::new();
    let mut positions = Vec::new();
    let mut di = 0;
    while di < data.len() {
        if grid.len() % spacing == 0 {
            positions.push(grid.len());
            grid.push(pilot);
        } else {
            grid.push(data[di]);
            di += 1;
        }
    }
    (grid, positions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulation::Modulation;

    fn close(a: Iq, b: Iq, eps: f32) -> bool {
        (a.i - b.i).abs() < eps && (a.q - b.q).abs() < eps
    }

    #[test]
    fn tap_apply_invert_roundtrip() {
        let h = ChannelTap::from_polar(0.6, 1.2);
        let x = Iq::new(0.7, -0.7);
        let y = h.apply(x);
        assert!(!close(y, x, 1e-3), "channel must change the sample");
        assert!(close(h.invert(y), x, 1e-5));
    }

    #[test]
    fn identity_is_transparent() {
        let x = Iq::new(-0.3, 0.9);
        assert!(close(ChannelTap::IDENTITY.apply(x), x, 1e-7));
        assert!(close(ChannelTap::IDENTITY.invert(x), x, 1e-7));
    }

    #[test]
    fn estimate_recovers_the_tap_exactly_without_noise() {
        let h = ChannelTap::from_polar(0.85, -2.1);
        let tx: Vec<Iq> = Modulation::Qpsk.modulate(&[0, 0, 0, 1, 1, 0, 1, 1]);
        let rx: Vec<Iq> = tx.iter().map(|&s| h.apply(s)).collect();
        let est = estimate_channel(&rx, &tx);
        assert!((est.re - h.re).abs() < 1e-5 && (est.im - h.im).abs() < 1e-5, "{est:?}");
    }

    #[test]
    fn full_chain_recovers_bits_through_a_rotated_channel() {
        let h = ChannelTap::from_polar(0.5, 0.9); // −6 dB and a 51° rotation
        let bits: Vec<u8> = (0..240).map(|i| ((i * 11) % 5 == 0) as u8).collect();
        let data = Modulation::Qam16.modulate(&bits);
        let pilot = Iq::new(1.0, 0.0);
        let (mut grid, positions) = insert_pilots(&data, pilot, 4);
        apply_channel(&mut grid, h);
        // Receiver: estimate from the pilots it knows.
        let rx_pilots: Vec<Iq> = positions.iter().map(|&p| grid[p]).collect();
        let tx_pilots = vec![pilot; rx_pilots.len()];
        let est = estimate_channel(&rx_pilots, &tx_pilots);
        equalize(&mut grid, est);
        // Strip pilots and demap.
        let mut rx_data = Vec::new();
        let mut pos_iter = positions.iter().peekable();
        for (i, s) in grid.iter().enumerate() {
            if pos_iter.peek() == Some(&&i) {
                pos_iter.next();
            } else {
                rx_data.push(*s);
            }
        }
        assert_eq!(Modulation::Qam16.demodulate(&rx_data), bits);
    }

    #[test]
    fn estimation_averages_out_noise() {
        let h = ChannelTap::from_polar(1.0, 0.4);
        let tx = vec![Iq::new(1.0, 0.0); 64];
        // Deterministic alternating "noise" that cancels in the mean.
        let rx: Vec<Iq> = tx
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let mut y = h.apply(s);
                let n = if i % 2 == 0 { 0.05 } else { -0.05 };
                y.i += n;
                y.q -= n;
                y
            })
            .collect();
        let est = estimate_channel(&rx, &tx);
        assert!((est.re - h.re).abs() < 1e-3 && (est.im - h.im).abs() < 1e-3, "{est:?}");
    }

    #[test]
    fn pilot_insertion_layout() {
        let data = vec![Iq::new(0.5, 0.5); 9];
        let (grid, positions) = insert_pilots(&data, Iq::new(1.0, 0.0), 4);
        // Every 4th slot is a pilot: positions 0, 4, 8, ...
        for (k, &p) in positions.iter().enumerate() {
            assert_eq!(p, 4 * k);
        }
        assert_eq!(grid.len(), data.len() + positions.len());
    }

    #[test]
    #[should_panic(expected = "zero channel tap")]
    fn zero_tap_rejected() {
        ChannelTap { re: 0.0, im: 0.0 }.invert(Iq::new(1.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "pilot count mismatch")]
    fn mismatched_pilots_rejected() {
        estimate_channel(&[Iq::new(1.0, 0.0)], &[]);
    }
}
