//! Fronthaul bus models: the link between the CPU running the 5G stack and
//! the radio head.
//!
//! The paper (§4) points out that radio latency "varies significantly
//! depending on the interface used, such as PCIe, Ethernet, or USB". Each
//! model here is a two-parameter affine cost — a fixed per-transfer setup
//! (driver call, descriptor programming, bus arbitration, device firmware)
//! plus a per-sample streaming cost — which is exactly the linear trend
//! visible in the paper's Fig 5 before OS jitter is added on top.
//!
//! Calibration: the USB 2.0 and USB 3.0 parameters are fitted to Fig 5's
//! measured lines (≈ 185 µs → 400 µs and ≈ 150 µs → 250 µs over
//! 2 000 → 20 000 samples); PCIe and Ethernet use representative values
//! from SDR datasheets so the interface-sweep ablation has realistic
//! contrast.

use sim::{Dist, Duration, SimRng};

/// Bytes per complex sample on the bus (sc16: 2 × i16).
pub const BYTES_PER_SAMPLE: u64 = 4;

/// The supported fronthaul bus technologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterfaceKind {
    /// USB 2.0 high-speed (the B210's fallback mode).
    Usb2,
    /// USB 3.0 super-speed (the B210's native mode).
    Usb3,
    /// PCIe attached SDR (e.g. X310 over PCIe).
    Pcie,
    /// 10 GbE fronthaul (e.g. N310-class, eCPRI-style).
    Ethernet10G,
}

impl InterfaceKind {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            InterfaceKind::Usb2 => "USB 2.0",
            InterfaceKind::Usb3 => "USB 3.0",
            InterfaceKind::Pcie => "PCIe",
            InterfaceKind::Ethernet10G => "10GbE",
        }
    }
}

/// An instantiated fronthaul interface model.
#[derive(Debug, Clone, PartialEq)]
pub struct FronthaulInterface {
    /// Which bus this is.
    pub kind: InterfaceKind,
    /// Fixed per-transfer cost (driver, descriptors, bus turnaround).
    pub setup: Dist,
    /// Streaming cost per complex sample.
    pub per_sample: Duration,
}

impl FronthaulInterface {
    /// Builds the calibrated default model for a bus kind.
    pub fn of_kind(kind: InterfaceKind) -> FronthaulInterface {
        match kind {
            // Fig 5 fit: ~160 µs intercept, ~12 ns/sample slope.
            InterfaceKind::Usb2 => FronthaulInterface {
                kind,
                setup: Dist::lognormal_us(160.0, 6.0),
                per_sample: Duration::from_nanos(12),
            },
            // Fig 5 fit: ~140 µs intercept, ~5 ns/sample slope.
            InterfaceKind::Usb3 => FronthaulInterface {
                kind,
                setup: Dist::lognormal_us(140.0, 5.0),
                per_sample: Duration::from_nanos(5),
            },
            InterfaceKind::Pcie => FronthaulInterface {
                kind,
                setup: Dist::lognormal_us(18.0, 2.0),
                per_sample: Duration::from_nanos(1),
            },
            InterfaceKind::Ethernet10G => FronthaulInterface {
                kind,
                setup: Dist::lognormal_us(30.0, 3.0),
                per_sample: Duration::from_nanos(4),
            },
        }
    }

    /// Samples the latency of transferring `samples` complex samples.
    pub(crate) fn transfer_latency(&self, samples: u64, rng: &mut SimRng) -> Duration {
        self.setup.sample(rng) + self.per_sample * samples
    }

    /// Mean transfer latency for `samples` complex samples (the linear
    /// trend of Fig 5, without jitter).
    pub fn mean_transfer_latency(&self, samples: u64) -> Duration {
        self.setup.mean() + self.per_sample * samples
    }

    /// Effective streaming throughput implied by the per-sample cost,
    /// in megabytes per second.
    pub fn streaming_mbps(&self) -> f64 {
        if self.per_sample.is_zero() {
            return f64::INFINITY;
        }
        BYTES_PER_SAMPLE as f64 / self.per_sample.as_nanos() as f64 * 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usb2_matches_fig5_endpoints() {
        let usb2 = FronthaulInterface::of_kind(InterfaceKind::Usb2);
        let at2k = usb2.mean_transfer_latency(2_000).as_micros_f64();
        let at20k = usb2.mean_transfer_latency(20_000).as_micros_f64();
        // Fig 5 shows ≈ 185 µs at 2 000 samples, ≈ 400 µs at 20 000.
        assert!((at2k - 184.0).abs() < 10.0, "USB2@2k = {at2k}");
        assert!((at20k - 400.0).abs() < 15.0, "USB2@20k = {at20k}");
    }

    #[test]
    fn usb3_matches_fig5_endpoints() {
        let usb3 = FronthaulInterface::of_kind(InterfaceKind::Usb3);
        let at2k = usb3.mean_transfer_latency(2_000).as_micros_f64();
        let at20k = usb3.mean_transfer_latency(20_000).as_micros_f64();
        assert!((at2k - 150.0).abs() < 10.0, "USB3@2k = {at2k}");
        assert!((at20k - 240.0).abs() < 15.0, "USB3@20k = {at20k}");
    }

    #[test]
    fn usb2_slower_than_usb3_everywhere() {
        let usb2 = FronthaulInterface::of_kind(InterfaceKind::Usb2);
        let usb3 = FronthaulInterface::of_kind(InterfaceKind::Usb3);
        for n in (2_000..=20_000).step_by(1_000) {
            assert!(usb2.mean_transfer_latency(n) > usb3.mean_transfer_latency(n), "{n}");
        }
    }

    #[test]
    fn latency_is_affine_in_samples() {
        let i = FronthaulInterface::of_kind(InterfaceKind::Pcie);
        let a = i.mean_transfer_latency(1_000);
        let b = i.mean_transfer_latency(2_000);
        let c = i.mean_transfer_latency(3_000);
        assert_eq!(b - a, c - b);
    }

    #[test]
    fn sampled_latency_exceeds_deterministic_floor() {
        let i = FronthaulInterface::of_kind(InterfaceKind::Usb2);
        let mut rng = SimRng::from_seed(11);
        for _ in 0..1_000 {
            let l = i.transfer_latency(5_000, &mut rng);
            assert!(l >= i.per_sample * 5_000);
        }
    }

    #[test]
    fn pcie_is_fastest() {
        let lat = |k| FronthaulInterface::of_kind(k).mean_transfer_latency(10_000);
        assert!(lat(InterfaceKind::Pcie) < lat(InterfaceKind::Ethernet10G));
        assert!(lat(InterfaceKind::Ethernet10G) < lat(InterfaceKind::Usb3));
        assert!(lat(InterfaceKind::Usb3) < lat(InterfaceKind::Usb2));
    }

    #[test]
    fn streaming_throughput_sane() {
        // USB2 modelled slope implies a sub-1000 MB/s effective rate
        // (asynchronous submission, not raw wire speed).
        let usb2 = FronthaulInterface::of_kind(InterfaceKind::Usb2);
        let mbps = usb2.streaming_mbps();
        assert!(mbps > 100.0 && mbps < 1_000.0, "{mbps}");
    }
}
