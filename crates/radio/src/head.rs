//! The radio head: fronthaul bus + RF chain pipeline.
//!
//! Combines a [`FronthaulInterface`], an OS [`JitterProcess`] on the
//! submission path, and fixed DAC/ADC pipeline delays into the two
//! quantities the rest of the system needs:
//!
//! * **submit latency** — CPU hands samples to the driver → last sample has
//!   crossed the bus (what the paper's Fig 5 measures);
//! * **radio latency** — the full §4 definition, adding the RF-chain group
//!   delay and device-side buffering on top.

use sim::{Duration, SimRng};
use telemetry::{metric, Telemetry};

use crate::interface::{FronthaulInterface, InterfaceKind};
use crate::jitter::{JitterProcess, OsJitterConfig};

/// Static configuration of a radio head.
#[derive(Debug, Clone, PartialEq)]
pub struct RadioHeadConfig {
    /// Fronthaul bus model.
    pub interface: FronthaulInterface,
    /// OS jitter on the host-side submission path.
    pub jitter: OsJitterConfig,
    /// DAC + analog TX chain group delay (fixed, hardware).
    pub dac_pipeline: Duration,
    /// ADC + analog RX chain group delay (fixed, hardware).
    pub adc_pipeline: Duration,
    /// Device-side buffering the driver keeps in flight to ride out bus
    /// jitter. This is the dominant fixed cost of the B210-class USB radio
    /// the paper measures at "around 500 µs" (§7).
    pub device_buffering: Duration,
}

impl RadioHeadConfig {
    /// The paper's testbed radio: USRP B210 over USB (USB 3.0 by default),
    /// general-purpose OS, ≈ 500 µs total radio latency (§7: "since the RH
    /// in use introduces around 500 µs latency, the transmission must be
    /// always delayed for one slot").
    pub fn usrp_b210(usb3: bool) -> RadioHeadConfig {
        RadioHeadConfig {
            interface: FronthaulInterface::of_kind(if usb3 {
                InterfaceKind::Usb3
            } else {
                InterfaceKind::Usb2
            }),
            jitter: OsJitterConfig::general_purpose_os(),
            dac_pipeline: Duration::from_micros(8),
            adc_pipeline: Duration::from_micros(8),
            device_buffering: Duration::from_micros(250),
        }
    }

    /// A low-latency PCIe SDR with a real-time kernel: the "strict hardware
    /// and software requirements" end of §5's design space.
    pub fn pcie_low_latency() -> RadioHeadConfig {
        RadioHeadConfig {
            interface: FronthaulInterface::of_kind(InterfaceKind::Pcie),
            jitter: OsJitterConfig::real_time_os(),
            dac_pipeline: Duration::from_micros(5),
            adc_pipeline: Duration::from_micros(5),
            device_buffering: Duration::from_micros(30),
        }
    }

    /// An idealised ASIC-integrated radio (the paper's footnote 1: possible
    /// but impractical): negligible, deterministic latency.
    pub fn asic_integrated() -> RadioHeadConfig {
        RadioHeadConfig {
            interface: FronthaulInterface {
                kind: InterfaceKind::Pcie,
                setup: sim::Dist::Constant(Duration::from_micros(1)),
                per_sample: Duration::from_nanos(0),
            },
            jitter: OsJitterConfig::none(),
            dac_pipeline: Duration::from_micros(2),
            adc_pipeline: Duration::from_micros(2),
            device_buffering: Duration::from_micros(5),
        }
    }
}

/// A stateful radio head instance (owns its jitter process).
#[derive(Debug, Clone)]
pub struct RadioHead {
    config: RadioHeadConfig,
    tx_jitter: JitterProcess,
    rx_jitter: JitterProcess,
    tel: Telemetry,
}

impl RadioHead {
    /// Instantiates a radio head.
    pub fn new(config: RadioHeadConfig) -> RadioHead {
        let tx_jitter = JitterProcess::new(config.jitter.clone());
        let rx_jitter = JitterProcess::new(config.jitter.clone());
        RadioHead { config, tx_jitter, rx_jitter, tel: Telemetry::disabled() }
    }

    /// Attaches a telemetry handle (`radio/*` latency histograms).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Latency of submitting `samples` complex samples to the device —
    /// the quantity plotted in Fig 5 (bus transfer + OS jitter).
    pub fn submit_latency(&mut self, samples: u64, rng: &mut SimRng) -> Duration {
        let bus = self.config.interface.transfer_latency(samples, rng);
        let jitter = self.tx_jitter.sample(rng);
        self.tel.observe(metric::RADIO_BUS_JITTER_US, jitter);
        self.tel.observe(metric::RADIO_SUBMIT_US, bus + jitter);
        bus + jitter
    }

    /// Full TX radio latency: submission + device buffering + DAC chain.
    /// This is the lead time the MAC scheduler must grant the radio before
    /// the scheduled air time (§4's interdependency note).
    pub fn tx_radio_latency(&mut self, samples: u64, rng: &mut SimRng) -> Duration {
        let total = self.submit_latency(samples, rng)
            + self.config.device_buffering
            + self.config.dac_pipeline;
        self.tel.observe(metric::RADIO_TX_US, total);
        total
    }

    /// Full RX radio latency: ADC chain + device buffering + bus transfer
    /// back to the host (+ jitter on the receive thread).
    pub fn rx_radio_latency(&mut self, samples: u64, rng: &mut SimRng) -> Duration {
        let bus = self.config.interface.transfer_latency(samples, rng);
        let jitter = self.rx_jitter.sample(rng);
        self.tel.observe(metric::RADIO_BUS_JITTER_US, jitter);
        let total = self.config.adc_pipeline + self.config.device_buffering + bus + jitter;
        self.tel.observe(metric::RADIO_RX_US, total);
        total
    }

    /// Mean TX radio latency (no jitter), for analytical models.
    pub fn mean_tx_radio_latency(&self, samples: u64) -> Duration {
        self.config.interface.mean_transfer_latency(samples)
            + self.config.device_buffering
            + self.config.dac_pipeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples per 0.5 ms slot at the testbed's ~23 Msps B210 rate.
    const SLOT_SAMPLES: u64 = 11_520;

    #[test]
    fn b210_radio_latency_is_around_500us() {
        // §7: "the RH in use introduces around 500 µs latency".
        let head = RadioHead::new(RadioHeadConfig::usrp_b210(true));
        let mean = head.mean_tx_radio_latency(SLOT_SAMPLES);
        assert!(
            mean > Duration::from_micros(400) && mean < Duration::from_micros(650),
            "B210 TX latency {mean}"
        );
    }

    #[test]
    fn pcie_rig_is_much_faster() {
        let b210 = RadioHead::new(RadioHeadConfig::usrp_b210(true));
        let pcie = RadioHead::new(RadioHeadConfig::pcie_low_latency());
        assert!(
            pcie.mean_tx_radio_latency(SLOT_SAMPLES) * 4 < b210.mean_tx_radio_latency(SLOT_SAMPLES)
        );
    }

    #[test]
    fn asic_fits_in_a_quarter_slot() {
        // For 0.25 ms slots the §5 requirement is radio latency < one slot;
        // the ASIC-integrated option must meet it with a wide margin.
        let asic = RadioHead::new(RadioHeadConfig::asic_integrated());
        assert!(asic.mean_tx_radio_latency(SLOT_SAMPLES / 2) < Duration::from_micros(62));
    }

    #[test]
    fn a_usb_radio_cannot_fit_a_quarter_ms_slot() {
        // §4: "if the radio latency is 0.3 ms, halving the slot duration
        // from 0.25 ms might not reduce latency". A USB 2.0 B210 already
        // takes longer than a µ2 slot, so the §5 criterion (radio plus
        // processing under one slot) fails however short the slot; a PCIe
        // radio fits in half of one.
        let mu2_slot = Duration::from_micros(250);
        let usb = RadioHead::new(RadioHeadConfig::usrp_b210(false));
        let usb_mean = usb.mean_tx_radio_latency(SLOT_SAMPLES / 2);
        assert!(usb_mean > mu2_slot, "USB 2.0 B210 {usb_mean}");
        let pcie = RadioHead::new(RadioHeadConfig::pcie_low_latency());
        let pcie_mean = pcie.mean_tx_radio_latency(SLOT_SAMPLES / 2);
        assert!(pcie_mean < mu2_slot / 2, "PCIe {pcie_mean}");
    }

    #[test]
    fn submit_latency_grows_with_samples() {
        let mut head = RadioHead::new(RadioHeadConfig::usrp_b210(false));
        let mut rng = SimRng::from_seed(5);
        let mut small = Duration::ZERO;
        let mut large = Duration::ZERO;
        for _ in 0..1_000 {
            small += head.submit_latency(2_000, &mut rng);
            large += head.submit_latency(20_000, &mut rng);
        }
        assert!(large > small + Duration::from_millis(100), "2k {small} vs 20k {large}");
    }

    #[test]
    fn tx_latency_includes_submission() {
        let cfg = RadioHeadConfig::usrp_b210(true);
        let mut a = RadioHead::new(cfg.clone());
        let mut b = RadioHead::new(cfg);
        let mut rng_a = SimRng::from_seed(6);
        let mut rng_b = SimRng::from_seed(6);
        let submit = a.submit_latency(5_000, &mut rng_a);
        let full = b.tx_radio_latency(5_000, &mut rng_b);
        assert!(full > submit);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let mut head = RadioHead::new(RadioHeadConfig::usrp_b210(true));
            let mut rng = SimRng::from_seed(7);
            (0..100).map(|_| head.tx_radio_latency(5_000, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
