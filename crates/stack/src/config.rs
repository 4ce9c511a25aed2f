//! System configuration: every design choice of the paper's §5 in one
//! struct.

use corenet::BackboneLink;
use phy::duplex::Duplex;
use phy::grid::CarrierConfig;
use phy::modulation::Modulation;
use phy::tdd::TddConfig;
use radio::RadioHeadConfig;
use ran::sched::{AccessMode, PolicySpec, SchedulerConfig};
use ran::timing::LayerTimings;
use sim::Duration;

/// HARQ feedback-processing allowance in every HARQ and RLC round trip.
const FEEDBACK_PROCESSING: Duration = Duration::from_micros(50);

/// Full-system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct StackConfig {
    /// Duplexing scheme and slot pattern.
    pub duplex: Duplex,
    /// Uplink access mode.
    pub access: AccessMode,
    /// Carrier dimensions for transport-block sizing.
    pub carrier: CarrierConfig,
    /// Modulation for data channels.
    pub modulation: Modulation,
    /// Effective code rate for data channels.
    pub code_rate: f64,
    /// PRBs allocated per data transmission.
    pub data_prbs: u32,
    /// gNB per-layer processing-time models.
    pub gnb_timings: LayerTimings,
    /// UE per-layer processing-time models.
    pub ue_timings: LayerTimings,
    /// gNB radio head.
    pub gnb_radio: RadioHeadConfig,
    /// UE radio head (modem RF front end).
    pub ue_radio: RadioHeadConfig,
    /// N3/N6 transport to the UPF and data network.
    pub backbone: BackboneLink,
    /// Scheduling-decision lead (radio readiness margin, §4/§7).
    pub sched_lead: Duration,
    /// UE grant-decode-to-transmit time assumed by the scheduler.
    pub ue_grant_processing: Duration,
    /// Ping payload size in bytes (ICMP echo, 64 B default).
    pub payload_bytes: usize,
    /// Wireless channel model. `None` = lossless air (the default: the
    /// paper's latency experiments assume a healthy link; §6 treats loss
    /// separately).
    pub link: Option<channel::Fr1LinkConfig>,
    /// Maximum HARQ transmissions per transport block when `link` is set
    /// (each retransmission costs one HARQ round trip — §8's "+0.5 ms
    /// steps").
    pub harq_max_tx: u32,
    /// RLC AM retransmission budget (`maxRetxThreshold`): how many times
    /// the AM layer re-runs a full HARQ cycle for a transport block whose
    /// HARQ budget was exhausted, before declaring radio link failure.
    pub rlc_max_retx: u32,
    /// UE scheduling-request procedure configuration (prohibit timer and
    /// `sr-TransMax`; exhaustion falls back to RACH).
    pub sr: ran::sr::SrConfig,
    /// Random-access configuration for the SR-exhaustion fallback path.
    pub rach: ran::RachConfig,
    /// RRC re-establishment policy: what happens after a radio-link
    /// failure instead of dropping the packet.
    pub rrc: ran::RrcConfig,
    /// Inter-cell handover policy: A3 trigger, Xn preparation delays, and
    /// the T304 supervision timer (used by the mobility experiment).
    pub handover: ran::HandoverConfig,
    /// GTP-U path-supervision policy on the N3 backbone (echo keepalive,
    /// retry/backoff, failover).
    pub supervision: corenet::SupervisionConfig,
    /// Backup N3 path used when supervision declares the primary down.
    /// `None` means no failover: path outages stall on the primary.
    pub backup_backbone: Option<BackboneLink>,
    /// End-to-end RTT deadline used to classify each ping as on-time or
    /// late in the fault-attribution report.
    pub deadline: Duration,
    /// Fault-injection plan. The default ([`sim::FaultPlan::none`]) injects
    /// nothing and reproduces the fault-free traces byte for byte.
    pub faults: sim::FaultPlan,
    /// MAC scheduling policy ([`PolicySpec::Fcfs`] reproduces the
    /// pre-policy scheduler byte for byte).
    pub policy: PolicySpec,
    /// Master random seed.
    pub seed: u64,
}

impl StackConfig {
    /// The paper's §7 testbed: n78-band DDDU at µ1 (0.5 ms slots), modified
    /// srsRAN on an i7 (Table 2 timings), USRP B210 over USB, SIM8200 UE
    /// modem, UPF co-located.
    ///
    /// The scheduling lead is two slots: srsRAN builds each slot's
    /// transport block one slot ahead, and §7 adds that "the transmission
    /// must be always delayed for one slot to give enough time to the RH"
    /// — so the decision-to-air pipeline spans two slots (1 ms).
    pub fn testbed_dddu(access: AccessMode, usb3: bool) -> StackConfig {
        let duplex = Duplex::Tdd(TddConfig::dddu_testbed());
        StackConfig {
            sched_lead: duplex.slot_duration() * 2,
            duplex,
            access,
            carrier: CarrierConfig::testbed_20mhz(),
            modulation: Modulation::Qpsk,
            code_rate: 0.5,
            data_prbs: 51,
            gnb_timings: LayerTimings::gnb_table2(),
            ue_timings: LayerTimings::ue_modem(),
            gnb_radio: RadioHeadConfig::usrp_b210(usb3),
            ue_radio: RadioHeadConfig::asic_integrated(), // the modem's RF is integrated silicon
            backbone: BackboneLink::colocated_edge(),
            ue_grant_processing: Duration::from_micros(600),
            payload_bytes: 64,
            link: None,
            harq_max_tx: 4,
            rlc_max_retx: 4,
            sr: ran::sr::SrConfig::default(),
            rach: ran::RachConfig::default(),
            rrc: ran::RrcConfig::default(),
            handover: ran::HandoverConfig::default(),
            supervision: corenet::SupervisionConfig::edge(),
            // A second co-located link: failover costs detection, not
            // distance.
            backup_backbone: Some(BackboneLink::colocated_edge()),
            // Four pattern periods of headroom over the Fig 6 medians.
            deadline: Duration::from_millis(8),
            faults: sim::FaultPlan::none(),
            policy: PolicySpec::Fcfs,
            // Arbitrary default; overridden per experiment via `with_seed`.
            seed: 0x5612_3458,
        }
    }

    /// The §5 feasible URLLC design: DM pattern at µ2 (0.25 ms slots),
    /// grant-free uplink, low-latency PCIe radio with an RT kernel, and
    /// hardware-accelerated L1 processing.
    ///
    /// The scheduling lead is 150 µs — enough for MAC+PHY preparation plus
    /// the PCIe radio (§5's criterion: radio + processing under one slot),
    /// because a zero lead would corrupt every slot (§4: "failure to do so
    /// may result in the radio not being ready for transmission").
    pub fn ideal_urllc_dm() -> StackConfig {
        let duplex = Duplex::Tdd(TddConfig::dm_minimal());
        let accel = LayerTimings {
            sdap: sim::Dist::lognormal_us(2.0, 1.0),
            pdcp: sim::Dist::lognormal_us(3.0, 1.5),
            rlc: sim::Dist::lognormal_us(2.0, 1.0),
            mac: sim::Dist::lognormal_us(12.0, 3.0),
            phy: sim::Dist::lognormal_us(15.0, 4.0),
        };
        StackConfig {
            duplex,
            access: AccessMode::GrantFree,
            carrier: CarrierConfig::testbed_20mhz(),
            modulation: Modulation::Qam16,
            code_rate: 0.5,
            data_prbs: 51,
            gnb_timings: accel.clone(),
            ue_timings: accel, // an equally capable UE
            gnb_radio: RadioHeadConfig::pcie_low_latency(),
            ue_radio: RadioHeadConfig::asic_integrated(),
            backbone: BackboneLink::ideal(),
            sched_lead: Duration::from_micros(150),
            ue_grant_processing: Duration::from_micros(100),
            payload_bytes: 64,
            link: None,
            harq_max_tx: 4,
            rlc_max_retx: 4,
            sr: ran::sr::SrConfig::default(),
            rach: ran::RachConfig::default(),
            rrc: ran::RrcConfig::default(),
            handover: ran::HandoverConfig::default(),
            supervision: corenet::SupervisionConfig::edge(),
            backup_backbone: Some(BackboneLink::ideal()),
            deadline: Duration::from_millis(1),
            faults: sim::FaultPlan::none(),
            policy: PolicySpec::Fcfs,
            seed: 7,
        }
    }

    /// Derives the scheduler configuration. Control (DCI) transmissions
    /// get at most one slot of lead — they ride the control region the gNB
    /// builds every slot anyway.
    pub fn scheduler_config(&self) -> SchedulerConfig {
        SchedulerConfig {
            duplex: self.duplex.clone(),
            access: self.access,
            lead: self.sched_lead,
            control_lead: self.sched_lead.min(self.duplex.slot_duration()),
            ue_grant_processing: self.ue_grant_processing,
            dl_slot_capacity: self.slot_capacity_bytes(),
            ul_slot_capacity: self.slot_capacity_bytes(),
            grant_bytes: self.grant_bytes(),
            policy: self.policy,
        }
    }

    /// With a different scheduling policy (for the scheduler laboratory).
    pub fn with_policy(mut self, policy: PolicySpec) -> StackConfig {
        self.policy = policy;
        self
    }

    /// Bytes a full slot can carry at the configured MCS.
    pub fn slot_capacity_bytes(&self) -> usize {
        (self.carrier.transport_block_bits(
            self.data_prbs,
            phy::numerology::SYMBOLS_PER_SLOT,
            self.modulation,
            self.code_rate,
        ) / 8) as usize
    }

    /// Grant size used for granted uplink transmissions: generous enough
    /// for a ping plus all layer overheads.
    pub fn grant_bytes(&self) -> usize {
        (self.payload_bytes + 64).min(self.slot_capacity_bytes())
    }

    /// Air-time of a `bytes`-byte transport block: whole OFDM symbols at
    /// the configured MCS and PRB allocation.
    pub fn data_air_time(&self, bytes: usize) -> Duration {
        let nu = self.duplex.numerology();
        let per_symbol_bits = self.carrier.res_per_prb(phy::numerology::SYMBOLS_PER_SLOT) as f64
            / f64::from(phy::numerology::SYMBOLS_PER_SLOT - self.carrier.overhead_symbols)
            * self.data_prbs as f64
            * f64::from(self.modulation.bits_per_symbol())
            * self.code_rate;
        let bits = (bytes * 8) as f64;
        let symbols = (bits / per_symbol_bits).ceil().max(1.0) as u32;
        let symbols = symbols.min(phy::numerology::SYMBOLS_PER_SLOT);
        nu.symbol_offset(symbols)
    }

    /// The HARQ and RLC status round trips on the configured duplex
    /// pattern, `(harq, rlc)`, each indexed `[dl, ul]` by data direction
    /// (`usize::from(!dl_data)`): the one source of the round trips the
    /// ping walk charges, the recovery bound sums and `repro harq` prints.
    pub fn round_trips(&self) -> ([Duration; 2], [Duration; 2]) {
        let both = |rtt: fn(&Duplex, bool, Duration) -> Duration| {
            [true, false].map(|dl_data| rtt(&self.duplex, dl_data, FEEDBACK_PROCESSING))
        };
        (both(ran::harq::harq_round_trip), both(ran::harq::rlc_recovery_round_trip))
    }

    /// With a different seed (for multi-run experiments).
    pub fn with_seed(mut self, seed: u64) -> StackConfig {
        self.seed = seed;
        self
    }

    /// With a fault-injection plan (chaos experiments).
    pub fn with_faults(mut self, faults: sim::FaultPlan) -> StackConfig {
        self.faults = faults;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_preset_matches_paper_section7() {
        let c = StackConfig::testbed_dddu(AccessMode::GrantBased, true);
        assert_eq!(c.duplex.slot_duration(), Duration::from_micros(500));
        assert_eq!(c.duplex.pattern_period(), Duration::from_millis(2));
        assert_eq!(c.sched_lead, Duration::from_millis(1));
        assert_eq!(c.payload_bytes, 64);
    }

    #[test]
    fn ideal_preset_is_dm_grant_free() {
        let c = StackConfig::ideal_urllc_dm();
        assert_eq!(c.access, AccessMode::GrantFree);
        assert_eq!(c.duplex.pattern_period(), Duration::from_micros(500));
        assert_eq!(c.sched_lead, Duration::from_micros(150));
    }

    #[test]
    fn slot_capacity_positive_and_scales() {
        let c = StackConfig::testbed_dddu(AccessMode::GrantFree, true);
        let cap = c.slot_capacity_bytes();
        assert!(cap > 500, "capacity {cap}");
        assert!(c.grant_bytes() <= cap);
    }

    #[test]
    fn air_time_scales_with_bytes_and_floors_at_one_symbol() {
        let c = StackConfig::testbed_dddu(AccessMode::GrantFree, true);
        let one = c.data_air_time(1);
        assert_eq!(one, c.duplex.numerology().symbol_offset(1));
        let big = c.data_air_time(c.slot_capacity_bytes());
        assert!(big > one);
        assert!(big <= c.duplex.slot_duration());
    }

    #[test]
    fn scheduler_config_is_consistent() {
        let c = StackConfig::testbed_dddu(AccessMode::GrantBased, false);
        let s = c.scheduler_config();
        assert_eq!(s.lead, c.sched_lead);
        assert_eq!(s.access, AccessMode::GrantBased);
        assert_eq!(s.dl_slot_capacity, c.slot_capacity_bytes());
    }
}
