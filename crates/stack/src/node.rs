//! The UE and gNB protocol stacks: real bytes through every layer.
//!
//! Unlike a pure latency model, these stacks *build* each PDU: the ping
//! payload is SDAP-framed, PDCP-numbered and ciphered, RLC-segmented,
//! MAC-multiplexed (with a BSR riding along on the uplink), scrambled and
//! modulated to IQ samples — then decoded in reverse at the far end, with
//! every header checked. The latency experiment asserts byte-exact
//! delivery, so a framing bug anywhere in the workspace fails loudly.

use bytes::Bytes;
use corenet::upf::{Session, Upf, UplinkOutcome};
use phy::modulation::Iq;
use phy::scrambling::data_scrambling_c_init;
use phy::transport::{self, ShChConfig, SharedChannel};
use ran::mac::{self, MacSubPdu};
use ran::pdcp::{Direction, PdcpConfig, PdcpEntity};
use ran::rlc::RlcUmEntity;
use ran::sched::Rnti;
use ran::sdap::SdapEntity;
use std::collections::BTreeMap;
use telemetry::Telemetry;

/// The QFI used for ping traffic (9 = default internet QoS flow).
pub(crate) const PING_QFI: u8 = 9;

/// The DRB / logical channel carrying it.
pub(crate) const PING_LCID: u8 = 1;

/// Errors surfaced by the composed stacks.
#[derive(Debug, Clone, PartialEq)]
pub enum StackError {
    /// SDAP failure.
    Sdap(String),
    /// PDCP failure.
    Pdcp(String),
    /// RLC failure.
    Rlc(String),
    /// MAC failure.
    Mac(String),
    /// PHY transport failure.
    Phy(String),
    /// Core-network failure.
    Core(String),
    /// The UE is not attached at the gNB.
    UnknownRnti(Rnti),
    /// A simulation loop exceeded its progress guard — the configuration
    /// cannot drain its own load (e.g. scheduler saturation).
    Diverged(String),
}

impl core::fmt::Display for StackError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StackError::Sdap(e) => write!(f, "SDAP: {e}"),
            StackError::Pdcp(e) => write!(f, "PDCP: {e}"),
            StackError::Rlc(e) => write!(f, "RLC: {e}"),
            StackError::Mac(e) => write!(f, "MAC: {e}"),
            StackError::Phy(e) => write!(f, "PHY: {e}"),
            StackError::Core(e) => write!(f, "core: {e}"),
            StackError::UnknownRnti(r) => write!(f, "unknown RNTI {r}"),
            StackError::Diverged(e) => write!(f, "diverged: {e}"),
        }
    }
}

impl std::error::Error for StackError {}

/// One direction of `rnti`'s shared channel, built once when the stack is
/// (`UeStack::new`, `GnbStack::attach_ue`): the scrambling sequence is fixed
/// from then on, so its warm-up is paid here and never per transport block.
fn shared_channel(rnti: Rnti, dl: bool) -> SharedChannel {
    // Distinct scrambling per UE and direction, as in TS 38.211. The byte
    // path modulates QPSK whatever `StackConfig::modulation` says (DESIGN.md).
    SharedChannel::new(ShChConfig {
        modulation: phy::modulation::Modulation::Qpsk,
        c_init: data_scrambling_c_init(rnti, u8::from(dl), 101),
    })
}

/// Wire size of the short-BSR subPDU riding on every uplink MAC PDU: the
/// subheader (LCID, 8-bit L) and the one-byte control element.
const SHORT_BSR_SUBPDU_BYTES: usize = 3;

/// One UE's ping bearer at either end of the link: its SDAP, PDCP and RLC
/// entities, plus the two lists the receive walk reuses for every MAC PDU.
#[derive(Debug)]
struct Bearer {
    sdap: SdapEntity,
    pdcp: PdcpEntity,
    rlc: RlcUmEntity,
    /// PDCP PDUs the RLC entity completed from one MAC subPDU.
    pdcp_pdus: Vec<Bytes>,
    /// SDAP PDUs the PDCP entity delivered from one of those.
    sdap_pdus: Vec<Bytes>,
}

impl Bearer {
    /// A bearer transmitting in `direction`, ciphered with `key`.
    fn new(key: u64, direction: Direction, tel: &Telemetry) -> Bearer {
        let mut bearer = Bearer {
            sdap: SdapEntity::new(),
            pdcp: PdcpEntity::new(PdcpConfig::new(key, PING_LCID, direction)),
            rlc: RlcUmEntity::new(),
            pdcp_pdus: Vec::new(),
            sdap_pdus: Vec::new(),
        };
        bearer.sdap.map_flow(PING_QFI, PING_LCID);
        bearer.set_telemetry(tel);
        bearer
    }

    fn set_telemetry(&mut self, tel: &Telemetry) {
        self.sdap.set_telemetry(tel.clone());
        self.pdcp.set_telemetry(tel.clone());
        self.rlc.set_telemetry(tel.clone());
    }

    /// SDAP → PDCP → RLC: frames, numbers and ciphers `payload` into the
    /// RLC transmit queue.
    fn tx(&mut self, payload: &Bytes) -> Result<(), StackError> {
        let (_drb, sdap_pdu) =
            self.sdap.encode_pdu(PING_QFI, payload).map_err(|e| StackError::Sdap(e.to_string()))?;
        let pdcp_pdu = self.pdcp.tx_encode(&sdap_pdu);
        self.rlc.tx_sdu(pdcp_pdu);
        Ok(())
    }

    /// Drains the RLC transmit queue into MAC PDUs of at most `grant_bytes`
    /// each, appended to `pdus`; with `bsr`, a short BSR reporting the
    /// buffer as it stood before each pull rides along (the uplink).
    fn pull_mac_pdus(
        &mut self,
        grant_bytes: usize,
        bsr: bool,
        pdus: &mut Vec<Bytes>,
    ) -> Result<(), StackError> {
        // Room for the MAC subheaders: the data one at worst, plus the BSR.
        let overhead = 3 + if bsr { SHORT_BSR_SUBPDU_BYTES } else { 0 };
        if grant_bytes <= overhead + 1 {
            return Err(StackError::Mac(format!("grant {grant_bytes} B too small")));
        }
        loop {
            let queued = self.rlc.queued_bytes();
            let Some(rlc_pdu) = self
                .rlc
                .pull_pdu(grant_bytes - overhead)
                .map_err(|e| StackError::Rlc(e.to_string()))?
            else {
                return Ok(());
            };
            let data = MacSubPdu::new(PING_LCID, rlc_pdu);
            let pdu = if bsr {
                let report = MacSubPdu::new(mac::lcid::SHORT_BSR, mac::encode_short_bsr(0, queued));
                mac::encode_subpdus(&[report, data], None)
            } else {
                mac::encode_subpdus(&[data], None)
            };
            pdus.push(pdu.map_err(|e| StackError::Mac(e.to_string()))?);
        }
    }

    /// MAC → RLC → PDCP → SDAP: walks one received MAC PDU up and appends
    /// `forward` of each completed payload, where it returns one, to `out`.
    /// A MAC PDU that does not parse reaches no entity, and on any error
    /// `out` is left as it was.
    fn rx(
        &mut self,
        mac_pdu: &Bytes,
        out: &mut Vec<Bytes>,
        mut forward: impl FnMut(Bytes) -> Result<Option<Bytes>, StackError>,
    ) -> Result<(), StackError> {
        let mac_err = |e: mac::MacError| StackError::Mac(e.to_string());
        mac::subpdus(mac_pdu).try_for_each(|sub| sub.map(drop)).map_err(mac_err)?;
        let start = out.len();
        let mut walk = || {
            for sub in mac::subpdus(mac_pdu) {
                let sub = sub.map_err(mac_err)?;
                if sub.lcid != PING_LCID {
                    continue; // control elements
                }
                self.pdcp_pdus.clear();
                self.rlc
                    .rx_pdu_into(&sub.payload, &mut self.pdcp_pdus)
                    .map_err(|e| StackError::Rlc(e.to_string()))?;
                for p in &self.pdcp_pdus {
                    self.sdap_pdus.clear();
                    self.pdcp
                        .rx_decode_into(p, &mut self.sdap_pdus)
                        .map_err(|e| StackError::Pdcp(e.to_string()))?;
                    for s in &self.sdap_pdus {
                        let (_h, payload) =
                            self.sdap.decode_pdu(s).map_err(|e| StackError::Sdap(e.to_string()))?;
                        out.extend(forward(payload)?);
                    }
                }
            }
            Ok(())
        };
        let walked = walk();
        if walked.is_err() {
            out.truncate(start);
        }
        walked
    }
}

/// The UE-side protocol stack.
#[derive(Debug)]
pub struct UeStack {
    /// This UE's RNTI.
    pub rnti: Rnti,
    bearer: Bearer,
    /// PUSCH: what [`phy_encode`](Self::phy_encode) transmits on.
    ul: SharedChannel,
    /// PDSCH: what [`phy_decode`](Self::phy_decode) receives on.
    dl: SharedChannel,
}

impl UeStack {
    /// Creates a UE stack sharing `key` with the gNB.
    pub fn new(rnti: Rnti, key: u64) -> UeStack {
        UeStack {
            rnti,
            bearer: Bearer::new(key, Direction::Uplink, &Telemetry::disabled()),
            ul: shared_channel(rnti, false),
            dl: shared_channel(rnti, true),
        }
    }

    /// Attaches a telemetry handle, propagating it to every layer entity.
    pub(crate) fn set_telemetry(&mut self, tel: Telemetry) {
        self.bearer.set_telemetry(&tel);
    }

    /// Encodes an application payload into uplink MAC PDUs, each at most
    /// `grant_bytes` long (several when the grant forces segmentation).
    pub fn encode_uplink(
        &mut self,
        payload: &Bytes,
        grant_bytes: usize,
    ) -> Result<Vec<Bytes>, StackError> {
        let mut pdus = Vec::new();
        self.encode_uplink_into(payload, grant_bytes, &mut pdus)?;
        Ok(pdus)
    }

    /// [`encode_uplink`](Self::encode_uplink), appending the MAC PDUs to
    /// `pdus`.
    pub(crate) fn encode_uplink_into(
        &mut self,
        payload: &Bytes,
        grant_bytes: usize,
        pdus: &mut Vec<Bytes>,
    ) -> Result<(), StackError> {
        self.bearer.tx(payload)?;
        self.bearer.pull_mac_pdus(grant_bytes, true, pdus)
    }

    /// Uplink-bearer data recovery after RRC re-establishment: the RLC
    /// entity is re-established (TS 38.322 §5.1.3 — buffers discarded,
    /// SNs reset) and PDCP data recovery (TS 38.323 §5.4) runs against the
    /// gNB's status report: every unconfirmed PDCP PDU is retransmitted
    /// with its **original COUNT** — SN continuity — re-encoded into fresh
    /// MAC PDUs over the reset RLC.
    pub fn recover_uplink(
        &mut self,
        status_report: &Bytes,
        grant_bytes: usize,
    ) -> Result<Vec<Bytes>, StackError> {
        let report = ran::pdcp::PdcpStatusReport::decode(status_report)
            .map_err(|e| StackError::Pdcp(e.to_string()))?;
        let bearer = &mut self.bearer;
        bearer.rlc = bearer.rlc.reestablished();
        for pdcp_pdu in bearer.pdcp.retransmit_unconfirmed(&report) {
            bearer.rlc.tx_sdu(pdcp_pdu);
        }
        let mut pdus = Vec::new();
        bearer.pull_mac_pdus(grant_bytes, true, &mut pdus)?;
        Ok(pdus)
    }

    /// Downlink-bearer half of a re-establishment: re-establishes the RLC
    /// entity and produces the encoded PDCP status report
    /// (TS 38.323 §6.2.3.1) the gNB needs for its data recovery.
    pub fn reestablish_downlink(&mut self) -> Bytes {
        self.bearer.rlc = self.bearer.rlc.reestablished();
        self.bearer.pdcp.status_report().encode()
    }

    /// Decodes a downlink MAC PDU; returns any application payloads
    /// completed by it.
    pub fn decode_downlink(&mut self, mac_pdu: &Bytes) -> Result<Vec<Bytes>, StackError> {
        let mut payloads = Vec::new();
        self.decode_downlink_into(mac_pdu, &mut payloads)?;
        Ok(payloads)
    }

    /// [`decode_downlink`](Self::decode_downlink), appending the payloads
    /// to `payloads` (left as it was on error).
    pub(crate) fn decode_downlink_into(
        &mut self,
        mac_pdu: &Bytes,
        payloads: &mut Vec<Bytes>,
    ) -> Result<(), StackError> {
        self.bearer.rx(mac_pdu, payloads, |payload| Ok(Some(payload)))
    }

    /// Modulates an uplink MAC PDU to IQ samples, borrowed from the
    /// channel's buffer until the next call.
    pub(crate) fn phy_encode(&mut self, mac_pdu: &Bytes) -> &[Iq] {
        self.ul.encode(mac_pdu).0
    }

    /// Demodulates downlink samples to a MAC PDU.
    pub(crate) fn phy_decode(&mut self, samples: &[Iq]) -> Result<Bytes, StackError> {
        phy_decode(&mut self.dl, samples)
    }

    /// Number of IQ samples an uplink MAC PDU of `bytes` bytes produces.
    pub(crate) fn phy_sample_count(&self, bytes: usize) -> usize {
        transport::sample_count(self.ul.config(), bytes)
    }
}

/// Demodulates `samples` on `channel` and copies the MAC PDU out of its
/// buffer: the one allocation of a received transport block.
fn phy_decode(channel: &mut SharedChannel, samples: &[Iq]) -> Result<Bytes, StackError> {
    channel.decode(samples).map(Bytes::copy_from_slice).map_err(|e| StackError::Phy(e.to_string()))
}

#[derive(Debug)]
struct UeContext {
    bearer: Bearer,
    session: Session,
    /// PDSCH: what [`GnbStack::phy_encode`] transmits on.
    dl: SharedChannel,
    /// PUSCH: what [`GnbStack::phy_decode`] receives on.
    ul: SharedChannel,
}

/// The gNB-side protocol stack plus its embedded UPF link.
#[derive(Debug)]
pub struct GnbStack {
    contexts: BTreeMap<Rnti, UeContext>,
    upf: Upf,
    /// DL-TEID → RNTI routing.
    dl_routes: BTreeMap<u32, Rnti>,
    tel: Telemetry,
}

impl Default for GnbStack {
    fn default() -> Self {
        Self::new()
    }
}

impl GnbStack {
    /// Creates an empty gNB.
    pub fn new() -> GnbStack {
        GnbStack {
            contexts: BTreeMap::new(),
            upf: Upf::new(),
            dl_routes: BTreeMap::new(),
            tel: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle, propagating it to the UPF and every
    /// attached UE's layer entities (kept for UEs attached later).
    pub(crate) fn set_telemetry(&mut self, tel: Telemetry) {
        self.upf.set_telemetry(tel.clone());
        for ctx in self.contexts.values_mut() {
            ctx.bearer.set_telemetry(&tel);
        }
        self.tel = tel;
    }

    /// Attaches a UE: creates the per-UE layer entities and a PDU session
    /// at the UPF. `ue_addr` is the UE's IP on the data network.
    pub fn attach_ue(&mut self, rnti: Rnti, key: u64, ue_addr: u32) {
        let bearer = Bearer::new(key, Direction::Downlink, &self.tel);
        let dl_teid = u32::from(rnti) + 0x100;
        let session = self.upf.establish_session(ue_addr, dl_teid);
        self.dl_routes.insert(dl_teid, rnti);
        let (dl, ul) = (shared_channel(rnti, true), shared_channel(rnti, false));
        self.contexts.insert(rnti, UeContext { bearer, session, dl, ul });
    }

    /// Attached UE count.
    pub fn attached(&self) -> usize {
        self.contexts.len()
    }

    /// Direct access to the embedded UPF (path supervision probes it).
    pub(crate) fn upf_mut(&mut self) -> &mut Upf {
        &mut self.upf
    }

    fn ctx(&mut self, rnti: Rnti) -> Result<&mut UeContext, StackError> {
        self.contexts.get_mut(&rnti).ok_or(StackError::UnknownRnti(rnti))
    }

    /// Decodes an uplink MAC PDU from `rnti`; completed packets are pushed
    /// through GTP-U to the UPF and returned as data-network payloads.
    pub fn decode_uplink(&mut self, rnti: Rnti, mac_pdu: &Bytes) -> Result<Vec<Bytes>, StackError> {
        let mut payloads = Vec::new();
        self.decode_uplink_into(rnti, mac_pdu, &mut payloads)?;
        Ok(payloads)
    }

    /// [`decode_uplink`](Self::decode_uplink), appending the payloads to
    /// `payloads` (left as it was on error).
    pub(crate) fn decode_uplink_into(
        &mut self,
        rnti: Rnti,
        mac_pdu: &Bytes,
        payloads: &mut Vec<Bytes>,
    ) -> Result<(), StackError> {
        let ctx = self.contexts.get_mut(&rnti).ok_or(StackError::UnknownRnti(rnti))?;
        let (upf, ul_teid) = (&mut self.upf, ctx.session.ul_teid);
        ctx.bearer.rx(mac_pdu, payloads, |payload| {
            // N3: wrap in GTP-U toward the UPF, which decapsulates onto
            // the data network.
            let n3 = corenet::gtpu::GtpuHeader::gpdu(ul_teid).encode(&payload);
            match upf.uplink(&n3).map_err(|e| StackError::Core(e.to_string()))? {
                UplinkOutcome::Data { payload, .. } => Ok(Some(payload)),
                // Only G-PDUs are built above; echo responses belong to
                // the supervision path, not the data path.
                UplinkOutcome::EchoResponse(_) => Ok(None),
            }
        })
    }

    /// Encodes a data-network payload for `ue_addr` into downlink MAC PDUs
    /// (UPF encapsulation, N3, then the full gNB L2 chain).
    pub fn encode_downlink(
        &mut self,
        ue_addr: u32,
        payload: &Bytes,
        grant_bytes: usize,
    ) -> Result<(Rnti, Vec<Bytes>), StackError> {
        let mut pdus = Vec::new();
        let rnti = self.encode_downlink_into(ue_addr, payload, grant_bytes, &mut pdus)?;
        Ok((rnti, pdus))
    }

    /// [`encode_downlink`](Self::encode_downlink), appending the MAC PDUs
    /// to `pdus`; returns the RNTI the reply was routed to.
    pub(crate) fn encode_downlink_into(
        &mut self,
        ue_addr: u32,
        payload: &Bytes,
        grant_bytes: usize,
        pdus: &mut Vec<Bytes>,
    ) -> Result<Rnti, StackError> {
        let n3 =
            self.upf.downlink(ue_addr, payload).map_err(|e| StackError::Core(e.to_string()))?;
        let (gtp, inner) =
            corenet::gtpu::GtpuHeader::decode(&n3).map_err(|e| StackError::Core(e.to_string()))?;
        // Route by DL TEID back to the RNTI.
        let rnti = *self
            .dl_routes
            .get(&gtp.teid)
            .ok_or_else(|| StackError::Core(format!("no route for DL TEID {}", gtp.teid)))?;
        let bearer = &mut self.ctx(rnti)?.bearer;
        bearer.tx(&inner)?;
        bearer.pull_mac_pdus(grant_bytes, false, pdus)?;
        Ok(rnti)
    }

    /// Uplink-bearer half of a re-establishment for `rnti`: re-establishes
    /// the receive-side RLC entity and produces the encoded PDCP status
    /// report (TS 38.323 §6.2.3.1) that drives the UE's data recovery.
    pub fn reestablish_uplink(&mut self, rnti: Rnti) -> Result<Bytes, StackError> {
        let bearer = &mut self.ctx(rnti)?.bearer;
        bearer.rlc = bearer.rlc.reestablished();
        Ok(bearer.pdcp.status_report().encode())
    }

    /// Downlink-bearer data recovery for `rnti` after RRC
    /// re-establishment: RLC re-establishment plus PDCP data recovery from
    /// the UE's status report — the unconfirmed PDCP PDUs are retransmitted
    /// with their original COUNTs as fresh MAC PDUs.
    pub fn recover_downlink(
        &mut self,
        rnti: Rnti,
        status_report: &Bytes,
        grant_bytes: usize,
    ) -> Result<Vec<Bytes>, StackError> {
        let report = ran::pdcp::PdcpStatusReport::decode(status_report)
            .map_err(|e| StackError::Pdcp(e.to_string()))?;
        let bearer = &mut self.ctx(rnti)?.bearer;
        bearer.rlc = bearer.rlc.reestablished();
        for pdcp_pdu in bearer.pdcp.retransmit_unconfirmed(&report) {
            bearer.rlc.tx_sdu(pdcp_pdu);
        }
        let mut pdus = Vec::new();
        bearer.pull_mac_pdus(grant_bytes, false, &mut pdus)?;
        Ok(pdus)
    }

    /// Modulates a downlink MAC PDU for `rnti` to IQ samples, borrowed from
    /// that UE's channel buffer until the next call.
    pub(crate) fn phy_encode(&mut self, rnti: Rnti, mac_pdu: &Bytes) -> Result<&[Iq], StackError> {
        Ok(self.ctx(rnti)?.dl.encode(mac_pdu).0)
    }

    /// Demodulates uplink samples from `rnti` to a MAC PDU.
    pub(crate) fn phy_decode(&mut self, rnti: Rnti, samples: &[Iq]) -> Result<Bytes, StackError> {
        phy_decode(&mut self.ctx(rnti)?.ul, samples)
    }

    /// Number of IQ samples a downlink MAC PDU of `bytes` bytes for `rnti`
    /// produces.
    pub(crate) fn phy_sample_count(&self, rnti: Rnti, bytes: usize) -> Result<usize, StackError> {
        let ctx = self.contexts.get(&rnti).ok_or(StackError::UnknownRnti(rnti))?;
        Ok(transport::sample_count(ctx.dl.config(), bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attach_pair() -> (UeStack, GnbStack) {
        let mut gnb = GnbStack::new();
        gnb.attach_ue(17, 0xABCD, 0x0A00_0001);
        (UeStack::new(17, 0xABCD), gnb)
    }

    #[test]
    fn uplink_end_to_end_bytes() {
        let (mut ue, mut gnb) = attach_pair();
        let payload = Bytes::from_static(b"ICMP echo request, seq=1");
        let mac_pdus = ue.encode_uplink(&payload, 256).unwrap();
        assert_eq!(mac_pdus.len(), 1);
        let delivered = gnb.decode_uplink(17, &mac_pdus[0]).unwrap();
        assert_eq!(delivered, vec![payload]);
    }

    #[test]
    fn downlink_end_to_end_bytes() {
        let (mut ue, mut gnb) = attach_pair();
        let payload = Bytes::from_static(b"ICMP echo reply, seq=1");
        let (rnti, mac_pdus) = gnb.encode_downlink(0x0A00_0001, &payload, 256).unwrap();
        assert_eq!(rnti, 17);
        let mut delivered = Vec::new();
        for p in &mac_pdus {
            delivered.extend(ue.decode_downlink(p).unwrap());
        }
        assert_eq!(delivered, vec![payload]);
    }

    #[test]
    fn round_trip_through_phy_samples() {
        let (mut ue, mut gnb) = attach_pair();
        let payload = Bytes::from_static(b"over the air");
        let mac_pdus = ue.encode_uplink(&payload, 256).unwrap();
        let samples = ue.phy_encode(&mac_pdus[0]).to_vec();
        assert_eq!(samples.len(), ue.phy_sample_count(mac_pdus[0].len()));
        let decoded = gnb.phy_decode(17, &samples).unwrap();
        assert_eq!(decoded, mac_pdus[0]);
        let delivered = gnb.decode_uplink(17, &decoded).unwrap();
        assert_eq!(delivered, vec![payload]);
    }

    #[test]
    fn small_grant_forces_multiple_mac_pdus() {
        let (mut ue, mut gnb) = attach_pair();
        let payload = Bytes::from(vec![0x42u8; 300]);
        let mac_pdus = ue.encode_uplink(&payload, 64).unwrap();
        assert!(mac_pdus.len() >= 5, "got {} PDUs", mac_pdus.len());
        let mut delivered = Vec::new();
        for p in &mac_pdus {
            delivered.extend(gnb.decode_uplink(17, p).unwrap());
        }
        assert_eq!(delivered, vec![payload]);
    }

    #[test]
    fn ul_and_dl_scrambling_differ() {
        let (mut ue, mut gnb) = attach_pair();
        let pdu = Bytes::from_static(b"same bytes");
        let ul = ue.phy_encode(&pdu);
        assert_eq!(gnb.phy_sample_count(17, pdu.len()), Ok(ul.len()));
        assert_eq!(gnb.phy_sample_count(99, 1), Err(StackError::UnknownRnti(99)));
        assert_eq!(gnb.phy_encode(99, &pdu).unwrap_err(), StackError::UnknownRnti(99));
        let dl = gnb.phy_encode(17, &pdu).unwrap();
        assert_eq!(dl.len(), ul.len());
        assert_ne!(
            ul.iter().map(|s| (s.i.to_bits(), s.q.to_bits())).collect::<Vec<_>>(),
            dl.iter().map(|s| (s.i.to_bits(), s.q.to_bits())).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unknown_rnti_rejected() {
        let mut gnb = GnbStack::new();
        assert_eq!(gnb.decode_uplink(99, &Bytes::new()).unwrap_err(), StackError::UnknownRnti(99));
    }

    #[test]
    fn wrong_ue_cannot_decode() {
        let (mut ue17, mut gnb) = attach_pair();
        gnb.attach_ue(18, 0x9999, 0x0A00_0002);
        let payload = Bytes::from_static(b"for UE 17 only");
        let (_, mac_pdus) = gnb.encode_downlink(0x0A00_0001, &payload, 256).unwrap();
        // UE 18 has a different key: PDCP deciphering garbles the SDU (the
        // SDAP decode may nominally succeed, but bytes differ).
        let mut ue18 = UeStack::new(18, 0x9999);
        let out18 = ue18.decode_downlink(&mac_pdus[0]).unwrap_or_default();
        assert!(out18.is_empty() || out18[0] != payload);
        // The right UE decodes fine.
        assert_eq!(ue17.decode_downlink(&mac_pdus[0]).unwrap(), vec![payload]);
    }

    #[test]
    fn uplink_recovery_redelivers_lost_sdu_exactly_once() {
        let (mut ue, mut gnb) = attach_pair();
        // Ping A goes through cleanly.
        let a = Bytes::from_static(b"ping A: delivered");
        for pdu in ue.encode_uplink(&a, 256).unwrap() {
            assert_eq!(gnb.decode_uplink(17, &pdu).unwrap(), vec![a.clone()]);
        }
        // Ping B is encoded but lost on the air (never decoded): RLF.
        let b = Bytes::from_static(b"ping B: lost to RLF");
        let _lost = ue.encode_uplink(&b, 256).unwrap();
        // Re-establishment: the gNB's status report drives the UE's PDCP
        // data recovery; only the in-flight SDU is retransmitted.
        let report = gnb.reestablish_uplink(17).unwrap();
        let retx = ue.recover_uplink(&report, 256).unwrap();
        assert!(!retx.is_empty());
        let mut delivered = Vec::new();
        for pdu in &retx {
            delivered.extend(gnb.decode_uplink(17, pdu).unwrap());
        }
        assert_eq!(delivered, vec![b], "exactly the lost SDU, exactly once");
        // The bearer keeps working after recovery.
        let c = Bytes::from_static(b"ping C: back to normal");
        let mut after = Vec::new();
        for pdu in ue.encode_uplink(&c, 256).unwrap() {
            after.extend(gnb.decode_uplink(17, &pdu).unwrap());
        }
        assert_eq!(after, vec![c]);
    }

    #[test]
    fn downlink_recovery_redelivers_lost_sdu_exactly_once() {
        let (mut ue, mut gnb) = attach_pair();
        let a = Bytes::from_static(b"reply A: delivered");
        let (_, pdus) = gnb.encode_downlink(0x0A00_0001, &a, 256).unwrap();
        let got: Vec<Bytes> = pdus.iter().flat_map(|p| ue.decode_downlink(p).unwrap()).collect();
        assert_eq!(got, vec![a]);
        // Reply B lost on the air.
        let b = Bytes::from_static(b"reply B: lost to RLF");
        let _lost = gnb.encode_downlink(0x0A00_0001, &b, 256).unwrap();
        let report = ue.reestablish_downlink();
        let retx = gnb.recover_downlink(17, &report, 256).unwrap();
        assert!(!retx.is_empty());
        let delivered: Vec<Bytes> =
            retx.iter().flat_map(|p| ue.decode_downlink(p).unwrap()).collect();
        assert_eq!(delivered, vec![b]);
        // Subsequent downlink traffic is unaffected.
        let c = Bytes::from_static(b"reply C: back to normal");
        let (_, pdus) = gnb.encode_downlink(0x0A00_0001, &c, 256).unwrap();
        let got: Vec<Bytes> = pdus.iter().flat_map(|p| ue.decode_downlink(p).unwrap()).collect();
        assert_eq!(got, vec![c]);
    }

    #[test]
    fn multiple_ues_are_isolated_sessions() {
        let mut gnb = GnbStack::new();
        gnb.attach_ue(1, 0x1, 100);
        gnb.attach_ue(2, 0x2, 200);
        assert_eq!(gnb.attached(), 2);
        let p1 = Bytes::from_static(b"to ue 1");
        let (rnti, _) = gnb.encode_downlink(100, &p1, 128).unwrap();
        assert_eq!(rnti, 1);
        let (rnti, _) = gnb.encode_downlink(200, &p1, 128).unwrap();
        assert_eq!(rnti, 2);
    }
}
