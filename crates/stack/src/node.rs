//! The UE and gNB protocol stacks: real bytes through every layer.
//!
//! Unlike a pure latency model, these stacks *build* each PDU: the ping
//! payload is SDAP-framed, PDCP-numbered and ciphered, RLC-segmented,
//! MAC-multiplexed (with a BSR riding along on the uplink), scrambled and
//! modulated to IQ samples — then decoded in reverse at the far end, with
//! every header checked. The latency experiment asserts byte-exact
//! delivery, so a framing bug anywhere in the workspace fails loudly.
//!
//! A leg costs one transmit buffer, the MAC PDU every layer writes its
//! header into, and one receive copy, the SDU PDCP deciphers into; the
//! received transport block is walked where the PHY decoded it (DESIGN
//! §17).

use bytes::{BufMut, Bytes};
use corenet::gtpu::GtpuHeader;
use corenet::upf::{Session, Upf, UpfError, UplinkOutcome};
use phy::modulation::Iq;
use phy::scrambling::data_scrambling_c_init;
use phy::transport::{self, ShChConfig, SharedChannel};
use ran::mac;
use ran::pdcp::{Direction, PdcpConfig, PdcpEntity};
use ran::pdu::{self, RxPdu};
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
/// entities, plus the list the receive walk reuses for every MAC PDU.
#[derive(Debug)]
struct Bearer {
    sdap: SdapEntity,
    pdcp: PdcpEntity,
    rlc: RlcUmEntity,
    /// SDAP PDUs the PDCP entity delivered from one RLC SDU.
    sdap_pdus: Vec<Bytes>,
}

impl Bearer {
    /// A bearer transmitting in `direction`, ciphered with `key`.
    fn new(key: u64, direction: Direction, tel: &Telemetry) -> Bearer {
        let mut bearer = Bearer {
            sdap: SdapEntity::new(),
            pdcp: PdcpEntity::new(PdcpConfig::new(key, PING_LCID, direction)),
            rlc: RlcUmEntity::new(),
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

    /// SDAP → PDCP → RLC: frames and numbers `payload` into the RLC
    /// transmit queue. Nothing is written yet: the queue holds the headers
    /// and a view of the payload, ciphered when a MAC PDU is pulled.
    fn tx(&mut self, payload: &Bytes) -> Result<(), StackError> {
        let (_drb, sdu) =
            self.sdap.frame(PING_QFI, payload).map_err(|e| StackError::Sdap(e.to_string()))?;
        self.rlc.enqueue(self.pdcp.tx_submit(sdu));
        Ok(())
    }

    /// Drains the RLC transmit queue into MAC PDUs of at most `grant_bytes`
    /// each, which replace the contents of `pdus` (on error, the ones built
    /// before it); with `bsr`, a short BSR reporting the buffer as it stood
    /// before each pull rides along (the uplink). Each MAC PDU is one
    /// buffer, sized once and built in the storage of the entry it replaces
    /// when nothing else holds that entry (`ran::pdu::reclaimed`): its
    /// subheaders go in first, then RLC writes its PDU behind them,
    /// ciphering the PDCP body as it goes.
    fn pull_mac_pdus(
        &mut self,
        grant_bytes: usize,
        bsr: bool,
        pdus: &mut Vec<Bytes>,
    ) -> Result<(), StackError> {
        // Room for the MAC subheaders: the data one at worst, plus the BSR.
        let bsr_len = if bsr { SHORT_BSR_SUBPDU_BYTES } else { 0 };
        let overhead = 3 + bsr_len;
        if grant_bytes <= overhead + 1 {
            pdus.clear();
            return Err(StackError::Mac(format!("grant {grant_bytes} B too small")));
        }
        // The L field is 16 bits: a larger grant carries its SDU in
        // segments of at most that much.
        let rlc_grant = (grant_bytes - overhead).min(usize::from(u16::MAX));
        let mut built = 0;
        let pulled = loop {
            let report = bsr.then(|| mac::encode_short_bsr(0, self.rlc.queued_bytes()));
            let spent = pdus.get_mut(built).map(std::mem::take).unwrap_or_default();
            let mac_pdu = |rlc_len: usize| {
                let mut pdu =
                    pdu::reclaimed(spent, bsr_len + mac::subheader_len(rlc_len) + rlc_len);
                if let Some(ce) = &report {
                    mac::put_subheader(&mut pdu, mac::lcid::SHORT_BSR, ce.len());
                    pdu.put_slice(ce);
                }
                mac::put_subheader(&mut pdu, PING_LCID, rlc_len);
                pdu
            };
            match self.rlc.pull_pdu_with(rlc_grant, mac_pdu) {
                Ok(Some(pdu)) => {
                    match pdus.get_mut(built) {
                        Some(slot) => *slot = pdu,
                        None => pdus.push(pdu),
                    }
                    built += 1;
                }
                Ok(None) => break Ok(()),
                Err(e) => break Err(StackError::Rlc(e.to_string())),
            }
        };
        pdus.truncate(built);
        pulled
    }

    /// MAC → RLC → PDCP → SDAP: walks one received MAC PDU up where it
    /// lies and appends `forward` of each completed payload, where it
    /// returns one, to `out`. The receive copy PDCP makes is made in
    /// `spare`'s storage when nothing else holds it
    /// ([`PdcpEntity::receive`]). A MAC PDU that does not parse reaches no
    /// entity, and on any error `out` is left as it was.
    fn rx(
        &mut self,
        mac_pdu: RxPdu<'_>,
        spare: &mut Bytes,
        out: &mut Vec<Bytes>,
        mut forward: impl FnMut(Bytes) -> Result<Option<Bytes>, StackError>,
    ) -> Result<(), StackError> {
        let mac_err = |e: mac::MacError| StackError::Mac(e.to_string());
        mac::subpdus(&mac_pdu).try_for_each(|sub| sub.map(drop)).map_err(mac_err)?;
        let start = out.len();
        let mut walk = || {
            for sub in mac::subpdus(&mac_pdu) {
                let (lcid, at) = sub.map_err(mac_err)?;
                if lcid != PING_LCID {
                    continue; // control elements
                }
                let sdu = self
                    .rlc
                    .receive(mac_pdu.slice(at))
                    .map_err(|e| StackError::Rlc(e.to_string()))?;
                let Some(pdcp_pdu) = sdu else {
                    continue; // a segment of an SDU still incomplete
                };
                self.sdap_pdus.clear();
                self.pdcp
                    .receive(pdcp_pdu, spare, &mut self.sdap_pdus)
                    .map_err(|e| StackError::Pdcp(e.to_string()))?;
                // Drained, not iterated: once SDAP has read its header the
                // payload is the only handle on its buffer, which is what
                // lets N3 write its header there.
                for s in self.sdap_pdus.drain(..) {
                    let (_h, payload) =
                        self.sdap.decode_pdu(&s).map_err(|e| StackError::Sdap(e.to_string()))?;
                    drop(s);
                    out.extend(forward(payload)?);
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

    /// Receive side of a re-establishment: a fresh RLC entity, and the
    /// encoded PDCP status report (TS 38.323 §6.2.3.1) that drives the
    /// peer's data recovery.
    fn reestablish_rx(&mut self) -> Bytes {
        self.rlc = self.rlc.reestablished();
        self.pdcp.status_report().encode()
    }

    /// Transmit side of a re-establishment: a fresh RLC entity, and PDCP
    /// data recovery against the peer's status report — every unconfirmed
    /// SDU framed again with its original COUNT — pulled into MAC PDUs.
    fn recover_tx(
        &mut self,
        status_report: &Bytes,
        grant_bytes: usize,
        bsr: bool,
    ) -> Result<Vec<Bytes>, StackError> {
        let report = ran::pdcp::PdcpStatusReport::decode(status_report)
            .map_err(|e| StackError::Pdcp(e.to_string()))?;
        self.rlc = self.rlc.reestablished();
        for pdcp_pdu in self.pdcp.recover(&report) {
            self.rlc.enqueue(pdcp_pdu);
        }
        let mut pdus = Vec::new();
        self.pull_mac_pdus(grant_bytes, bsr, &mut pdus)?;
        Ok(pdus)
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
    /// PDSCH: what [`receive_downlink`](Self::receive_downlink) receives on.
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

    /// [`encode_uplink`](Self::encode_uplink), the MAC PDUs replacing the
    /// contents of `pdus`, each built in the storage of the entry it
    /// replaces when nothing else holds that entry.
    pub fn encode_uplink_into(
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
        self.bearer.recover_tx(status_report, grant_bytes, true)
    }

    /// Downlink-bearer half of a re-establishment: re-establishes the RLC
    /// entity and produces the encoded PDCP status report
    /// (TS 38.323 §6.2.3.1) the gNB needs for its data recovery.
    pub fn reestablish_downlink(&mut self) -> Bytes {
        self.bearer.reestablish_rx()
    }

    /// Decodes a downlink MAC PDU; returns any application payloads
    /// completed by it.
    pub fn decode_downlink(&mut self, mac_pdu: &Bytes) -> Result<Vec<Bytes>, StackError> {
        let mut payloads = Vec::new();
        let mac_pdu = RxPdu::Shared(mac_pdu.clone());
        self.bearer.rx(mac_pdu, &mut Bytes::new(), &mut payloads, |p| Ok(Some(p)))?;
        Ok(payloads)
    }

    /// Demodulates downlink samples and walks the MAC PDU up where the PHY
    /// decoded it, appending the completed payloads to `payloads` (left as
    /// it was on error): the one copy a received block costs is the SDU
    /// PDCP deciphers into, made in `spare`'s storage when nothing else
    /// holds it.
    pub fn receive_downlink(
        &mut self,
        samples: &[Iq],
        spare: &mut Bytes,
        payloads: &mut Vec<Bytes>,
    ) -> Result<(), StackError> {
        let block = self.dl.decode(samples).map_err(|e| StackError::Phy(e.to_string()))?;
        self.bearer.rx(RxPdu::Borrowed(block), spare, payloads, |p| Ok(Some(p)))
    }

    /// Modulates an uplink MAC PDU to IQ samples, borrowed from the
    /// channel's buffer until the next call.
    pub fn phy_encode(&mut self, mac_pdu: &Bytes) -> &[Iq] {
        self.ul.encode(mac_pdu).0
    }

    /// Number of IQ samples an uplink MAC PDU of `bytes` bytes produces.
    pub(crate) fn phy_sample_count(&self, bytes: usize) -> usize {
        transport::sample_count(self.ul.config(), bytes)
    }
}

#[derive(Debug)]
struct UeContext {
    bearer: Bearer,
    session: Session,
    /// PDSCH: what [`GnbStack::phy_encode`] transmits on.
    dl: SharedChannel,
    /// PUSCH: what [`GnbStack::receive_uplink`] receives on.
    ul: SharedChannel,
}

/// Walks one uplink MAC PDU up `bearer`, its receive copy made in
/// `spare`'s storage when nothing else holds it; completed packets are
/// pushed through GTP-U on `ul_teid` to `upf` (the UPF's
/// [`uplink`](Upf::uplink)) and appended to `payloads` as data-network
/// payloads (left as it was on error).
fn walk_uplink(
    bearer: &mut Bearer,
    ul_teid: u32,
    mac_pdu: RxPdu<'_>,
    spare: &mut Bytes,
    payloads: &mut Vec<Bytes>,
    mut upf: impl FnMut(&Bytes) -> Result<UplinkOutcome, UpfError>,
) -> Result<(), StackError> {
    bearer.rx(mac_pdu, spare, payloads, |payload| {
        // N3: the G-PDU header goes in front of the payload, into the
        // spare bytes of its receive copy when it can (the SDU's spent PDCP
        // and SDAP headers and `RX_HEADROOM`), and the UPF decapsulates the
        // packet onto the data network.
        let n3 = GtpuHeader::gpdu(ul_teid).encapsulate(payload);
        match upf(&n3).map_err(|e| StackError::Core(e.to_string()))? {
            UplinkOutcome::Data { payload, .. } => Ok(Some(payload)),
            // Only G-PDUs are built above; echo responses belong to the
            // supervision path, not the data path.
            UplinkOutcome::EchoResponse(_) => Ok(None),
        }
    })
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
        let ctx = self.contexts.get_mut(&rnti).ok_or(StackError::UnknownRnti(rnti))?;
        let (bearer, ul_teid) = (&mut ctx.bearer, ctx.session.ul_teid);
        let (mac_pdu, spare) = (RxPdu::Shared(mac_pdu.clone()), &mut Bytes::new());
        walk_uplink(bearer, ul_teid, mac_pdu, spare, &mut payloads, |n3| self.upf.uplink(n3))?;
        Ok(payloads)
    }

    /// Demodulates uplink samples from `rnti` and walks the MAC PDU up
    /// where the PHY decoded it, appending the payloads to `payloads`
    /// (left as it was on error): the one copy a received block costs is
    /// the SDU PDCP deciphers into, made in `spare`'s storage when nothing
    /// else holds it.
    pub fn receive_uplink(
        &mut self,
        rnti: Rnti,
        samples: &[Iq],
        spare: &mut Bytes,
        payloads: &mut Vec<Bytes>,
    ) -> Result<(), StackError> {
        let ctx = self.contexts.get_mut(&rnti).ok_or(StackError::UnknownRnti(rnti))?;
        let block = ctx.ul.decode(samples).map_err(|e| StackError::Phy(e.to_string()))?;
        let (bearer, ul_teid) = (&mut ctx.bearer, ctx.session.ul_teid);
        let block = RxPdu::Borrowed(block);
        walk_uplink(bearer, ul_teid, block, spare, payloads, |n3| self.upf.uplink(n3))
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
        let (rnti, _) =
            self.encode_downlink_into(ue_addr, payload.clone(), grant_bytes, &mut pdus)?;
        Ok((rnti, pdus))
    }

    /// [`encode_downlink`](Self::encode_downlink) of a payload the caller
    /// hands over, the MAC PDUs replacing the contents of `pdus` (each
    /// built in the storage of the entry it replaces when nothing else
    /// holds that entry); returns the RNTI the
    /// reply was routed to and the payload as the N3 packet carried it.
    /// The N3 packet is the payload's own buffer when the payload is its
    /// only handle and has `GPDU_HEADER_LEN` spare bytes in front
    /// ([`Upf::encapsulate`]); the payload returned is then a view of the
    /// same bytes.
    pub fn encode_downlink_into(
        &mut self,
        ue_addr: u32,
        payload: Bytes,
        grant_bytes: usize,
        pdus: &mut Vec<Bytes>,
    ) -> Result<(Rnti, Bytes), StackError> {
        let n3 =
            self.upf.encapsulate(ue_addr, payload).map_err(|e| StackError::Core(e.to_string()))?;
        self.forward_downlink(&n3, grant_bytes, pdus)
    }

    /// The gNB's end of the downlink N3 tunnel: decapsulates `n3`, routes
    /// its payload by the DL TEID and walks it down SDAP→PDCP→RLC into MAC
    /// PDUs that replace the contents of `pdus`. Returns the RNTI and the
    /// payload.
    fn forward_downlink(
        &mut self,
        n3: &Bytes,
        grant_bytes: usize,
        pdus: &mut Vec<Bytes>,
    ) -> Result<(Rnti, Bytes), StackError> {
        let (gtp, inner) = GtpuHeader::decode(n3).map_err(|e| StackError::Core(e.to_string()))?;
        // Route by DL TEID back to the RNTI.
        let rnti = *self
            .dl_routes
            .get(&gtp.teid)
            .ok_or_else(|| StackError::Core(format!("no route for DL TEID {}", gtp.teid)))?;
        let bearer = &mut self.ctx(rnti)?.bearer;
        bearer.tx(&inner)?;
        bearer.pull_mac_pdus(grant_bytes, false, pdus)?;
        Ok((rnti, inner))
    }

    /// Stands in for the lower layers' acknowledgement of a delivered leg:
    /// the leg's sender (`ue` on the uplink, this gNB on the downlink)
    /// releases from its PDCP retransmission ring every SDU the receiver
    /// has delivered in order. Status-report recovery confirms up to the
    /// same edge before it retransmits, so it retransmits what it would
    /// have without this.
    pub fn acknowledge(&mut self, ue: &mut UeStack, dl: bool) -> Result<(), StackError> {
        let ctx = self.ctx(ue.rnti)?;
        let (tx, rx) =
            if dl { (&mut ctx.bearer, &ue.bearer) } else { (&mut ue.bearer, &ctx.bearer) };
        tx.pdcp.confirm_up_to(rx.pdcp.rx_deliv_count());
        Ok(())
    }

    /// Uplink-bearer half of a re-establishment for `rnti`: re-establishes
    /// the receive-side RLC entity and produces the encoded PDCP status
    /// report (TS 38.323 §6.2.3.1) that drives the UE's data recovery.
    pub fn reestablish_uplink(&mut self, rnti: Rnti) -> Result<Bytes, StackError> {
        Ok(self.ctx(rnti)?.bearer.reestablish_rx())
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
        self.ctx(rnti)?.bearer.recover_tx(status_report, grant_bytes, false)
    }

    /// Modulates a downlink MAC PDU for `rnti` to IQ samples, borrowed from
    /// that UE's channel buffer until the next call.
    pub fn phy_encode(&mut self, rnti: Rnti, mac_pdu: &Bytes) -> Result<&[Iq], StackError> {
        Ok(self.ctx(rnti)?.dl.encode(mac_pdu).0)
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
    use bytes::BytesMut;
    use corenet::gtpu::GPDU_HEADER_LEN;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use ran::mac::{MacPdu, MacSubPdu};
    use ran::pdcp::PdcpStatusReport;
    use ran::pdu::RX_HEADROOM;

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
        let kept = Bytes::from_static(b"kept");
        let mut delivered = vec![kept.clone()];
        gnb.receive_uplink(17, &samples, &mut Bytes::new(), &mut delivered).unwrap();
        assert_eq!(delivered, [kept.clone(), payload]);
        // A block the PHY cannot decode reaches no layer and adds nothing.
        let err = gnb.receive_uplink(17, &[], &mut Bytes::new(), &mut delivered).unwrap_err();
        assert!(matches!(err, StackError::Phy(_)), "{err}");
        assert_eq!(delivered.len(), 2);
        assert_eq!(
            gnb.receive_uplink(99, &samples, &mut Bytes::new(), &mut delivered),
            Err(StackError::UnknownRnti(99))
        );
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

    const KEY: u64 = 0xABCD;

    /// The byte path as it was before each leg got one buffer, kept
    /// statement for statement as the oracle: every layer builds its own
    /// PDU through the `Bytes` codecs, and the receive walk decodes a
    /// shared copy of the block.
    struct OldBearer {
        sdap: SdapEntity,
        pdcp: PdcpEntity,
        rlc: RlcUmEntity,
    }

    impl OldBearer {
        fn new(direction: Direction) -> OldBearer {
            let mut sdap = SdapEntity::new();
            sdap.map_flow(PING_QFI, PING_LCID);
            let pdcp = PdcpEntity::new(PdcpConfig::new(KEY, PING_LCID, direction));
            OldBearer { sdap, pdcp, rlc: RlcUmEntity::new() }
        }

        fn tx(&mut self, payload: &Bytes) -> Result<(), StackError> {
            let (_drb, sdap_pdu) = self
                .sdap
                .encode_pdu(PING_QFI, payload)
                .map_err(|e| StackError::Sdap(e.to_string()))?;
            let pdcp_pdu = self.pdcp.tx_encode(&sdap_pdu);
            self.rlc.tx_sdu(pdcp_pdu);
            Ok(())
        }

        fn pull_mac_pdus(
            &mut self,
            grant_bytes: usize,
            bsr: bool,
            pdus: &mut Vec<Bytes>,
        ) -> Result<(), StackError> {
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
                    let report =
                        MacSubPdu::new(mac::lcid::SHORT_BSR, mac::encode_short_bsr(0, queued));
                    MacPdu::new(vec![report, data]).encode(None)
                } else {
                    MacPdu::new(vec![data]).encode(None)
                };
                pdus.push(pdu.map_err(|e| StackError::Mac(e.to_string()))?);
            }
        }

        fn rx(&mut self, mac_pdu: &Bytes, out: &mut Vec<Bytes>) -> Result<(), StackError> {
            let mac_pdu = MacPdu::decode(mac_pdu).map_err(|e| StackError::Mac(e.to_string()))?;
            let start = out.len();
            let mut walk = || {
                for sub in &mac_pdu.subpdus {
                    if sub.lcid != PING_LCID {
                        continue; // control elements
                    }
                    let pdcp_pdus = self
                        .rlc
                        .rx_pdu(&sub.payload)
                        .map_err(|e| StackError::Rlc(e.to_string()))?;
                    for p in &pdcp_pdus {
                        let sdap_pdus =
                            self.pdcp.rx_decode(p).map_err(|e| StackError::Pdcp(e.to_string()))?;
                        for s in &sdap_pdus {
                            let (_h, payload) = self
                                .sdap
                                .decode_pdu(s)
                                .map_err(|e| StackError::Sdap(e.to_string()))?;
                            out.push(payload);
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

        fn reestablish_rx(&mut self) -> Bytes {
            self.rlc = self.rlc.reestablished();
            self.pdcp.status_report().encode()
        }

        fn recover_tx(
            &mut self,
            status_report: &Bytes,
            grant_bytes: usize,
            bsr: bool,
        ) -> Result<Vec<Bytes>, StackError> {
            let report = ran::pdcp::PdcpStatusReport::decode(status_report)
                .map_err(|e| StackError::Pdcp(e.to_string()))?;
            self.rlc = self.rlc.reestablished();
            for pdcp_pdu in self.pdcp.retransmit_unconfirmed(&report) {
                self.rlc.tx_sdu(pdcp_pdu);
            }
            let mut pdus = Vec::new();
            self.pull_mac_pdus(grant_bytes, bsr, &mut pdus)?;
            Ok(pdus)
        }
    }

    /// What a bearer's entities count, and the receive state a status
    /// report reveals.
    fn counters(pdcp: &PdcpEntity, rlc: &RlcUmEntity) -> ([u64; 9], PdcpStatusReport) {
        let counts = [
            u64::from(pdcp.tx_next_count()),
            pdcp.tx_pending() as u64,
            pdcp.retransmitted(),
            pdcp.discarded(),
            pdcp.buffered() as u64,
            rlc.queued_bytes() as u64,
            rlc.queued_sdus() as u64,
            rlc.delivered(),
            rlc.dropped_incomplete(),
        ];
        (counts, pdcp.status_report())
    }

    /// Brings a transmitting and a receiving PDCP entity to COUNT `start`
    /// the way the protocol would: one PDU per half window, each flushed
    /// past the gap it leaves.
    fn start_counts_at(tx: &mut PdcpEntity, rx: &mut PdcpEntity, direction: Direction, start: u32) {
        let mut edge = 0;
        while edge < start {
            let count = (edge + 2_000).min(start) - 1;
            let mut probe = PdcpEntity::new(PdcpConfig::new(KEY, PING_LCID, direction));
            probe.set_tx_next(count);
            rx.rx_decode(&probe.tx_encode(&Bytes::new())).unwrap();
            rx.flush_reordering();
            edge = count + 1;
        }
        tx.set_tx_next(start);
    }

    /// A payload of `len` bytes that differs from ping to ping.
    fn payload_of(len: usize, seed: u64) -> Bytes {
        (0..len).map(|i| (seed >> (8 * (i % 8))) as u8 ^ i as u8).collect()
    }

    /// One leg of the oracle pair: the new bearers transmit and receive,
    /// the old ones do the same, and every MAC PDU, every delivered
    /// payload and every counter must agree. Payloads are also checked
    /// against what was sent: each is delivered once, in order.
    struct Leg<'a> {
        tx: &'a mut Bearer,
        rx: &'a mut Bearer,
        old_tx: &'a mut OldBearer,
        old_rx: &'a mut OldBearer,
        bsr: bool,
        sent: &'a mut Vec<Bytes>,
        delivered: &'a mut usize,
    }

    impl Leg<'_> {
        fn pull(&mut self, grant: usize) -> Result<Vec<Bytes>, TestCaseError> {
            let (mut pdus, mut old_pdus) = (Vec::new(), Vec::new());
            let new = self.tx.pull_mac_pdus(grant, self.bsr, &mut pdus);
            let old = self.old_tx.pull_mac_pdus(grant, self.bsr, &mut old_pdus);
            prop_assert_eq!(new, old);
            prop_assert_eq!(&pdus, &old_pdus, "the MAC PDUs differ");
            Ok(pdus)
        }

        fn deliver(&mut self, pdus: &[Bytes], borrowed: bool) -> Result<(), TestCaseError> {
            for pdu in pdus {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let block =
                    if borrowed { RxPdu::Borrowed(&pdu[..]) } else { RxPdu::Shared(pdu.clone()) };
                let new = self.rx.rx(block, &mut Bytes::new(), &mut got, |p| Ok(Some(p)));
                let old = self.old_rx.rx(pdu, &mut want);
                prop_assert_eq!(new, old);
                prop_assert_eq!(&got, &want, "the delivered payloads differ");
                for p in got {
                    prop_assert_eq!(
                        Some(&p),
                        self.sent.get(*self.delivered),
                        "not the next payload sent"
                    );
                    *self.delivered += 1;
                }
            }
            Ok(())
        }

        fn send(&mut self, payload: Bytes, grant: usize) -> Result<Vec<Bytes>, TestCaseError> {
            prop_assert_eq!(self.tx.tx(&payload), self.old_tx.tx(&payload));
            self.sent.push(payload);
            self.pull(grant)
        }

        fn recover(&mut self, grant: usize, borrowed: bool) -> Result<(), TestCaseError> {
            let report = self.rx.reestablish_rx();
            prop_assert_eq!(&report, &self.old_rx.reestablish_rx());
            let new = self.tx.recover_tx(&report, grant, self.bsr);
            let old = self.old_tx.recover_tx(&report, grant, self.bsr);
            prop_assert_eq!(&new, &old, "the recovered MAC PDUs differ");
            self.deliver(&new.unwrap_or_default(), borrowed)
        }

        fn agree(&self) -> Result<(), TestCaseError> {
            prop_assert_eq!(
                counters(&self.tx.pdcp, &self.tx.rlc),
                counters(&self.old_tx.pdcp, &self.old_tx.rlc)
            );
            prop_assert_eq!(
                counters(&self.rx.pdcp, &self.rx.rlc),
                counters(&self.old_rx.pdcp, &self.old_rx.rlc)
            );
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn the_one_buffer_path_agrees_with_the_per_layer_chain(
            start in 0usize..4,
            steps in prop::collection::vec(
                (0u8..8, 0usize..1500, any::<bool>(), 16usize..1600, any::<u64>(), any::<bool>()),
                1..100,
            ),
        ) {
            let tel = Telemetry::disabled();
            let (mut ue, mut gnb) =
                (Bearer::new(KEY, Direction::Uplink, &tel), Bearer::new(KEY, Direction::Downlink, &tel));
            let (mut old_ue, mut old_gnb) =
                (OldBearer::new(Direction::Uplink), OldBearer::new(Direction::Downlink));
            // COUNT 0, or six short of the 12-bit SN wrap.
            let count = [0, 4_090][start % 2];
            start_counts_at(&mut ue.pdcp, &mut gnb.pdcp, Direction::Uplink, count);
            start_counts_at(&mut old_ue.pdcp, &mut old_gnb.pdcp, Direction::Uplink, count);
            start_counts_at(&mut gnb.pdcp, &mut ue.pdcp, Direction::Downlink, count);
            start_counts_at(&mut old_gnb.pdcp, &mut old_ue.pdcp, Direction::Downlink, count);
            let (mut sent, mut delivered) = ([Vec::new(), Vec::new()], [0usize; 2]);
            // RLC SN 0, or 60 segmented SDUs each way first, four short of
            // the 6-bit SN wrap.
            let warm_up = if start / 2 == 1 { 120 } else { 0 };
            let warm_up = (0..warm_up).map(|i| (i % 2, 30, true, 0, i as u64, i % 4 < 2));
            for (op, len, small, grant, seed, borrowed) in warm_up.chain(steps) {
                // Odd ops are uplink: the UE transmits, with a BSR.
                let ul = op % 2 == 1;
                // Small grants segment almost every payload, large ones some.
                let grant = if small { 16 + grant % 184 } else { grant };
                let [sent_ul, sent_dl] = &mut sent;
                let [delivered_ul, delivered_dl] = &mut delivered;
                let mut leg = if ul {
                    Leg { tx: &mut ue, rx: &mut gnb, old_tx: &mut old_ue, old_rx: &mut old_gnb,
                          bsr: true, sent: sent_ul, delivered: delivered_ul }
                } else {
                    Leg { tx: &mut gnb, rx: &mut ue, old_tx: &mut old_gnb, old_rx: &mut old_ue,
                          bsr: false, sent: sent_dl, delivered: delivered_dl }
                };
                match op / 2 {
                    // A ping whose blocks all arrive.
                    0 | 1 => {
                        let pdus = leg.send(payload_of(len, seed), grant)?;
                        leg.deliver(&pdus, borrowed)?;
                    }
                    // A ping lost on the air.
                    2 => drop(leg.send(payload_of(len, seed), grant)?),
                    // Re-establishment and PDCP data recovery.
                    _ => leg.recover(grant, borrowed)?,
                }
                leg.agree()?;
            }
        }
    }

    /// Where a buffer slot's storage starts, and how many bytes it has.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Storage {
        base: usize,
        cap: usize,
    }

    impl Storage {
        /// The storage of a buffer that starts `offset` bytes before `view`.
        fn of(view: &Bytes, offset: usize, cap: usize) -> Storage {
            Storage { base: view.as_ptr() as usize - offset, cap }
        }

        /// Whether `view` lies in this storage.
        fn holds(&self, view: &Bytes) -> bool {
            (self.base..=self.base + self.cap).contains(&(view.as_ptr() as usize))
        }
    }

    /// A slot's previous storage, if known, and whether refilling it may
    /// reuse that storage for `need` bytes: only when no clone the test
    /// holds lies in it, nothing in the stack holds it (`free`) and it has
    /// the room.
    fn reusable(
        was: Option<Storage>,
        held: &[(Bytes, Vec<u8>)],
        free: bool,
        need: usize,
    ) -> Option<bool> {
        was.map(|s| free && s.cap >= need && !held.iter().any(|(h, _)| s.holds(h)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn a_slot_is_reused_exactly_when_nothing_else_holds_it(
            steps in prop::collection::vec(
                (0u8..8, 0usize..600, any::<bool>(), 16usize..1200, any::<u64>(), 0u8..32),
                1..60,
            ),
        ) {
            let tel = Telemetry::disabled();
            let mut ends =
                [Bearer::new(KEY, Direction::Uplink, &tel), Bearer::new(KEY, Direction::Downlink, &tel)];
            let mut olds = [OldBearer::new(Direction::Uplink), OldBearer::new(Direction::Downlink)];
            // The walk's slots, indexed by direction (0 UL, 1 DL): the
            // payload (the DL one is the reply, built with room for the
            // G-PDU header), the MAC PDU lists, and the one delivered list,
            // whose first entry is the next receive copy's spare.
            let mut payload = [Bytes::new(), Bytes::new()];
            let mut payload_at: [Option<Storage>; 2] = [None, None];
            let mut count = [0u32; 2];
            let mut pdus: [Vec<Bytes>; 2] = [Vec::new(), Vec::new()];
            let mut pdus_at: [Vec<Storage>; 2] = [Vec::new(), Vec::new()];
            let mut delivered: Vec<Bytes> = Vec::new();
            let mut delivered_at: Option<Storage> = None;
            // What each sender's PDCP ring has released: everything below
            // the edge, and the COUNTs a status report said were received.
            let mut edge = [0u32; 2];
            let mut reported: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
            // Clones the test holds across later pings, with their bytes.
            let mut held: Vec<(Bytes, Vec<u8>)> = Vec::new();
            for (op, len, small, grant, seed, flags) in steps {
                let dl = usize::from(op % 2 == 0);
                let grant = if small { 16 + grant % 184 } else { grant };
                let [ue, gnb] = &mut ends;
                let (tx, rx) = if dl == 0 { (ue, gnb) } else { (gnb, ue) };
                let [old_ue, old_gnb] = &mut olds;
                let (old_tx, old_rx) = if dl == 0 { (old_ue, old_gnb) } else { (old_gnb, old_ue) };
                let bsr = dl == 0;
                if flags & 8 != 0 {
                    held.clear();
                }
                let sent = if op / 2 < 3 {
                    // The payload slot: free once the sender's ring let go.
                    let headroom = [0, GPDU_HEADER_LEN][dl];
                    let c = count[dl];
                    let free = c < edge[dl] || reported[dl].contains(&c);
                    let expect = reusable(payload_at[dl], &held, free, headroom + len);
                    let mut b = pdu::reclaimed(std::mem::take(&mut payload[dl]), headroom + len);
                    b.put_bytes(0, headroom);
                    b.put_slice(&payload_of(len, seed));
                    payload[dl] = b.freeze().slice(headroom..);
                    let now = Storage::of(&payload[dl], headroom, headroom + len);
                    let reused = payload_at[dl].is_some_and(|s| s.base == now.base);
                    if let Some(expect) = expect {
                        prop_assert_eq!(reused, expect, "the payload slot");
                    }
                    let cap = if reused { payload_at[dl].map_or(0, |s| s.cap) } else { now.cap };
                    payload_at[dl] = Some(Storage { cap, ..now });
                    count[dl] = tx.pdcp.tx_next_count();
                    prop_assert_eq!(tx.tx(&payload[dl]), old_tx.tx(&payload[dl]));
                    // The MAC PDU list: entry by entry, each free unless held.
                    let mut old_pdus = Vec::new();
                    let built = tx.pull_mac_pdus(grant, bsr, &mut pdus[dl]);
                    prop_assert_eq!(built, old_tx.pull_mac_pdus(grant, bsr, &mut old_pdus));
                    prop_assert_eq!(&pdus[dl], &old_pdus, "the MAC PDUs differ");
                    let was = std::mem::take(&mut pdus_at[dl]);
                    for (i, pdu) in pdus[dl].iter().enumerate() {
                        let expect = reusable(was.get(i).copied(), &held, true, pdu.len());
                        let reused = was.get(i).is_some_and(|s| s.base == pdu.as_ptr() as usize);
                        if let Some(expect) = expect {
                            prop_assert_eq!(reused, expect, "MAC PDU {}", i);
                        }
                        let cap = if reused { was[i].cap } else { pdu.len() };
                        pdus_at[dl].push(Storage::of(pdu, 0, cap));
                    }
                    if flags & 1 != 0 {
                        held.push((payload[dl].clone(), payload[dl].to_vec()));
                    }
                    if let Some(pdu) = pdus[dl].first().filter(|_| flags & 2 != 0) {
                        held.push((pdu.clone(), pdu.to_vec()));
                    }
                    (op / 2 < 2).then(|| pdus[dl].clone())
                } else {
                    // Re-establishment and PDCP data recovery.
                    let report = rx.reestablish_rx();
                    prop_assert_eq!(&report, &old_rx.reestablish_rx());
                    let decoded = PdcpStatusReport::decode(&report).unwrap();
                    edge[dl] = edge[dl].max(decoded.fmc);
                    reported[dl].extend(decoded.received);
                    let retx = tx.recover_tx(&report, grant, bsr);
                    prop_assert_eq!(&retx, &old_tx.recover_tx(&report, grant, bsr));
                    retx.ok()
                };
                let Some(sent) = sent else {
                    continue; // lost on the air
                };
                // The receive copy: one spare for the leg, the previous
                // delivery. A whole SDU is copied into it when it is free; a
                // segmented one is deciphered where RLC stitched it.
                let whole = op / 2 < 2 && sent.len() == 1;
                let need = RX_HEADROOM + 3 + len;
                let was = if delivered.is_empty() { None } else { delivered_at };
                let known = delivered.is_empty() || was.is_some();
                let expect = reusable(was, &held, true, need).filter(|_| whole);
                let mut spare = delivered.first_mut().map(std::mem::take).unwrap_or_default();
                delivered.clear();
                let mut want = Vec::new();
                for pdu in &sent {
                    let borrowed = seed & 4 == 0;
                    let block =
                        if borrowed { RxPdu::Borrowed(&pdu[..]) } else { RxPdu::Shared(pdu.clone()) };
                    let new = rx.rx(block, &mut spare, &mut delivered, |p| Ok(Some(p)));
                    prop_assert_eq!(new, old_rx.rx(pdu, &mut want));
                }
                prop_assert_eq!(&delivered, &want, "the delivered payloads differ");
                // A ping's leg delivers its own SDU or, behind a gap a lost
                // leg left, nothing; recovery's deliveries are not followed.
                delivered_at = None;
                if let [only] = &delivered[..] {
                    if op / 2 < 2 && known {
                        let offset = if whole { RX_HEADROOM + 3 } else { 3 };
                        let now = Storage::of(only, offset, if whole { need } else { 3 + len });
                        let reused = was.is_some_and(|s| s.base == now.base);
                        if let Some(expect) = expect {
                            prop_assert_eq!(reused, expect, "the receive copy");
                        }
                        let cap = if reused { was.map_or(0, |s| s.cap) } else { now.cap };
                        delivered_at = Some(Storage { cap, ..now });
                    }
                }
                if let Some(d) = delivered.first().filter(|_| flags & 4 != 0) {
                    held.push((d.clone(), d.to_vec()));
                }
                if flags & 16 != 0 {
                    // The walk's stand-in for the lower layers' ack.
                    let delivery_edge = rx.pdcp.rx_deliv_count();
                    tx.pdcp.confirm_up_to(delivery_edge);
                    old_tx.pdcp.confirm_up_to(delivery_edge);
                    edge[dl] = edge[dl].max(delivery_edge);
                }
                // No held clone ever changes, and both paths keep count alike.
                for (clone, bytes) in &held {
                    prop_assert_eq!(&clone[..], &bytes[..], "a held clone changed");
                }
                prop_assert_eq!(counters(&tx.pdcp, &tx.rlc), counters(&old_tx.pdcp, &old_tx.rlc));
                prop_assert_eq!(counters(&rx.pdcp, &rx.rlc), counters(&old_rx.pdcp, &old_rx.rlc));
            }
        }
    }

    /// One lie a corrupted or hostile sender might tell in a valid MAC PDU
    /// whose data subheader starts at `data_at`.
    fn mutate(pdu: &Bytes, data_at: usize, (kind, at, value): (u8, usize, u16)) -> Bytes {
        let mut b = pdu.to_vec();
        let n = b.len();
        match kind {
            // A bit flip anywhere.
            0 if n > 0 => b[at % n] ^= 1 << (value % 8),
            // A truncation.
            1 => b.truncate(at % (n + 1)),
            // A lie in the data subPDU's L field.
            2 if n > data_at + 2 => {
                let l = data_at + 1;
                if b[data_at] & 0x40 != 0 {
                    b[l..l + 2].copy_from_slice(&value.to_be_bytes());
                } else {
                    b[l] = value as u8;
                }
            }
            // A lie in the RLC SO field, on a segment or on a whole SDU
            // made to claim it is one.
            3 => {
                let rlc = data_at + if b[data_at] & 0x40 != 0 { 3 } else { 2 };
                if n >= rlc + 3 {
                    if b[rlc] >> 6 == 0b00 || value & 1 == 1 {
                        b[rlc] = (b[rlc] & 0x3F) | if value & 2 == 0 { 0xC0 } else { 0x80 };
                    }
                    b[rlc + 1..rlc + 3].copy_from_slice(&value.to_be_bytes());
                }
            }
            _ => {}
        }
        Bytes::from(b)
    }

    fn snapshot(bearer: &Bearer) -> (String, String) {
        (format!("{:?}", bearer.pdcp), format!("{:?}", bearer.rlc))
    }

    proptest! {
        #![proptest_config(ProptestConfig::cases_from_env_or(128))]
        #[test]
        fn a_hostile_mac_pdu_is_rejected_with_a_typed_error_before_the_layers_above(
            len in 0usize..1500,
            grant in (any::<bool>(), 16usize..1600),
            mutation in (0u8..4, any::<usize>(), any::<u16>()),
            victim in any::<usize>(),
            ul in any::<bool>(),
            borrowed in any::<bool>(),
        ) {
            let (mut ue, mut gnb) = attach_pair();
            let grant = if grant.0 { 16 + grant.1 % 184 } else { grant.1 };
            // A few clean pings first, so every entity holds state.
            for i in 0..3 {
                for pdu in ue.encode_uplink(&payload_of(40, i), 256).unwrap() {
                    gnb.decode_uplink(17, &pdu).unwrap();
                }
            }
            let payload = payload_of(len, victim as u64);
            let pdus = if ul {
                ue.encode_uplink(&payload, grant).unwrap()
            } else {
                gnb.encode_downlink(0x0A00_0001, &payload, grant).unwrap().1
            };
            let victim = victim % pdus.len();
            let sentinel = Bytes::from_static(b"already delivered");
            for (i, pdu) in pdus.iter().enumerate() {
                let wire = if i == victim {
                    mutate(pdu, if ul { SHORT_BSR_SUBPDU_BYTES } else { 0 }, mutation)
                } else {
                    pdu.clone()
                };
                let sent = wire.to_vec();
                let receiver = |ue: &UeStack, gnb: &GnbStack| {
                    if ul { snapshot(&gnb.contexts[&17].bearer) } else { snapshot(&ue.bearer) }
                };
                let (pdcp_before, rlc_before) = receiver(&ue, &gnb);
                let mut out = vec![sentinel.clone()];
                let result = match (ul, borrowed) {
                    (true, true) => {
                        let samples = ue.phy_encode(&wire).to_vec();
                        gnb.receive_uplink(17, &samples, &mut Bytes::new(), &mut out)
                    }
                    (true, false) => gnb.decode_uplink(17, &wire).map(|p| out.extend(p)),
                    (false, true) => {
                        let samples = gnb.phy_encode(17, &wire).unwrap().to_vec();
                        ue.receive_downlink(&samples, &mut Bytes::new(), &mut out)
                    }
                    (false, false) => ue.decode_downlink(&wire).map(|p| out.extend(p)),
                };
                prop_assert_eq!(&wire[..], &sent[..], "a caller's block was written to");
                prop_assert_eq!(&out[0], &sentinel);
                if let Err(e) = result {
                    prop_assert_eq!(out.len(), 1, "a failed walk delivered");
                    let (pdcp_after, rlc_after) = receiver(&ue, &gnb);
                    if matches!(e, StackError::Mac(_)) {
                        prop_assert_eq!(&rlc_before, &rlc_after, "RLC moved past a MAC error");
                    }
                    if matches!(e, StackError::Mac(_) | StackError::Rlc(_)) {
                        prop_assert_eq!(&pdcp_before, &pdcp_after, "PDCP moved past {}", e);
                    }
                }
            }
        }
    }

    /// The data-network address `attach_pair` gives the UE.
    const UE_ADDR: u32 = 0x0A00_0001;

    /// `payload` as a server hands it to the UPF: in a buffer of its own,
    /// behind room for the G-PDU header.
    fn reply_of(payload: &[u8]) -> Bytes {
        let mut b = BytesMut::with_capacity(GPDU_HEADER_LEN + payload.len());
        b.put_bytes(0, GPDU_HEADER_LEN);
        b.put_slice(payload);
        b.freeze().slice(GPDU_HEADER_LEN..)
    }

    #[test]
    fn the_receive_copys_headroom_covers_the_g_pdu_header() {
        // When N3 gets a payload, the PDCP and SDAP headers in front of it
        // in the receive copy are spent: with `RX_HEADROOM` they must make
        // room for the header `GtpuHeader::encapsulate` writes there.
        let payload = Bytes::from_static(b"p");
        let mut tx = OldBearer::new(Direction::Uplink);
        let (_, sdap_pdu) = tx.sdap.encode_pdu(PING_QFI, &payload).unwrap();
        let spent = tx.pdcp.tx_encode(&sdap_pdu).len() - payload.len();
        let g_pdu = GtpuHeader::gpdu(1).encode(&payload).len() - payload.len();
        assert_eq!(g_pdu, GPDU_HEADER_LEN);
        assert!(RX_HEADROOM + spent >= g_pdu, "{RX_HEADROOM} + {spent} B of room, {g_pdu} needed");
    }

    #[test]
    fn an_n3_packet_is_the_buffer_its_payload_already_lives_in() {
        let (mut ue, mut gnb) = attach_pair();
        let payload = payload_of(64, 7);
        let ctx = gnb.contexts.get_mut(&17).unwrap();
        let teid = ctx.session.ul_teid;
        // Uplink, whole SDU and segmented: the payload the receive walk
        // delivers is its buffer's only handle. In the copy PDCP deciphered
        // a whole SDU into, the G-PDU header fits in front of it; an SDU RLC
        // reassembled, deciphered where it was stitched, has no room, and
        // its N3 packet is a copy with the same bytes.
        for (grant, in_place) in [(256, true), (64, false)] {
            let mut out = Vec::new();
            for pdu in ue.encode_uplink(&payload, grant).unwrap() {
                let n3 = |p: Bytes| {
                    let at = p.as_ptr();
                    let n3 = GtpuHeader::gpdu(teid).encapsulate(p);
                    assert_eq!(n3[GPDU_HEADER_LEN..].as_ptr() == at, in_place, "grant {grant}");
                    Ok(Some(n3))
                };
                ctx.bearer.rx(RxPdu::Borrowed(&pdu), &mut Bytes::new(), &mut out, n3).unwrap();
            }
            assert_eq!(out, [GtpuHeader::gpdu(teid).encode(&payload)]);
        }
        // Downlink: the reply is handed over with room in front, and the
        // payload the N3 packet carries is still where the server put it.
        let reply = reply_of(&payload);
        let at = reply.as_ptr();
        let mut pdus = Vec::new();
        let (rnti, carried) = gnb.encode_downlink_into(UE_ADDR, reply, 256, &mut pdus).unwrap();
        assert_eq!((rnti, carried.as_ptr()), (17, at), "the DL N3 packet is the reply's buffer");
        assert_eq!(ue.decode_downlink(&pdus[0]).unwrap(), std::slice::from_ref(&payload));
        // A reply someone else still holds is copied, and delivered alike.
        let held = reply_of(&payload);
        let (_, carried) = gnb.encode_downlink_into(UE_ADDR, held.clone(), 256, &mut pdus).unwrap();
        assert_ne!(carried.as_ptr(), held.as_ptr());
        assert_eq!(ue.decode_downlink(&pdus[0]).unwrap(), [held]);
    }

    #[test]
    fn an_acknowledged_leg_releases_the_senders_retransmission_ring() {
        let (mut ue, mut gnb) = attach_pair();
        for i in 0..4 {
            for pdu in ue.encode_uplink(&payload_of(40, i), 256).unwrap() {
                gnb.decode_uplink(17, &pdu).unwrap();
            }
        }
        let lost = payload_of(40, 9);
        drop(ue.encode_uplink(&lost, 256).unwrap());
        assert_eq!(ue.bearer.pdcp.tx_pending(), 5);
        gnb.acknowledge(&mut ue, false).unwrap();
        assert_eq!(ue.bearer.pdcp.tx_pending(), 1, "all but the SDU the gNB has not delivered");
        // Recovery retransmits what it would have without the ack.
        let report = gnb.reestablish_uplink(17).unwrap();
        let retx = ue.recover_uplink(&report, 256).unwrap();
        let got: Vec<Bytes> = retx.iter().flat_map(|p| gnb.decode_uplink(17, p).unwrap()).collect();
        assert_eq!(got, [lost]);

        let (_, pdus) = gnb.encode_downlink(UE_ADDR, &payload_of(40, 1), 256).unwrap();
        assert_eq!(gnb.contexts[&17].bearer.pdcp.tx_pending(), 1);
        gnb.acknowledge(&mut ue, true).unwrap();
        assert_eq!(gnb.contexts[&17].bearer.pdcp.tx_pending(), 1, "not delivered yet");
        ue.decode_downlink(&pdus[0]).unwrap();
        gnb.acknowledge(&mut ue, true).unwrap();
        assert_eq!(gnb.contexts[&17].bearer.pdcp.tx_pending(), 0);
        let stranger = &mut UeStack::new(99, KEY);
        assert_eq!(gnb.acknowledge(stranger, true), Err(StackError::UnknownRnti(99)));
    }

    /// Delivers uplink MAC PDUs to the gNB, as a borrowed block or a shared
    /// one, appending the UPF's payloads to `out` and every N3 packet the
    /// walk built to `n3`.
    fn ul_deliver(
        gnb: &mut GnbStack,
        pdus: &[Bytes],
        borrowed: bool,
        out: &mut Vec<Bytes>,
        n3: &mut Vec<Bytes>,
    ) -> Result<(), StackError> {
        let ctx = gnb.contexts.get_mut(&17).unwrap();
        let upf = &mut gnb.upf;
        for pdu in pdus {
            let block =
                if borrowed { RxPdu::Borrowed(&pdu[..]) } else { RxPdu::Shared(pdu.clone()) };
            walk_uplink(
                &mut ctx.bearer,
                ctx.session.ul_teid,
                block,
                &mut Bytes::new(),
                out,
                |packet| {
                    n3.push(packet.clone());
                    upf.uplink(packet)
                },
            )?;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn every_n3_packet_built_in_place_is_the_g_pdu_encode_builds(
            wrap in any::<bool>(),
            steps in prop::collection::vec(
                (0u8..8, 0usize..1500, any::<bool>(), 16usize..1600, any::<u64>(), any::<bool>()),
                1..60,
            ),
        ) {
            let (mut ue, mut gnb) = attach_pair();
            if wrap {
                // COUNT six short of the 12-bit SN wrap, both ways.
                let gnb_pdcp = &mut gnb.contexts.get_mut(&17).unwrap().bearer.pdcp;
                start_counts_at(&mut ue.bearer.pdcp, gnb_pdcp, Direction::Uplink, 4_090);
                start_counts_at(gnb_pdcp, &mut ue.bearer.pdcp, Direction::Downlink, 4_090);
            }
            let session = gnb.contexts[&17].session;
            let [mut sent_ul, mut sent_dl] = [Vec::new(), Vec::new()];
            let [mut got_ul, mut got_dl] = [Vec::new(), Vec::new()];
            let mut n3_ul = Vec::new();
            for (op, len, small, grant, seed, flag) in steps {
                // Small grants segment almost every payload, large ones some.
                let grant = if small { 16 + grant % 184 } else { grant };
                let (ul, lost, borrowed, ack) = (op % 2 == 1, op / 2 == 2, seed & 1 == 1, seed & 2 == 0);
                let payload = payload_of(len, seed);
                let pdus = match (op / 2, ul) {
                    // A ping, delivered or lost on the air.
                    (0..=2, true) => {
                        sent_ul.push(payload.clone());
                        ue.encode_uplink(&payload, grant).unwrap()
                    }
                    (0..=2, false) => {
                        // The reply as the server hands it over, or with a
                        // clone still held, which the tunnel must copy.
                        let reply = reply_of(&payload);
                        let held = flag.then(|| reply.clone());
                        let at = reply.as_ptr();
                        let n3 = gnb.upf.encapsulate(UE_ADDR, reply).unwrap();
                        prop_assert_eq!(&n3, &GtpuHeader::gpdu(session.dl_teid).encode(&payload));
                        prop_assert_eq!(n3[GPDU_HEADER_LEN..].as_ptr() == at, held.is_none());
                        let mut pdus = Vec::new();
                        let (rnti, carried) = gnb.forward_downlink(&n3, grant, &mut pdus).unwrap();
                        prop_assert_eq!((rnti, &carried), (17, &payload));
                        sent_dl.push(payload);
                        pdus
                    }
                    // Re-establishment and PDCP data recovery.
                    (_, true) => {
                        let report = gnb.reestablish_uplink(17).unwrap();
                        ue.recover_uplink(&report, grant).unwrap()
                    }
                    (_, false) => {
                        let report = ue.reestablish_downlink();
                        gnb.recover_downlink(17, &report, grant).unwrap()
                    }
                };
                if lost {
                    continue;
                }
                if ul {
                    ul_deliver(&mut gnb, &pdus, borrowed, &mut got_ul, &mut n3_ul).unwrap();
                } else {
                    for pdu in &pdus {
                        if borrowed {
                            let samples = gnb.phy_encode(17, pdu).unwrap().to_vec();
                            ue.receive_downlink(&samples, &mut Bytes::new(), &mut got_dl).unwrap();
                        } else {
                            got_dl.extend(ue.decode_downlink(pdu).unwrap());
                        }
                    }
                }
                // The walk's stand-in for the lower layers' ack, on some legs.
                if ack {
                    gnb.acknowledge(&mut ue, !ul).unwrap();
                }
                // Each end delivers what was sent, once and in order, and
                // each uplink N3 packet is the G-PDU of what it delivered.
                prop_assert_eq!(&got_ul[..], &sent_ul[..got_ul.len()]);
                prop_assert_eq!(&got_dl[..], &sent_dl[..got_dl.len()]);
                // Data recovery retransmits every SDU the receiver lacks.
                if op / 2 == 3 {
                    let (got, sent) = if ul { (&got_ul, &sent_ul) } else { (&got_dl, &sent_dl) };
                    prop_assert_eq!(got.len(), sent.len(), "recovery left an SDU behind");
                }
                prop_assert_eq!(n3_ul.len(), got_ul.len());
                for (n3, payload) in n3_ul.iter().zip(&got_ul) {
                    prop_assert_eq!(n3, &GtpuHeader::gpdu(session.ul_teid).encode(payload));
                }
            }
        }
    }
}
