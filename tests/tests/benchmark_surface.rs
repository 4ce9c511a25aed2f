//! Compile-only pin of the library surface `benchmark/` is built against.
//!
//! `benchmark/` is a workspace of its own and its sources are frozen
//! between benchmark PRs, so tier-1 (`cargo test -q`) never builds it: a
//! refactor that removes, narrows or re-types a name it imports used to
//! fail only in the benchmark pipeline. Every name
//! `benchmark/src/{workloads,layers,main}.rs` import is imported here
//! under the same path, and the engine entry points are called with the
//! argument types the benchmark passes. No engine is run.

use bytes::Bytes;
use phy::crc::CRC24A;
use phy::modulation::{Iq, Modulation};
use phy::scrambling::GoldSequence;
use phy::transport::{self, ShChConfig};
use ran::mac::{MacPdu, MacSubPdu};
use ran::pdcp::{Direction, PdcpConfig, PdcpEntity};
use ran::rlc::am::AmConfig;
use ran::rlc::{RlcAmEntity, RlcUmEntity};
use ran::sched::{AccessMode, PolicySpec, RequestTag, SchedItem, Scheduler, Slice, SliceShares};
use ran::SdapEntity;
use sim::{
    ArrivalGen, ArrivalProcess, Dist, Duration, EventQueue, FaultPlan, Instant, LatencyRecorder,
    LogLinearHistogram, Recording, SimRng,
};
use stack::{
    run_multicell, run_parallel, run_parallel_opts, run_sched_lab, ExperimentResult, GnbStack,
    MobilityConfig, MultiUeConfig, MulticellConfig, NullHook, OverloadConfig, SchedLabConfig,
    StackConfig, UeStack,
};
use telemetry::{
    EventJournal, ExemplarOutcome, ExemplarSpan, FlightRecorder, JournalEvent, Profiler,
    TailExemplar, Telemetry, DEFAULT_FORCED_CAP, DEFAULT_WORST_K,
};

/// Names a type without building a value of it.
fn named<T>() {}

#[test]
fn the_names_the_benchmark_imports_resolve_with_the_types_it_passes() {
    // Types the benchmark only names, constructs or calls methods on.
    named::<(Bytes, Iq, Modulation, GoldSequence, ShChConfig)>();
    named::<(MacPdu, MacSubPdu, Direction, PdcpConfig, PdcpEntity, AmConfig)>();
    named::<(RlcAmEntity, RlcUmEntity, SdapEntity, AccessMode, PolicySpec, RequestTag)>();
    named::<(SchedItem, Scheduler, Slice, SliceShares, ArrivalGen, ArrivalProcess, Dist)>();
    named::<(FaultPlan, LatencyRecorder, LogLinearHistogram, Recording)>();
    named::<(GnbStack, UeStack, NullHook, EventJournal, ExemplarOutcome, ExemplarSpan)>();
    named::<(FlightRecorder, JournalEvent, TailExemplar, stack::CellReport)>();
    named::<(corenet::GtpuHeader, radio::RadioHead, radio::RadioHeadConfig)>();
    named::<(urllc_core::ProcessingBudget, urllc_core::DesignSearch)>();
    let _: (usize, usize, u64) = (DEFAULT_WORST_K, DEFAULT_FORCED_CAP, stack::BATCH_PINGS);
    let _: fn(&[u8]) -> u32 = |block| CRC24A.compute(block);
    let _: fn(ShChConfig, &[u8]) -> (Vec<Iq>, usize) = transport::encode;
    let _: fn(usize) = sim::parallel::set_jobs;
    let _: Vec<usize> = sim::parallel::run_shards_with(2, 0, |i| i);
    let _: fn(&StackConfig, usize) -> f64 = stack::service_capacity_pps;
    let _: fn(bool, &[f64], u64, u64) -> Vec<_> = stack::coexistence_sweep;

    // The engine entry points, argument for argument as the benchmark
    // calls them. Type-checked only: the closure is never called.
    let _engine_calls = |cfg: &StackConfig,
                         pings: u64,
                         tel: &Telemetry,
                         prof: &Profiler,
                         rng: &SimRng,
                         overload: &OverloadConfig,
                         mobility: &MobilityConfig,
                         multi_ue: &MultiUeConfig,
                         lab: &SchedLabConfig,
                         city: &MulticellConfig| {
        let _: ExperimentResult = run_parallel(cfg, pings);
        let _: ExperimentResult = run_parallel_opts(cfg, pings, 0usize, Some(tel));
        let _: ExperimentResult =
            stack::run_parallel_profiled(cfg, pings, 3, Some(tel), Some(prof));
        let _: ExperimentResult = stack::run_parallel_workers(cfg, pings, 3, None, 2usize);
        let r = stack::run_overload(overload, rng, &mut NullHook, &Telemetry::disabled());
        let _: (bool, u64) = (r.conserved(), r.offered);
        let r = stack::run_mobility(mobility, None);
        let _: (bool, u64) = (r.conserved(), r.offered);
        let _: Result<u64, String> =
            stack::run_multi_ue(multi_ue).map(|r| r.ul.count()).map_err(|e| e.to_string());
        let _: u64 = run_sched_lab(lab).iter().flat_map(|p| &p.classes).map(|c| c.count).sum();
        let _: Result<u64, String> = run_multicell(city)
            .map(|r| r.cells.iter().map(stack::CellReport::offered).sum())
            .map_err(|e| e.to_string());
        let at: Instant = cfg.duplex.slot_start(1u64) - Duration::from_micros(1);
        // The event-queue layer figure: a `u32` payload pushed and popped.
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(at, 7u32);
        let _: Option<(Instant, u32)> = q.pop();
        let zero = urllc_core::ProcessingBudget::zero();
        let _ = urllc_core::feasibility_table(&zero);
    };

    // The codecs the layer figures time, argument for argument: each is the
    // `Bytes`-returning wrapper over its layer's one core.
    let _codec_calls = |data: &Bytes| {
        let mut pdcp = PdcpEntity::new(PdcpConfig::new(7u64, 1u8, Direction::Uplink));
        let _: Bytes = pdcp.tx_encode(data);
        let _: Result<Vec<Bytes>, String> = pdcp.rx_decode(data).map_err(|e| e.to_string());
        let _: (usize, u32) = (pdcp.tx_pending(), pdcp.tx_next_count());
        pdcp.confirm_up_to(0u32);
        let mut rlc = RlcUmEntity::new();
        rlc.tx_sdu(data.clone());
        let _: Result<Option<Bytes>, String> = rlc.pull_pdu(128usize).map_err(|e| e.to_string());
        let _: Result<Vec<Bytes>, String> = rlc.rx_pdu(data).map_err(|e| e.to_string());
        let mac = MacPdu::new(vec![MacSubPdu::new(1u8, data.clone())]);
        let _: Result<Bytes, String> = mac.encode(None).map_err(|e| e.to_string());
        let _: Result<MacPdu, String> = MacPdu::decode(data).map_err(|e| e.to_string());
        let mut sdap = SdapEntity::new();
        sdap.map_flow(1u8, 1u8);
        let _: Result<(u8, Bytes), String> = sdap.encode_pdu(1u8, data).map_err(|e| e.to_string());
        let _: Result<Bytes, String> =
            sdap.decode_pdu(data).map(|(_, sdu)| sdu).map_err(|e| e.to_string());
        let gtpu = corenet::GtpuHeader::gpdu(0x1001u32);
        let _: Bytes = gtpu.encode(data);
        let _: Result<Bytes, String> =
            corenet::GtpuHeader::decode(data).map(|(_, p)| p).map_err(|e| e.to_string());
        let (mut ue, mut gnb) = (UeStack::new(17u16, 0xABCDu64), GnbStack::new());
        gnb.attach_ue(17u16, 0xABCDu64, 0x0A00_0001u32);
        let _: Result<Vec<Bytes>, String> =
            ue.encode_uplink(data, 128usize).map_err(|e| e.to_string());
        let _: Result<Vec<Bytes>, String> =
            gnb.decode_uplink(17u16, data).map_err(|e| e.to_string());
        let _: Result<(u16, Vec<Bytes>), String> =
            gnb.encode_downlink(0x0A00_0001u32, data, 918usize).map_err(|e| e.to_string());
        let _: Result<Vec<Bytes>, String> = ue.decode_downlink(data).map_err(|e| e.to_string());
    };

    // The telemetry the layer figures time and the lit workload reads: the
    // string-keyed handle calls, the journal ring, the flight recorder and
    // the host profiler.
    let _: fn(&Telemetry, &'static str, &'static str, u64) = Telemetry::count;
    let _: fn(&Telemetry, &'static str, &'static str, Duration) = Telemetry::record;
    let _telemetry_calls = |tel: &Telemetry,
                            journal: &mut EventJournal,
                            flight: &mut FlightRecorder,
                            prof: &Profiler,
                            event: JournalEvent| {
        let _: usize = tel.snapshot().len();
        let _: Vec<JournalEvent> = tel.journal_events();
        let _: Vec<TailExemplar> = tel.flight_exemplars();
        journal.push(event);
        // Every field, as the flight-insert figure builds its exemplars.
        let spans = vec![ExemplarSpan {
            label: "hop",
            dl: false,
            start: Instant::ZERO,
            end: Instant::ZERO,
        }];
        let exemplar = TailExemplar {
            ping: 1u64,
            rtt: Duration::from_nanos(3_000_000),
            outcome: ExemplarOutcome::OnTime,
            fault: None,
            fault_extra: Vec::new(),
            drop_reason: None,
            max_queue_depth: 1usize,
            sched_rounds: 2,
            spans,
        };
        flight.observe(exemplar, false);
        drop(prof.scope("hop"));
        let _: Option<f64> = prof.snapshot().iter().find(|s| s.stage == "hop").map(|s| s.total_ms);
    };
}
