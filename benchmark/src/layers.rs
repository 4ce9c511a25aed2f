//! The per-layer figures of the traced pass: the benchmark's own loops
//! around public calls into each layer, one span per loop. Nothing here
//! feeds an end-to-end metric.

use std::time::{Duration as HostDuration, Instant as HostInstant};

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
    ArrivalGen, ArrivalProcess, Dist, Duration, EventQueue, Instant, LatencyRecorder, Recording,
    SimRng,
};
use stack::{
    GnbStack, MobilityConfig, MultiUeConfig, MulticellConfig, NullHook, OverloadConfig,
    SchedLabConfig, StackConfig, UeStack,
};
use telemetry::{
    EventJournal, ExemplarOutcome, ExemplarSpan, FlightRecorder, JournalEvent, Profiler,
    TailExemplar, Telemetry, DEFAULT_FORCED_CAP, DEFAULT_WORST_K,
};

use crate::measure::{time_calls, time_op};
use crate::metrics::{CHAOS_HOPS, PIPELINE_HOPS};
use crate::trace::Tracer;
use crate::workloads::{ping_config, QUICK_DIVISOR};
use crate::ALLOC;

/// Payload sizes of the `b64` / `b1000` figures, and the ping workload
/// each stands for.
const SIZES: [(&str, usize, &str); 2] = [("b64", 64, "ping_small"), ("b1000", 1000, "ping_large")];

/// A grant that never forces segmentation.
const BIG_GRANT: usize = 1 << 12;

/// A profiled or two-worker pass runs a third of a repetition, which
/// still gives every hop thousands of samples.
const PROFILE_DIVISOR: u64 = 3;

struct Layers<'a> {
    tr: &'a mut Tracer,
    /// Host time each micro-benchmark may spend.
    budget: HostDuration,
    seed: u64,
    /// Divides the size of every engine call (`--quick`).
    div: u64,
    out: Vec<(String, f64)>,
}

/// Runs every per-layer loop and returns `(metric name, value)` in the
/// order measured. `budget` is the host time per micro-benchmark; `quick`
/// shrinks the engine calls as it shrinks the workloads.
pub fn measure_all(
    tr: &mut Tracer,
    budget: HostDuration,
    seed: u64,
    quick: bool,
) -> Result<Vec<(String, f64)>, String> {
    let div = if quick { QUICK_DIVISOR } else { 1 };
    let mut l = Layers { tr, budget, seed, div, out: Vec::new() };
    l.phy();
    l.ran_codecs();
    l.ran_sched();
    l.corenet_radio();
    l.sim();
    l.telemetry();
    l.core();
    l.stack_node()?;
    l.stack_pipeline()?;
    l.stack_engines()?;
    Ok(l.out)
}

fn payload(len: usize) -> Bytes {
    Bytes::from((0..len).map(|i| (i as u8).wrapping_mul(31) ^ 0xA5).collect::<Vec<u8>>())
}

/// Distinct inputs a data-dependent micro-benchmark cycles through.
const RING: usize = 64;

/// [`RING`] blocks of `len` pseudo-random bytes.
fn random_blocks(len: usize) -> Vec<Bytes> {
    let mut lcg = Lcg(len as u64);
    (0..RING).map(|_| (0..len).map(|_| lcg.next() as u8).collect()).collect()
}

/// A cheap deterministic sequence for loop inputs that must vary.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 =
            self.0.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
}

/// Times `op` on `n` inputs that `prepare` builds off the clock, a chunk at
/// a time so the prepared inputs stay small. The inputs are also dropped
/// off the clock.
fn time_prepared<T>(
    n: u64,
    chunk: usize,
    mut prepare: impl FnMut() -> T,
    mut op: impl FnMut(&mut T),
) -> HostDuration {
    let mut total = HostDuration::ZERO;
    let mut left = n;
    let mut batch = Vec::with_capacity(chunk);
    while left > 0 {
        let k = left.min(chunk as u64);
        batch.extend((0..k).map(|_| prepare()));
        let start = HostInstant::now();
        for input in &mut batch {
            op(input);
        }
        total += start.elapsed();
        batch.clear();
        left -= k;
    }
    total
}

impl Layers<'_> {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.out.push((name.into(), value));
    }

    /// One micro-benchmark in its own span; returns ns/op.
    fn timed(&mut self, name: &str, mut run: impl FnMut(u64) -> HostDuration) -> f64 {
        self.tr.enter(name);
        let ns_per_op = time_op(self.budget, &mut run);
        self.tr.exit();
        ns_per_op
    }

    /// Times a micro-benchmark and records its ns/op under `name`.
    fn op(&mut self, name: &str, run: impl FnMut(u64) -> HostDuration) -> f64 {
        let ns = self.timed(name, run);
        self.put(name, ns);
        ns
    }

    /// As [`op`](Self::op) for operations slow enough to report in µs.
    fn op_us(&mut self, name: &str, run: impl FnMut(u64) -> HostDuration) {
        let ns = self.timed(name, run);
        self.put(name, ns / 1e3);
    }

    /// One engine call in its own span; records host ns per unit of work.
    fn engine(
        &mut self,
        name: &str,
        run: impl FnOnce() -> Result<u64, String>,
    ) -> Result<(), String> {
        self.tr.enter(name);
        let start = HostInstant::now();
        let units = run();
        let wall = start.elapsed();
        self.tr.exit();
        let units = units.map_err(|e| format!("{name}: {e}"))?;
        if units == 0 {
            return Err(format!("{name}: the engine processed nothing"));
        }
        self.put(name, wall.as_secs_f64() * 1e9 / units as f64);
        Ok(())
    }

    fn phy(&mut self) {
        let qpsk = ShChConfig { modulation: Modulation::Qpsk, c_init: 0x42 };
        for (tag, len, _) in SIZES {
            // Ciphered PDUs look random, and the demapper's comparisons
            // branch on the data: cycle through distinct blocks so the
            // branch predictor cannot learn one.
            let blocks = random_blocks(len);
            let sampled: Vec<Vec<Iq>> =
                blocks.iter().map(|b| transport::encode(qpsk, b).0).collect();
            let mut turn = 0usize;
            let mut next = move || {
                turn = (turn + 1) % RING;
                turn
            };

            self.op(&format!("phy.crc24a.{tag}.ns_per_op"), |n| {
                time_calls(n, || CRC24A.compute(&blocks[next()]))
            });
            // A live sequence: the warm-up is `phy.gold.new`, not this.
            let mut seq = GoldSequence::new(0x1234);
            let mut buf = blocks[0].to_vec();
            self.op(&format!("phy.gold.scramble.{tag}.ns_per_op"), |n| {
                time_calls(n, || seq.scramble_in_place(std::hint::black_box(&mut buf)))
            });
            let enc = self.op(&format!("phy.transport.encode.{tag}.ns_per_op"), |n| {
                time_calls(n, || transport::encode(qpsk, &blocks[next()]))
            });
            let dec = self.op(&format!("phy.transport.decode.{tag}.ns_per_op"), |n| {
                time_calls(n, || transport::decode(qpsk, &sampled[next()]).expect("clean samples"))
            });
            if len == 1000 {
                // bytes / ns = GB/s; ×1000 = MB/s.
                self.put("phy.transport.encode.b1000.mb_per_s", len as f64 / enc * 1e3);
                self.put("phy.transport.decode.b1000.mb_per_s", len as f64 / dec * 1e3);
                let bits: Vec<Vec<u8>> = blocks
                    .iter()
                    .map(|b| {
                        b.iter()
                            .flat_map(|byte| (0..8).rev().map(move |i| (byte >> i) & 1))
                            .collect()
                    })
                    .collect();
                let symbols: Vec<Vec<Iq>> =
                    bits.iter().map(|b| Modulation::Qpsk.modulate(b)).collect();
                self.op("phy.modulate_qpsk.b1000.ns_per_op", |n| {
                    time_calls(n, || Modulation::Qpsk.modulate(&bits[next()]))
                });
                self.op("phy.demodulate_qpsk.b1000.ns_per_op", |n| {
                    time_calls(n, || Modulation::Qpsk.demodulate(&symbols[next()]))
                });
            }

            let before = ALLOC.count();
            for block in &blocks {
                let (s, _) = transport::encode(qpsk, block);
                std::hint::black_box(transport::decode(qpsk, &s).expect("clean samples"));
            }
            let spent = ALLOC.count().since(before);
            if len == 64 {
                self.put(
                    "phy.transport.roundtrip.b64.allocs_per_op",
                    spent.allocs as f64 / RING as f64,
                );
            } else {
                self.put(
                    "phy.transport.roundtrip.b1000.alloc_bytes_per_op",
                    spent.bytes as f64 / RING as f64,
                );
            }
        }
        let mut c_init = 0u32;
        self.op("phy.gold.new.ns_per_op", |n| {
            time_calls(n, || {
                c_init = c_init.wrapping_add(1);
                GoldSequence::new(std::hint::black_box(c_init))
            })
        });
    }

    fn ran_codecs(&mut self) {
        for (tag, len, _) in SIZES {
            let sdu = payload(len);

            let mut tx = PdcpEntity::new(PdcpConfig::new(7, 1, Direction::Uplink));
            self.op(&format!("ran.pdcp.tx_encode.{tag}.ns_per_op"), |n| {
                time_calls(n, || {
                    // Acknowledge as lower layers would, so the
                    // retransmission buffer stays at its steady size.
                    if tx.tx_pending() >= 64 {
                        tx.confirm_up_to(tx.tx_next_count());
                    }
                    tx.tx_encode(&sdu)
                })
            });

            let mut tx = PdcpEntity::new(PdcpConfig::new(7, 1, Direction::Uplink));
            let mut rx = PdcpEntity::new(PdcpConfig::new(7, 1, Direction::Uplink));
            self.op(&format!("ran.pdcp.rx_decode.{tag}.ns_per_op"), |n| {
                time_prepared(
                    n,
                    256,
                    || {
                        tx.confirm_up_to(tx.tx_next_count());
                        tx.tx_encode(&sdu)
                    },
                    |pdu| {
                        let sdus = rx.rx_decode(pdu).expect("in-order PDU");
                        assert_eq!(
                            std::hint::black_box(sdus).len(),
                            1,
                            "PDCP held an in-order PDU back"
                        );
                    },
                )
            });

            let mut utx = RlcUmEntity::new();
            let mut urx = RlcUmEntity::new();
            self.op(&format!("ran.rlc_um.segment_reassemble.{tag}.ns_per_op"), |n| {
                time_calls(n, || {
                    utx.tx_sdu(sdu.clone());
                    let mut done = 0;
                    // 128 B grants: one PDU at 64 B, eight segments at 1000 B.
                    while let Some(pdu) = utx.pull_pdu(128).expect("grant fits a header") {
                        done += urx.rx_pdu(&pdu).expect("own PDU").len();
                    }
                    assert_eq!(done, 1, "RLC UM did not reassemble the SDU");
                })
            });

            let sub = MacSubPdu::new(1, sdu.clone());
            let pdu = MacPdu::new(vec![sub]);
            self.op(&format!("ran.mac.mux_demux.{tag}.ns_per_op"), |n| {
                time_calls(n, || {
                    let wire = pdu.encode(None).expect("encode");
                    MacPdu::decode(&wire).expect("decode")
                })
            });
        }

        let sdu = payload(64);
        let mut a = RlcAmEntity::new(AmConfig::default());
        let mut b = RlcAmEntity::new(AmConfig::default());
        self.op("ran.rlc_am.tx_rx_ack.b64.ns_per_op", |n| {
            time_calls(n, || {
                a.tx_sdu(sdu.clone());
                while let Some(pdu) = a.pull_pdu(BIG_GRANT).expect("grant fits") {
                    std::hint::black_box(b.rx_pdu(&pdu).expect("own PDU"));
                }
                // Status PDUs flow back whenever a poll asked for one.
                while let Some(status) = b.pull_pdu(BIG_GRANT).expect("grant fits") {
                    a.rx_pdu(&status).expect("own status");
                }
            })
        });

        let mut sdap = SdapEntity::new();
        sdap.map_flow(1, 1);
        self.op("ran.sdap.encode_decode.b64.ns_per_op", |n| {
            time_calls(n, || {
                let (_, pdu) = sdap.encode_pdu(1, &sdu).expect("mapped flow");
                sdap.decode_pdu(&pdu).expect("own PDU")
            })
        });
    }

    fn ran_sched(&mut self) {
        let now = Instant::ZERO + Duration::from_millis(5);
        // A ready set as the laboratory's mixes produce it: three classes,
        // deadlines spread over 50 ms, arrival order unrelated to either.
        let ready_set = |len: usize| -> Vec<SchedItem> {
            let mut lcg = Lcg(0x5eed);
            (0..len)
                .map(|i| {
                    let priority = (lcg.next() % 3) as u8;
                    SchedItem {
                        rnti: (lcg.next() % 64) as u16,
                        bytes: [96, 432, 64][priority as usize],
                        ready: now,
                        tag: RequestTag {
                            priority,
                            deadline: Some(now + Duration::from_micros(lcg.next() % 50_000)),
                            slice: [Slice::Urllc, Slice::Embb, Slice::Mmtc][priority as usize],
                        },
                        seq: i as u64,
                    }
                })
                .collect()
        };
        for (policy, spec, lens) in [
            ("fcfs", PolicySpec::Fcfs, &[1000usize][..]),
            ("edf", PolicySpec::EarliestDeadlineFirst, &[10, 100, 1000][..]),
            ("slice_aware", PolicySpec::SliceAware(SliceShares::even()), &[1000][..]),
        ] {
            for &len in lens {
                let items = ready_set(len);
                let mut live = spec.build();
                // About 256 KiB of prepared ready sets per chunk.
                let chunk = ((256 << 10) / (len * std::mem::size_of::<SchedItem>())).max(1);
                self.op(&format!("ran.sched.order.{policy}.q{len}.ns_per_op"), |n| {
                    time_prepared(
                        n,
                        chunk,
                        || items.clone(),
                        |set| {
                            live.order(now, set);
                            std::hint::black_box(set);
                        },
                    )
                });
            }
        }

        let base = StackConfig::testbed_dddu(AccessMode::GrantFree, true);
        for (policy, spec, lens) in [
            ("fcfs", PolicySpec::Fcfs, &[100usize, 1000][..]),
            ("preemptive", PolicySpec::PreemptivePriority { dl_background: 0 }, &[100][..]),
        ] {
            for &len in lens {
                let items = ready_set(len);
                let mut sched = Scheduler::new(base.clone().with_policy(spec).scheduler_config());
                let mut slot = 0u64;
                self.op(&format!("ran.sched.run_slot.{policy}.q{len}.ns_per_op"), |n| {
                    let mut total = HostDuration::ZERO;
                    for _ in 0..n {
                        // Far enough on that the previous round's
                        // reservations are all in the past.
                        slot += len as u64;
                        let ready = base.duplex.slot_start(slot) - Duration::from_micros(1);
                        for it in &items {
                            sched.on_dl_data_tagged(it.rnti, it.bytes, ready, it.tag);
                        }
                        let start = HostInstant::now();
                        let decision = sched.run_slot(slot);
                        total += start.elapsed();
                        assert_eq!(
                            decision.dl_assignments.len(),
                            len,
                            "run_slot left requests behind"
                        );
                    }
                    total
                });
            }
        }
    }

    fn corenet_radio(&mut self) {
        for (tag, len, _) in SIZES {
            let data = payload(len);
            let header = corenet::GtpuHeader::gpdu(0x1001);
            self.op(&format!("corenet.gtpu.encode_decode.{tag}.ns_per_op"), |n| {
                time_calls(n, || {
                    let wire = header.encode(std::hint::black_box(&data));
                    corenet::GtpuHeader::decode(&wire).expect("own packet")
                })
            });
        }
        let mut head = radio::RadioHead::new(radio::RadioHeadConfig::usrp_b210(true));
        let mut rng = SimRng::from_seed(self.seed);
        self.op("radio.head.submit.ns_per_op", |n| {
            time_calls(n, || head.submit_latency(2_000, &mut rng))
        });
    }

    fn sim(&mut self) {
        for depth in [4usize, 1024] {
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut lcg = Lcg(depth as u64);
            for i in 0..depth {
                q.push(Instant::ZERO + Duration::from_nanos(1 + lcg.next() % 1_000_000), i as u32);
            }
            // The hold model: pop the earliest, reschedule it later.
            self.op(&format!("sim.event_queue.push_pop.d{depth}.ns_per_op"), |n| {
                time_calls(n, || {
                    let (at, ev) = q.pop().expect("queue holds its depth");
                    q.push(at + Duration::from_nanos(1 + lcg.next() % 1_000_000), ev);
                })
            });
        }

        let mut lcg = Lcg(7);
        self.op("sim.stats.exact_record.ns_per_op", |n| {
            let mut rec = LatencyRecorder::new();
            let took = time_calls(n, || rec.record(Duration::from_nanos(lcg.next() % 10_000_000)));
            std::hint::black_box(rec.count());
            took
        });
        let mut fixed = Recording::fixed();
        self.op("sim.stats.fixed_record.ns_per_op", |n| {
            time_calls(n, || fixed.record(Duration::from_nanos(lcg.next() % 10_000_000)))
        });
        let mut unsorted = LatencyRecorder::new();
        for _ in 0..100_000 {
            unsorted.record(Duration::from_nanos(lcg.next() % 10_000_000));
        }
        self.op_us("sim.stats.exact_quantile.n100k.us_per_op", |n| {
            time_prepared(
                n,
                1,
                || unsorted.clone(),
                |rec| {
                    std::hint::black_box(rec.quantile_us(0.99));
                },
            )
        });
        self.op_us("sim.stats.exact_merge.n100k.us_per_op", |n| {
            time_prepared(
                n,
                1,
                || unsorted.clone(),
                |rec| {
                    rec.merge(&unsorted);
                    std::hint::black_box(rec.count());
                },
            )
        });

        let rng = SimRng::from_seed(self.seed);
        let mut poisson =
            ArrivalGen::new(ArrivalProcess::poisson_pps(10_000.0), rng.stream("poisson"));
        self.op("sim.arrivals.poisson_next.ns_per_op", |n| {
            time_calls(n, || poisson.next_arrival())
        });
        let bursty = ArrivalProcess::bursty_pps(10_000.0, 8.0, 0.2, Duration::from_millis(2));
        let mut mmpp = ArrivalGen::new(bursty, rng.stream("mmpp"));
        self.op("sim.arrivals.mmpp_next.ns_per_op", |n| time_calls(n, || mmpp.next_arrival()));
        let lognormal = Dist::lognormal_us(12.0, 3.0);
        let mut draw = rng.stream("lognormal");
        self.op("sim.dist.lognormal_sample.ns_per_op", |n| {
            time_calls(n, || lognormal.sample(&mut draw))
        });
        let mut index = 0u64;
        self.op("sim.rng.stream_indexed.ns_per_op", |n| {
            time_calls(n, || {
                index += 1;
                rng.stream_indexed("batch", index)
            })
        });

        const SHARDS: usize = 1024;
        let per_call = self.timed("sim.parallel.dispatch.ns_per_shard", |n| {
            time_calls(n, || sim::parallel::run_shards_with(2, SHARDS, |i| i))
        });
        self.put("sim.parallel.dispatch.ns_per_shard", per_call / SHARDS as f64);

        // The one two-thread measurement, kept out of the end-to-end set
        // because the box is shared.
        let (cfg, pings, _) = ping_config("ping_small", self.seed).expect("a ping workload");
        let pings = pings / PROFILE_DIVISOR / self.div;
        let mut wall = [0.0f64; 2];
        self.tr.enter("sim.parallel.ping_small.speedup_2w");
        for (i, workers) in [1usize, 2].into_iter().enumerate() {
            let start = HostInstant::now();
            std::hint::black_box(stack::run_parallel_workers(&cfg, pings, 3, None, workers));
            wall[i] = start.elapsed().as_secs_f64();
        }
        self.tr.exit();
        self.put("sim.parallel.ping_small.speedup_2w", wall[0] / wall[1]);
    }

    fn telemetry(&mut self) {
        let dark = Telemetry::disabled();
        self.op("telemetry.handle.dark_count.ns_per_op", |n| {
            time_calls(n, || std::hint::black_box(&dark).count("pdcp", "tx_pdus", 1))
        });
        let lit = Telemetry::new(65_536);
        let mut lcg = Lcg(11);
        self.op("telemetry.handle.lit_record.ns_per_op", |n| {
            time_calls(n, || {
                lit.record("phy", "walk_us", Duration::from_nanos(lcg.next() % 1_000_000))
            })
        });
        let mut journal = EventJournal::new(65_536);
        let mut ping = 0u64;
        self.op("telemetry.journal.push.ns_per_op", |n| {
            time_calls(n, || {
                ping += 1;
                journal.push(JournalEvent::Grant {
                    ping,
                    at: Instant::ZERO + Duration::from_micros(ping),
                    bytes: 128,
                });
            })
        });

        // An exemplar as the ping walk hands it over: a dozen hop spans.
        let spans: Vec<ExemplarSpan> = (0..12u64)
            .map(|i| ExemplarSpan {
                label: "hop",
                dl: i >= 6,
                start: Instant::ZERO + Duration::from_micros(100 * i),
                end: Instant::ZERO + Duration::from_micros(100 * i + 80),
            })
            .collect();
        let mut flight = FlightRecorder::new(DEFAULT_WORST_K, DEFAULT_FORCED_CAP);
        self.op("telemetry.flight.insert.ns_per_op", |n| {
            time_prepared(
                n,
                256,
                || {
                    ping += 1;
                    Some(TailExemplar {
                        ping,
                        rtt: Duration::from_nanos(3_000_000 + lcg.next() % 4_000_000),
                        outcome: ExemplarOutcome::OnTime,
                        fault: None,
                        fault_extra: Vec::new(),
                        drop_reason: None,
                        max_queue_depth: 1,
                        sched_rounds: 2,
                        spans: spans.clone(),
                    })
                },
                |ex| flight.observe(ex.take().expect("each exemplar is observed once"), false),
            )
        });

        let prof = Profiler::new();
        self.op("telemetry.profiler.scope.ns_per_op", |n| {
            time_calls(n, || drop(prof.scope("hop")))
        });

        // A registry as a lit chaotic run leaves it.
        let (cfg, _, _) = ping_config("ping_chaos_lit", self.seed).expect("a ping workload");
        let tel = Telemetry::new(65_536);
        stack::run_parallel_opts(&cfg, 512, 0, Some(&tel));
        self.op_us("telemetry.snapshot.us_per_op", |n| time_calls(n, || tel.snapshot()));
    }

    fn core(&mut self) {
        let zero = urllc_core::ProcessingBudget::zero();
        self.op_us("core.worst_case.table1.us_per_op", |n| {
            time_calls(n, || urllc_core::feasibility_table(std::hint::black_box(&zero)))
        });
        self.op_us("core.design.search.us_per_op", |n| {
            time_calls(n, urllc_core::DesignSearch::run)
        });
    }

    /// The four MAC-PDU-level walks of a ping, no PHY. Each figure times
    /// its own segment of the full chain, because every walk needs the
    /// state the previous one left.
    fn stack_node(&mut self) -> Result<(), String> {
        const RNTI: u16 = 17;
        const UE_ADDR: u32 = 0x0A00_0001;
        // Fresh entities as often as a ping batch gets them, so PDCP's
        // unconfirmed buffer grows no further than in the workloads.
        const PAIR_LIFE: u64 = stack::BATCH_PINGS;
        let pair = || {
            let mut gnb = GnbStack::new();
            gnb.attach_ue(RNTI, 0xABCD, UE_ADDR);
            (UeStack::new(RNTI, 0xABCD), gnb)
        };
        let segments =
            ["ue_encode_uplink", "gnb_decode_uplink", "gnb_encode_downlink", "ue_decode_downlink"];
        for (tag, _, workload) in SIZES {
            // Payload and grants as the ping walk of that workload uses them.
            let (cfg, _, _) = ping_config(workload, self.seed).expect("a ping workload");
            let (ul_grant, dl_grant) = (cfg.grant_bytes(), cfg.slot_capacity_bytes());
            let data = payload(cfg.payload_bytes);
            // One checked pass before timing anything.
            {
                let (mut ue, mut gnb) = pair();
                let up = ue.encode_uplink(&data, ul_grant).map_err(|e| e.to_string())?;
                let at_gnb = gnb.decode_uplink(RNTI, &up[0]).map_err(|e| e.to_string())?;
                let (_, down) =
                    gnb.encode_downlink(UE_ADDR, &data, dl_grant).map_err(|e| e.to_string())?;
                let at_ue = ue.decode_downlink(&down[0]).map_err(|e| e.to_string())?;
                if up.len() != 1 || down.len() != 1 || at_gnb.len() != 1 || at_ue != [data.clone()]
                {
                    return Err(format!(
                        "stack.node {tag}: the chain did not carry one payload in one PDU"
                    ));
                }
            }
            for (which, segment) in segments.into_iter().enumerate() {
                let (mut ue, mut gnb) = pair();
                let mut age = 0u64;
                self.op(&format!("stack.node.{segment}.{tag}.ns_per_op"), |n| {
                    let mut total = HostDuration::ZERO;
                    for _ in 0..n {
                        if age == PAIR_LIFE {
                            (ue, gnb) = pair();
                            age = 0;
                        }
                        age += 1;
                        let t0 = HostInstant::now();
                        let up = ue.encode_uplink(&data, ul_grant).expect("checked above");
                        let t1 = HostInstant::now();
                        std::hint::black_box(
                            gnb.decode_uplink(RNTI, &up[0]).expect("checked above"),
                        );
                        let t2 = HostInstant::now();
                        let (_, down) =
                            gnb.encode_downlink(UE_ADDR, &data, dl_grant).expect("checked above");
                        let t3 = HostInstant::now();
                        std::hint::black_box(ue.decode_downlink(&down[0]).expect("checked above"));
                        let t4 = HostInstant::now();
                        let marks = [t0, t1, t2, t3, t4];
                        total += marks[which + 1] - marks[which];
                    }
                    total
                });
            }
        }
        Ok(())
    }

    /// Host time per hop from the program's own profiler.
    fn stack_pipeline(&mut self) -> Result<(), String> {
        for (workload, hops) in [
            ("ping_small", &PIPELINE_HOPS[..]),
            ("ping_large", &PIPELINE_HOPS[..]),
            ("ping_chaos_lit", &CHAOS_HOPS[..]),
        ] {
            let (cfg, pings, lit) = ping_config(workload, self.seed).expect("a ping workload");
            let pings = (pings / PROFILE_DIVISOR / self.div).max(1);
            let tel = lit.then(|| Telemetry::new(65_536));
            let prof = Profiler::new();
            self.tr.enter(&format!("stack.pipeline.{workload}"));
            stack::run_parallel_profiled(&cfg, pings, 3, tel.as_ref(), Some(&prof));
            self.tr.exit();
            let profile = prof.snapshot();
            for hop in hops {
                let total_ms = profile
                    .iter()
                    .find(|s| s.stage == *hop)
                    .map(|s| s.total_ms)
                    .ok_or(format!("{workload} never ran the {hop} hop"))?;
                self.put(
                    format!("stack.pipeline.{hop}.{workload}.us_per_ping"),
                    total_ms * 1e3 / pings as f64,
                );
            }
        }
        Ok(())
    }

    /// One call into each engine that has no end-to-end workload, and the
    /// two that do split by load point.
    fn stack_engines(&mut self) -> Result<(), String> {
        let (seed, div) = (self.seed, self.div);
        let (testbed, _, _) = ping_config("ping_small", seed).expect("a ping workload");

        let wire = testbed.payload_bytes + 3;
        let mu = stack::service_capacity_pps(&testbed, wire);
        let mut overload = OverloadConfig::testbed(
            testbed.clone(),
            ArrivalProcess::poisson_pps(1.1 * mu),
            Duration::from_millis(10_000 / div),
        );
        overload.embb = Some((ArrivalProcess::poisson_pps(500.0), 1200));
        self.engine("stack.overload.ns_per_packet", || {
            let rng = SimRng::from_seed(seed).stream("overload");
            let r = stack::run_overload(&overload, &rng, &mut NullHook, &Telemetry::disabled());
            if r.conserved() {
                Ok(r.offered)
            } else {
                Err("packets not conserved".into())
            }
        })?;

        let mobility = MobilityConfig::for_speed(testbed.clone(), 30.0, (12 / div as u32).max(1));
        self.engine("stack.handover.ns_per_packet", || {
            let r = stack::run_mobility(&mobility, None);
            if r.conserved() {
                Ok(r.offered)
            } else {
                Err("packets not conserved".into())
            }
        })?;

        let mut multi_ue = MultiUeConfig::testbed(AccessMode::GrantBased, 64);
        multi_ue.base = testbed.clone();
        multi_ue.packets_per_ue = (6_000 / div).max(2);
        self.engine("stack.multi_ue.ns_per_packet", || {
            stack::run_multi_ue(&multi_ue).map(|r| r.ul.count()).map_err(|e| e.to_string())
        })?;

        self.engine("stack.coexistence.ns_per_packet", || {
            let packets = 1_000_000 / div;
            let points = stack::coexistence_sweep(true, &[0.5], packets, seed);
            Ok(points.iter().map(|p| p.latency.count()).sum())
        })?;

        for (tag, load) in [("load050", 0.5), ("load080", 0.8), ("load110", 1.1)] {
            let mut lab = SchedLabConfig::simurllc(seed);
            lab.loads = vec![load];
            lab.horizon = Duration::from_millis(1_000 / div);
            self.engine(&format!("stack.schedlab.{tag}.ns_per_packet"), || {
                let points = stack::run_sched_lab(&lab);
                Ok(points.iter().flat_map(|p| &p.classes).map(|c| c.count).sum())
            })?;
        }

        let city = MulticellConfig::dense_urban(8, 125_000, seed);
        // Cell 0 is a rho = 2.0 hotspot, cell 1 a rho = 0.55 cell.
        for (tag, cell) in [("rho055", 1usize), ("rho200", 0)] {
            let mut one = city.clone();
            one.cells = vec![city.cells[cell].clone()];
            one.horizon = Duration::from_millis(100_000 / div);
            self.engine(&format!("stack.multicell.{tag}.ns_per_packet"), || {
                let r = stack::run_multicell(&one).map_err(|e| e.to_string())?;
                Ok(r.cells.iter().map(stack::CellReport::offered).sum())
            })?;
        }
        Ok(())
    }
}
