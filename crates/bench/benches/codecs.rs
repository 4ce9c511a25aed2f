//! Microbenchmarks of the bit-level data path: every codec a packet
//! crosses in Fig 2. These are the "processing latency" building blocks of
//! §4, measured on real hardware rather than modelled.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use phy::crc::CRC24A;
use phy::modulation::Modulation;
use phy::scrambling::GoldSequence;
use phy::transport::{decode, encode, ShChConfig};
use ran::mac::{MacPdu, MacSubPdu};
use ran::pdcp::{Direction, PdcpConfig, PdcpEntity};
use ran::rlc::RlcUmEntity;
use std::hint::black_box;

fn bench_codecs(c: &mut Criterion) {
    let mut g = c.benchmark_group("codecs");
    for size in [64usize, 512, 4096] {
        let payload = vec![0xA5u8; size];
        g.throughput(Throughput::Bytes(size as u64));

        g.bench_with_input(BenchmarkId::new("crc24a", size), &payload, |b, p| {
            b.iter(|| black_box(CRC24A.compute(p)))
        });

        g.bench_with_input(BenchmarkId::new("gold_scramble", size), &payload, |b, p| {
            b.iter(|| {
                let mut data = p.clone();
                GoldSequence::new(0x1234).scramble_in_place(&mut data);
                black_box(data)
            })
        });

        let cfg = ShChConfig { modulation: Modulation::Qpsk, c_init: 0x42 };
        let (samples, _) = encode(cfg, &payload);
        g.bench_with_input(BenchmarkId::new("phy_encode_qpsk", size), &payload, |b, p| {
            b.iter(|| black_box(encode(cfg, p)))
        });
        g.bench_with_input(BenchmarkId::new("phy_decode_qpsk", size), &samples, |b, s| {
            b.iter(|| black_box(decode(cfg, s).expect("decode")))
        });

        // The highest order: 256 distances a symbol for the search the
        // slicer replaced, eight comparisons now.
        let cfg256 = ShChConfig { modulation: Modulation::Qam256, c_init: 0x42 };
        let (samples256, _) = encode(cfg256, &payload);
        g.bench_with_input(BenchmarkId::new("phy_decode_qam256", size), &samples256, |b, s| {
            b.iter(|| black_box(decode(cfg256, s).expect("decode")))
        });

        g.bench_with_input(BenchmarkId::new("pdcp_encrypt", size), &payload, |b, p| {
            let mut e = PdcpEntity::new(PdcpConfig::new(7, 1, Direction::Uplink));
            let bytes = Bytes::from(p.clone());
            b.iter(|| black_box(e.tx_encode(&bytes)))
        });

        g.bench_with_input(
            BenchmarkId::new("rlc_um_segment_reassemble", size),
            &payload,
            |b, p| {
                b.iter(|| {
                    let mut tx = RlcUmEntity::new();
                    let mut rx = RlcUmEntity::new();
                    tx.tx_sdu(Bytes::from(p.clone()));
                    let mut out = Vec::new();
                    while let Some(pdu) = tx.pull_pdu(128).expect("grant ok") {
                        out.extend(rx.rx_pdu(&pdu).expect("rx ok"));
                    }
                    black_box(out)
                })
            },
        );

        g.bench_with_input(BenchmarkId::new("mac_mux_demux", size), &payload, |b, p| {
            let sub = MacSubPdu::new(1, Bytes::from(p.clone()));
            let pdu = MacPdu::new(vec![sub]);
            b.iter(|| {
                let enc = pdu.encode(None).expect("encode");
                black_box(MacPdu::decode(&enc).expect("decode"))
            })
        });
    }

    // Demapper cost by order, over the samples of one 4096 B block each.
    let payload = vec![0xA5u8; 4096];
    g.throughput(Throughput::Bytes(payload.len() as u64));
    for m in Modulation::ALL {
        let (samples, _) = encode(ShChConfig { modulation: m, c_init: 0x42 }, &payload);
        g.bench_with_input(
            BenchmarkId::new("phy_demodulate", format!("{m:?}")),
            &samples,
            |b, s| b.iter(|| black_box(m.demodulate(s))),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_codecs);
criterion_main!(benches);
