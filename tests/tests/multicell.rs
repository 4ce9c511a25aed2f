//! City-scale multi-cell acceptance: a ≥10⁵-UE topology completes with
//! memory bounded independently of the packet count, stays conserved,
//! and reports per-cell + aggregate tails; plus a literal ledger that
//! anchors the cell loop across refactors.

use sim::Duration;
use stack::{run_multicell, MulticellConfig};

/// The fixed-memory claim, asserted: tripling the simulated horizon
/// (and therefore the packet count) must not grow the recording
/// footprint, because every latency lands in a log-linear histogram
/// whose size depends only on the value range. A 100 000-UE topology
/// both completes and stays under a hard constant budget.
#[test]
fn hundred_thousand_ues_run_in_fixed_memory() {
    let mut short = MulticellConfig::dense_urban(8, 12_500, 5);
    short.horizon = Duration::from_millis(60);
    let mut long = MulticellConfig::dense_urban(8, 12_500, 5);
    long.horizon = Duration::from_millis(180);

    assert_eq!(short.total_ues(), 100_000);
    let a = run_multicell(&short).expect("short horizon runs");
    let b = run_multicell(&long).expect("long horizon runs");

    // The longer run really did more work...
    let offered = |r: &stack::MulticellReport| -> u64 { r.cells.iter().map(|c| c.offered()).sum() };
    assert!(
        offered(&b) > 2 * offered(&a),
        "3x horizon should offer ~3x packets: {} vs {}",
        offered(&b),
        offered(&a)
    );
    // ...in the same bounded footprint. The hard cap covers every
    // histogram of the topology (8 cells x 3 classes); the exact
    // recorder would need offered x 8 bytes just for samples
    // (~10 MiB at the long horizon) and would keep growing.
    const CAP: usize = 1 << 20; // 1 MiB for all recordings together
    assert!(a.recording_mem_bytes() < CAP, "short: {}", a.recording_mem_bytes());
    assert!(b.recording_mem_bytes() < CAP, "long: {}", b.recording_mem_bytes());
    // Pending work never balloons: one arrival cursor per class plus the
    // slot clock, whatever the population or horizon.
    for cell in a.cells.iter().chain(&b.cells) {
        assert!(cell.peak_events <= 4, "cell {} events {}", cell.cell, cell.peak_events);
    }
}

/// Packet conservation and the per-cell / aggregate reporting surface
/// the acceptance criteria name: p99/p999 and miss rates per cell and
/// for the whole topology.
#[test]
fn per_cell_and_aggregate_tails_are_reported() {
    let mut cfg = MulticellConfig::dense_urban(4, 250, 5);
    cfg.horizon = Duration::from_millis(100);
    let report = run_multicell(&cfg).expect("runs");
    for cell in &report.cells {
        assert!(cell.conserved(), "cell {} leaked packets", cell.cell);
        let mut lat = cell.latency();
        let p99 = lat.try_quantile_us(0.99).expect("cell delivered packets");
        let p999 = lat.try_quantile_us(0.999).expect("cell delivered packets");
        assert!(p999 >= p99, "cell {}: p999 {p999} < p99 {p99}", cell.cell);
        assert!((0.0..=1.0).contains(&cell.miss_rate()));
    }
    let mut agg = report.latency();
    assert!(agg.try_quantile_us(0.999).is_some());
    // dense_urban's hotspot (cell 0, offered 2x capacity) must dominate
    // the topology miss rate; the stable cells stay clean.
    assert!(report.cells[0].miss_rate() > report.cells[1].miss_rate());
    assert!((0.0..=1.0).contains(&report.miss_rate()));
}

/// `dense_urban(4, 1000, 7)` over 100 ms, as the event-queue loop of PR 16
/// produced it: one row per cell of `total_slots`, `peak_queue` and, per
/// class in serving order, `(offered, delivered, late, dropped, in_flight)`.
/// Literals, not an oracle: a refactor of the cell loop (ROADMAP item 6)
/// that moves any of them changed behaviour, whatever else it kept.
#[test]
fn golden_ledger_of_the_small_dense_urban_topology() {
    type Class = (&'static str, u64, u64, u64, u64, u64);
    const LEDGER: [(u64, usize, [Class; 3]); 4] = [
        // The hotspot: every sensor packet is late, nothing is dropped yet.
        (
            412,
            2610,
            [
                ("urllc", 429, 429, 0, 0, 0),
                ("video", 140, 140, 110, 0, 0),
                ("sensor", 2548, 2548, 2548, 0, 0),
            ],
        ),
        (
            155,
            36,
            [
                ("urllc", 119, 119, 0, 0, 0),
                ("video", 29, 29, 0, 0, 0),
                ("sensor", 690, 690, 0, 0, 0),
            ],
        ),
        (
            151,
            51,
            [
                ("urllc", 115, 115, 0, 0, 0),
                ("video", 27, 27, 0, 0, 0),
                ("sensor", 715, 715, 0, 0, 0),
            ],
        ),
        (
            153,
            25,
            [
                ("urllc", 112, 112, 0, 0, 0),
                ("video", 34, 34, 0, 0, 0),
                ("sensor", 682, 682, 0, 0, 0),
            ],
        ),
    ];
    let mut cfg = MulticellConfig::dense_urban(4, 1000, 7);
    cfg.horizon = Duration::from_millis(100);
    let report = run_multicell(&cfg).expect("runs");
    assert_eq!(report.cells.len(), LEDGER.len());
    for (cell, (slots, peak_queue, classes)) in report.cells.iter().zip(LEDGER) {
        assert_eq!((cell.total_slots, cell.peak_queue), (slots, peak_queue), "cell {}", cell.cell);
        let got: Vec<Class> = cell
            .classes
            .iter()
            .map(|c| (c.name, c.offered, c.delivered, c.late, c.dropped, c.in_flight))
            .collect();
        assert_eq!(got, classes, "cell {}", cell.cell);
    }
}
