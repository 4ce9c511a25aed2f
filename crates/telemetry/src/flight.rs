//! Tail-forensics flight recorder: *why was the tail the tail?*
//!
//! Aggregate histograms say the p99.9 is high; they cannot say which
//! concrete ping was slow or what it spent its time on. The
//! [`FlightRecorder`] is an always-on, bounded buffer that retains full
//! evidence — span trace, fault attribution, drop reason, queue depths —
//! for (a) the K slowest pings seen and (b) every *forced* ping
//! (deadline miss, RLF, loss, handover failure), up to a cap. It lives
//! inside the [`crate::Telemetry`] sink, so the existing shard
//! sibling/absorb reduction carries it and the retained set is
//! independent of worker count: selection orders by `(rtt desc, ping
//! asc)`, a total order, making merges commutative.
//!
//! A ping is *admitted* before its exemplar exists: a buffer takes a key
//! only while it has room or the key beats its last entry, and the caller
//! builds the exemplar only if a buffer takes it, so a run pays for the
//! exemplars it keeps rather than one per ping. A recorder handed to a
//! shard (a fresh sibling, or a recycled one the parent has just absorbed)
//! also carries the parent's current worst-K and forced bars as *floors*.
//! The parent's sets only ever improve, so a key at or past a floor could
//! never survive the merge and is turned away at once. The merged set,
//! `observed`, `forced_observed`, `forced_dropped` and the JSON are the
//! same as without floors at any worker count; only the work a shard
//! wastes depends on when it was handed out.
//!
//! Everything recorded here is **sim time** — the flight recorder's JSON
//! export is byte-identical at any `--jobs` and is gated as such in CI
//! (unlike `profile.csv`, which holds host times).

use std::cmp::Reverse;

use sim::{Duration, Instant};

/// Default worst-K retention of [`crate::Telemetry`]'s built-in recorder.
pub const DEFAULT_WORST_K: usize = 64;
/// Default cap on retained forced exemplars.
pub const DEFAULT_FORCED_CAP: usize = 512;

/// One retained stage span of an exemplar ping. A ping's spans carry
/// [`crate::Stage::as_str`] labels; a handover exemplar's carry labels of
/// its own, outside the Fig-3 vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExemplarSpan {
    /// Stage label.
    pub label: &'static str,
    /// `true` for downlink-side spans.
    pub dl: bool,
    /// Span start (sim time).
    pub start: Instant,
    /// Span end (sim time).
    pub end: Instant,
}

impl ExemplarSpan {
    /// Span duration (clamped at zero).
    pub fn duration(&self) -> Duration {
        self.end.checked_duration_since(self.start).unwrap_or(Duration::ZERO)
    }
}

/// How an exemplar ping's journey ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExemplarOutcome {
    /// Delivered within the deadline.
    OnTime,
    /// Delivered, but past the deadline.
    Late,
    /// Never delivered.
    Lost,
}

impl ExemplarOutcome {
    /// Stable text form (JSON exports).
    pub(crate) fn label(self) -> &'static str {
        match self {
            ExemplarOutcome::OnTime => "on-time",
            ExemplarOutcome::Late => "late",
            ExemplarOutcome::Lost => "lost",
        }
    }
}

/// Full forensic record of one retained ping.
#[derive(Debug, Clone, PartialEq)]
pub struct TailExemplar {
    /// Ping (packet) id.
    pub ping: u64,
    /// Round-trip time for delivered pings; time-to-loss for lost ones.
    pub rtt: Duration,
    /// How the journey ended.
    pub outcome: ExemplarOutcome,
    /// Dominant fault class (most extra latency), if any fault fired.
    pub fault: Option<&'static str>,
    /// Per-fault-class extra latency, every class that fired.
    pub fault_extra: Vec<(&'static str, Duration)>,
    /// Why the ping was dropped (lost pings only).
    pub drop_reason: Option<&'static str>,
    /// Pending work behind this sample: 1 for a ping walk (it holds one
    /// pending event by construction), the held packets for a handover
    /// exemplar.
    pub max_queue_depth: usize,
    /// UL + DL scheduler rounds consumed (queue-pressure proxy).
    pub sched_rounds: u32,
    /// The full stage-span trace (UL then DL, in emission order).
    pub spans: Vec<ExemplarSpan>,
}

/// Selection key: slowest first, ties toward the smaller ping id.
/// Total order ⇒ worst-K retention is merge-order independent.
type Key = (Reverse<u64>, u64);

fn key(ping: u64, rtt: Duration) -> Key {
    (Reverse(rtt.as_nanos()), ping)
}

impl TailExemplar {
    fn key(&self) -> Key {
        key(self.ping, self.rtt)
    }
}

/// One bounded retention buffer: the `cap` smallest keys offered, sorted.
#[derive(Debug, Clone, Default)]
struct Bounded {
    cap: usize,
    kept: Vec<TailExemplar>,
    /// The bar of the parent this buffer will be merged into, taken when
    /// the buffer was handed out: a key at or past it can never survive
    /// that merge, because the parent's set only improves. Every kept key
    /// is below it.
    floor: Option<Key>,
}

impl Bounded {
    /// The key an exemplar must beat to enter: the last kept one when the
    /// buffer is full, else the floor.
    fn bar(&self) -> Option<Key> {
        match self.kept.last() {
            Some(last) if self.kept.len() == self.cap => Some(last.key()),
            _ => self.floor,
        }
    }

    /// Whether an exemplar with `key` would be inserted. Exactly the
    /// exemplars an insert-then-truncate would keep, less those the floor
    /// already rules out.
    fn admits(&self, key: Key) -> bool {
        self.cap > 0 && self.bar().is_none_or(|bar| key < bar)
    }

    /// Inserts an exemplar [`admits`](Self::admits) accepted, after any
    /// equal key, evicting the last one when full.
    fn insert(&mut self, ex: TailExemplar) {
        let key = ex.key();
        let at = self.kept.partition_point(|e| e.key() <= key);
        if self.kept.len() == self.cap {
            self.kept.pop();
        }
        self.kept.insert(at, ex);
    }

    fn merge(&mut self, other: &Bounded) {
        // `other` is sorted and the bar only falls: once one exemplar is
        // turned away, so is every later one.
        for ex in &other.kept {
            if !self.admits(ex.key()) {
                break;
            }
            self.insert(ex.clone());
        }
    }

    /// Empties the buffer, keeping its storage, to be merged into `parent`.
    fn clear_below(&mut self, parent: &Bounded) {
        self.kept.clear();
        self.cap = parent.cap;
        self.floor = parent.bar();
    }
}

/// Bounded worst-K (+ forced) retention buffer; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    worst: Bounded,
    forced: Bounded,
    observed: u64,
    forced_observed: u64,
}

impl FlightRecorder {
    /// A recorder retaining the `worst_k` slowest pings plus up to
    /// `forced_cap` forced (deadline-miss/RLF/loss/handover-failure) ones.
    pub fn new(worst_k: usize, forced_cap: usize) -> FlightRecorder {
        let mut recorder = FlightRecorder::default();
        recorder.worst.cap = worst_k;
        recorder.forced.cap = forced_cap;
        recorder
    }

    /// An empty recorder with `parent`'s retention, to be merged into it.
    pub(crate) fn below(parent: &FlightRecorder) -> FlightRecorder {
        let mut recorder = FlightRecorder::default();
        recorder.clear_below(parent);
        recorder
    }

    /// Empties this recorder, keeping its buffers' storage, for its next
    /// life below `parent`: caps and floors are taken from `parent` now.
    pub(crate) fn clear_below(&mut self, parent: &FlightRecorder) {
        self.worst.clear_below(&parent.worst);
        self.forced.clear_below(&parent.forced);
        self.observed = 0;
        self.forced_observed = 0;
    }

    /// Observes one completed ping. `forced` marks pings that must be
    /// retained regardless of rank (deadline miss, RLF, loss, handover
    /// failure); when the forced buffer is full, the slowest forced
    /// exemplars win deterministically.
    pub fn observe(&mut self, exemplar: TailExemplar, forced: bool) {
        self.record(exemplar.ping, exemplar.rtt, forced, || exemplar);
    }

    /// [`observe`](Self::observe) for a ping known by its id and `rtt`:
    /// `build` makes its exemplar only if a buffer admits it, and it is
    /// cloned only if both do.
    pub(crate) fn record(
        &mut self,
        ping: u64,
        rtt: Duration,
        forced: bool,
        build: impl FnOnce() -> TailExemplar,
    ) {
        self.observed += 1;
        self.forced_observed += u64::from(forced);
        let key = key(ping, rtt);
        let to_worst = self.worst.admits(key);
        let to_forced = forced && self.forced.admits(key);
        if !(to_worst || to_forced) {
            return;
        }
        let ex = build();
        debug_assert!(ex.key() == key, "ping {ping} built the exemplar of ping {}", ex.ping);
        match (to_worst, to_forced) {
            (true, true) => {
                self.forced.insert(ex.clone());
                self.worst.insert(ex);
            }
            (true, false) => self.worst.insert(ex),
            (false, _) => self.forced.insert(ex),
        }
    }

    /// Folds another recorder into this one. Retention keys are total
    /// orders, so the result is independent of merge order.
    pub(crate) fn merge(&mut self, other: &FlightRecorder) {
        self.observed += other.observed;
        self.forced_observed += other.forced_observed;
        self.worst.merge(&other.worst);
        self.forced.merge(&other.forced);
    }

    /// Pings observed in total.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Forced pings observed (not all necessarily retained).
    pub fn forced_observed(&self) -> u64 {
        self.forced_observed
    }

    /// Forced exemplars shed because the forced buffer overflowed.
    pub(crate) fn forced_dropped(&self) -> u64 {
        self.forced_observed.saturating_sub(self.forced.kept.len() as u64)
    }

    /// The retained set: worst-K ∪ forced, deduplicated by ping id,
    /// slowest first.
    pub(crate) fn exemplars(&self) -> Vec<&TailExemplar> {
        let mut out: Vec<&TailExemplar> = self.worst.kept.iter().chain(&self.forced.kept).collect();
        out.sort_by_key(|e| e.key());
        out.dedup_by_key(|e| e.ping);
        out
    }

    /// Hand-rolled JSON export (the workspace has no JSON serializer).
    /// Deterministic: sim-time values only, fixed float formatting.
    pub(crate) fn to_json(&self) -> String {
        let exemplars = self.exemplars();
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"worst_k\": {}, \"forced_cap\": {}, \"observed\": {}, \
             \"forced_observed\": {}, \"forced_dropped\": {}, \"retained\": {},\n",
            self.worst.cap,
            self.forced.cap,
            self.observed,
            self.forced_observed,
            self.forced_dropped(),
            exemplars.len()
        ));
        out.push_str("  \"exemplars\": [\n");
        for (i, ex) in exemplars.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&exemplar_json(ex));
            out.push_str(if i + 1 < exemplars.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn us(d: Duration) -> String {
    format!("{:.3}", d.as_micros_f64())
}

/// One exemplar as a single JSON object line.
pub(crate) fn exemplar_json(ex: &TailExemplar) -> String {
    let fault = match ex.fault {
        Some(f) => format!("\"{}\"", esc(f)),
        None => "null".to_string(),
    };
    let drop_reason = match ex.drop_reason {
        Some(r) => format!("\"{}\"", esc(r)),
        None => "null".to_string(),
    };
    let fault_extra: Vec<String> = ex
        .fault_extra
        .iter()
        .map(|(f, d)| format!("{{\"fault\":\"{}\",\"extra_us\":{}}}", esc(f), us(*d)))
        .collect();
    let spans: Vec<String> = ex
        .spans
        .iter()
        .map(|s| {
            format!(
                "{{\"label\":\"{}\",\"dl\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                esc(s.label),
                s.dl,
                s.start.as_micros_f64(),
                s.end.as_micros_f64()
            )
        })
        .collect();
    format!(
        "{{\"ping\":{},\"rtt_us\":{},\"outcome\":\"{}\",\"fault\":{},\
         \"drop_reason\":{},\"max_queue_depth\":{},\"sched_rounds\":{},\
         \"fault_extra\":[{}],\"spans\":[{}]}}",
        ex.ping,
        us(ex.rtt),
        ex.outcome.label(),
        fault,
        drop_reason,
        ex.max_queue_depth,
        ex.sched_rounds,
        fault_extra.join(","),
        spans.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex(ping: u64, rtt_us: u64) -> TailExemplar {
        TailExemplar {
            ping,
            rtt: Duration::from_micros(rtt_us),
            outcome: ExemplarOutcome::OnTime,
            fault: None,
            fault_extra: Vec::new(),
            drop_reason: None,
            max_queue_depth: 1,
            sched_rounds: 1,
            spans: vec![ExemplarSpan {
                label: "APP↓",
                dl: false,
                start: Instant::ZERO,
                end: Instant::from_micros(rtt_us),
            }],
        }
    }

    #[test]
    fn worst_k_keeps_the_slowest() {
        let mut fr = FlightRecorder::new(2, 8);
        fr.observe(ex(1, 100), false);
        fr.observe(ex(2, 300), false);
        fr.observe(ex(3, 200), false);
        let pings: Vec<u64> = fr.exemplars().iter().map(|e| e.ping).collect();
        assert_eq!(pings, vec![2, 3]);
        assert_eq!(fr.observed(), 3);
    }

    #[test]
    fn forced_survive_even_when_fast() {
        let mut fr = FlightRecorder::new(1, 8);
        fr.observe(ex(1, 900), false);
        fr.observe(ex(2, 10), true); // fast, but forced (e.g. RLF ping)
        let pings: Vec<u64> = fr.exemplars().iter().map(|e| e.ping).collect();
        assert_eq!(pings, vec![1, 2]);
        assert_eq!(fr.forced_observed(), 1);
        assert_eq!(fr.forced_dropped(), 0);
    }

    #[test]
    fn forced_overflow_keeps_slowest_and_counts_drops() {
        let mut fr = FlightRecorder::new(0, 2);
        fr.observe(ex(1, 10), true);
        fr.observe(ex(2, 30), true);
        fr.observe(ex(3, 20), true);
        let pings: Vec<u64> = fr.exemplars().iter().map(|e| e.ping).collect();
        assert_eq!(pings, vec![2, 3]);
        assert_eq!(fr.forced_dropped(), 1);
    }

    #[test]
    fn merge_is_order_independent() {
        let pings = [(1u64, 500u64), (2, 100), (3, 700), (4, 700), (5, 50), (6, 900)];
        let mut a = FlightRecorder::new(3, 2);
        let mut b = FlightRecorder::new(3, 2);
        for &(p, r) in &pings[..3] {
            a.observe(ex(p, r), p % 2 == 0);
        }
        for &(p, r) in &pings[3..] {
            b.observe(ex(p, r), p % 2 == 0);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.to_json(), ba.to_json());
        // Equal rtts (pings 3 and 4) break ties toward the smaller id.
        let pings_kept: Vec<u64> = ab.exemplars().iter().map(|e| e.ping).collect();
        assert_eq!(pings_kept, vec![6, 3, 4]);
    }

    #[test]
    fn json_shape_is_parseable_enough() {
        let mut fr = FlightRecorder::new(4, 4);
        let mut lost = ex(9, 2_000);
        lost.outcome = ExemplarOutcome::Lost;
        lost.fault = Some("channel-burst");
        lost.fault_extra = vec![("channel-burst", Duration::from_micros(1_500))];
        lost.drop_reason = Some("channel-burst");
        fr.observe(lost, true);
        let json = fr.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"outcome\":\"lost\""));
        assert!(json.contains("\"drop_reason\":\"channel-burst\""));
        assert!(json.contains("\"retained\": 1"));
    }

    /// The JSON of a recorder that keeps every exemplar of `stream` (ping
    /// `i` is `stream[i]`: its rtt in µs and whether it is forced) and
    /// sorts them once at the end.
    fn keep_everything(stream: &[(u64, bool)], worst_k: usize, forced_cap: usize) -> String {
        let mut all: Vec<TailExemplar> =
            stream.iter().enumerate().map(|(ping, &(rtt, _))| ex(ping as u64, rtt)).collect();
        all.sort_by_key(TailExemplar::key);
        let forced: Vec<TailExemplar> =
            all.iter().filter(|e| stream[e.ping as usize].1).take(forced_cap).cloned().collect();
        all.truncate(worst_k);
        FlightRecorder {
            worst: Bounded { cap: worst_k, kept: all, floor: None },
            forced: Bounded { cap: forced_cap, kept: forced, floor: None },
            observed: stream.len() as u64,
            forced_observed: stream.iter().filter(|&&(_, forced)| forced).count() as u64,
        }
        .to_json()
    }

    mod admission {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn shards_with_parent_floors_keep_what_keeping_everything_keeps(
                stream in prop::collection::vec((0u64..40, any::<bool>()), 0..300),
                worst_k in 0usize..8,
                forced_cap in 0usize..8,
                shards in prop::collection::vec((1usize..40, 0usize..4, any::<bool>()), 1..12),
            ) {
                let mut parent = FlightRecorder::new(worst_k, forced_cap);
                // The parent after each merge. A shard takes its floors from
                // the parent `lag` merges ago, as one handed out before its
                // predecessors landed would.
                let mut history = vec![parent.clone()];
                let mut spare: Option<FlightRecorder> = None;
                let mut pings = (0u64..).zip(stream.iter().copied()).peekable();
                for &(len, lag, recycle) in shards.iter().cycle() {
                    if pings.peek().is_none() {
                        break;
                    }
                    let handed_out_under = &history[history.len() - 1 - lag.min(history.len() - 1)];
                    let mut shard = match spare.take() {
                        Some(mut used) if recycle => {
                            used.clear_below(handed_out_under);
                            used
                        }
                        _ => FlightRecorder::below(handed_out_under),
                    };
                    for (ping, (rtt_us, forced)) in pings.by_ref().take(len) {
                        let mut built = false;
                        shard.record(ping, Duration::from_micros(rtt_us), forced, || {
                            built = true;
                            ex(ping, rtt_us)
                        });
                        let kept = shard.exemplars().iter().any(|e| e.ping == ping);
                        prop_assert_eq!(built, kept, "ping {} built {} but kept {}", ping, built, kept);
                    }
                    parent.merge(&shard);
                    history.push(parent.clone());
                    spare = Some(shard);
                }
                prop_assert_eq!(parent.to_json(), keep_everything(&stream, worst_k, forced_cap));
            }
        }
    }
}
