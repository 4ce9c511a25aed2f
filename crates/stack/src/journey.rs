//! Per-stage latency traces: the paper's Fig 2 (journey steps) and Fig 3
//! (temporal breakdown), as data.

use sim::{Duration, Instant};
use telemetry::Stage;

/// One stage of a packet's journey, with its time span: 24 bytes, since
/// the label is a one-byte [`Stage`] code rather than a string slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSpan {
    /// Stage label, in the paper's Fig 3 vocabulary (`APP↓`, `SR`,
    /// `SCHE`, `MAC↑`, `SDAP↓`, `RLC-q`, `PHY↑`, `radio`, ...).
    pub label: Stage,
    /// Stage start.
    pub start: Instant,
    /// Stage end.
    pub end: Instant,
}

thread_local! {
    /// Spans created with `end < start` since the last
    /// [`take_inverted_spans`] drain. Thread-local so parallel sweep
    /// shards (one shard per thread) each tally their own inversions.
    static INVERTED_SPANS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Drains this thread's inverted-span tally (returns it, resets to zero).
///
/// The experiment driver folds the tally into the `journey/span_inverted`
/// telemetry counter per ping, so a fault-path inversion degrades one trace
/// instead of aborting an entire release sweep.
pub(crate) fn take_inverted_spans() -> u64 {
    INVERTED_SPANS.with(|c| c.replace(0))
}

impl StageSpan {
    /// Creates a span. An inverted span (`end < start`, which only a buggy
    /// fault/recovery path can produce) is clamped to zero width at `start`
    /// and tallied for the `journey/span_inverted` telemetry counter rather
    /// than panicking.
    pub(crate) fn new(label: Stage, start: Instant, end: Instant) -> StageSpan {
        if end < start {
            INVERTED_SPANS.with(|c| c.set(c.get() + 1));
            return StageSpan { label, start, end: start };
        }
        StageSpan { label, start, end }
    }

    /// Stage duration.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// The full trace of one ping round trip.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PingTrace {
    /// Ping identifier.
    pub id: u64,
    /// Uplink (request) stages, in order.
    pub ul: Vec<StageSpan>,
    /// Downlink (reply) stages, in order.
    pub dl: Vec<StageSpan>,
}

impl PingTrace {
    /// Creates an empty trace.
    pub fn new(id: u64) -> PingTrace {
        PingTrace { id, ul: Vec::new(), dl: Vec::new() }
    }

    /// Total uplink latency (first stage start to last stage end).
    pub(crate) fn ul_latency(&self) -> Duration {
        span_total(&self.ul)
    }

    /// Total downlink latency.
    pub(crate) fn dl_latency(&self) -> Duration {
        span_total(&self.dl)
    }

    /// Round-trip time.
    pub fn rtt(&self) -> Duration {
        if self.ul.is_empty() || self.dl.is_empty() {
            return Duration::ZERO;
        }
        self.dl.last().expect("non-empty").end - self.ul.first().expect("non-empty").start
    }

    /// Renders the trace as an ASCII timeline (one line per stage) — the
    /// `repro fig3` output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let origin = match self.ul.first() {
            Some(s) => s.start,
            None => return out,
        };
        out.push_str(&format!("ping #{} — uplink (request)\n", self.id));
        render_side(&mut out, &self.ul, origin);
        out.push_str("downlink (reply)\n");
        render_side(&mut out, &self.dl, origin);
        out.push_str(&format!(
            "one-way UL {:>10}   one-way DL {:>10}   RTT {:>10}\n",
            format!("{}", self.ul_latency()),
            format!("{}", self.dl_latency()),
            format!("{}", self.rtt()),
        ));
        out
    }
}

fn span_total(spans: &[StageSpan]) -> Duration {
    match (spans.first(), spans.last()) {
        (Some(a), Some(b)) => b.end - a.start,
        _ => Duration::ZERO,
    }
}

fn render_side(out: &mut String, spans: &[StageSpan], origin: Instant) {
    for s in spans {
        let from = s.start - origin;
        let to = s.end - origin;
        out.push_str(&format!(
            "  {:<14} {:>10} → {:>10}  ({:>9})\n",
            s.label,
            format!("{from}"),
            format!("{to}"),
            format!("{}", s.duration()),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> Instant {
        Instant::from_micros(v)
    }

    #[test]
    fn totals_and_rtt() {
        let mut t = PingTrace::new(1);
        t.ul.push(StageSpan::new(Stage::AppDown, us(0), us(50)));
        t.ul.push(StageSpan::new(Stage::UlData, us(500), us(600)));
        t.dl.push(StageSpan::new(Stage::SdapDown, us(650), us(700)));
        t.dl.push(StageSpan::new(Stage::PhyUp, us(1_200), us(1_300)));
        assert_eq!(t.ul_latency(), Duration::from_micros(600));
        assert_eq!(t.dl_latency(), Duration::from_micros(650));
        assert_eq!(t.rtt(), Duration::from_micros(1_300));
    }

    #[test]
    fn empty_trace_is_zero() {
        let t = PingTrace::new(0);
        assert_eq!(t.ul_latency(), Duration::ZERO);
        assert_eq!(t.rtt(), Duration::ZERO);
        assert_eq!(t.render(), "");
    }

    #[test]
    fn render_contains_stages_and_totals() {
        let mut t = PingTrace::new(3);
        t.ul.push(StageSpan::new(Stage::AppDown, us(0), us(10)));
        t.dl.push(StageSpan::new(Stage::PhyUp, us(20), us(30)));
        let r = t.render();
        // The label pads to its column as the string did.
        assert!(r.contains(&format!("\n  {:<14} ", "APP↓")), "{r}");
        assert!(r.contains("PHY↑"));
        assert!(r.contains("RTT"));
        assert!(r.contains("ping #3"));
    }

    #[test]
    fn a_span_is_three_words() {
        assert_eq!(std::mem::size_of::<StageSpan>(), 24);
    }

    #[test]
    fn inverted_span_clamps_to_start_and_is_counted() {
        take_inverted_spans(); // drain any tally left by sibling tests
        let s = StageSpan::new(Stage::Sr, us(10), us(5));
        assert_eq!(s.start, us(10));
        assert_eq!(s.end, us(10));
        assert_eq!(s.duration(), Duration::ZERO);
        assert_eq!(take_inverted_spans(), 1);
        // Drained: the counter resets, and well-formed spans don't tally.
        let _ = StageSpan::new(Stage::Sr, us(5), us(10));
        assert_eq!(take_inverted_spans(), 0);
    }
}
