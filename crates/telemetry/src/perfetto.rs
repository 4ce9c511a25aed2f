//! Chrome trace-event / Perfetto JSON exporter for the event journal.
//!
//! The output follows the Trace Event Format's JSON-object flavor
//! (`{"traceEvents": [...]}`) understood by both `chrome://tracing` and
//! <https://ui.perfetto.dev>. Each ping renders as one *process* with an
//! uplink thread, a downlink thread and a point-event thread, so a full
//! journey shows up as a flamegraph-style timeline; fabric-level events
//! (fault injections, path supervision) live in a dedicated process 0.
//!
//! The workspace vendors no JSON serializer, so the document is emitted
//! by hand — field order is fixed, timestamps are microseconds with
//! nanosecond precision, and the whole export is deterministic (the
//! golden-file test compares it byte for byte).

use core::fmt;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::io;

use crate::journal::JournalEvent;

/// Why a trace export failed. Formatting into an in-memory `String`
/// cannot fail, so in practice every real failure is an [`io::Error`]
/// from the destination (disk full, permission, closed pipe) — but the
/// formatter path is typed rather than unwrapped so no exporter code
/// panics.
#[derive(Debug)]
pub enum TraceExportError {
    /// The trace document could not be formatted.
    Format(fmt::Error),
    /// The destination writer failed.
    Io(io::Error),
}

impl fmt::Display for TraceExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceExportError::Format(e) => write!(f, "trace formatting failed: {e}"),
            TraceExportError::Io(e) => write!(f, "trace write failed: {e}"),
        }
    }
}

impl std::error::Error for TraceExportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceExportError::Format(e) => Some(e),
            TraceExportError::Io(e) => Some(e),
        }
    }
}

impl From<io::Error> for TraceExportError {
    fn from(e: io::Error) -> TraceExportError {
        TraceExportError::Io(e)
    }
}

impl From<fmt::Error> for TraceExportError {
    fn from(e: fmt::Error) -> TraceExportError {
        TraceExportError::Format(e)
    }
}

/// Process id used for events not tied to one ping (faults, path
/// supervision). Ping `n` maps to pid `n + 1`.
pub(crate) const FABRIC_PID: u64 = 0;

const TID_UL: u64 = 1;
const TID_DL: u64 = 2;
const TID_EVENTS: u64 = 3;

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn ts_us(nanos: u64) -> String {
    format!("{:.3}", nanos as f64 / 1_000.0)
}

/// Writes `events` into `w` as a Chrome trace-event JSON document,
/// surfacing formatter and I/O failures as a typed [`TraceExportError`]
/// instead of panicking. This is the `io::Result`-style export path used
/// by `repro trace`.
///
/// Stages become `"ph":"X"` complete events; everything else becomes a
/// `"ph":"i"` instant. Metadata events name each process and thread so
/// the Perfetto UI shows "ping 3 / uplink" instead of raw ids.
pub fn export_chrome_trace<W: io::Write>(
    w: &mut W,
    events: &[JournalEvent],
) -> Result<(), TraceExportError> {
    let mut doc = String::new();
    write_chrome_trace(&mut doc, events)?;
    w.write_all(doc.as_bytes())?;
    Ok(())
}

/// Formats the trace document into any `fmt::Write` sink, propagating
/// write errors with `?` (no `.unwrap()` anywhere on the render path).
pub(crate) fn write_chrome_trace<W: fmt::Write>(
    out: &mut W,
    events: &[JournalEvent],
) -> fmt::Result {
    let mut lines: Vec<String> = Vec::new();
    let mut pids: BTreeSet<u64> = BTreeSet::new();
    let mut threads: BTreeSet<(u64, u64)> = BTreeSet::new();

    for ev in events {
        let (pid, tid) = placement(ev);
        pids.insert(pid);
        threads.insert((pid, tid));
        lines.push(render_event(ev, pid, tid)?);
    }

    let mut meta: Vec<String> = Vec::new();
    for &pid in &pids {
        let pname =
            if pid == FABRIC_PID { "fabric".to_string() } else { format!("ping {}", pid - 1) };
        meta.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{pname}\"}}}}"
        ));
    }
    for &(pid, tid) in &threads {
        let tname = match tid {
            TID_UL => {
                if pid == FABRIC_PID {
                    "faults"
                } else {
                    "uplink"
                }
            }
            TID_DL => {
                if pid == FABRIC_PID {
                    "path"
                } else {
                    "downlink"
                }
            }
            _ => "events",
        };
        meta.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{tname}\"}}}}"
        ));
    }

    out.write_str("{\"traceEvents\":[\n")?;
    let total = meta.len() + lines.len();
    for (i, line) in meta.into_iter().chain(lines).enumerate() {
        out.write_str("  ")?;
        out.write_str(&line)?;
        out.write_str(if i + 1 < total { ",\n" } else { "\n" })?;
    }
    out.write_str("],\"displayTimeUnit\":\"ns\"}\n")?;
    Ok(())
}

fn placement(ev: &JournalEvent) -> (u64, u64) {
    match *ev {
        JournalEvent::Stage { ping, dl, .. } => (ping + 1, if dl { TID_DL } else { TID_UL }),
        JournalEvent::Grant { ping, .. }
        | JournalEvent::SrAttempt { ping, .. }
        | JournalEvent::Rlf { ping, .. }
        | JournalEvent::RrcReestablished { ping, .. }
        | JournalEvent::Drop { ping, .. } => (ping + 1, TID_EVENTS),
        JournalEvent::HarqNack { ping, .. } => (ping + 1, TID_EVENTS),
        JournalEvent::FaultInjected { .. } => (FABRIC_PID, TID_UL),
        JournalEvent::Handover { .. } => (FABRIC_PID, TID_DL),
        JournalEvent::PathEvent { .. } => (FABRIC_PID, TID_DL),
        JournalEvent::Marker { .. } => (FABRIC_PID, TID_EVENTS),
    }
}

fn render_event(ev: &JournalEvent, pid: u64, tid: u64) -> Result<String, fmt::Error> {
    let mut s = String::new();
    match *ev {
        JournalEvent::Stage { stage, start, end, .. } => {
            let dur = end.as_nanos().saturating_sub(start.as_nanos());
            write!(
                s,
                "{{\"name\":\"{}\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{pid},\"tid\":{tid}}}",
                esc(stage.as_str()),
                ts_us(start.as_nanos()),
                ts_us(dur),
            )?;
        }
        JournalEvent::Grant { at, bytes, .. } => {
            write!(
                s,
                "{{\"name\":\"UL grant\",\"cat\":\"mac\",\"ph\":\"i\",\"ts\":{},\"pid\":{pid},\
                 \"tid\":{tid},\"s\":\"t\",\"args\":{{\"bytes\":{bytes}}}}}",
                ts_us(at.as_nanos()),
            )?;
        }
        JournalEvent::SrAttempt { at, lost, .. } => {
            let name = if lost { "SR (lost)" } else { "SR" };
            write!(
                s,
                "{{\"name\":\"{name}\",\"cat\":\"mac\",\"ph\":\"i\",\"ts\":{},\"pid\":{pid},\
                 \"tid\":{tid},\"s\":\"t\"}}",
                ts_us(at.as_nanos()),
            )?;
        }
        JournalEvent::HarqNack { round, at, .. } => {
            write!(
                s,
                "{{\"name\":\"HARQ NACK\",\"cat\":\"mac\",\"ph\":\"i\",\"ts\":{},\"pid\":{pid},\
                 \"tid\":{tid},\"s\":\"t\",\"args\":{{\"round\":{round}}}}}",
                ts_us(at.as_nanos()),
            )?;
        }
        JournalEvent::FaultInjected { kind, at, extra } => {
            write!(
                s,
                "{{\"name\":\"{}\",\"cat\":\"fault\",\"ph\":\"i\",\"ts\":{},\"pid\":{pid},\
                 \"tid\":{tid},\"s\":\"g\",\"args\":{{\"extra_us\":{:.3}}}}}",
                esc(kind.label()),
                ts_us(at.as_nanos()),
                extra.as_micros_f64(),
            )?;
        }
        JournalEvent::Rlf { at, dl, .. } => {
            let name = if dl { "RLF (dl)" } else { "RLF (ul)" };
            write!(
                s,
                "{{\"name\":\"{name}\",\"cat\":\"rrc\",\"ph\":\"i\",\"ts\":{},\"pid\":{pid},\
                 \"tid\":{tid},\"s\":\"t\"}}",
                ts_us(at.as_nanos()),
            )?;
        }
        JournalEvent::RrcReestablished { at, ok, .. } => {
            let name = if ok { "RRC reestablished" } else { "RRC reestablish failed" };
            write!(
                s,
                "{{\"name\":\"{name}\",\"cat\":\"rrc\",\"ph\":\"i\",\"ts\":{},\"pid\":{pid},\
                 \"tid\":{tid},\"s\":\"t\"}}",
                ts_us(at.as_nanos()),
            )?;
        }
        JournalEvent::Drop { at, reason, .. } => {
            write!(
                s,
                "{{\"name\":\"drop: {}\",\"cat\":\"overload\",\"ph\":\"i\",\"ts\":{},\
                 \"pid\":{pid},\"tid\":{tid},\"s\":\"t\"}}",
                esc(reason.label()),
                ts_us(at.as_nanos()),
            )?;
        }
        JournalEvent::Handover { from, to, label, at } => {
            write!(
                s,
                "{{\"name\":\"HO {}\",\"cat\":\"rrc\",\"ph\":\"i\",\"ts\":{},\"pid\":{pid},\
                 \"tid\":{tid},\"s\":\"g\",\"args\":{{\"from\":{from},\"to\":{to}}}}}",
                esc(label),
                ts_us(at.as_nanos()),
            )?;
        }
        JournalEvent::PathEvent { label, at } => {
            write!(
                s,
                "{{\"name\":\"{}\",\"cat\":\"corenet\",\"ph\":\"i\",\"ts\":{},\"pid\":{pid},\
                 \"tid\":{tid},\"s\":\"g\"}}",
                esc(label),
                ts_us(at.as_nanos()),
            )?;
        }
        JournalEvent::Marker { label, at } => {
            write!(
                s,
                "{{\"name\":\"{}\",\"cat\":\"marker\",\"ph\":\"i\",\"ts\":{},\"pid\":{pid},\
                 \"tid\":{tid},\"s\":\"g\"}}",
                esc(label),
                ts_us(at.as_nanos()),
            )?;
        }
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stage;
    use sim::{Duration, FaultKind, Instant};

    /// The document as a `String` (`String`'s `fmt::Write` never errors).
    fn chrome_trace_json(events: &[JournalEvent]) -> String {
        let mut out = String::new();
        write_chrome_trace(&mut out, events).expect("String sink cannot fail");
        out
    }

    /// Golden-file test: the exporter's output is part of its contract
    /// (CI uploads these traces; Perfetto must keep loading them).
    #[test]
    fn golden_trace_document() {
        let events = [
            JournalEvent::Stage {
                ping: 0,
                dl: false,
                stage: Stage::Radio,
                start: Instant::from_micros(10),
                end: Instant::from_micros(35),
            },
            JournalEvent::Stage {
                ping: 0,
                dl: true,
                stage: Stage::DlData,
                start: Instant::from_micros(40),
                end: Instant::from_nanos(60_500),
            },
            JournalEvent::SrAttempt { ping: 0, at: Instant::from_micros(5), lost: true },
            JournalEvent::FaultInjected {
                kind: FaultKind::JitterStorm,
                at: Instant::from_micros(12),
                extra: Duration::from_micros(250),
            },
        ];
        let got = chrome_trace_json(&events);
        let want = concat!(
            "{\"traceEvents\":[\n",
            "  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"fabric\"}},\n",
            "  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"ping 0\"}},\n",
            "  {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,\"args\":{\"name\":\"faults\"}},\n",
            "  {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"uplink\"}},\n",
            "  {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,\"args\":{\"name\":\"downlink\"}},\n",
            "  {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":3,\"args\":{\"name\":\"events\"}},\n",
            "  {\"name\":\"radio\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":10.000,\"dur\":25.000,\"pid\":1,\"tid\":1},\n",
            "  {\"name\":\"DL data\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":40.000,\"dur\":20.500,\"pid\":1,\"tid\":2},\n",
            "  {\"name\":\"SR (lost)\",\"cat\":\"mac\",\"ph\":\"i\",\"ts\":5.000,\"pid\":1,\"tid\":3,\"s\":\"t\"},\n",
            "  {\"name\":\"jitter-storm\",\"cat\":\"fault\",\"ph\":\"i\",\"ts\":12.000,\"pid\":0,\"tid\":1,\"s\":\"g\",\"args\":{\"extra_us\":250.000}}\n",
            "],\"displayTimeUnit\":\"ns\"}\n",
        );
        assert_eq!(got, want);
    }

    #[test]
    fn empty_journal_still_valid_document() {
        let got = chrome_trace_json(&[]);
        assert_eq!(got, "{\"traceEvents\":[\n],\"displayTimeUnit\":\"ns\"}\n");
    }

    #[test]
    fn braces_balance_on_every_event_kind() {
        let events = [
            JournalEvent::Grant { ping: 2, at: Instant::from_micros(1), bytes: 32 },
            JournalEvent::HarqNack { ping: 2, dl: true, round: 1, at: Instant::from_micros(2) },
            JournalEvent::Rlf { ping: 2, dl: false, at: Instant::from_micros(3) },
            JournalEvent::RrcReestablished { ping: 2, at: Instant::from_micros(4), ok: true },
            JournalEvent::PathEvent { label: "failover", at: Instant::from_micros(5) },
            JournalEvent::Marker { label: "tick", at: Instant::from_micros(6) },
        ];
        let doc = chrome_trace_json(&events);
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
        assert!(doc.contains("\"UL grant\""));
        assert!(doc.contains("\"HARQ NACK\""));
        assert!(doc.contains("\"args\":{\"round\":1}"));
        assert!(doc.contains("\"ping 2\""));
        assert!(doc.contains("{\"name\":\"tick\",\"cat\":\"marker\",\"ph\":\"i\",\"ts\":6.000,"));
    }

    #[test]
    fn export_path_writes_identical_bytes_and_types_io_errors() {
        let events = [JournalEvent::Marker { label: "tick", at: Instant::ZERO }];
        let mut buf: Vec<u8> = Vec::new();
        export_chrome_trace(&mut buf, &events).expect("Vec sink cannot fail");
        assert_eq!(String::from_utf8(buf).unwrap(), chrome_trace_json(&events));

        struct Broken;
        impl std::io::Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = export_chrome_trace(&mut Broken, &events).unwrap_err();
        assert!(matches!(err, TraceExportError::Io(_)));
        assert!(err.to_string().contains("disk on fire"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn fault_kind_label_check() {
        // The golden test hard-codes FaultKind::JitterStorm's label; keep
        // them in sync.
        assert_eq!(FaultKind::JitterStorm.label(), "jitter-storm");
    }
}
