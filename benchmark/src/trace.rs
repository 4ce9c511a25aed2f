//! Spans recorded by the benchmark itself around its calls into the
//! program: kept in memory, written out once when the traced pass ends.
//! Spans inside the program are a later change.

use std::fmt::Write as _;
use std::time::Instant;

use crate::metrics::{json_number, quote};

/// One timed interval. `parent` indexes the span list; the root has none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// The spans of one traced pass. All belong to one workload, whose name is
/// the shared identifier written on every span.
pub struct Tracer {
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// Starts the trace and opens the root span, named after the workload.
    pub fn new(workload: &'static str) -> Tracer {
        let mut t =
            Tracer { origin: Instant::now(), workload, spans: Vec::new(), open: Vec::new() };
        t.enter(workload);
        t
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &str) {
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span { name: name.into(), start_ns, end_ns: start_ns, parent });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Closes whatever is still open (the root) and returns the spans.
    pub fn finish(mut self) -> Trace {
        while !self.open.is_empty() {
            self.exit();
        }
        Trace { workload: self.workload, spans: self.spans }
    }
}

/// A finished trace.
pub struct Trace {
    pub workload: &'static str,
    pub spans: Vec<Span>,
}

impl Trace {
    /// A span's duration minus the part its children cover.
    pub fn self_time_ns(&self, id: usize) -> u64 {
        let own = self.spans[id].end_ns - self.spans[id].start_ns;
        let children: u64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(|s| s.end_ns - s.start_ns).sum();
        own.saturating_sub(children)
    }

    /// The trace file: the span list and the per-layer table of the pass.
    pub fn to_json(&self, per_layer: &[(String, f64, &'static str)]) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{\n  \"workload\": {},\n  \"spans\": [", quote(self.workload));
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
                 \"self_ns\": {}, \"workload\": {}}}{comma}",
                quote(&s.name),
                s.start_ns,
                s.end_ns,
                self.self_time_ns(id),
                quote(self.workload),
            );
        }
        out.push_str("  ],\n  \"per_layer\": {\n");
        for (i, (name, value, unit)) in per_layer.iter().enumerate() {
            let comma = if i + 1 == per_layer.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {}: {{\"value\": {}, \"unit\": {}}}{comma}",
                quote(name),
                json_number(*value),
                quote(unit)
            );
        }
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new("w");
        t.enter("rep.0");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit();
        t.enter("layers");
        t.enter("phy.crc");
        t.exit();
        t.exit();
        let trace = t.finish();
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["w", "rep.0", "layers", "phy.crc"]);
        assert_eq!(trace.spans[0].parent, None);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[3].parent, Some(2));
        for s in &trace.spans {
            assert!(s.end_ns >= s.start_ns);
        }
        let root = trace.spans[0].end_ns - trace.spans[0].start_ns;
        assert!(trace.self_time_ns(0) < root, "the 2 ms child is not the root's own time");
        let json = trace.to_json(&[("phy.crc".into(), 1.5, "ns/op")]);
        assert!(
            json.contains("\"name\": \"rep.0\"") && json.contains("\"phy.crc\": {\"value\": 1.5")
        );
    }
}
