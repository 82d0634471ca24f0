//! In-memory spans for the traced pass.
//!
//! Every per-layer number is the duration of a span the benchmark opens
//! around one public call into a layer. A span carries its parent and
//! the id of the operation it belongs to, so the spans of one op form a
//! tree whose self times show where the op's time went. Spans stay in
//! memory and are written out once, after the run.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run (ids start at 1).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The operation the span belongs to.
    pub op: u64,
    /// Layer call name; also the prefix of the metric it feeds.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    next_op: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_op: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh operation id.
    pub fn new_op(&self) -> u64 {
        self.next_op.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// calls it makes can open child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        out
    }

    /// Records an interval measured by the caller (for example a request
    /// timed from its due time rather than from its send time).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("a thread panicked while recording a span").push(span);
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a thread panicked while recording a span").clone()
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Appends every span as one JSON object per line, with its self
    /// time, to `out`.
    pub fn write_jsonl(&self, workload: &str, out: &mut dyn Write) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times_ns(&spans);
        for (s, self_ns) in spans.iter().zip(selfs) {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{},\"parent\":{parent},\"op\":{},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.id, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover. Overlapping children (from parallel work) are
/// counted once; the parts of children outside the parent are ignored.
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut parts: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    parts.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (s, e) in parts {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.duration_ns() - covered
}

/// Self time of every span in `spans`, index-aligned.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<&Span>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    spans
        .iter()
        .map(|s| self_time_ns(s, children.get(&s.id).map_or(&[][..], Vec::as_slice)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, op: 1, name: "t", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let parent = span(1, None, 0, 100);
        let a = span(2, Some(1), 10, 30);
        let b = span(3, Some(1), 50, 60);
        assert_eq!(self_time_ns(&parent, &[&a, &b]), 70);
        // No children: the whole duration is self time.
        assert_eq!(self_time_ns(&parent, &[]), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let parent = span(1, None, 0, 100);
        let a = span(2, Some(1), 10, 40);
        let b = span(3, Some(1), 30, 50); // overlaps a by 10
        let c = span(4, Some(1), 90, 120); // sticks out past the parent
        assert_eq!(self_time_ns(&parent, &[&c, &b, &a]), 100 - 40 - 10);
    }

    #[test]
    fn self_times_follow_parent_links() {
        let spans =
            vec![span(2, Some(1), 10, 20), span(3, Some(2), 12, 15), span(1, None, 0, 50)];
        assert_eq!(self_times_ns(&spans), vec![7, 3, 40]);
    }

    #[test]
    fn tracer_nests_and_collects() {
        let t = Tracer::new();
        let op = t.new_op();
        let got = t.span("outer", None, op, |id| t.span("inner", Some(id), op, |_| 7));
        assert_eq!(got, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(t.durations_ms("inner").len(), 1);
        let mut buf = Vec::new();
        t.write_jsonl("w", &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            serde_json::value_from_str(line).expect("each span line is JSON");
        }
    }
}
