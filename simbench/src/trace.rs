//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start, an end and the index of the span that caused
//! it. Spans are recorded at the boundaries where the benchmark calls into
//! the program, kept in memory, and written out once the run ends. A span's
//! *self time* is its duration minus the union of its children's intervals,
//! so concurrent children (a pipelined writer thread beside the compute
//! stage) are not counted twice.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed interval, in nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `explore.cache.get`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Thread-safe span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`close`](Self::close).
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start = self.now();
        let mut spans = self.spans.lock().expect("span list lock");
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        spans.len() - 1
    }

    /// Closes a span opened with [`open`](Self::open).
    pub fn close(&self, id: SpanId) {
        let end = self.now();
        self.spans.lock().expect("span list lock")[id].end = end;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// A copy of every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }
}

/// Length of the union of `intervals` (half-open `[start, end)`).
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    if let Some((s, e)) = current {
        total += e - s;
    }
    total
}

/// Self time of `spans[id]`: its duration minus the union of its direct
/// children's intervals, each clipped to the parent's interval.
pub fn self_time(spans: &[Span], id: SpanId) -> u64 {
    let parent = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
        .filter(|(start, end)| start < end)
        .collect();
    parent.duration() - union_len(&mut children)
}

/// Per-name totals: `(count, summed duration in ns)`.
pub fn totals(spans: &[Span]) -> HashMap<&'static str, (u64, u64)> {
    let mut totals: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for span in spans {
        let entry = totals.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.duration();
    }
    totals
}

/// Renders spans as JSON lines: `{"id":..,"name":..,"start_us":..,"end_us":..,"parent":..}`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent}}}\n",
            span.name,
            span.start as f64 / 1e3,
            span.end as f64 / 1e3,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(union_len(&mut []), 0);
        assert_eq!(union_len(&mut [(0, 10)]), 10);
        assert_eq!(union_len(&mut [(5, 15), (0, 10)]), 15);
        assert_eq!(union_len(&mut [(0, 10), (20, 30)]), 20);
        assert_eq!(union_len(&mut [(0, 10), (10, 20)]), 20);
        assert_eq!(union_len(&mut [(0, 30), (5, 10), (12, 14)]), 30);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            // Two concurrent children overlapping on [20, 30).
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            // A grandchild does not count against the root directly.
            span("c", 50, 90, Some(1)),
            // A child running past its parent is clipped.
            span("d", 95, 120, Some(0)),
        ];
        assert_eq!(self_time(&spans, 0), 100 - 30 - 5);
        assert_eq!(self_time(&spans, 1), 20);
        assert_eq!(self_time(&spans, 3), 40);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span("x", 0, 10, None),
            span("x", 10, 15, None),
            span("y", 0, 1, None),
        ];
        let totals = totals(&spans);
        assert_eq!(totals["x"], (2, 15));
        assert_eq!(totals["y"], (1, 1));
    }

    #[test]
    fn recorder_nests_spans() {
        let tracer = Tracer::new();
        let outer = tracer.open("outer", None);
        let inner = tracer.time("inner", Some(outer), || tracer.now());
        tracer.close(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(outer));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert!(inner >= spans[1].start);
        assert!(to_jsonl(&spans).lines().count() == 2);
    }
}
