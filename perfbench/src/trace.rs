//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start, an end, a parent and a request id. Spans
//! are kept in memory and written out as JSON lines when the run ends. A
//! span's self time is its duration minus the part of it that its
//! children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the tracer, if any.
    pub parent: Option<usize>,
    /// Spans of one request (one campaign round, one served read) share it.
    pub request: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name aggregate of span self times.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageTimes {
    /// Self time of every span with this name, in ns, in record order.
    pub self_ns: Vec<u64>,
}

impl StageTimes {
    pub fn total_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }
}

/// An in-memory span recorder. `enter` / `exit` nest: a span entered
/// while another is open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: u64) -> usize {
        let start_ns = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end;
    }

    /// Time `f` as a span (a leaf unless `f` records into another tracer).
    pub fn time<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    /// Record a span measured elsewhere (e.g. on a load-generator thread).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(SpanRec {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        id
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals, each clipped to the parent's interval.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Self times grouped by span name.
    pub fn stages(&self) -> BTreeMap<&'static str, StageTimes> {
        let mut out: BTreeMap<&'static str, StageTimes> = BTreeMap::new();
        for (s, st) in self.spans.iter().zip(self.self_times()) {
            out.entry(s.name).or_default().self_ns.push(st);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(origin: Instant, ms: u64) -> Instant {
        origin + Duration::from_millis(ms)
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let o = Instant::now();
        let mut t = Tracer::new(o);
        let round = t.record("round", 1, at(o, 0), at(o, 100), None);
        let tune = t.record("fine_tune", 1, at(o, 10), at(o, 60), Some(round));
        // A grandchild counts against its parent, not the round.
        t.record("epoch", 1, at(o, 20), at(o, 50), Some(tune));
        t.record("eval", 1, at(o, 70), at(o, 90), Some(round));
        let st = t.self_times();
        assert_eq!(st[0], 30_000_000); // 100 - 50 - 20
        assert_eq!(st[1], 20_000_000); // 50 - 30
        assert_eq!(st[2], 30_000_000);
        assert_eq!(st[3], 20_000_000);
        let stages = t.stages();
        assert_eq!(stages["round"].total_ns(), 30_000_000);
        // Self times of a tree add up to the root's duration.
        assert_eq!(st.iter().sum::<u64>(), 100_000_000);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let o = Instant::now();
        let mut t = Tracer::new(o);
        let p = t.record("request", 7, at(o, 10), at(o, 50), None);
        t.record("a", 7, at(o, 0), at(o, 20), Some(p)); // overhangs the start
        t.record("b", 7, at(o, 15), at(o, 30), Some(p)); // overlaps a
        t.record("c", 7, at(o, 45), at(o, 70), Some(p)); // overhangs the end
        assert_eq!(t.self_times()[0], 15_000_000); // 40 - (10..30) - (45..50)
    }

    #[test]
    fn enter_and_exit_nest() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.enter("outer", 3);
        t.time("inner", 3, || std::thread::sleep(Duration::from_millis(2)));
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 3);
        let st = t.self_times();
        assert!(st[1] >= 2_000_000);
        assert_eq!(st[0] + st[1], spans[0].dur_ns());
    }
}
