//! Benchmark-side spans around each public call into the program: name,
//! start, end, parent span and batch id. Spans stay in memory, are written
//! out when the run ends, and are reduced to per-name self times (a span's
//! duration minus what its child spans cover).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub batch: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

/// In-memory span recorder. A disabled tracer records nothing, so the
/// same pass code serves the untimed and the traced run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    batch: u32,
}

/// Handle of an open span (`None` when the tracer is disabled).
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), batch: 0 }
    }

    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// Tags subsequently opened spans with `batch`.
    pub fn set_batch(&mut self, batch: u32) {
        self.batch = batch;
    }

    /// An empty tracer on this one's clock, for work run on another
    /// thread; merge it back with [`Tracer::absorb`].
    pub fn fork(&self, batch: u32) -> Self {
        Self {
            enabled: self.enabled,
            origin: self.origin,
            spans: Vec::new(),
            open: Vec::new(),
            batch,
        }
    }

    /// Appends the spans of a tracer forked from this one; its root spans
    /// become children of this tracer's innermost open span.
    pub fn absorb(&mut self, other: Tracer) {
        let (offset, parent) = (self.spans.len(), self.open.last().copied());
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset).or(parent);
            s
        }));
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            batch: self.batch,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes `span` and any span opened inside it that is still open
    /// (a pass that bailed out early on a failed check).
    pub fn end(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.begin(name);
        let out = f();
        self.end(span);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name count, total and self time.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        reduce(&self.spans)
    }

    /// Tab-separated dump: id, parent, batch, name, start, end (ns).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tbatch\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            writeln!(out, "{i}\t{parent}\t{}\t{}\t{}\t{}", s.batch, s.name, s.start_ns, s.end_ns)
                .expect("writing to a String");
        }
        out
    }
}

/// Reduces spans to per-name totals; self time is each span's duration
/// minus the durations of its direct children.
pub fn reduce(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ms += s.duration_ns() as f64 / 1e6;
        t.self_ms += s.duration_ns().saturating_sub(child_ns[i]) as f64 / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, batch: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("pass", 0, 10_000_000, None),
            span("replay", 1_000_000, 7_000_000, Some(0)),
            span("des", 2_000_000, 6_000_000, Some(1)),
            span("replay", 8_000_000, 9_000_000, Some(0)),
        ];
        let t = reduce(&spans);
        assert_eq!(t["pass"].self_ms, 3.0);
        assert_eq!(t["replay"].count, 2);
        assert_eq!(t["replay"].total_ms, 7.0);
        assert_eq!(t["replay"].self_ms, 3.0);
        assert_eq!(t["des"].self_ms, 4.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::disabled();
        let s = tr.begin("x");
        tr.end(s);
        assert_eq!(tr.time("y", || 7), 7);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn nesting_links_parents() {
        let mut tr = Tracer::new(true);
        tr.set_batch(3);
        let outer = tr.begin("outer");
        tr.time("inner", || ());
        tr.end(outer);
        let spans = tr.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].batch, 3);
        assert!(tr.to_tsv().lines().count() == 3);
    }

    #[test]
    fn absorbed_spans_keep_their_tree_under_the_open_span() {
        let mut tr = Tracer::new(true);
        tr.time("before", || ());
        let pass = tr.begin("pass");
        let mut forked = tr.fork(5);
        let stream = forked.begin("stream");
        forked.time("call", || ());
        forked.end(stream);
        tr.absorb(forked);
        tr.end(pass);
        let spans = tr.spans();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["before", "pass", "stream", "call"]);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!((spans[2].batch, spans[3].batch), (5, 5));
        assert!(spans[1].start_ns <= spans[2].start_ns && spans[3].end_ns <= spans[1].end_ns);
    }
}
