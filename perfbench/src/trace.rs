//! In-memory span recorder for the traced run. Spans are opened and
//! closed from the benchmark's own files around calls into the
//! platform's public API; the platform itself carries no tracing.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call: what ran, when, which span caused it, and the
/// operation (job or request id) it served.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    pub ns: u64,
    pub calls: u64,
}

impl SelfTime {
    /// Mean self time per call in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// A single-threaded span recorder. Spans nest by call order: a span
/// begun while another is open is its child.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Each name's self time: its spans' durations minus the part
    /// their direct children cover (children never overlap, since one
    /// thread records them in call order).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.ns += (span.end_ns - span.start_ns).saturating_sub(children);
            entry.calls += 1;
        }
        out
    }

    /// Total duration of the root spans (those without a parent).
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                span.name, span.start_ns, span.end_ns, span.op
            )?;
        }
        out.flush()
    }
}

/// An optional tracer: records spans when tracing, and does nothing
/// (not even a clock read) when not, so an untraced re-enactment is
/// the overhead baseline of the traced one.
pub struct Rec<'a>(pub Option<&'a mut Tracer>);

impl Rec<'_> {
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        match self.0.as_deref_mut() {
            Some(t) => t.span(name, op, f),
            None => f(),
        }
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> Option<usize> {
        self.0.as_deref_mut().map(|t| t.begin(name, op))
    }

    pub fn end(&mut self, id: Option<usize>) {
        if let (Some(t), Some(id)) = (self.0.as_deref_mut(), id) {
            t.end(id);
        }
    }
}

/// Self times folded over many tracers (one per traced pass), so the
/// spans of each pass can be dropped once counted.
#[derive(Debug, Default)]
pub struct Profile {
    pub stages: BTreeMap<&'static str, SelfTime>,
    pub root_ns: u64,
    pub spans: u64,
}

impl Profile {
    pub fn fold(&mut self, tracer: &Tracer) {
        for (name, t) in tracer.self_times() {
            let entry = self.stages.entry(name).or_default();
            entry.ns += t.ns;
            entry.calls += t.calls;
        }
        self.root_ns += tracer.root_ns();
        self.spans += tracer.len() as u64;
    }

    /// Mean self time per call of `name`, in nanoseconds.
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.stages.get(name).map_or(0.0, SelfTime::mean_ns)
    }

    /// Share of root-span time spent in the self time of `names`.
    pub fn coverage(&self, names: &[&str]) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        let covered: u64 = names
            .iter()
            .filter_map(|n| self.stages.get(n))
            .map(|t| t.ns)
            .sum();
        covered as f64 / self.root_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.begin("pass", 0);
        let job = t.begin("job", 1);
        t.span("stage", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(job);
        t.end(root);
        let selfs = t.self_times();
        let total = t.root_ns();
        let sum: u64 = selfs.values().map(|s| s.ns).sum();
        assert_eq!(sum, total, "self times partition the root span");
        assert!(selfs["stage"].ns >= 2_000_000);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(1));
    }
}
