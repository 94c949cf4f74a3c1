//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark itself, around its calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. Each span has a name, start, end, parent and op id;
//! the whole list is written out once the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval, in seconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `align.kernel`; the root of an op is `op`.
    pub name: &'static str,
    /// Start time (s).
    pub start: f64,
    /// End time (s).
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Op the span belongs to (0 for set-up).
    pub op: u64,
}

/// Span recorder with an explicit stack of open spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Sets the op id that new spans carry.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Times `f` as a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Records an interval measured elsewhere (a client-side round
    /// trip) as a root span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let at = |t: Instant| t.duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent: None,
            op: self.op,
        });
    }

    /// Appends every span of `other` (recorded with its own clock) to
    /// this tracer, under `other`'s op ids.
    pub fn append(&mut self, other: &Tracer) {
        let shift = other.origin.duration_since(self.origin).as_secs_f64();
        let base = self.spans.len();
        self.spans.extend(other.spans.iter().map(|s| Span {
            start: s.start + shift,
            end: s.end + shift,
            parent: s.parent.map(|p| p + base),
            ..s.clone()
        }));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated rows.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "idx\top\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{:.0}\t{:.0}",
                s.op,
                s.name,
                s.start * 1e9,
                s.end * 1e9
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its child spans (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                }
                reach = reach.max(b);
            }
            (s.end - s.start - covered).max(0.0)
        })
        .collect()
}

/// One traced op: its wall time and the self time of every layer
/// span under it, by name.
#[derive(Debug, Clone, Default)]
pub struct OpLayers {
    /// Duration of the op's root span (s).
    pub wall: f64,
    /// Summed self time per layer name (s); the root is excluded.
    pub layers: BTreeMap<&'static str, f64>,
}

impl OpLayers {
    /// Share of the op's wall time its layers account for.
    pub fn coverage(&self) -> f64 {
        self.layers.values().sum::<f64>() / self.wall
    }
}

/// Groups spans by op: each op's root span named `root` gives its wall
/// time, and every span nested under a root adds its self time to its
/// layer. Set-up spans (op 0) and other top-level spans are skipped.
pub fn op_layers(spans: &[Span], root: &str) -> BTreeMap<u64, OpLayers> {
    let selfs = self_times(spans);
    let mut ops: BTreeMap<u64, OpLayers> = BTreeMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        if s.op == 0 {
            continue;
        }
        if s.parent.is_none() && s.name != root {
            continue;
        }
        let op = ops.entry(s.op).or_default();
        if s.parent.is_none() {
            op.wall += s.end - s.start;
        } else {
            *op.layers.entry(s.name).or_default() += t;
        }
    }
    ops
}

/// Total duration of every span named `name` (s).
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end - s.start)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("op", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 3.0, 6.0, Some(0)),  // overlaps a by 1
            span("c", 8.0, 12.0, Some(0)), // clipped to the parent's end
            span("d", 1.5, 2.5, Some(1)),
        ];
        let t = self_times(&spans);
        let expect = [10.0 - 5.0 - 2.0, 3.0 - 1.0, 3.0, 4.0, 1.0];
        for (got, want) in t.iter().zip(expect) {
            assert!((got - want).abs() < 1e-12, "{t:?}");
        }
    }

    #[test]
    fn op_layers_sum_self_times_and_skip_setup() {
        let mut spans = vec![
            span("op", 0.0, 10.0, None),
            span("align.kernel", 1.0, 7.0, Some(0)),
            span("align.kernel", 7.0, 9.0, Some(0)),
            span("bioseq.seed", 0.5, 1.0, Some(0)),
        ];
        spans.push(Span {
            op: 0,
            ..span("bioseq.index.build", 0.0, 5.0, None)
        });
        spans.push(span("service.roundtrip", 11.0, 12.0, None));
        let ops = op_layers(&spans, "op");
        assert_eq!(ops.len(), 1);
        let op = &ops[&1];
        assert_eq!(op.wall, 10.0);
        assert_eq!(op.layers["align.kernel"], 8.0);
        assert_eq!(op.layers["bioseq.seed"], 0.5);
        assert!((op.coverage() - 0.85).abs() < 1e-12);
        assert_eq!(total(&spans, "align.kernel"), 8.0);
    }

    #[test]
    fn append_rebases_parents_and_clock() {
        let mut main = Tracer::new();
        main.span("op", |_| ());
        let mut other = Tracer::new();
        other.set_op(5);
        other.span("outer", |t| t.span("inner", |_| ()));
        main.append(&other);
        let s = main.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[2].parent), (None, Some(1)));
        assert_eq!((s[1].op, s[2].op), (5, 5));
        assert!(s[1].start >= s[0].start);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut t = Tracer::new();
        t.set_op(3);
        let v = t.span("op", |t| t.span("inner", |_| 7) + 1);
        assert_eq!(v, 8);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s.iter().all(|x| x.op == 3 && x.end >= x.start));
        assert!(s[1].start >= s[0].start && s[1].end <= s[0].end);
    }
}
