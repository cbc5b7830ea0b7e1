//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. A span carries a name, start, end, the span that caused
//! it and the id of the op it belongs to; spans stay in memory and are
//! written out once, when the run ends.
//!
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (within the same op's span list) of the enclosing span.
    pub parent: Option<u32>,
    /// The op (all-reduce round or simulated job) this span belongs to.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; give it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// Per-name totals folded from many ops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Records the spans of one op at a time; [`Tracer::finish_op`] folds
/// them into per-name aggregates and keeps the first few ops verbatim
/// for the trace file (a 20 s run records ~10⁷ spans — too many to keep).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    op: u64,
    current: Vec<Span>,
    stack: Vec<u32>,
    kept: Vec<Span>,
    keep_ops: u64,
    totals: BTreeMap<&'static str, Aggregate>,
}

impl Tracer {
    /// A tracer that keeps the spans of the first `keep_ops` ops verbatim.
    pub fn new(keep_ops: u64) -> Self {
        Tracer {
            epoch: Instant::now(),
            op: 0,
            current: Vec::with_capacity(4096),
            stack: Vec::with_capacity(8),
            kept: Vec::new(),
            keep_ops,
            totals: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.current.len() as u32;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        // Clock read last, so bookkeeping lands outside the interval.
        let start_ns = self.now_ns();
        self.current.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        SpanId(id)
    }

    /// Close a span. Spans close innermost-first.
    #[inline]
    pub fn exit(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost-first");
        self.current[id.0 as usize].end_ns = end_ns;
    }

    /// Duration of the current op's span `id` (valid after `exit`).
    pub fn duration_ns(&self, id: SpanId) -> u64 {
        self.current[id.0 as usize].duration_ns()
    }

    /// End the current op: fold its spans into the aggregates, keep them
    /// verbatim if the op is among the first `keep_ops`, start the next.
    pub fn finish_op(&mut self) {
        debug_assert!(self.stack.is_empty(), "op ended with open spans");
        for (span, self_ns) in self.current.iter().zip(self_times(&self.current)) {
            let a = self.totals.entry(span.name).or_default();
            a.count += 1;
            a.total_ns += span.duration_ns();
            a.self_ns += self_ns;
        }
        if self.op < self.keep_ops {
            self.kept.append(&mut self.current);
        } else {
            self.current.clear();
        }
        self.op += 1;
    }

    /// Ops finished so far.
    pub fn ops(&self) -> u64 {
        self.op
    }

    /// Per-name totals over every finished op.
    pub fn totals(&self) -> &BTreeMap<&'static str, Aggregate> {
        &self.totals
    }

    /// The verbatim spans of the first ops.
    pub fn kept(&self) -> &[Span] {
        &self.kept
    }
}

/// Self time of every span of one op: its duration minus the durations
/// of its direct children (children never overlap: one thread, spans
/// close innermost-first).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let p = p as usize;
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 ── a 10..40 ── a1 15..25
        //             └─ b 50..90 (sibling of a)
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times partition the root: they sum to its duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn grandchildren_do_not_count_against_the_grandparent() {
        let spans = vec![
            span("root", 0, 50, None),
            span("mid", 0, 50, Some(0)),
            span("leaf", 10, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![0, 40, 10]);
    }

    #[test]
    fn tracer_links_parents_tags_ops_and_folds_totals() {
        let mut t = Tracer::new(1);
        for _ in 0..2 {
            let root = t.enter("root");
            let a = t.enter("a");
            t.exit(a);
            let b = t.enter("a");
            t.exit(b);
            t.exit(root);
            assert!(t.duration_ns(root) >= t.duration_ns(a) + t.duration_ns(b));
            t.finish_op();
        }
        assert_eq!(t.ops(), 2);
        let kept = t.kept();
        assert_eq!(kept.len(), 3, "only the first op is kept verbatim");
        assert_eq!(kept[0].parent, None);
        assert_eq!(kept[1].parent, Some(0));
        assert_eq!(kept[2].parent, Some(0));
        assert!(kept.iter().all(|s| s.op == 0));
        assert!(kept[1].start_ns >= kept[0].start_ns && kept[2].end_ns <= kept[0].end_ns);
        let totals = t.totals();
        assert_eq!(totals["root"].count, 2);
        assert_eq!(totals["a"].count, 4);
        assert_eq!(
            totals["root"].self_ns + totals["a"].self_ns,
            totals["root"].total_ns,
            "self times sum to the root spans"
        );
    }
}
