//! Spans recorded by the benchmark around its calls into the library.
//!
//! Every operation is one span tree: a root `op` span and one child
//! per layer boundary the benchmark can see from outside. Spans stay
//! in memory and are written out when the run ends.

use drugtree_sources::clock::wall_now;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent` is the span that caused it, `op` the
/// operation all spans of one tree share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_op: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: wall_now(),
            spans: Vec::new(),
            next_op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(wall_now().duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open the root span of a new operation.
    pub fn begin_op(&mut self) -> u32 {
        let op = self.next_op;
        self.next_op += 1;
        self.begin(op, None, "op")
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, op: u32, parent: Option<u32>, name: &'static str) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Close a span and return its duration.
    pub fn end(&mut self, id: u32) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.duration_ns()
    }

    /// Time `f` as a child of `parent`; returns its result and duration.
    pub fn child<T>(&mut self, parent: u32, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let op = self.spans[parent as usize].op;
        let id = self.begin(op, Some(parent), name);
        let out = f();
        (out, self.end(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{sep}{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.write_all(b"\n]\n")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover. Children that overlap each
/// other are counted once, and a child is clipped to its parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Spans and summed self time per span name: where the traced run's
/// time went. `op` is what the benchmark spent between layers.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (usize, u64)> {
    let mut by_name = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let entry = by_name.entry(span.name).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += self_ns;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_are_subtracted_one_level_at_a_time() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(1), 20, 30),
            span(3, Some(0), 70, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 70),
            span(3, Some(0), 40, 45),
        ];
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = [
            span(0, None, 50, 100),
            span(1, Some(0), 0, 60),
            span(2, Some(0), 90, 200),
            span(3, Some(0), 300, 400),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn tracer_links_children_to_their_operation() {
        let mut tracer = Tracer::new();
        let a = tracer.begin_op();
        let (value, _) = tracer.child(a, "inner", || 7);
        tracer.end(a);
        let b = tracer.begin_op();
        tracer.end(b);
        assert_eq!(value, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[1].op), (Some(a), spans[0].op));
        assert_ne!(spans[2].op, spans[0].op);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
