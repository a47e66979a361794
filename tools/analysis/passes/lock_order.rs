//! lock-order: build the cross-crate lock-ordering graph and reject
//! both cycles and acquisitions that contradict the annotated
//! canonical order (`tools/analysis/lock_order.canonical`).
//!
//! An edge `a → b` means some scope acquires lock class `b` while a
//! guard on class `a` is still live. Deadlock needs a cycle in this
//! graph (two threads taking the same pair in opposite orders), so the
//! pass flags: (1) any directed cycle, with the witnessing sites, and
//! (2) any edge that runs *backwards* through the canonical order —
//! even before a second thread shows up to complete the cycle.

use crate::model::{GuardKind, SourceModel};
use crate::registry::{Pass, Violation};
use std::collections::BTreeMap;

/// The annotated canonical order, compiled in so fixture scans and
/// repo scans agree on it regardless of `--root`.
const CANONICAL: &str = include_str!("../lock_order.canonical");

pub struct LockOrder;

/// One observed nested acquisition.
struct Edge {
    file: String,
    outer_line: usize,
    inner_line: usize,
}

/// The ranked lock classes, earliest first.
pub fn canonical_order() -> Vec<String> {
    CANONICAL
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect()
}

impl Pass for LockOrder {
    fn name(&self) -> &'static str {
        "lock-order"
    }

    fn description(&self) -> &'static str {
        "cross-crate lock-ordering graph: reject cycles and canonical-order reversals"
    }

    fn run(&self, model: &SourceModel) -> Vec<Violation> {
        let canon = canonical_order();
        let rank: BTreeMap<&str, usize> = canon
            .iter()
            .enumerate()
            .map(|(i, c)| (c.as_str(), i))
            .collect();

        // Collect every nested acquisition as a directed edge.
        let mut edges: BTreeMap<(String, String), Vec<Edge>> = BTreeMap::new();
        for fm in &model.files {
            for a in &fm.acquisitions {
                if a.kind == GuardKind::Temporary && a.extent_end == a.line {
                    continue; // statement temporaries nest only same-line
                }
                for b in &fm.acquisitions {
                    if std::ptr::eq(a, b) || b.class == a.class {
                        continue;
                    }
                    let inside = (b.line > a.line && b.line <= a.extent_end)
                        || (b.line == a.line && b.col > a.col);
                    if inside {
                        edges
                            .entry((a.class.clone(), b.class.clone()))
                            .or_default()
                            .push(Edge {
                                file: fm.path.clone(),
                                outer_line: a.line,
                                inner_line: b.line,
                            });
                    }
                }
            }
        }

        let mut out = Vec::new();

        // (2) Canonical-order reversals.
        for ((from, to), sites) in &edges {
            let (Some(&rf), Some(&rt)) = (rank.get(from.as_str()), rank.get(to.as_str())) else {
                continue;
            };
            if rf > rt {
                for e in sites {
                    out.push(Violation {
                        pass: self.name(),
                        file: e.file.clone(),
                        line: e.inner_line,
                        message: format!(
                            "`{to}` acquired while `{from}` (line {}) is held, but the \
                             canonical order (tools/analysis/lock_order.canonical) puts \
                             `{to}` before `{from}` — swap the acquisitions or drop the \
                             outer guard first",
                            e.outer_line,
                        ),
                    });
                }
            }
        }

        // (1) Cycles in the full graph (including classes the canonical
        // file does not rank).
        let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (from, to) in edges.keys() {
            adj.entry(from.as_str()).or_default().push(to.as_str());
        }
        for cycle in find_cycles(&adj) {
            // Witness: the edge closing the cycle.
            let closing = (cycle[cycle.len() - 1].to_string(), cycle[0].to_string());
            let site = edges.get(&closing).and_then(|s| s.first());
            let (file, line) = site.map_or((String::from("<graph>"), 0), |e| {
                (e.file.clone(), e.inner_line)
            });
            out.push(Violation {
                pass: self.name(),
                file,
                line,
                message: format!(
                    "lock-order cycle: {} -> {} — two threads taking this ring from \
                     different entry points deadlock; break one edge or rank the \
                     classes in lock_order.canonical",
                    cycle.join(" -> "),
                    cycle[0],
                ),
            });
        }
        out
    }
}

/// Every elementary cycle reachable in `adj`, deduplicated by rotating
/// each cycle to start at its lexicographically smallest node.
fn find_cycles<'a>(adj: &BTreeMap<&'a str, Vec<&'a str>>) -> Vec<Vec<&'a str>> {
    let mut cycles: Vec<Vec<&str>> = Vec::new();
    let mut seen: Vec<Vec<&str>> = Vec::new();
    for &start in adj.keys() {
        let mut stack: Vec<&str> = vec![start];
        dfs(adj, start, &mut stack, &mut cycles, &mut seen);
    }
    cycles
}

fn dfs<'a>(
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    node: &'a str,
    stack: &mut Vec<&'a str>,
    cycles: &mut Vec<Vec<&'a str>>,
    seen: &mut Vec<Vec<&'a str>>,
) {
    let Some(nexts) = adj.get(node) else {
        return;
    };
    for &next in nexts {
        if let Some(pos) = stack.iter().position(|&n| n == next) {
            let cycle = canonical_rotation(&stack[pos..]);
            if !seen.contains(&cycle) {
                seen.push(cycle.clone());
                cycles.push(cycle);
            }
        } else if stack.len() < 32 {
            stack.push(next);
            dfs(adj, next, stack, cycles, seen);
            stack.pop();
        }
    }
}

fn canonical_rotation<'a>(cycle: &[&'a str]) -> Vec<&'a str> {
    let min = cycle
        .iter()
        .enumerate()
        .min_by_key(|(_, s)| **s)
        .map_or(0, |(i, _)| i);
    let mut rotated = Vec::with_capacity(cycle.len());
    rotated.extend_from_slice(&cycle[min..]);
    rotated.extend_from_slice(&cycle[..min]);
    rotated
}
