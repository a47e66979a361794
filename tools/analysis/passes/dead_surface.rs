//! dead-surface: every `pub` item under `crates/*/src` has a caller
//! that ships. A reference count over the tree once found four whole
//! modules and a dozen methods kept alive by nothing but their own
//! unit tests (DESIGN.md §9); a reader cannot tell such code from the
//! system. A `pub fn|struct|enum|trait|const|type` is flagged when its
//! name occurs nowhere in shipped code except at its own definition.
//! Shipped code is the non-test part of `crates/*/src`, plus `src/`,
//! `examples/` and `benchmark/src` (the model's `callers`);
//! `#[cfg(test)]` modules, `crates/*/tests`, `crates/*/benches` and
//! `tests/` are not callers. Matching is by word, not by path, so a
//! common name (`new`, `len`) is never flagged: the pass under-reports
//! rather than cries wolf.
//!
//! A reference implementation a test compares against, or an accessor
//! a test observes live behaviour through, stays by being named, with
//! its reason, in `tools/analysis/allow/dead-surface.allow`.

use crate::model::{FileModel, SourceModel};
use crate::registry::{Pass, Violation};
use std::collections::HashMap;

pub struct DeadSurface;

const ITEM_KINDS: [&str; 6] = ["fn", "struct", "enum", "trait", "const", "type"];

fn ends_word(c: char) -> bool {
    !(c.is_alphanumeric() || c == '_')
}

/// `(kind, name)` when the stripped line declares a plain-`pub` item.
fn item_on(line: &str) -> Option<(&'static str, &str)> {
    let mut toks = line
        .trim_start()
        .strip_prefix("pub ")?
        .split_whitespace()
        .peekable();
    while let Some(t) = toks.next() {
        if matches!(t, "async" | "unsafe") || (t == "const" && toks.peek() == Some(&"fn")) {
            continue;
        }
        let kind = ITEM_KINDS.iter().find(|k| **k == t)?;
        let name = toks.next()?;
        let end = name.find(ends_word).unwrap_or(name.len());
        return (end > 0).then(|| (*kind, &name[..end]));
    }
    None
}

/// The file's lines outside `#[cfg(test)] mod … { … }` blocks.
fn shipped_lines(fm: &FileModel) -> impl Iterator<Item = (usize, &str)> {
    let mut in_test_until = None;
    let mut pending_cfg = false;
    fm.code.iter().enumerate().filter_map(move |(i, line)| {
        if let Some(depth) = in_test_until {
            if fm.depth_start[i + 1] <= depth {
                in_test_until = None;
            }
            return None;
        }
        let t = line.trim_start();
        if pending_cfg && (t.starts_with("mod ") || t.starts_with("pub mod ")) {
            pending_cfg = false;
            if fm.depth_start[i + 1] > fm.depth_start[i] {
                in_test_until = Some(fm.depth_start[i]);
            }
            return None;
        }
        pending_cfg = t.starts_with("#[cfg(test)]") || (pending_cfg && t.starts_with("#["));
        Some((i, line.as_str()))
    })
}

fn ships(path: &str) -> bool {
    path.starts_with("src/")
        || path.starts_with("examples/")
        || (path.starts_with("crates/") && path.contains("/src/"))
}

impl Pass for DeadSurface {
    fn name(&self) -> &'static str {
        "dead-surface"
    }

    fn description(&self) -> &'static str {
        "flag pub items under crates/*/src that no shipped code (only tests, or nothing) refers to"
    }

    fn run(&self, model: &SourceModel) -> Vec<Violation> {
        let shipped: Vec<&FileModel> = model.files.iter().filter(|f| ships(&f.path)).collect();
        let mut uses: HashMap<&str, usize> = HashMap::new();
        for fm in shipped.iter().copied().chain(&model.callers) {
            for (_, line) in shipped_lines(fm) {
                for word in line.split(ends_word).filter(|w| !w.is_empty()) {
                    *uses.entry(word).or_default() += 1;
                }
            }
        }
        let mut out = Vec::new();
        for fm in shipped.iter().filter(|f| f.path.starts_with("crates/")) {
            for (li, line) in shipped_lines(fm) {
                let Some((kind, name)) = item_on(line) else {
                    continue;
                };
                if uses.get(name).copied().unwrap_or(0) <= 1 {
                    out.push(Violation {
                        pass: self.name(),
                        file: fm.path.clone(),
                        line: li + 1,
                        message: format!(
                            "pub {kind} `{name}` is named nowhere in shipped code but here \
                             (only tests, or nothing, use it): delete it with its test, or \
                             record why it stays in tools/analysis/allow/dead-surface.allow"
                        ),
                    });
                }
            }
        }
        out
    }
}
