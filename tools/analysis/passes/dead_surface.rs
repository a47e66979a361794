//! dead-surface: every `pub` item under `crates/*/src` has a caller
//! that ships. A reference count over the tree once found four whole
//! modules and a dozen methods kept alive by nothing but their own
//! unit tests (DESIGN.md §9); a reader cannot tell such code from the
//! system. Two checks:
//!
//! * **Items.** A `pub fn|struct|enum|trait|const|type` is flagged when
//!   its name occurs nowhere in shipped code except at its own
//!   definition.
//! * **Modules.** A file under `crates/*/src` is flagged when no
//!   *reached* shipped code outside it names any of its top-level `pub`
//!   items. Reached is transitive from the roots — `src/`, `examples/`,
//!   `benchmark/src` and files with no top-level `pub` item (binaries,
//!   crate roots of `mod` lines, `sync.rs`-style re-export shims) — so
//!   two modules that name only each other are an island, not callers.
//!
//! Shipped code is the non-test part of `crates/*/src`, plus `src/`,
//! `examples/` and `benchmark/src` (the model's `callers`);
//! `#[cfg(test)]` modules, `crates/*/tests`, `crates/*/benches` and
//! `tests/` are not callers. Neither is a `use` or `pub use`
//! declaration: an import or a re-export names an item without using
//! it. Matching is by word, not by path, so a common name (`new`,
//! `len`) is never flagged: the pass under-reports rather than cries
//! wolf.
//!
//! A reference implementation a test compares against, or an accessor
//! a test observes live behaviour through, stays by being named, with
//! its reason, in `tools/analysis/allow/dead-surface.allow`.

use crate::model::{FileModel, SourceModel};
use crate::registry::{Pass, Violation};
use std::collections::{HashMap, HashSet};

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

/// Does the stripped line open a `use` / `pub use` / `pub(…) use`?
fn opens_use(t: &str) -> bool {
    t.starts_with("use ")
        || t.starts_with("pub use ")
        || (t.starts_with("pub(") && t.contains(") use "))
}

/// The file's lines outside `#[cfg(test)] mod … { … }` blocks and
/// outside `use` declarations (which may span lines up to their `;`).
fn shipped_lines(fm: &FileModel) -> impl Iterator<Item = (usize, &str)> {
    let mut in_test_until = None;
    let mut pending_cfg = false;
    let mut in_use = false;
    fm.code.iter().enumerate().filter_map(move |(i, line)| {
        if let Some(depth) = in_test_until {
            if fm.depth_start[i + 1] <= depth {
                in_test_until = None;
            }
            return None;
        }
        let t = line.trim_start();
        if in_use || opens_use(t) {
            in_use = !t.contains(';');
            return None;
        }
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

impl DeadSurface {
    fn violation(&self, fm: &FileModel, line: usize, message: String) -> Violation {
        Violation {
            pass: self.name(),
            file: fm.path.clone(),
            line: line + 1,
            message: format!(
                "{message}: delete it with its test, or record why it stays in \
                 tools/analysis/allow/dead-surface.allow"
            ),
        }
    }
}

impl Pass for DeadSurface {
    fn name(&self) -> &'static str {
        "dead-surface"
    }

    fn description(&self) -> &'static str {
        "flag pub items, and modules, under crates/*/src that no shipped code (only tests, \
         re-exports, or nothing) reaches"
    }

    fn run(&self, model: &SourceModel) -> Vec<Violation> {
        let shipped: Vec<&FileModel> = model
            .files
            .iter()
            .filter(|f| ships(&f.path))
            .chain(&model.callers)
            .collect();
        let mut uses: HashMap<&str, usize> = HashMap::new();
        // Per file: every word its shipped lines name, and its `pub`
        // items as (line, kind, name, top-level?) when it is a `crates/`
        // module.
        let mut named: Vec<HashSet<&str>> = Vec::with_capacity(shipped.len());
        let mut items: Vec<Vec<(usize, &str, &str, bool)>> = Vec::with_capacity(shipped.len());
        for fm in &shipped {
            let mut in_file = HashSet::new();
            let mut declared = Vec::new();
            for (li, line) in shipped_lines(fm) {
                for word in line.split(ends_word).filter(|w| !w.is_empty()) {
                    *uses.entry(word).or_default() += 1;
                    in_file.insert(word);
                }
                if let Some((kind, name)) = item_on(line).filter(|_| fm.path.starts_with("crates/"))
                {
                    declared.push((li, kind, name, fm.depth_start[li] == 0));
                }
            }
            named.push(in_file);
            items.push(declared);
        }

        let mut out = Vec::new();
        for (fm, declared) in shipped.iter().zip(&items) {
            for &(li, kind, name, _) in declared {
                if uses.get(name).copied().unwrap_or(0) <= 1 {
                    let message = format!(
                        "pub {kind} `{name}` is named nowhere in shipped code but here \
                         (only tests, re-exports, or nothing, use it)"
                    );
                    out.push(self.violation(fm, li, message));
                }
            }
        }

        // Module reachability: a module's surface is its top-level
        // items; grow the reached set from the roots (the files with no
        // surface) until no unreached module gains a reached caller.
        let surface: Vec<Vec<(usize, &str)>> = items
            .iter()
            .map(|declared| {
                declared
                    .iter()
                    .filter(|item| item.3)
                    .map(|&(li, _, name, _)| (li, name))
                    .collect()
            })
            .collect();
        let mut reached: Vec<bool> = surface.iter().map(Vec::is_empty).collect();
        loop {
            let newly: Vec<usize> = (0..shipped.len())
                .filter(|&m| !reached[m])
                .filter(|&m| {
                    (0..shipped.len()).any(|c| {
                        c != m
                            && reached[c]
                            && surface[m].iter().any(|(_, name)| named[c].contains(name))
                    })
                })
                .collect();
            if newly.is_empty() {
                break;
            }
            newly.into_iter().for_each(|m| reached[m] = true);
        }
        for (m, fm) in shipped.iter().enumerate().filter(|(m, _)| !reached[*m]) {
            let names: Vec<&str> = surface[m].iter().map(|(_, n)| *n).collect();
            let message = format!(
                "module `{}` is reached by no shipped code: nothing outside it that ships \
                 (only tests, re-exports, unreached modules, or nothing) names any of {}",
                fm.stem,
                names.join(", ")
            );
            out.push(self.violation(fm, surface[m][0].0, message));
        }
        out
    }
}
