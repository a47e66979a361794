//! repo-lint: the repository's multi-pass concurrency/determinism
//! static-analysis suite (std-only, no dependencies). See DESIGN.md
//! §D11.
//!
//! ```sh
//! cargo run --bin repo-lint                 # all passes over the repo
//! cargo run --bin repo-lint -- --json       # machine-readable output
//! cargo run --bin repo-lint -- --pass guard-scope
//! cargo run --bin repo-lint -- --list       # registered passes
//! cargo run --bin repo-lint -- --self-test  # passes vs. their fixtures
//! cargo run --bin repo-lint -- --root DIR   # scan another tree
//! ```
//!
//! Exit codes: 0 clean, 1 violations (or self-test failure), 2 usage
//! error. Every pass loads `tools/analysis/allow/<pass>.allow` from
//! the scan root; suppressed findings are counted in the output so
//! allowlists cannot silently grow.

mod model;
mod passes;
mod registry;

use model::SourceModel;
use registry::{Allowlist, Violation};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Options {
    root: PathBuf,
    json: bool,
    only: Vec<String>,
    list: bool,
    self_test: bool,
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if opts.list {
        for pass in passes::all() {
            println!("{:<16} {}", pass.name(), pass.description());
        }
        return ExitCode::SUCCESS;
    }

    if opts.self_test {
        return self_test(&opts.root);
    }

    let registered = passes::all();
    let selected: Vec<_> = registered
        .iter()
        .filter(|p| opts.only.is_empty() || opts.only.iter().any(|n| n == p.name()))
        .collect();
    if selected.is_empty() {
        eprintln!("error: no pass matches {:?}; try --list", opts.only);
        return ExitCode::from(2);
    }

    let model = SourceModel::build(&opts.root);
    let allow_dir = opts.root.join("tools/analysis/allow");
    let mut report: Vec<(String, Vec<Violation>, usize)> = Vec::new();
    for pass in &selected {
        let allow = Allowlist::load(&allow_dir, pass.name());
        let raw = pass.run(&model);
        let (kept, suppressed): (Vec<_>, Vec<_>) = raw.into_iter().partition(|v| !allow.permits(v));
        report.push((pass.name().to_string(), kept, suppressed.len()));
    }

    let total: usize = report.iter().map(|(_, v, _)| v.len()).sum();
    if opts.json {
        print_json(&report, model.files.len());
    } else {
        print_human(&report, model.files.len());
    }
    if total > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: default_root(),
        json: false,
        only: Vec::new(),
        list: false,
        self_test: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--list" => opts.list = true,
            "--self-test" => opts.self_test = true,
            "--pass" => {
                let name = iter
                    .next()
                    .ok_or("error: --pass needs a pass name; try --list")?;
                opts.only.push(name.clone());
            }
            "--root" => {
                let dir = iter.next().ok_or("error: --root needs a directory")?;
                opts.root = PathBuf::from(dir);
            }
            "--help" | "-h" => {
                return Err(String::from(
                    "usage: repo-lint [--json] [--pass NAME]... [--list] [--self-test] [--root DIR]",
                ));
            }
            other => return Err(format!("error: unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// The workspace root: where Cargo ran us from, falling back to the
/// current directory when invoked directly via rustc.
fn default_root() -> PathBuf {
    if let Ok(dir) = std::env::var("CARGO_MANIFEST_DIR") {
        return PathBuf::from(dir);
    }
    std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."))
}

fn print_human(report: &[(String, Vec<Violation>, usize)], files: usize) {
    let mut total = 0usize;
    for (name, violations, suppressed) in report {
        for v in violations {
            eprintln!("{name}: {}:{}: {}", v.file, v.line, v.message);
        }
        total += violations.len();
        let supp = if *suppressed > 0 {
            format!(", {suppressed} allowlisted")
        } else {
            String::new()
        };
        println!(
            "{name}: {}{supp}",
            if violations.is_empty() {
                String::from("ok")
            } else {
                format!("{} violation(s)", violations.len())
            }
        );
    }
    if total > 0 {
        eprintln!("repo-lint: {total} violation(s) across {files} file(s)");
    } else {
        println!("repo-lint: ok ({files} files clean)");
    }
}

fn print_json(report: &[(String, Vec<Violation>, usize)], files: usize) {
    use registry::json_escape as esc;
    let mut out = String::from("{\n  \"tool\": \"repo-lint\",\n");
    out.push_str(&format!("  \"files_scanned\": {files},\n  \"passes\": [\n"));
    for (i, (name, violations, suppressed)) in report.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"violations\": {}, \"suppressed\": {}}}{}\n",
            esc(name),
            violations.len(),
            suppressed,
            if i + 1 < report.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"violations\": [\n");
    let all: Vec<&Violation> = report.iter().flat_map(|(_, v, _)| v).collect();
    for (i, v) in all.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"pass\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{}\n",
            esc(v.pass),
            esc(&v.file),
            v.line,
            esc(&v.message),
            if i + 1 < all.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}");
    println!("{out}");
}

/// Run every pass against its seeded-violation corpus: `bad/` must
/// produce at least one violation from that pass, `clean/` none.
fn self_test(root: &Path) -> ExitCode {
    let fixtures = root.join("tools/analysis/fixtures");
    let mut failures = 0usize;
    for pass in passes::all() {
        let dir = fixtures.join(pass.name().replace('-', "_"));
        for (sub, want_violations) in [("bad", true), ("clean", false)] {
            let tree = dir.join(sub);
            if !tree.is_dir() {
                eprintln!(
                    "self-test: {}: missing fixture {}",
                    pass.name(),
                    tree.display()
                );
                failures += 1;
                continue;
            }
            let model = SourceModel::build(&tree);
            let found = pass.run(&model);
            let ok = if want_violations {
                !found.is_empty()
            } else {
                found.is_empty()
            };
            if ok {
                println!(
                    "self-test: {}: {sub}/ ok ({} violation(s))",
                    pass.name(),
                    found.len()
                );
            } else {
                failures += 1;
                eprintln!(
                    "self-test: {}: {sub}/ FAILED (expected {}, got {})",
                    pass.name(),
                    if want_violations {
                        "violations"
                    } else {
                        "none"
                    },
                    found.len()
                );
                for v in &found {
                    eprintln!("  {}:{}: {}", v.file, v.line, v.message);
                }
            }
        }
    }
    if failures > 0 {
        eprintln!("self-test: {failures} failure(s)");
        ExitCode::FAILURE
    } else {
        println!("self-test: all passes match their fixtures");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use model::{analyze_file, GuardKind, Mode};

    fn manifest_root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }

    fn fixture(pass: &str, sub: &str) -> SourceModel {
        let dir = manifest_root()
            .join("tools/analysis/fixtures")
            .join(pass.replace('-', "_"))
            .join(sub);
        assert!(dir.is_dir(), "missing fixture tree {}", dir.display());
        SourceModel::build(&dir)
    }

    /// Each pass flags its seeded-violation corpus and stays silent on
    /// the clean twin — the `--self-test` contract, run under `cargo
    /// test` so CI cannot drift.
    #[test]
    fn every_pass_matches_its_fixtures() {
        for pass in passes::all() {
            let bad = pass.run(&fixture(pass.name(), "bad"));
            assert!(
                !bad.is_empty(),
                "{}: seeded violations not flagged",
                pass.name()
            );
            let clean = pass.run(&fixture(pass.name(), "clean"));
            assert!(
                clean.is_empty(),
                "{}: clean twin flagged: {:?}",
                pass.name(),
                clean
            );
        }
    }

    /// dead-surface's seeded corpus, finding by finding: a (multi-line)
    /// re-export keeps no item alive, and two modules that name only
    /// each other keep neither alive.
    #[test]
    fn dead_surface_sees_re_exports_and_islands() {
        use registry::Pass;
        let pass = passes::dead_surface::DeadSurface;
        let mut found: Vec<String> = pass
            .run(&fixture(pass.name(), "bad"))
            .iter()
            .map(|v| format!("{}:{}", v.file, v.line))
            .collect();
        found.sort();
        assert_eq!(
            found,
            [
                "crates/demo/src/island_a.rs:1",
                "crates/demo/src/island_b.rs:1",
                "crates/demo/src/lib.rs:19",
                "crates/demo/src/lib.rs:23",
                "crates/demo/src/shelf.rs:5",
            ]
        );
    }

    /// The real tree is clean: running every pass over the repository
    /// with its allowlists yields zero violations. This is the same
    /// check CI's verify step performs via `cargo run --bin repo-lint`.
    #[test]
    fn repository_tree_is_clean() {
        let root = manifest_root();
        let model = SourceModel::build(&root);
        assert!(model.files.len() > 50, "repo scan found too few files");
        let allow_dir = root.join("tools/analysis/allow");
        for pass in passes::all() {
            let allow = Allowlist::load(&allow_dir, pass.name());
            let kept: Vec<_> = pass
                .run(&model)
                .into_iter()
                .filter(|v| !allow.permits(v))
                .collect();
            assert!(kept.is_empty(), "{}: {:?}", pass.name(), kept);
        }
    }

    /// The canonical lock order ranks only live locks: every class it
    /// lists is acquired somewhere in the real tree, so a deleted lock
    /// cannot linger there as a rank nothing can contradict.
    #[test]
    fn every_ranked_lock_class_is_acquired() {
        let model = SourceModel::build(&manifest_root());
        let acquired: std::collections::BTreeSet<&str> = model
            .files
            .iter()
            .flat_map(|f| &f.acquisitions)
            .map(|a| a.class.as_str())
            .collect();
        let dead: Vec<String> = passes::lock_order::canonical_order()
            .into_iter()
            .filter(|class| !acquired.contains(class.as_str()))
            .collect();
        assert!(dead.is_empty(), "ranked but never acquired: {dead:?}");
    }

    #[test]
    fn model_extracts_named_guards_and_extents() {
        let src = "\
fn f(&self) {
    let mut st = self.state.lock();
    st.push(1);
    drop(st);
    self.other.lock().clear();
}
";
        let fm = analyze_file("crates/demo/src/a.rs".into(), src);
        assert_eq!(fm.krate, "demo");
        assert_eq!(fm.acquisitions.len(), 2);
        let st = &fm.acquisitions[0];
        assert_eq!(st.class, "demo:state");
        assert_eq!(st.kind, GuardKind::Named);
        assert_eq!(st.binding.as_deref(), Some("st"));
        assert_eq!(st.extent_end, 4, "drop(st) ends the guard");
        let other = &fm.acquisitions[1];
        assert_eq!(other.kind, GuardKind::Temporary);
        assert_eq!(other.extent_end, other.line);
    }

    #[test]
    fn model_tracks_scrutinee_through_else() {
        let src = "\
fn f(&self) {
    if let Some(v) = self.map.read().get(&1) {
        use_it(v);
    } else {
        self.map.write().insert(1, 2);
    }
}
";
        let fm = analyze_file("crates/demo/src/b.rs".into(), src);
        let read = &fm.acquisitions[0];
        assert_eq!(read.kind, GuardKind::Scrutinee);
        assert_eq!(read.mode, Mode::Read);
        assert_eq!(read.extent_end, 6, "scrutinee lives through the else block");
    }

    #[test]
    fn model_ends_early_return_scrutinee_at_then_block() {
        let src = "\
fn f(&self) {
    if let Some(v) = self.map.read().get(&1) {
        return v.clone();
    }
    self.map.write().insert(1, 2);
}
";
        let fm = analyze_file("crates/demo/src/c.rs".into(), src);
        let read = &fm.acquisitions[0];
        assert_eq!(
            read.extent_end, 4,
            "no else: temporary dies with the statement"
        );
        let write = &fm.acquisitions[1];
        assert!(write.line > read.extent_end, "write is outside the extent");
    }

    #[test]
    fn strip_preserves_columns_and_removes_strings() {
        let stripped = model::strip_code("let a = \"x.lock()\"; // b.lock()\nc.lock();");
        let lines: Vec<&str> = stripped.lines().collect();
        assert!(!lines[0].contains(".lock()"));
        assert_eq!(lines[1], "c.lock();");
        assert_eq!(lines[0].len(), "let a = \"x.lock()\"; // b.lock()".len());
    }

    #[test]
    fn allowlist_globs_and_details_filter() {
        assert!(registry::glob_match(
            "crates/*/src/a.rs",
            "crates/query/src/a.rs"
        ));
        assert!(registry::glob_match("*", "anything/at/all.rs"));
        assert!(!registry::glob_match("crates/*.rs", "src/lib.rs"));
        assert!(registry::glob_match("src/lib.rs", "src/lib.rs"));
    }

    #[test]
    fn json_escaping_is_sound() {
        assert_eq!(registry::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
