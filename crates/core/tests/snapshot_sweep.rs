//! A damaged snapshot is an error, never a panic, a hang or an
//! unbounded allocation. `load_system` reads files a user hands it, and
//! is swept over the committed fixture: every number replaced in turn
//! by a handful of hostile values, and the text cut at every byte. A
//! load that still succeeds must leave something a query can walk.

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree::load_system;
use drugtree::prelude::*;
use drugtree_sources::clock::VirtualClock;
use drugtree_sources::{DataSource, SourceRegistry};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Written by `save_system` over
/// `WorkloadSpec::default().leaves(12).ligands(5).seed(23)`.
const SYSTEM: &str = include_str!("fixtures/system_snapshot_pr22.json");

/// Zero, another small id, a negative, an id far past any arena, and
/// `u32::MAX`.
const HOSTILE: [&str; 5] = ["0", "9", "-1", "99999999", "4294967295"];

/// Every maximal digit run of `text`, with its sign.
fn number_spans(text: &str) -> Vec<Range<usize>> {
    let bytes = text.as_bytes();
    let mut spans: Vec<Range<usize>> = Vec::new();
    for (i, b) in bytes.iter().enumerate() {
        match spans.last_mut() {
            _ if !b.is_ascii_digit() => {}
            Some(run) if run.end == i => run.end += 1,
            _ => spans.push(i - usize::from(i > 0 && bytes[i - 1] == b'-')..i + 1),
        }
    }
    spans
}

/// Run `load` over every single-number mutation and every truncation
/// of `good`, naming the damage if one of them panics.
fn sweep(good: &str, load: impl Fn(&str)) {
    let check = |what: String, text: &str| {
        let outcome = catch_unwind(AssertUnwindSafe(|| load(text)));
        assert!(outcome.is_ok(), "the loader panicked on {what}");
    };
    let spans = number_spans(good);
    assert!(spans.len() > 20, "the snapshot has numbers to damage");
    for span in spans {
        for value in HOSTILE {
            let damaged = format!("{}{value}{}", &good[..span.start], &good[span.end..]);
            let was = &good[span.clone()];
            check(
                format!("`{was}` -> `{value}` at byte {}", span.start),
                &damaged,
            );
        }
    }
    for cut in (0..good.len()).filter(|&cut| good.is_char_boundary(cut)) {
        check(format!("a cut at byte {cut}"), &good[..cut]);
    }
}

fn live_sources() -> Vec<Arc<dyn DataSource>> {
    let spec = WorkloadSpec::default().leaves(12).ligands(5).seed(23);
    let dataset = SyntheticBundle::generate(&spec).build_dataset();
    dataset.registry.all().to_vec()
}

/// Load a system snapshot against live sources and, when it loads,
/// list the whole tree.
fn load_and_query(sources: &[Arc<dyn DataSource>], text: &str) -> bool {
    let mut registry = SourceRegistry::new();
    for source in sources {
        registry.register(Arc::clone(source)).unwrap();
    }
    let Ok(dataset) = load_system(text, registry, VirtualClock::new()) else {
        return false;
    };
    let executor = Executor::new(Optimizer::new(OptimizerConfig::full()));
    let _ = executor.execute(&dataset, &Query::activities(Scope::Tree));
    true
}

#[test]
fn a_damaged_system_snapshot_is_an_error_not_a_panic() {
    let sources = live_sources();
    assert!(load_and_query(&sources, SYSTEM), "the fixture loads");
    sweep(SYSTEM, |text| {
        load_and_query(&sources, text);
    });
}

/// The three shapes that used to kill the process, one by one: a child
/// link that closes a cycle (the walk never ended), a child id past
/// the arena, an index on a column the schema does not have (the
/// catalog is a JSON string inside the snapshot, so its quotes are
/// escaped). And an index kind the store does not know.
#[test]
fn a_cycle_a_foreign_child_and_a_foreign_index_column_are_errors() {
    let sources = live_sources();
    for (good, damaged) in [
        ("\"children\":[1,2]", "\"children\":[0,2]"),
        ("\"children\":[1,2]", "\"children\":[99999999,2]"),
        (r#"\"indexes\":[[0,"#, r#"\"indexes\":[[9,"#),
        (r#"[[0,\"Hash\"]"#, r#"[[0,\"Trie\"]"#),
    ] {
        assert!(SYSTEM.contains(good), "the fixture has {good}");
        let text = SYSTEM.replacen(good, damaged, 1);
        assert!(!load_and_query(&sources, &text), "{damaged} must not load");
    }
}
