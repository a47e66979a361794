//! An allocation budget for the gesture's query, counted, not timed.
//!
//! A whole-clade listing is what every expand and inspect gesture of a
//! mobile session runs, and what it costs is decided by how often each
//! returned row visits the allocator on its way from the source's
//! table to `QueryResult.rows`. With text cells shared (`Value::Text`
//! is an `Arc<str>`) and a fetch shipping typed columns gathered from
//! the source's segments, a row costs one allocation on a cache miss
//! and one on a hit — the 14-cell result row; the shipped batch and the
//! activity batch the cache keeps allocate per column, not per row.
//!
//! The same test run against the parent of the change that introduced
//! it (`Value::Text(String)`, every hop deep-copying its strings)
//! counted, on this very bundle (5,855 rows), **17.61 allocations per
//! returned row on the miss and 7.46 on the hit**; this tree counted
//! 3.03 and 1.01 (17,724 and 5,917 calls) while a fetch and a cache
//! entry held one widened `Vec<Value>` per row, 2.03 and 1.01 (11,905
//! and 5,916) while the source still shipped one `Vec<Value>` per row
//! into a typed batch, and counts 1.04 and 1.01 (6,067 and 5,916) now
//! that it ships typed columns. The budget below leaves about one
//! allocation per row of slack on either path, so a reintroduced
//! per-row copy fails it on any machine. A hit of a small clade, sliced
//! from the whole tree's entry, allocates per row it returns, never per
//! row the entry holds: 161 calls for 114 of 5,855 rows; the second
//! test pins that.
//!
//! A gesture no longer runs that listing: an expand, or an inspect of a
//! viewport with collapsed clades, asks for one glyph row per drawn
//! leaf or collapsed clade, folded from the same rows. On a hit it
//! allocates per glyph — the result row and its label — and never per
//! row of the clade it folds; on a miss it allocates per glyph, per
//! request and per column, never per row shipped. The third test pins
//! both. On this bundle a fullscreen inspect folds 5,855 rows into 69
//! glyphs for 186 allocator calls on the hit and 363 on the miss (two
//! requests, 1,182 distinct strings shipped), plan included; while the
//! source shipped one `Vec<Value>` per row the miss counted more than
//! the 5,855 rows it shipped.
//!
//! A columnar scan reads the mirror's cells in place and builds a row
//! only for what it returns, so a query that scans every mirrored row
//! and returns a few allocates per returned row, not per scanned row;
//! the fourth test pins that on a `.with_columnar()` system. Before the
//! scan handed positions to the executor it built every selected row
//! first: on this bundle a whole-tree `top 10 by p_activity desc` made
//! **5,942 allocator calls and a similarity query returning 15 rows
//! 5,938**, each of 5,855 rows scanned; this tree counts 74 and 81.
//!
//! This file holds the allocation tests alone on purpose: the counter
//! is armed on each test's own thread, and a binary with a
//! `#[global_allocator]` should not be shared with tests that have
//! nothing to do with it.

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree::prelude::*;
use drugtree_chem::affinity::ActivityRecord;
use drugtree_mobile::GestureStep;
use drugtree_phylo::index::LeafInterval;
use drugtree_query::ast::{Query, Scope};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls on this thread since it armed the counter.
    /// Const-initialised and without a destructor, so reading it from
    /// inside the allocator never allocates.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The system allocator, counting `alloc` and `realloc` calls on
/// threads that armed [`ALLOCATIONS`].
struct CountingAllocator;

fn count_one() {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Run `f` and report how many allocator calls this thread made in it.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    let out = f();
    let counted = ALLOCATIONS.with(Cell::take).unwrap_or(0);
    (out, counted)
}

const LEAVES: usize = 256;
const LIGANDS: usize = 1024;

/// What a query may allocate whatever it returns: the plan (its keys,
/// one per leaf in scope, held in a few vectors), the fetch requests
/// with their column names, the growth of the row vectors, the
/// shipped and activity batches' columns and dictionaries. Measured at
/// 212 on the miss and 61 on the hit of this bundle.
const PER_QUERY: u64 = 2 * LEAVES as u64;

fn bundle() -> SyntheticBundle {
    SyntheticBundle::generate(
        &WorkloadSpec::default()
            .leaves(LEAVES)
            .ligands(LIGANDS)
            .seed(23),
    )
}

fn system() -> DrugTree {
    DrugTree::builder()
        .dataset(bundle().build_dataset())
        .optimizer(OptimizerConfig::full())
        .build()
        .unwrap()
}

#[test]
fn a_listing_allocates_per_row_what_the_budget_allows() {
    let system = system();
    let listing = Query::activities(Scope::Tree);
    let run = || {
        system
            .executor()
            .execute(system.dataset(), &listing)
            .unwrap()
    };

    let (cold, on_miss) = allocations_in(run);
    let (warm, on_hit) = allocations_in(run);
    assert_eq!(cold.metrics.cache_hit, Some(false));
    assert_eq!(warm.metrics.cache_hit, Some(true));
    assert_eq!(cold.rows, warm.rows);

    let rows = cold.rows.len() as u64;
    assert!(
        rows > 8 * PER_QUERY,
        "{rows} rows: the per-query constant would hide the per-row count"
    );
    println!(
        "{rows} rows: {on_miss} allocations on the miss ({:.2}/row), {on_hit} on the hit ({:.2}/row)",
        on_miss as f64 / rows as f64,
        on_hit as f64 / rows as f64,
    );
    assert!(
        on_miss <= 2 * rows + PER_QUERY,
        "miss: {on_miss} allocations for {rows} rows"
    );
    assert!(
        on_hit <= 2 * rows + PER_QUERY,
        "hit: {on_hit} allocations for {rows} rows"
    );
}

#[test]
fn a_small_clade_hit_allocates_per_row_returned_not_per_row_cached() {
    let system = system();
    let run = |query: &Query| system.executor().execute(system.dataset(), query).unwrap();
    let whole = run(&Query::activities(Scope::Tree));
    let clade = Query::activities(Scope::Interval(LeafInterval { lo: 0, hi: 4 }));
    let (warm, on_hit) = allocations_in(|| run(&clade));
    assert_eq!(warm.metrics.cache_hit, Some(true));
    assert_eq!(
        warm.metrics.source_requests, 0,
        "the whole-tree entry answers"
    );

    let (cached, returned) = (whole.rows.len() as u64, warm.rows.len() as u64);
    assert!(returned > 0, "the clade holds rows");
    assert!(
        cached > 8 * (returned + PER_QUERY),
        "{cached} rows cached for {returned}: a per-cached-row count would hide"
    );
    println!(
        "{returned} rows of {cached} cached: {on_hit} allocations on the hit ({:.2}/row returned)",
        on_hit as f64 / returned as f64,
    );
    assert!(
        on_hit <= 2 * returned + PER_QUERY,
        "hit: {on_hit} allocations for {returned} rows of {cached} cached"
    );
}

#[test]
fn a_gesture_allocates_per_glyph_not_per_row() {
    let system = system();
    // Fullscreen, 256 leaves on 480 pixels: the inspect collapses most
    // of the tree into glyphs.
    let mut session = system.mobile_session(NetworkProfile::CELL_4G);
    let Ok(GestureStep::Query(pending)) = session.begin_gesture(&Gesture::InspectViewport) else {
        panic!("an inspect bears a query");
    };
    let gesture = &pending.query;
    assert!(matches!(gesture.kind, QueryKind::Aggregate { .. }));
    let run = || {
        system
            .executor()
            .execute(system.dataset(), gesture)
            .unwrap()
    };
    let (cold, on_miss) = allocations_in(run);
    let (warm, on_hit) = allocations_in(run);
    assert_eq!(cold.metrics.cache_hit, Some(false));
    assert_eq!(warm.metrics.cache_hit, Some(true));
    assert_eq!(cold.rows, warm.rows);

    let glyphs = warm.rows.len() as u64;
    let folded: u64 = warm
        .rows
        .iter()
        .map(|r| r[3].as_int().unwrap() as u64)
        .sum();
    let (requests, shipped) = (
        cold.metrics.source_requests as u64,
        cold.metrics.rows_fetched as u64,
    );
    let strings = distinct_strings(&bundle());
    assert!(
        folded > 8 * (glyphs + PER_QUERY),
        "{folded} rows folded into {glyphs} glyphs: a per-row count would hide"
    );
    assert!(
        shipped > 2 * (4 * glyphs + 8 * requests + strings + PER_QUERY),
        "{shipped} rows shipped: a per-shipped-row count would hide"
    );
    println!(
        "{glyphs} glyphs over {folded} rows: {on_miss} allocations on the miss \
         ({requests} requests, {shipped} rows shipped, {strings} distinct strings), \
         {on_hit} on the hit ({:.2}/glyph)",
        on_hit as f64 / glyphs as f64,
    );
    assert!(
        on_miss <= 4 * glyphs + 8 * requests + strings + PER_QUERY,
        "miss: {on_miss} allocations for {glyphs} glyphs, {requests} requests, \
         {strings} distinct strings, {shipped} rows shipped"
    );
    assert!(
        on_hit <= 4 * glyphs + PER_QUERY,
        "hit: {on_hit} allocations for {glyphs} glyphs over {folded} rows"
    );
}

/// The distinct strings the bundle's activity records name: accessions,
/// ligand ids, activity types and labs, each counted once per column.
fn distinct_strings(bundle: &SyntheticBundle) -> u64 {
    let column = |cell: fn(&ActivityRecord) -> &str| {
        let distinct: std::collections::HashSet<&str> =
            bundle.activities.iter().map(cell).collect();
        distinct.len() as u64
    };
    column(|a| &a.protein_accession)
        + column(|a| &a.ligand_id)
        + column(|a| a.activity_type.label())
        + column(|a| &a.source)
}

#[test]
fn a_columnar_scan_allocates_per_returned_row_not_per_scanned_row() {
    let bundle = bundle();
    let system = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .optimizer(OptimizerConfig::full())
        .with_columnar()
        .build()
        .unwrap();
    let scanned = system.executor().columnar().unwrap().len() as u64;
    // Exactly one ligand's fingerprint: a few of the tree's rows.
    let reference = bundle.activities[0].ligand_id.clone();
    for (name, query) in [
        (
            "top 10",
            Query::activities(Scope::Tree).top_k("p_activity", 10, true),
        ),
        (
            "similarity",
            Query::activities(Scope::Tree).similar_to(reference, 0.999),
        ),
    ] {
        let run = || system.executor().execute(system.dataset(), &query).unwrap();
        // The mirror keeps no answers: both calls scan, and the second
        // is counted, past whatever the first initialised once.
        let first = run();
        let (result, allocations) = allocations_in(run);
        assert_eq!(result.rows, first.rows);
        assert_eq!(result.metrics.source_requests, 0, "{name}");
        assert!(
            result
                .metrics
                .notes
                .iter()
                .any(|n| n.contains("columnar-scan")),
            "{name} is a columnar scan"
        );

        let returned = result.rows.len() as u64;
        assert!(returned > 0, "{name} returns rows");
        assert!(
            scanned > 8 * (returned + PER_QUERY),
            "{scanned} rows scanned for {returned}: a per-row count would hide"
        );
        println!(
            "{name}: {returned} rows of {scanned} scanned, {allocations} allocations ({:.2}/row returned)",
            allocations as f64 / returned as f64,
        );
        assert!(
            allocations <= 4 * returned + PER_QUERY,
            "{name}: {allocations} allocations for {returned} rows of {scanned} scanned"
        );
    }
}
