//! Differential query oracle: the naive pipeline is the semantics.
//!
//! A deterministic generator (hand-rolled xorshift64* PRNG, no
//! external dependencies) produces several hundred queries spanning
//! every query class — activities, top-k, per-child aggregates,
//! per-leaf counts, with predicates, similarity, and substructure
//! constraints over every scope shape. Each query runs under
//! `OptimizerConfig::naive()` and under every single-rule-on config
//! plus the full config, and the normalized result sets must be
//! identical: optimizer rules may only change *how* rows are obtained,
//! never *which* rows come back. On divergence the test prints both
//! EXPLAIN outputs so the offending rewrite is immediately visible.
//!
//! Run with: `cargo test -p drugtree-query --test differential`

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree_chem::affinity::{ActivityRecord, ActivityType};
use drugtree_integrate::overlay::OverlayBuilder;
use drugtree_phylo::index::{LeafInterval, TreeIndex};
use drugtree_phylo::newick::parse_newick;
use drugtree_query::ast::{Metric, QueryKind};
use drugtree_query::local::Keep;
use drugtree_query::{Dataset, Executor, Optimizer, OptimizerConfig, PlanInputs, Query, Scope};
use drugtree_sources::assay_db::assay_source;
use drugtree_sources::clock::VirtualClock;
use drugtree_sources::federation::SourceRegistry;
use drugtree_sources::latency::LatencyModel;
use drugtree_sources::ligand_db::LigandRecord;
use drugtree_sources::protein_db::ProteinRecord;
use drugtree_sources::source::SourceCapabilities;
use drugtree_store::expr::{CompareOp, Predicate};
use drugtree_store::value::Value;
use std::sync::Arc;
use std::time::Duration;

/// Number of generated queries; the acceptance floor is 200.
const QUERIES: usize = 240;

// ---------------------------------------------------------------------
// Deterministic PRNG (xorshift64*): the oracle must replay identically
// offline, so no external randomness.
// ---------------------------------------------------------------------

struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }
}

// ---------------------------------------------------------------------
// Deterministic dataset: 12 leaves, 6 ligands, ~40 activities with
// globally distinct value_nm (so top-k never ties) and globally unique
// (protein, ligand) pairs (so replica dedup never drops a real row).
// Leaves P4 and P9 carry no activities, giving statistics pruning
// something to prune. Two exact-copy replica sources exercise replica
// selection without changing result sets.
// ---------------------------------------------------------------------

const NEWICK: &str = "((((P0:1,P1:1)c0:1,(P2:1,P3:1)c1:1)c4:1,\
                      ((P4:1,P5:1)c2:1,(P6:1,P7:1)c3:1)c5:1)c6:1,\
                      ((P8:1,P9:1)c7:1,(P10:1,P11:1)c8:1)c9:1)root;";

const LEAVES: usize = 12;
const LEAF_LABELS: [&str; LEAVES] = [
    "P0", "P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10", "P11",
];
const CLADE_LABELS: [&str; 11] = [
    "c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "root",
];
const LIGANDS: [(&str, &str, &str); 6] = [
    ("L0", "aspirin", "CC(=O)Oc1ccccc1C(=O)O"),
    ("L1", "ethanol", "CCO"),
    ("L2", "caffeine", "Cn1cnc2c1c(=O)n(C)c(=O)n2C"),
    ("L3", "benzene", "c1ccccc1"),
    ("L4", "propane", "CCC"),
    ("L5", "ethylamine", "CCN"),
];

fn latency(rtt_ms: u64) -> LatencyModel {
    LatencyModel {
        base_rtt: Duration::from_millis(rtt_ms),
        per_row: Duration::from_millis(1),
        per_row_scanned: Duration::ZERO,
        jitter: 0.0,
        seed: 0,
    }
}

fn build_dataset() -> Dataset {
    build_dataset_with(&[])
}

/// The oracle's dataset plus `extra` activities the sources also ship.
fn build_dataset_with(extra: &[ActivityRecord]) -> Dataset {
    let tree = parse_newick(NEWICK).expect("valid newick");
    let index = TreeIndex::build(&tree);

    let proteins: Vec<ProteinRecord> = LEAF_LABELS
        .iter()
        .map(|acc| ProteinRecord {
            accession: (*acc).into(),
            name: format!("protein {acc}"),
            organism: "synthetic".into(),
            sequence: "MKVLAT".into(),
            gene: None,
        })
        .collect();
    let ligands: Vec<LigandRecord> = LIGANDS
        .iter()
        .map(|(id, name, smiles)| LigandRecord::from_smiles(*id, *name, *smiles).expect("valid"))
        .collect();

    let mut acts = Vec::new();
    let mut counter = 0u32;
    for (rank, acc) in LEAF_LABELS.iter().enumerate() {
        if rank == 4 || rank == 9 {
            continue; // statistics pruning fodder
        }
        for (l, (ligand, _, _)) in LIGANDS.iter().enumerate() {
            if (rank * 7 + l * 13) % 10 >= 6 {
                continue;
            }
            // Exponent spread over [0, 5): value_nm in [1 nM, 100 uM),
            // pActivity in (4, 9]; every value distinct.
            let exp = f64::from(counter) * 0.1;
            acts.push(ActivityRecord {
                protein_accession: (*acc).into(),
                ligand_id: (*ligand).into(),
                activity_type: ActivityType::ALL[(rank + l) % ActivityType::ALL.len()],
                value_nm: 10f64.powf(exp),
                source: if counter.is_multiple_of(2) {
                    "chembl-sim".into()
                } else {
                    "bindingdb-sim".into()
                },
                year: 2004 + ((rank * 3 + l * 5) % 12) as u16,
            });
            counter += 1;
        }
    }
    assert!(acts.len() >= 35, "dataset holds {} activities", acts.len());
    acts.extend_from_slice(extra);

    let overlay = OverlayBuilder::new(&tree, &index)
        .build(&proteins, &ligands)
        .expect("overlay builds");

    // max_batch 5 forces multi-chunk batched fetches over 10 keys.
    let caps = SourceCapabilities {
        eq_pushdown: true,
        range_pushdown: true,
        max_batch: 5,
    };
    let mut registry = SourceRegistry::new();
    registry
        .register(Arc::new(
            assay_source("assay-a", &acts, caps, latency(10)).expect("source"),
        ))
        .expect("register");
    registry
        .register(Arc::new(
            assay_source("assay-b", &acts, caps, latency(25)).expect("source"),
        ))
        .expect("register");
    registry
        .declare_replicas(vec!["assay-a".into(), "assay-b".into()])
        .expect("replica group");

    Dataset::new(tree, index, overlay, registry, VirtualClock::new()).expect("dataset")
}

// ---------------------------------------------------------------------
// Query generation.
// ---------------------------------------------------------------------

fn gen_scope(rng: &mut XorShift) -> Scope {
    match rng.below(10) {
        0..=2 => Scope::Tree,
        3..=5 => {
            let all: Vec<&str> = CLADE_LABELS
                .iter()
                .chain(LEAF_LABELS.iter())
                .copied()
                .collect();
            Scope::Subtree(all[rng.below(all.len() as u64) as usize].into())
        }
        6 | 7 => {
            let lo = rng.below(LEAVES as u64 + 1) as u32;
            let hi = lo + rng.below(LEAVES as u64 + 1 - u64::from(lo)) as u32;
            Scope::Interval(LeafInterval { lo, hi })
        }
        _ => {
            let n = 1 + rng.below(3) as usize;
            Scope::Leaves(
                (0..n)
                    .map(|_| LEAF_LABELS[rng.below(LEAVES as u64) as usize].into())
                    .collect(),
            )
        }
    }
}

fn gen_conjunct(rng: &mut XorShift) -> Predicate {
    match rng.below(8) {
        0 => Predicate::cmp("p_activity", CompareOp::Ge, rng.f64_in(4.0, 9.0)),
        1 => {
            let lo = rng.f64_in(4.0, 7.5);
            Predicate::between("p_activity", lo, lo + 1.5)
        }
        2 => Predicate::cmp("year", CompareOp::Ge, 2004 + rng.below(12) as i64),
        3 => {
            let t = ActivityType::ALL[rng.below(4) as usize];
            Predicate::eq("activity_type", t.label())
        }
        4 => Predicate::cmp("mw", CompareOp::Lt, rng.f64_in(40.0, 400.0)),
        5 => Predicate::cmp("value_nm", CompareOp::Le, 10f64.powf(rng.f64_in(0.0, 5.0))),
        6 => Predicate::eq(
            "source",
            if rng.chance(50) {
                "chembl-sim"
            } else {
                "bindingdb-sim"
            },
        ),
        _ => Predicate::eq("ligand_id", LIGANDS[rng.below(6) as usize].0),
    }
}

fn gen_query(rng: &mut XorShift) -> Query {
    let mut q = Query::activities(gen_scope(rng));
    for _ in 0..rng.below(3) {
        q = q.filter(gen_conjunct(rng));
    }
    match rng.below(8) {
        0..=2 => {}
        3 | 4 => {
            // Distinct-valued columns only, so the selected set is
            // unique and set comparison is exact.
            let by = if rng.chance(50) {
                "p_activity"
            } else {
                "value_nm"
            };
            q = q.top_k(by, 1 + rng.below(10) as usize, rng.chance(50));
        }
        5 | 6 => {
            let metric = [
                Metric::Count,
                Metric::DistinctLigands,
                Metric::MaxPActivity,
                Metric::MeanPActivity,
            ][rng.below(4) as usize];
            q = q.aggregate(metric);
        }
        _ => q.kind = QueryKind::CountPerLeaf,
    }
    if rng.chance(12) {
        let reference = if rng.chance(60) {
            LIGANDS[rng.below(6) as usize].0.to_string()
        } else {
            "CCO".to_string()
        };
        q = q.similar_to(reference, rng.f64_in(0.1, 0.9));
    }
    if rng.chance(12) {
        let pattern = ["CCO", "c1ccccc1", "CC", "L2"][rng.below(4) as usize];
        q = q.containing(pattern);
    }
    q
}

/// The oracle's query stream: fixed seed, so every differential test
/// (single-threaded rule sweep, concurrent serving) replays the exact
/// same `QUERIES` queries.
fn generated_queries() -> Vec<Query> {
    let mut rng = XorShift::new(0x5EED_D1FF);
    (0..QUERIES).map(|_| gen_query(&mut rng)).collect()
}

// ---------------------------------------------------------------------
// Normalization: row order is not part of query semantics (the finish
// operators define sets / multisets), and MeanPActivity sums floats in
// fetch order, so float cells are rounded to 9 decimal places before
// comparison to absorb summation-order jitter.
// ---------------------------------------------------------------------

fn normalize(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut out: Vec<Vec<Value>> = rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Float(f) => Value::Float((f * 1e9).round() / 1e9),
                    other => other.clone(),
                })
                .collect()
        })
        .collect();
    out.sort();
    out
}

fn single_rule_configs() -> Vec<(String, OptimizerConfig)> {
    drugtree_query::phases::ablatable_rules()
        .map(|rule| {
            let mut c = OptimizerConfig::naive();
            let toggle = rule.toggle.expect("ablatable rules carry a toggle");
            toggle(&mut c, true);
            (format!("only-{}", rule.name), c)
        })
        .collect()
}

#[test]
fn optimizer_rules_preserve_query_semantics() {
    let dataset = build_dataset();

    // Persistent executor per config: the semantic cache accumulates
    // across the stream, so cache *reuse* (not just first-miss inserts)
    // is under differential test.
    let mut baseline = Executor::new(Optimizer::new(OptimizerConfig::naive()));
    baseline.collect_stats(&dataset).expect("stats");

    let mut candidates: Vec<(String, Executor)> = Vec::new();
    let mut configs = single_rule_configs();
    configs.push(("full".into(), OptimizerConfig::full()));
    for (name, config) in configs {
        let mut exec = Executor::new(Optimizer::new(config));
        exec.collect_stats(&dataset).expect("stats");
        exec.build_local(&dataset, Keep::Both)
            .expect("view and mirror");
        candidates.push((name, exec));
    }

    let mut by_kind = [0usize; 4];
    let mut divergences = Vec::new();
    for (i, query) in generated_queries().iter().enumerate() {
        by_kind[match query.kind {
            QueryKind::Activities => 0,
            QueryKind::TopK { .. } => 1,
            QueryKind::Aggregate { .. } => 2,
            QueryKind::CountPerLeaf => 3,
        }] += 1;

        let expected = baseline
            .execute(&dataset, query)
            .unwrap_or_else(|e| panic!("query #{i} `{query}` failed under naive: {e}"));
        let expected_rows = normalize(&expected.rows);

        for (name, exec) in &candidates {
            let got = exec
                .execute(&dataset, query)
                .unwrap_or_else(|e| panic!("query #{i} `{query}` failed under {name}: {e}"));
            let got_rows = normalize(&got.rows);
            if got_rows != expected_rows {
                let naive_explain = baseline
                    .explain(&dataset, query)
                    .unwrap_or_else(|e| e.to_string());
                let cand_explain = exec
                    .explain(&dataset, query)
                    .unwrap_or_else(|e| e.to_string());
                divergences.push(format!(
                    "query #{i} `{query}` diverges under {name}:\n\
                     naive rows:     {expected_rows:?}\n\
                     {name} rows: {got_rows:?}\n\
                     --- naive EXPLAIN ---\n{naive_explain}\
                     --- {name} EXPLAIN ---\n{cand_explain}"
                ));
            }
        }
    }

    assert!(
        divergences.is_empty(),
        "{} divergence(s):\n\n{}",
        divergences.len(),
        divergences.join("\n\n")
    );
    const { assert!(QUERIES >= 200, "acceptance floor") };
    assert!(
        by_kind.iter().all(|&n| n > 0),
        "generator covered all query classes: {by_kind:?}"
    );
}

/// The concurrent path is under the same oracle: the full query stream
/// split round-robin across 4 OS threads sharing one `Arc<Executor>`
/// must return exactly what the single-threaded naive baseline returns
/// for every query. This is the
/// end-to-end guarantee that sharing an executor only changes *how
/// many round-trips* are paid, never the rows.
#[test]
fn concurrent_shared_executor_matches_naive_baseline() {
    const THREADS: usize = 4;
    let dataset = build_dataset();

    let mut baseline = Executor::new(Optimizer::new(OptimizerConfig::naive()));
    baseline.collect_stats(&dataset).expect("stats");

    let queries = generated_queries();
    let expected: Vec<Vec<Vec<Value>>> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let r = baseline
                .execute(&dataset, q)
                .unwrap_or_else(|e| panic!("query #{i} `{q}` failed under naive: {e}"));
            normalize(&r.rows)
        })
        .collect();

    let mut exec = Executor::new(Optimizer::new(OptimizerConfig::full()));
    exec.collect_stats(&dataset).expect("stats");
    exec.build_local(&dataset, Keep::View).expect("matview");
    // No columnar mirror here on purpose: a fresh mirror answers every
    // interval scope locally, and this test's subject is the shared
    // *fetch* path (shared cache, sources) under concurrency — the
    // columnar path is differentially tested above.
    let exec = Arc::new(exec);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let exec = Arc::clone(&exec);
                let dataset = &dataset;
                let queries = &queries;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for (i, q) in queries.iter().enumerate().skip(t).step_by(THREADS) {
                        let r = exec.execute(dataset, q).unwrap_or_else(|e| {
                            panic!("query #{i} `{q}` failed on the shared executor: {e}")
                        });
                        mine.push((i, normalize(&r.rows)));
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            for (i, rows) in h.join().expect("no thread panic") {
                assert_eq!(
                    rows, expected[i],
                    "query #{i} `{}` diverges on the shared executor",
                    queries[i]
                );
            }
        }
    });

    // Concurrency must not corrupt the lock-free accounting either.
    let stats = exec.cache_stats();
    assert_eq!(stats.hits + stats.misses, stats.probes);
}

/// A cache hit must be indistinguishable from the miss it replaces:
/// every query of the oracle's corpus returns the same columns and rows
/// cold (cache invalidated), warm from the exact entry its own miss
/// inserted, and warm from a containing parent entry (the whole-tree
/// listing, sliced by binary search) — the shared-batch path of design
/// decision D16 under the same oracle as the optimizer rules. The two
/// warm forms borrow differently sized entries and must still agree
/// row for row, *in order*. A fourth form warms the cache with the
/// listing of the scope's parent under a tighter `p_activity >=` bound,
/// which statistics prune leaves by, on a planner that pushes nothing:
/// the bound then reaches the entry's key only as the pruning bound, so
/// an entry keyed without it would answer the query without the pruned
/// leaves' rows.
#[test]
fn cache_hits_return_what_misses_return() {
    const TIGHT_BOUND: f64 = 7.0;
    // One activity names a ligand the catalog does not hold: its
    // ligand cells are NULL on every path.
    let dataset = build_dataset_with(&[ActivityRecord {
        protein_accession: "P5".into(),
        ligand_id: "LX".into(),
        activity_type: ActivityType::Ki,
        value_nm: 250_000.0,
        source: "chembl-sim".into(),
        year: 2010,
    }]);
    let executor = |config| {
        let mut exec = Executor::new(Optimizer::new(config));
        exec.collect_stats(&dataset).expect("stats");
        exec
    };
    let full = OptimizerConfig::full;
    let (cold, exact, parent) = (executor(full()), executor(full()), executor(full()));
    let bounded = executor(OptimizerConfig {
        pushdown: false,
        ..full()
    });
    let whole_tree = Query::activities(Scope::Tree);

    let mut queries = generated_queries();
    queries.extend([
        // Top-k over heavily tied ranking keys: tie order is rank order.
        Query::activities(Scope::Tree).top_k("year", 7, true),
        Query::activities(Scope::Subtree("c6".into())).top_k("activity_type", 4, false),
        // ... and over a ligand column holding a NULL.
        Query::activities(Scope::Subtree("c5".into())).top_k("mw", 3, false),
        // Residuals on a ligand column, with the absent ligand in scope.
        Query::activities(Scope::Tree).filter(Predicate::cmp("mw", CompareOp::Lt, 150.0)),
        Query::activities(Scope::Subtree("c5".into())).filter(Predicate::IsNull {
            column: "mw".into(),
        }),
        Query::activities(Scope::Subtree("c2".into()))
            .filter(Predicate::Not(Box::new(Predicate::cmp(
                "mw",
                CompareOp::Ge,
                100.0,
            ))))
            .aggregate(Metric::Count),
    ]);

    let mut hits = 0;
    let mut rows_without_ligand = 0;
    let (mut pruned_warm_ups, mut bounded_hits) = (0, 0);
    for (i, query) in queries.iter().enumerate() {
        let run = |exec: &Executor| {
            exec.execute(&dataset, query)
                .unwrap_or_else(|e| panic!("query #{i} `{query}` failed: {e}"))
        };
        cold.invalidate();
        let miss = run(&cold);

        exact.invalidate();
        run(&exact);
        let from_exact = run(&exact);

        parent.invalidate();
        parent
            .execute(&dataset, &whole_tree)
            .expect("whole-tree listing");
        let from_parent = run(&parent);

        let (node, _) = dataset.resolve_scope(&query.scope).expect("scope");
        let up = dataset.index.interval(dataset.index.parent(node));
        let tighter = Query::activities(Scope::Interval(up)).filter(Predicate::cmp(
            "p_activity",
            CompareOp::Ge,
            TIGHT_BOUND,
        ));
        bounded.invalidate();
        let warm_up = bounded
            .execute(&dataset, &tighter)
            .expect("bounded listing");
        pruned_warm_ups += usize::from(warm_up.metrics.pruned_leaves > 0);
        let from_bounded = run(&bounded);
        bounded_hits += usize::from(from_bounded.metrics.cache_hit == Some(true));

        if miss.metrics.cache_hit.is_some() {
            assert_eq!(miss.metrics.cache_hit, Some(false), "query #{i} `{query}`");
            assert_eq!(
                from_exact.metrics.cache_hit,
                Some(true),
                "query #{i} `{query}`"
            );
            assert_eq!(
                from_parent.metrics.cache_hit,
                Some(true),
                "query #{i} `{query}`"
            );
            assert_eq!(from_exact.metrics.source_requests, 0);
            assert_eq!(from_parent.metrics.source_requests, 0);
            hits += 1;
        }

        assert_eq!(
            from_exact.columns, from_parent.columns,
            "query #{i} `{query}`"
        );
        assert_eq!(
            from_exact.rows, from_parent.rows,
            "query #{i} `{query}`: the two warm forms differ (or differ in order)"
        );
        for (form, warm) in [("exact", &from_exact), ("bounded parent", &from_bounded)] {
            assert_eq!(miss.columns, warm.columns, "query #{i} `{query}` ({form})");
            match &query.kind {
                // Equal-key rows may tie-break differently between a
                // miss and a hit: compare the multiset of ranking keys.
                QueryKind::TopK { by, .. } => {
                    let col = miss.columns.iter().position(|c| c == by).expect("column");
                    let keys = |rows: &[Vec<Value>]| {
                        let mut keys: Vec<Value> = rows.iter().map(|r| r[col].clone()).collect();
                        keys.sort();
                        keys
                    };
                    assert_eq!(
                        keys(&miss.rows),
                        keys(&warm.rows),
                        "query #{i} `{query}` ({form})"
                    );
                }
                _ => {
                    let sorted = |rows: &[Vec<Value>]| {
                        let mut rows = rows.to_vec();
                        rows.sort();
                        rows
                    };
                    assert_eq!(
                        sorted(&miss.rows),
                        sorted(&warm.rows),
                        "query #{i} `{query}` ({form})"
                    );
                }
            }
        }
        if miss.columns.len() == 14 {
            rows_without_ligand += from_parent
                .rows
                .iter()
                .filter(|r| r[2] == Value::from("LX") && r[8..].iter().all(Value::is_null))
                .count();
        }
    }
    assert!(hits > QUERIES / 2, "only {hits} queries probed the cache");
    println!("bounded parent: {pruned_warm_ups} warm-ups pruned leaves, {bounded_hits} hits");
    assert!(
        pruned_warm_ups > QUERIES / 4 && bounded_hits > 0,
        "{pruned_warm_ups} bounded warm-ups pruned leaves, {bounded_hits} answered from them"
    );
    assert!(
        rows_without_ligand > 0,
        "no hit returned the absent ligand's NULL cells"
    );
}

// ---------------------------------------------------------------------
// Plan shape against the pre-diet planner. The oracle above compares
// answers; this pins what every plan *is*, over the same corpus.
// ---------------------------------------------------------------------

/// FNV-1a/64 digests recorded from the planner as it stood before the
/// planner diet (commit 80bb7c3: 22 rules, per-phase fixpoint driver,
/// priced access enumeration), per config over [`generated_queries`]:
/// `plan.explain()` with the lines that diet declared it would change
/// stripped (see [`plan_shape`]), planned with statistics only (the
/// fetch path) and with the matview and columnar mirror as well.
/// `ablate-canonicalize` was recorded with all five former `canon_*`
/// flags off. Re-recorded once since, when the cache probe's
/// `insert_on_miss=true` token left EXPLAIN: with that token stripped,
/// the parent's EXPLAIN over this corpus was byte-identical to the
/// re-recording planner's under every config, on both paths.
const PRE_DIET_PLAN_DIGESTS: &[(&str, u64, u64)] = &[
    ("full", 0x07AD_5954_B5DD_B737, 0xA565_C16C_3AB3_F993),
    ("naive", 0x08B5_4DFA_1EC9_F92F, 0x08B5_4DFA_1EC9_F92F),
    (
        "ablate-canonicalize",
        0xD069_A403_17B8_D0D9,
        0x1D39_CDE6_B5DC_3462,
    ),
    (
        "ablate-selectivity_ordering",
        0x6F7C_0328_3EFA_2D53,
        0x68E5_651C_AADF_FFA3,
    ),
    (
        "ablate-stats_pruning",
        0x97F0_2885_F5B2_3101,
        0xBD95_FD6A_CBA6_2FDE,
    ),
    (
        "ablate-pushdown",
        0xFD87_5DDF_15DD_733A,
        0x25D5_4B00_78B4_C7AB,
    ),
    (
        "ablate-replica_selection",
        0x8F6B_3EAB_1922_BEEC,
        0xAE3B_AD54_DE87_A03F,
    ),
    (
        "ablate-use_matview",
        0x07AD_5954_B5DD_B737,
        0x9931_EC10_5D06_E143,
    ),
    (
        "ablate-columnar_scan",
        0x07AD_5954_B5DD_B737,
        0xF67B_50FB_BE51_E954,
    ),
    (
        "ablate-semantic_cache",
        0x1DBC_27C1_C212_1982,
        0xA565_C16C_3AB3_F993,
    ),
    (
        "ablate-batching",
        0xAA68_DB82_0CDB_4D87,
        0x7560_84EE_15F1_8011,
    ),
    (
        "ablate-concurrent_dispatch",
        0xA084_8C28_7AD7_6841,
        0xA565_C16C_3AB3_F993,
    ),
];

/// EXPLAIN minus the rendering the diet changed on purpose: the rule
/// trace (one line per phase, one canonicalize entry). The other lines
/// it stripped (the `access` / `cache` candidate groups and the
/// `# cost-based:` note) no plan prints any more.
fn plan_shape(explain: &str) -> String {
    explain
        .lines()
        .filter(|line| !line.trim_start().starts_with("RuleTrace"))
        .flat_map(|line| [line, "\n"])
        .collect()
}

#[test]
fn planner_reproduces_the_pre_diet_plans() {
    use drugtree_query::local::LocalBuild;
    use drugtree_query::stats::OverlayStats;

    let dataset = build_dataset();
    let stats = OverlayStats::collect(&dataset).expect("stats");
    let built = LocalBuild::build(&dataset, Keep::Both).expect("view and mirror");
    let fetch_path = PlanInputs {
        stats: Some(&stats),
        ..PlanInputs::new(&dataset)
    };
    let local = PlanInputs {
        local: Some(&built),
        ..fetch_path
    };

    let mut configs = vec![
        ("full".to_string(), OptimizerConfig::full()),
        ("naive".to_string(), OptimizerConfig::naive()),
    ];
    configs.extend(drugtree_query::phases::ablatable_rules().map(|rule| {
        let config = OptimizerConfig::ablate(rule.name).expect("ablatable");
        (format!("ablate-{}", rule.name), config)
    }));
    assert_eq!(configs.len(), PRE_DIET_PLAN_DIGESTS.len());

    let queries = generated_queries();
    for (name, config) in configs {
        let optimizer = Optimizer::new(config);
        let digest = |inputs: &PlanInputs<'_>| {
            let mut hash = 0xCBF2_9CE4_8422_2325_u64;
            for query in &queries {
                let plan = optimizer.plan(inputs, query).expect("plans");
                for byte in plan_shape(&plan.explain()).bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
            hash
        };
        let pinned = PRE_DIET_PLAN_DIGESTS
            .iter()
            .find(|(pinned, _, _)| *pinned == name)
            .unwrap_or_else(|| panic!("no pre-diet digest for config {name}"));
        assert_eq!(
            (digest(&fetch_path), digest(&local)),
            (pinned.1, pinned.2),
            "plans under {name} differ from the pre-diet planner's"
        );
    }
}
