//! Seeded query workload generation.
//!
//! Experiments E1/E2/E4 run fixed mixes of the four query classes over
//! scopes chosen with Zipf skew (users hammer a few hot clades). The
//! generator produces deterministic query streams from a seed.

use drugtree_phylo::index::TreeIndex;
use drugtree_phylo::tree::{NodeId, Tree};
use drugtree_query::ast::{Metric, Query, Scope};
use drugtree_sources::ligand_db::LigandRecord;
use drugtree_store::expr::{CompareOp, Predicate};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The four benchmarked query classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// All activities in a subtree.
    SubtreeListing,
    /// Potency-filtered activities in a subtree.
    AffinityFilter,
    /// Similarity-constrained top-k in a subtree.
    SimilarityTopK,
    /// Per-child aggregate of a subtree.
    Aggregate,
}

impl QueryClass {
    /// All classes, in reporting order.
    pub const ALL: [QueryClass; 4] = [
        QueryClass::SubtreeListing,
        QueryClass::AffinityFilter,
        QueryClass::SimilarityTopK,
        QueryClass::Aggregate,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            QueryClass::SubtreeListing => "subtree_listing",
            QueryClass::AffinityFilter => "affinity_filter",
            QueryClass::SimilarityTopK => "similarity_topk",
            QueryClass::Aggregate => "aggregate",
        }
    }
}

/// Query stream configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryWorkloadConfig {
    /// Queries to generate.
    pub len: usize,
    /// RNG seed.
    pub seed: u64,
    /// Zipf exponent over candidate scopes (0 = uniform).
    pub scope_theta: f64,
}

impl Default for QueryWorkloadConfig {
    fn default() -> QueryWorkloadConfig {
        QueryWorkloadConfig {
            len: 100,
            seed: 5,
            scope_theta: 0.8,
        }
    }
}

/// Generate a stream of one class.
pub fn class_stream(
    class: QueryClass,
    tree: &Tree,
    index: &TreeIndex,
    ligands: &[LigandRecord],
    config: &QueryWorkloadConfig,
) -> Vec<Query> {
    let mut rng = SmallRng::seed_from_u64(config.seed ^ (class as u64) << 7);
    let scopes = candidate_scopes(tree, index);
    (0..config.len)
        .map(|_| {
            let scope_node = scopes[zipf(&mut rng, scopes.len(), config.scope_theta)];
            let label = tree
                .node_unchecked(scope_node)
                .label
                .clone()
                .expect("scopes are labeled");
            let scope = Scope::Subtree(label);
            match class {
                QueryClass::SubtreeListing => Query::activities(scope),
                QueryClass::AffinityFilter => Query::activities(scope).filter(Predicate::cmp(
                    "p_activity",
                    CompareOp::Ge,
                    rng.gen_range(5.0..8.0),
                )),
                QueryClass::SimilarityTopK => {
                    let reference = &ligands[rng.gen_range(0..ligands.len())].ligand_id;
                    Query::activities(scope)
                        .similar_to(reference.clone(), rng.gen_range(0.2..0.6))
                        .top_k("p_activity", 10, true)
                }
                QueryClass::Aggregate => {
                    Query::activities(scope).aggregate(match rng.gen_range(0..3) {
                        0 => Metric::Count,
                        1 => Metric::MaxPActivity,
                        _ => Metric::DistinctLigands,
                    })
                }
            }
        })
        .collect()
}

/// Generate a mixed stream cycling through all classes.
pub fn mixed_stream(
    tree: &Tree,
    index: &TreeIndex,
    ligands: &[LigandRecord],
    config: &QueryWorkloadConfig,
) -> Vec<Query> {
    let per = config.len.div_ceil(QueryClass::ALL.len());
    let mut streams: Vec<Vec<Query>> = QueryClass::ALL
        .iter()
        .map(|&c| {
            class_stream(
                c,
                tree,
                index,
                ligands,
                &QueryWorkloadConfig {
                    len: per,
                    ..*config
                },
            )
        })
        .collect();
    let mut out = Vec::with_capacity(config.len);
    'outer: loop {
        for s in &mut streams {
            match s.pop() {
                Some(q) => out.push(q),
                None => break 'outer,
            }
            if out.len() == config.len {
                break 'outer;
            }
        }
    }
    out
}

/// Internal nodes big enough to be interesting scopes (≥ 2 leaves),
/// ordered largest-first so Zipf rank 0 is the hottest big clade.
fn candidate_scopes(tree: &Tree, index: &TreeIndex) -> Vec<NodeId> {
    let mut scopes: Vec<NodeId> = tree
        .node_ids()
        .filter(|&id| {
            !tree.node_unchecked(id).is_leaf()
                && tree.node_unchecked(id).label.is_some()
                && index.interval(id).len() >= 2
        })
        .collect();
    scopes.sort_by_key(|&id| std::cmp::Reverse(index.interval(id).len()));
    scopes
}

fn zipf(rng: &mut SmallRng, n: usize, theta: f64) -> usize {
    if n <= 1 {
        return 0;
    }
    let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(theta)).collect();
    let total: f64 = weights.iter().sum();
    let mut target = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        target -= w;
        if target <= 0.0 {
            return i;
        }
    }
    n - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::{SyntheticBundle, WorkloadSpec};
    use drugtree_query::optimizer::{Optimizer, OptimizerConfig};
    use drugtree_query::Executor;

    fn bundle() -> SyntheticBundle {
        SyntheticBundle::generate(&WorkloadSpec::default().leaves(32).ligands(8))
    }

    #[test]
    fn streams_are_deterministic() {
        let b = bundle();
        let cfg = QueryWorkloadConfig::default();
        let a = mixed_stream(&b.tree, &b.index, &b.ligands, &cfg);
        let c = mixed_stream(&b.tree, &b.index, &b.ligands, &cfg);
        assert_eq!(a, c);
        assert_eq!(a.len(), cfg.len);
    }

    #[test]
    fn class_streams_have_expected_shape() {
        let b = bundle();
        let cfg = QueryWorkloadConfig {
            len: 20,
            ..Default::default()
        };
        for class in QueryClass::ALL {
            let qs = class_stream(class, &b.tree, &b.index, &b.ligands, &cfg);
            assert_eq!(qs.len(), 20);
            for q in &qs {
                match class {
                    QueryClass::SubtreeListing => {
                        assert_eq!(q.predicate, Predicate::True);
                        assert!(q.similarity.is_none());
                    }
                    QueryClass::AffinityFilter => {
                        assert!(matches!(q.predicate, Predicate::Compare { .. }));
                    }
                    QueryClass::SimilarityTopK => {
                        assert!(q.similarity.is_some());
                    }
                    QueryClass::Aggregate => {
                        assert!(matches!(
                            q.kind,
                            drugtree_query::ast::QueryKind::AggregateChildren { .. }
                        ));
                    }
                }
            }
        }
    }

    #[test]
    fn every_generated_query_executes() {
        let b = bundle();
        let d = b.build_dataset();
        let e = Executor::new(Optimizer::new(OptimizerConfig::full()));
        let qs = mixed_stream(
            &b.tree,
            &b.index,
            &b.ligands,
            &QueryWorkloadConfig {
                len: 40,
                ..Default::default()
            },
        );
        for q in &qs {
            e.execute(&d, q)
                .unwrap_or_else(|err| panic!("{q:?}: {err}"));
        }
    }

    #[test]
    fn similarity_references_to_merged_ligands_resolve() {
        // The benchmark's deployment draws 1,024 ligands from seed
        // 1101; two of them are one structure, so the overlay merges
        // the later id away — and the stream still names it.
        let b = SyntheticBundle::generate(
            &WorkloadSpec::default().leaves(256).ligands(1024).seed(1101),
        );
        let (_, aliases) = drugtree_integrate::ligand_identity::dedupe_ligands(&b.ligands);
        assert!(!aliases.is_empty(), "deployment has a merged ligand");
        let d = b.build_dataset();
        let e = Executor::new(Optimizer::new(OptimizerConfig::full()));
        let qs = class_stream(
            QueryClass::SimilarityTopK,
            &b.tree,
            &b.index,
            &b.ligands,
            &QueryWorkloadConfig {
                len: 200,
                seed: 1,
                ..Default::default()
            },
        );
        let mut merged_references = 0;
        for q in &qs {
            let got = e
                .execute(&d, q)
                .unwrap_or_else(|err| panic!("{q:?}: {err}"));
            let sim = q.similarity.as_ref().expect("similarity class");
            if let Some(canonical) = aliases.get(&sim.reference) {
                merged_references += 1;
                let mut by_canonical = q.clone();
                by_canonical.similarity = Some(drugtree_query::ast::SimilaritySpec {
                    reference: canonical.clone(),
                    ..sim.clone()
                });
                let expected = e.execute(&d, &by_canonical).expect("canonical id resolves");
                assert_eq!(got.columns, expected.columns);
                assert_eq!(got.rows, expected.rows, "{q:?}");
            }
        }
        assert!(merged_references > 0, "stream named a merged-away ligand");
        // `containing '<id>'` resolves the same way.
        for (merged, canonical) in &aliases {
            let by_merged = e
                .execute(
                    &d,
                    &Query::activities(Scope::Tree).containing(merged.clone()),
                )
                .expect("merged id resolves as a substructure pattern");
            let by_canonical = e
                .execute(
                    &d,
                    &Query::activities(Scope::Tree).containing(canonical.clone()),
                )
                .expect("canonical id resolves");
            assert_eq!(by_merged.rows, by_canonical.rows);
        }
    }

    #[test]
    fn scope_skew_follows_theta() {
        let b = bundle();
        let scopes_of = |theta: f64| {
            let qs = class_stream(
                QueryClass::SubtreeListing,
                &b.tree,
                &b.index,
                &b.ligands,
                &QueryWorkloadConfig {
                    len: 300,
                    seed: 3,
                    scope_theta: theta,
                },
            );
            let distinct: std::collections::HashSet<String> = qs
                .iter()
                .filter_map(|q| match &q.scope {
                    Scope::Subtree(l) => Some(l.clone()),
                    _ => None,
                })
                .collect();
            distinct.len()
        };
        assert!(scopes_of(3.0) < scopes_of(0.0));
    }
}
