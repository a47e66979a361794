//! Cross-crate property tests: optimizer equivalence and cache
//! coherence on randomly generated deployments and queries, fed to the
//! differential harness (`support`).

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashMap;
use support::{Answer, Matrix, Step, Systems};

mod support;

/// The harness's systems over a small generated deployment.
fn deployment(leaves: usize, ligands: usize, seed: u64) -> Systems {
    let spec = WorkloadSpec::default().leaves(leaves).ligands(ligands);
    let bundle = SyntheticBundle::generate(&spec.seed(seed));
    Systems::new(&Matrix::fixed(), || bundle.build_dataset())
}

fn arb_query(max_leaves: usize) -> impl Strategy<Value = Query> {
    let scope = prop_oneof![
        Just(Scope::Tree),
        (0u32..max_leaves as u32, 1u32..8).prop_map(move |(lo, len)| {
            Scope::Interval(drugtree_phylo::index::LeafInterval {
                lo,
                hi: (lo + len).min(max_leaves as u32),
            })
        }),
    ];
    let predicate = prop_oneof![
        Just(Predicate::True),
        (4.0f64..9.0).prop_map(|p| Predicate::cmp("p_activity", CompareOp::Ge, p)),
        (100.0f64..600.0).prop_map(|mw| Predicate::cmp("mw", CompareOp::Lt, mw)),
        (1995i64..2013).prop_map(|y| Predicate::cmp("year", CompareOp::Ge, y)),
        (4.0f64..7.0, 0.5f64..2.5)
            .prop_map(|(lo, span)| { Predicate::between("p_activity", lo, lo + span) }),
    ];
    (scope, predicate, proptest::option::of(1usize..10)).prop_map(|(scope, predicate, topk)| {
        let q = Query::activities(scope).filter(predicate);
        match topk {
            Some(k) => q.top_k("p_activity", k, true),
            None => q,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fundamental soundness property: for random queries over a
    /// random deployment, every optimized system returns exactly what
    /// the naive plan returns.
    #[test]
    fn optimizer_preserves_answers(
        seed in 0u64..500,
        queries in proptest::collection::vec(arb_query(48), 1..6),
    ) {
        let steps: Vec<Step> = queries.into_iter().map(Step::Query).collect();
        deployment(48, 12, seed).run(&steps).map_err(TestCaseError::Fail)?;
    }

    /// Cache coherence: interleaving random queries and cache drops,
    /// every answer (the repeats of earlier queries among them) is the
    /// naive plan's, and every repeat on one system returns exactly the
    /// rows of its first answer there, across a drop too: every column,
    /// no float rounding.
    #[test]
    fn cache_is_coherent_under_interleaving(
        seed in 0u64..200,
        queries in proptest::collection::vec(arb_query(32), 2..8),
        replay_order in proptest::collection::vec(0usize..9, 4..12),
    ) {
        // 8 is past every query list: it drops the caches.
        let steps: Vec<Step> = replay_order
            .iter()
            .map(|&i| match i {
                8 => Step::Invalidate,
                i => Step::Query(queries[i % queries.len()].clone()),
            })
            .collect();
        let mut first = HashMap::new();
        let repeat = |answer: &Answer<'_, '_>| {
            let mut rows = answer.result.rows.clone();
            rows.sort();
            let key = (answer.system.to_string(), format!("{:?}", answer.query));
            let first = first.entry(key).or_insert_with(|| rows.clone());
            let same = *first == rows;
            same.then_some(()).ok_or_else(|| format!("repeat {rows:?}, first {first:?}"))
        };
        deployment(32, 8, seed).run_with(&steps, repeat).map_err(TestCaseError::Fail)?;
    }
}
