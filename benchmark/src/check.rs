//! Answer checks. The naive plan is the repo's specification: an
//! optimised system may change what a query costs, never what it
//! returns.

use drugtree_query::ast::{Query, QueryKind};
use drugtree_query::QueryResult;
use drugtree_store::value::Value;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Feed any hashable value into a running digest. `DefaultHasher::new`
/// uses fixed keys, so a digest repeats between processes.
pub fn fold<T: Hash>(digest: u64, value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    digest.hash(&mut h);
    value.hash(&mut h);
    h.finish()
}

/// Column of the ranking key when `query` is a top-k over `result`.
///
/// Equal-key rows of a top-k may tie-break differently between plans
/// (tests/equivalence.rs makes the same allowance), so a top-k is
/// compared by its ranking keys alone.
fn top_k_key(query: &Query, result: &QueryResult) -> Option<usize> {
    match &query.kind {
        QueryKind::TopK { by, .. } => result.columns.iter().position(|c| c == by),
        _ => None,
    }
}

/// The part of a result that plans must agree on, as a sorted multiset.
fn canonical_rows(query: &Query, result: &QueryResult) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = match top_k_key(query, result) {
        Some(col) => result.rows.iter().map(|r| vec![r[col].clone()]).collect(),
        None => result.rows.clone(),
    };
    rows.sort();
    rows
}

/// Whether `got` answers `query` as `expected` does.
pub fn answers_match(query: &Query, expected: &QueryResult, got: &QueryResult) -> bool {
    expected.columns == got.columns && canonical_rows(query, expected) == canonical_rows(query, got)
}

/// Digest of what [`answers_match`] compares: equal for any two
/// results it accepts, so three workloads that run the same stream can
/// be compared by one number each. Row hashes are summed, which makes
/// the digest independent of row order without sorting.
pub fn answer_digest(query: &Query, result: &QueryResult) -> u64 {
    let key = top_k_key(query, result);
    let rows = result.rows.iter().fold(0u64, |sum, row| {
        sum.wrapping_add(match key {
            Some(col) => fold(0, &row[col]),
            None => fold(0, row),
        })
    });
    fold(fold(0, &result.columns), &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_query::ast::Scope;
    use drugtree_query::ExecMetrics;
    use drugtree_sources::clock::VirtualInstant;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::time::Duration;

    fn result(columns: &[&str], rows: Vec<Vec<Value>>) -> QueryResult {
        QueryResult {
            columns: columns.iter().map(|c| (*c).to_string()).collect(),
            rows,
            metrics: ExecMetrics {
                virtual_cost: Duration::ZERO,
                started: VirtualInstant(0),
                finished: VirtualInstant(0),
                source_requests: 0,
                rows_fetched: 0,
                rows_unmapped: 0,
                cache_hit: None,
                pruned_leaves: 0,
                retries: 0,
                charged_cost: Duration::ZERO,
                flights_joined: 0,
                shared_batch_peers: 0,
                notes: Vec::new(),
            },
        }
    }

    fn seeded_rows(seed: u64, n: usize) -> Vec<Vec<Value>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                vec![
                    Value::Int(i as i64),
                    Value::from(format!("L{:03}", rng.gen_range(0..64))),
                    Value::Float(rng.gen_range(3.5..9.5)),
                ]
            })
            .collect()
    }

    #[test]
    fn row_order_does_not_matter_but_one_wrong_cell_trips_the_check() {
        let query = Query::activities(Scope::Tree);
        let columns = ["leaf_rank", "ligand_id", "p_activity"];
        let rows = seeded_rows(1101, 200);
        let expected = result(&columns, rows.clone());

        let mut reordered = rows.clone();
        reordered.reverse();
        let same = result(&columns, reordered);
        assert!(answers_match(&query, &expected, &same));
        assert_eq!(
            answer_digest(&query, &expected),
            answer_digest(&query, &same)
        );

        let mut rng = SmallRng::seed_from_u64(7);
        let mut wrong_rows = rows.clone();
        let victim = rng.gen_range(0..wrong_rows.len());
        wrong_rows[victim][2] = Value::Float(1.0);
        let wrong = result(&columns, wrong_rows);
        assert!(!answers_match(&query, &expected, &wrong));
        assert_ne!(
            answer_digest(&query, &expected),
            answer_digest(&query, &wrong)
        );

        let mut short = rows;
        short.pop();
        assert!(!answers_match(&query, &expected, &result(&columns, short)));
    }

    #[test]
    fn top_k_is_compared_by_ranking_key_only() {
        let query = Query::activities(Scope::Tree).top_k("p_activity", 2, true);
        let columns = ["ligand_id", "p_activity"];
        let a = result(
            &columns,
            vec![
                vec![Value::from("L1"), Value::Float(9.0)],
                vec![Value::from("L2"), Value::Float(8.0)],
            ],
        );
        let tie_broken = result(
            &columns,
            vec![
                vec![Value::from("L1"), Value::Float(9.0)],
                vec![Value::from("L3"), Value::Float(8.0)],
            ],
        );
        let worse = result(
            &columns,
            vec![
                vec![Value::from("L1"), Value::Float(9.0)],
                vec![Value::from("L3"), Value::Float(7.5)],
            ],
        );
        assert!(answers_match(&query, &a, &tie_broken));
        assert!(!answers_match(&query, &a, &worse));
    }
}
