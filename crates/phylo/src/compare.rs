//! Tree comparison: Robinson–Foulds distance.
//!
//! The workload generator produces ground-truth trees and evolves
//! sequences along them; the RF distance between the reconstructed and
//! true tree quantifies how faithful the sequence→distance→NJ pipeline
//! is — the validation a real phylogenetics deployment would run.

use crate::index::TreeIndex;
use crate::tree::Tree;
use crate::{PhyloError, Result};
use std::collections::BTreeSet;

/// The bipartitions (splits) induced by a tree's internal edges,
/// expressed as leaf-label sets (the side not containing the first
/// label, canonicalized to the smaller side with ties broken
/// lexicographically).
fn splits(tree: &Tree) -> Result<BTreeSet<Vec<String>>> {
    let index = TreeIndex::build(tree);
    let all_leaves: BTreeSet<String> = tree
        .leaves()
        .into_iter()
        .map(|l| {
            tree.node_unchecked(l)
                .label
                .clone()
                .ok_or_else(|| PhyloError::InvalidValue("unlabeled leaf".into()))
        })
        .collect::<Result<_>>()?;
    let n = all_leaves.len();

    let mut out = BTreeSet::new();
    for id in tree.node_ids() {
        let node = tree.node_unchecked(id);
        if node.is_leaf() || id == tree.root() {
            continue; // leaves give trivial splits; the root edge is not an edge
        }
        let side: BTreeSet<String> = index
            .leaves_under(id)
            .iter()
            .filter_map(|&l| tree.node_unchecked(l).label.clone())
            .collect();
        if side.len() <= 1 || side.len() >= n - 1 {
            continue; // trivial split
        }
        // Canonical representative: the smaller side; lexicographic tie-break.
        let other: BTreeSet<String> = all_leaves.difference(&side).cloned().collect();
        let canonical = match side.len().cmp(&other.len()) {
            std::cmp::Ordering::Less => side,
            std::cmp::Ordering::Greater => other,
            std::cmp::Ordering::Equal => {
                if side.iter().next() <= other.iter().next() {
                    side
                } else {
                    other
                }
            }
        };
        out.insert(canonical.into_iter().collect());
    }
    Ok(out)
}

/// Robinson–Foulds distance: the number of non-trivial splits present
/// in exactly one of the two trees. Requires identical leaf label
/// sets.
pub fn robinson_foulds(a: &Tree, b: &Tree) -> Result<usize> {
    let labels = |t: &Tree| -> Result<BTreeSet<String>> {
        t.leaves()
            .into_iter()
            .map(|l| {
                t.node_unchecked(l)
                    .label
                    .clone()
                    .ok_or_else(|| PhyloError::InvalidValue("unlabeled leaf".into()))
            })
            .collect()
    };
    let la = labels(a)?;
    let lb = labels(b)?;
    if la != lb {
        return Err(PhyloError::InvalidValue(format!(
            "leaf sets differ ({} vs {} labels)",
            la.len(),
            lb.len()
        )));
    }
    let sa = splits(a)?;
    let sb = splits(b)?;
    Ok(sa.symmetric_difference(&sb).count())
}

/// Normalized RF distance in `[0, 1]`: the raw distance divided by the
/// maximum possible for two binary trees on `n` leaves, `2(n - 3)`.
/// Returns 0 for trees too small to have non-trivial splits.
pub fn normalized_robinson_foulds(a: &Tree, b: &Tree) -> Result<f64> {
    let n = a.leaf_count();
    let max = 2 * n.saturating_sub(3);
    if max == 0 {
        return Ok(0.0);
    }
    Ok(robinson_foulds(a, b)? as f64 / max as f64)
}

/// Count how many of `reference`'s non-trivial splits `estimate`
/// recovers (the "true positive" rate of a reconstruction).
pub fn recovered_splits(reference: &Tree, estimate: &Tree) -> Result<(usize, usize)> {
    let sr = splits(reference)?;
    let se = splits(estimate)?;
    Ok((sr.intersection(&se).count(), sr.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::newick::parse_newick;

    #[test]
    fn identical_trees_distance_zero() {
        let t = parse_newick("((a:1,b:1):1,(c:1,d:1):1,(e:1,f:1):1);").unwrap();
        assert_eq!(robinson_foulds(&t, &t).unwrap(), 0);
        assert_eq!(normalized_robinson_foulds(&t, &t).unwrap(), 0.0);
        let (rec, total) = recovered_splits(&t, &t).unwrap();
        assert_eq!(rec, total);
    }

    #[test]
    fn rotation_is_free() {
        // Reordering children does not change the splits.
        let a = parse_newick("((a,b),(c,d));").unwrap();
        let b = parse_newick("((d,c),(b,a));").unwrap();
        assert_eq!(robinson_foulds(&a, &b).unwrap(), 0);
    }

    #[test]
    fn one_nni_costs_two() {
        // Swapping b and c across the internal edge changes one split
        // in each tree: ((a,b),(c,d)) vs ((a,c),(b,d)).
        let a = parse_newick("((a,b),(c,d));").unwrap();
        let b = parse_newick("((a,c),(b,d));").unwrap();
        assert_eq!(robinson_foulds(&a, &b).unwrap(), 2);
    }

    #[test]
    fn star_tree_has_no_splits() {
        let star = parse_newick("(a,b,c,d);").unwrap();
        let resolved = parse_newick("((a,b),(c,d));").unwrap();
        // The star contributes nothing; the resolved tree has 1
        // non-trivial split on each side of the root... the root's two
        // children give the same bipartition, counted once.
        let d = robinson_foulds(&star, &resolved).unwrap();
        assert_eq!(d, 1);
        let (rec, total) = recovered_splits(&resolved, &star).unwrap();
        assert_eq!((rec, total), (0, 1));
    }

    #[test]
    fn different_leaf_sets_rejected() {
        let a = parse_newick("((a,b),(c,d));").unwrap();
        let b = parse_newick("((a,b),(c,e));").unwrap();
        assert!(robinson_foulds(&a, &b).is_err());
    }

    #[test]
    fn normalization_bounds() {
        let a = parse_newick("(((a,b),c),((d,e),f));").unwrap();
        let b = parse_newick("(((a,f),d),((b,e),c));").unwrap();
        let norm = normalized_robinson_foulds(&a, &b).unwrap();
        assert!((0.0..=1.0).contains(&norm));
        assert!(norm > 0.0);
        // Tiny trees degrade gracefully.
        let t2 = parse_newick("(a,b);").unwrap();
        assert_eq!(normalized_robinson_foulds(&t2, &t2).unwrap(), 0.0);
    }
}
