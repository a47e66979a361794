//! Property-based tests for the phylogenetics substrate.

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree_phylo::distance::{DistanceMatrix, DistanceModel};
use drugtree_phylo::index::{LeafInterval, TreeIndex};
use drugtree_phylo::newick::{parse_newick, to_newick};
use drugtree_phylo::nj::neighbor_joining;
use drugtree_phylo::seq::{AminoAcid, CANONICAL};
use drugtree_phylo::tree::{NodeId, Tree};
use proptest::prelude::*;

/// Strategy: a random rooted tree with `n` leaves, built by repeatedly
/// attaching children to random existing nodes.
fn arb_tree(max_extra: usize) -> impl Strategy<Value = Tree> {
    proptest::collection::vec((any::<u32>(), 0.0f64..10.0), 2..max_extra).prop_map(|moves| {
        let mut tree = Tree::with_root(Some("root".into()));
        for (i, (pick, len)) in moves.into_iter().enumerate() {
            let parent = NodeId(pick % tree.len() as u32);
            tree.add_child(parent, Some(format!("node{i}")), len)
                .unwrap();
        }
        tree
    })
}

fn arb_residues(max_len: usize) -> impl Strategy<Value = Vec<AminoAcid>> {
    proptest::collection::vec(0usize..20, 0..max_len)
        .prop_map(|ix| ix.into_iter().map(|i| CANONICAL[i]).collect())
}

proptest! {
    #[test]
    fn tree_invariants_hold(tree in arb_tree(40)) {
        tree.check_invariants().unwrap();
    }

    #[test]
    fn newick_roundtrip(tree in arb_tree(40)) {
        let text = to_newick(&tree);
        let back = parse_newick(&text).unwrap();
        prop_assert_eq!(back.leaf_count(), tree.leaf_count());
        prop_assert_eq!(back.len(), tree.len());
        // Second round-trip must be a fixed point.
        prop_assert_eq!(to_newick(&back), text);
    }

    #[test]
    fn intervals_are_laminar(tree in arb_tree(50)) {
        // Any two subtree intervals are either disjoint or nested —
        // the laminar-family property the optimizer's containment
        // reasoning (semantic cache, D2) depends on.
        let idx = TreeIndex::build(&tree);
        let ids: Vec<NodeId> = tree.node_ids().collect();
        for &a in &ids {
            for &b in &ids {
                let ia = idx.interval(a);
                let ib = idx.interval(b);
                let nested = ia.contains(ib) || ib.contains(ia);
                let disjoint = !ia.overlaps(ib);
                prop_assert!(nested || disjoint, "{a} {b}: {ia:?} vs {ib:?}");
            }
        }
    }

    #[test]
    fn interval_len_equals_leaf_count(tree in arb_tree(50)) {
        let idx = TreeIndex::build(&tree);
        for id in tree.node_ids() {
            let by_walk = tree
                .preorder_from(id)
                .into_iter()
                .filter(|&n| tree.node_unchecked(n).is_leaf())
                .count() as u32;
            prop_assert_eq!(idx.interval(id).len(), by_walk);
        }
    }

    #[test]
    fn lca_agrees_with_naive(tree in arb_tree(40)) {
        let idx = TreeIndex::build(&tree);
        let ids: Vec<NodeId> = tree.node_ids().collect();
        for &a in &ids {
            for &b in &ids {
                let pa = tree.ancestors(a).unwrap();
                let pb: std::collections::HashSet<_> =
                    tree.ancestors(b).unwrap().into_iter().collect();
                let naive = *pa.iter().find(|id| pb.contains(id)).unwrap();
                prop_assert_eq!(idx.lca(a, b), naive);
            }
        }
    }

    #[test]
    fn is_ancestor_matches_path_membership(tree in arb_tree(40)) {
        let idx = TreeIndex::build(&tree);
        let ids: Vec<NodeId> = tree.node_ids().collect();
        for &a in &ids {
            let path: std::collections::HashSet<_> =
                tree.ancestors(a).unwrap().into_iter().collect();
            for &b in &ids {
                prop_assert_eq!(idx.is_ancestor(b, a), path.contains(&b));
            }
        }
    }

    #[test]
    fn newick_parser_never_panics(text in "\\PC{0,80}") {
        let _ = parse_newick(&text);
    }

    #[test]
    fn nj_preserves_leaf_set(dists in proptest::collection::vec(0.01f64..10.0, 45)) {
        // 10 taxa -> 45 condensed entries.
        let n = 10;
        let labels: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
        let mut dm = DistanceMatrix::zeros(labels);
        let mut it = dists.into_iter();
        for i in 0..n {
            for j in (i + 1)..n {
                dm.set(i, j, it.next().unwrap());
            }
        }
        let t = neighbor_joining(&dm).unwrap();
        t.check_invariants().unwrap();
        prop_assert_eq!(t.leaf_count(), n);
        for i in 0..n {
            let leaf = t.find_by_label(&format!("t{i}")).unwrap();
            prop_assert!(t.node(leaf).unwrap().is_leaf());
        }
    }

    #[test]
    fn distance_corrections_are_monotone(p1 in 0.0f64..0.9, p2 in 0.0f64..0.9) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        for model in [DistanceModel::PDistance, DistanceModel::Poisson, DistanceModel::Kimura] {
            prop_assert!(model.correct(lo) <= model.correct(hi) + 1e-12);
        }
    }

    #[test]
    fn interval_intersect_is_commutative(
        a_lo in 0u32..50, a_len in 0u32..20,
        b_lo in 0u32..50, b_len in 0u32..20,
    ) {
        let a = LeafInterval { lo: a_lo, hi: a_lo + a_len };
        let b = LeafInterval { lo: b_lo, hi: b_lo + b_len };
        prop_assert_eq!(a.intersect(b), b.intersect(a));
        if let Some(i) = a.intersect(b) {
            prop_assert!(a.contains(i) && b.contains(i));
            prop_assert!(!i.is_empty());
        } else {
            prop_assert!(!a.overlaps(b) || a.is_empty() || b.is_empty());
        }
    }
}

/// Alignment score must equal the score recomputed from the traceback.
#[test]
fn alignment_score_consistent_with_columns() {
    use drugtree_phylo::align::{global_align, GapPenalty};
    use drugtree_phylo::matrices::ScoringMatrix;

    let m = ScoringMatrix::blosum62();
    let gap = GapPenalty::BLOSUM62_DEFAULT;
    let mut runner = proptest::test_runner::TestRunner::deterministic();
    let strat = (arb_residues(40), arb_residues(40));
    for _ in 0..64 {
        use proptest::strategy::ValueTree;
        let (a, b) = strat.new_tree(&mut runner).unwrap().current();
        let aln = global_align(&a, &b, &m, gap).unwrap();
        // Recompute score from columns.
        let mut score = 0i32;
        let mut in_gap_a = false;
        let mut in_gap_b = false;
        for (x, y) in &aln.columns {
            match (x, y) {
                (Some(ra), Some(rb)) => {
                    score += m.score(*ra, *rb);
                    in_gap_a = false;
                    in_gap_b = false;
                }
                (Some(_), None) => {
                    score -= gap.extend + if in_gap_b { 0 } else { gap.open };
                    in_gap_b = true;
                    in_gap_a = false;
                }
                (None, Some(_)) => {
                    score -= gap.extend + if in_gap_a { 0 } else { gap.open };
                    in_gap_a = true;
                    in_gap_b = false;
                }
                (None, None) => unreachable!("empty column"),
            }
        }
        assert_eq!(score, aln.score, "inputs {:?} / {:?}", a.len(), b.len());
        // Traceback must reconstruct the inputs.
        let got_a: Vec<AminoAcid> = aln.columns.iter().filter_map(|(x, _)| *x).collect();
        let got_b: Vec<AminoAcid> = aln.columns.iter().filter_map(|(_, y)| *y).collect();
        assert_eq!(got_a, a);
        assert_eq!(got_b, b);
    }
}
