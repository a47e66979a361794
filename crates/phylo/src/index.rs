//! The tree index: Euler-tour intervals, leaf ranks, depths, and
//! constant-time-ish LCA via binary lifting.
//!
//! This structure realizes design decision **D1** of DESIGN.md: every
//! node receives a half-open *leaf interval* `[leaf_lo, leaf_hi)` over
//! the left-to-right leaf order, so "in the subtree of `n`" becomes a
//! one-dimensional range predicate. The DrugTree query optimizer
//! rewrites subtree selections into these intervals, the store indexes
//! overlay rows by leaf rank, and the semantic cache compares queries
//! for containment by interval inclusion.

use crate::tree::{NodeId, Tree};
use crate::{PhyloError, Result};
use rustc_hash::FxHashMap;

/// Half-open interval over leaf ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LeafInterval {
    /// Inclusive lower leaf rank.
    pub lo: u32,
    /// Exclusive upper leaf rank.
    pub hi: u32,
}

impl LeafInterval {
    /// Number of leaves covered.
    #[inline]
    pub fn len(self) -> u32 {
        self.hi.saturating_sub(self.lo)
    }

    /// True when the interval covers no leaves.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.hi <= self.lo
    }

    /// True when `self` fully contains `other`.
    #[inline]
    pub fn contains(self, other: LeafInterval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// True when a single leaf rank falls inside the interval.
    #[inline]
    pub fn contains_rank(self, rank: u32) -> bool {
        self.lo <= rank && rank < self.hi
    }

    /// True when the two intervals share at least one rank.
    #[inline]
    pub fn overlaps(self, other: LeafInterval) -> bool {
        self.lo < other.hi && other.lo < self.hi
    }

    /// Intersection, or `None` when disjoint.
    pub fn intersect(self, other: LeafInterval) -> Option<LeafInterval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo < hi).then_some(LeafInterval { lo, hi })
    }
}

/// Immutable index over a [`Tree`]. Rebuild after structural changes.
#[derive(Debug, Clone)]
pub struct TreeIndex {
    /// Per-node leaf interval, indexed by `NodeId::index()`.
    intervals: Vec<LeafInterval>,
    /// Per-node depth (root = 0).
    depths: Vec<u32>,
    /// Leaf rank -> NodeId of the leaf.
    rank_to_leaf: Vec<NodeId>,
    /// NodeId::index() -> leaf rank (u32::MAX for internal nodes).
    leaf_rank: Vec<u32>,
    /// Binary-lifting ancestor table: `up[k][v]` is the 2^k-th ancestor.
    up: Vec<Vec<NodeId>>,
    /// Preorder position of each node (for subtree preorder ranges).
    preorder_pos: Vec<u32>,
    /// Nodes in preorder.
    preorder: Vec<NodeId>,
    /// Label -> node id (first occurrence wins).
    label_index: FxHashMap<String, NodeId>,
}

impl TreeIndex {
    /// Build the full index in `O(n log n)`.
    pub fn build(tree: &Tree) -> TreeIndex {
        let n = tree.len();
        let preorder = tree.preorder();

        let mut intervals = vec![LeafInterval { lo: 0, hi: 0 }; n];
        let mut depths = vec![0u32; n];
        let mut leaf_rank = vec![u32::MAX; n];
        let mut rank_to_leaf = Vec::new();
        let mut preorder_pos = vec![0u32; n];
        let mut label_index = FxHashMap::default();

        for (pos, &id) in preorder.iter().enumerate() {
            preorder_pos[id.index()] = pos as u32;
            let node = tree.node_unchecked(id);
            if let Some(parent) = node.parent {
                depths[id.index()] = depths[parent.index()] + 1;
            }
            if let Some(label) = &node.label {
                label_index.entry(label.clone()).or_insert(id);
            }
            if node.is_leaf() {
                let rank = rank_to_leaf.len() as u32;
                leaf_rank[id.index()] = rank;
                rank_to_leaf.push(id);
            }
        }

        // Postorder pass assigns each internal node the union of its
        // children's intervals; leaves get [rank, rank+1).
        for &id in &tree.postorder() {
            let node = tree.node_unchecked(id);
            if node.is_leaf() {
                let r = leaf_rank[id.index()];
                intervals[id.index()] = LeafInterval { lo: r, hi: r + 1 };
            } else {
                let lo = intervals[node.children[0].index()].lo;
                let hi = intervals[node.children[node.children.len() - 1].index()].hi;
                intervals[id.index()] = LeafInterval { lo, hi };
            }
        }

        // Binary-lifting table.
        let levels = (usize::BITS - n.leading_zeros()).max(1) as usize;
        let mut up = vec![vec![tree.root(); n]; levels];
        for &id in &preorder {
            up[0][id.index()] = tree.node_unchecked(id).parent.unwrap_or(tree.root());
        }
        for k in 1..levels {
            for v in 0..n {
                let mid = up[k - 1][v];
                up[k][v] = up[k - 1][mid.index()];
            }
        }

        TreeIndex {
            intervals,
            depths,
            rank_to_leaf,
            leaf_rank,
            up,
            preorder_pos,
            preorder,
            label_index,
        }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.rank_to_leaf.len()
    }

    /// Leaf interval of a node's subtree.
    #[inline]
    pub fn interval(&self, id: NodeId) -> LeafInterval {
        self.intervals[id.index()]
    }

    /// Depth of a node (root = 0).
    #[inline]
    pub fn depth(&self, id: NodeId) -> u32 {
        self.depths[id.index()]
    }

    /// The leaf at a given rank.
    pub fn leaf_at(&self, rank: u32) -> Result<NodeId> {
        self.rank_to_leaf
            .get(rank as usize)
            .copied()
            .ok_or_else(|| PhyloError::InvalidValue(format!("leaf rank {rank} out of range")))
    }

    /// The rank of a leaf node, `None` for internal nodes.
    pub fn rank_of(&self, id: NodeId) -> Option<u32> {
        match self.leaf_rank.get(id.index()) {
            Some(&r) if r != u32::MAX => Some(r),
            _ => None,
        }
    }

    /// Leaves covered by a node's subtree, in rank order.
    pub fn leaves_under(&self, id: NodeId) -> &[NodeId] {
        let iv = self.interval(id);
        &self.rank_to_leaf[iv.lo as usize..iv.hi as usize]
    }

    /// True when `ancestor` is `node` or one of its ancestors.
    #[inline]
    pub fn is_ancestor(&self, ancestor: NodeId, node: NodeId) -> bool {
        // Ancestry in a preorder/leaf-interval scheme: the ancestor's
        // preorder position precedes and its interval contains.
        let pa = self.preorder_pos[ancestor.index()];
        let pn = self.preorder_pos[node.index()];
        if pa > pn {
            return false;
        }
        let ia = self.intervals[ancestor.index()];
        let inn = self.intervals[node.index()];
        if inn.is_empty() {
            // Degenerate: cannot happen for built trees (every node
            // dominates at least one leaf), kept for safety.
            return ancestor == node;
        }
        ia.contains(inn)
    }

    /// Lowest common ancestor of two nodes via binary lifting.
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        if self.is_ancestor(a, b) {
            return a;
        }
        if self.is_ancestor(b, a) {
            return b;
        }
        let mut a = a;
        for k in (0..self.up.len()).rev() {
            let cand = self.up[k][a.index()];
            if !self.is_ancestor(cand, b) {
                a = cand;
            }
        }
        self.up[0][a.index()]
    }

    /// The 2^0 ancestor (parent), root maps to itself.
    pub fn parent(&self, id: NodeId) -> NodeId {
        self.up[0][id.index()]
    }

    /// Jump `steps` ancestors upward (clamped at the root).
    pub fn ancestor_at(&self, id: NodeId, steps: u32) -> NodeId {
        let mut cur = id;
        let mut remaining = steps;
        let mut k = 0;
        while remaining > 0 && k < self.up.len() {
            if remaining & 1 == 1 {
                cur = self.up[k][cur.index()];
            }
            remaining >>= 1;
            k += 1;
        }
        cur
    }

    /// Nodes in preorder (the display order of a cladogram).
    pub fn preorder(&self) -> &[NodeId] {
        &self.preorder
    }

    /// Preorder position of a node.
    pub fn preorder_pos(&self, id: NodeId) -> u32 {
        self.preorder_pos[id.index()]
    }

    /// Resolve a label to a node id.
    pub fn by_label(&self, label: &str) -> Result<NodeId> {
        self.label_index
            .get(label)
            .copied()
            .ok_or_else(|| PhyloError::UnknownLabel(label.to_string()))
    }

    /// The deepest node whose subtree covers the whole interval — the
    /// tightest clade containing a leaf range. Walks down from the root.
    pub fn tightest_clade(&self, tree: &Tree, iv: LeafInterval) -> NodeId {
        let mut current = tree.root();
        'outer: loop {
            for &c in &tree.node_unchecked(current).children {
                if self.interval(c).contains(iv) {
                    current = c;
                    continue 'outer;
                }
            }
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::newick::parse_newick;

    fn sample() -> (Tree, TreeIndex) {
        // ((d,e)a, b, (f)c)r — same shape as tree.rs's sample.
        let t = parse_newick("((d:1,e:1)a:1,b:1,(f:1)c:1)r;").unwrap();
        let idx = TreeIndex::build(&t);
        (t, idx)
    }

    #[test]
    fn leaf_ranks_follow_display_order() {
        let (t, idx) = sample();
        assert_eq!(idx.leaf_count(), 4);
        let names: Vec<&str> = (0..4)
            .map(|r| {
                let id = idx.leaf_at(r).unwrap();
                t.node_unchecked(id).label.as_deref().unwrap()
            })
            .collect();
        assert_eq!(names, ["d", "e", "b", "f"]);
        assert!(idx.leaf_at(4).is_err());
    }

    #[test]
    fn intervals_cover_subtrees() {
        let (t, idx) = sample();
        let a = t.find_by_label("a").unwrap();
        let c = t.find_by_label("c").unwrap();
        assert_eq!(idx.interval(a), LeafInterval { lo: 0, hi: 2 });
        assert_eq!(idx.interval(c), LeafInterval { lo: 3, hi: 4 });
        assert_eq!(idx.interval(t.root()), LeafInterval { lo: 0, hi: 4 });
    }

    #[test]
    fn interval_algebra() {
        let x = LeafInterval { lo: 0, hi: 4 };
        let y = LeafInterval { lo: 2, hi: 6 };
        let z = LeafInterval { lo: 4, hi: 5 };
        assert!(x.overlaps(y));
        assert!(!x.overlaps(z));
        assert_eq!(x.intersect(y), Some(LeafInterval { lo: 2, hi: 4 }));
        assert_eq!(x.intersect(z), None);
        assert!(x.contains(LeafInterval { lo: 1, hi: 3 }));
        assert!(!y.contains(x));
        assert!(x.contains_rank(0));
        assert!(!x.contains_rank(4));
        assert_eq!(x.len(), 4);
        assert!(LeafInterval { lo: 3, hi: 3 }.is_empty());
    }

    #[test]
    fn depths() {
        let (t, idx) = sample();
        assert_eq!(idx.depth(t.root()), 0);
        assert_eq!(idx.depth(t.find_by_label("a").unwrap()), 1);
        assert_eq!(idx.depth(t.find_by_label("d").unwrap()), 2);
    }

    #[test]
    fn ancestry() {
        let (t, idx) = sample();
        let r = t.root();
        let a = t.find_by_label("a").unwrap();
        let d = t.find_by_label("d").unwrap();
        let b = t.find_by_label("b").unwrap();
        assert!(idx.is_ancestor(r, d));
        assert!(idx.is_ancestor(a, d));
        assert!(idx.is_ancestor(a, a));
        assert!(!idx.is_ancestor(d, a));
        assert!(!idx.is_ancestor(a, b));
    }

    #[test]
    fn lca_matches_naive() {
        let (t, idx) = sample();
        let naive_lca = |x: NodeId, y: NodeId| {
            let px = t.ancestors(x).unwrap();
            let py: std::collections::HashSet<_> = t.ancestors(y).unwrap().into_iter().collect();
            *px.iter().find(|id| py.contains(id)).unwrap()
        };
        let ids: Vec<NodeId> = t.node_ids().collect();
        for &x in &ids {
            for &y in &ids {
                assert_eq!(idx.lca(x, y), naive_lca(x, y), "lca({x},{y})");
            }
        }
    }

    #[test]
    fn leaves_under() {
        let (t, idx) = sample();
        let a = t.find_by_label("a").unwrap();
        let under = idx.leaves_under(a);
        let names: Vec<&str> = under
            .iter()
            .map(|&l| t.node_unchecked(l).label.as_deref().unwrap())
            .collect();
        assert_eq!(names, ["d", "e"]);
        assert_eq!(idx.leaves_under(t.root()).len(), 4);
    }

    #[test]
    fn ancestor_jumps() {
        let (t, idx) = sample();
        let d = t.find_by_label("d").unwrap();
        let a = t.find_by_label("a").unwrap();
        assert_eq!(idx.ancestor_at(d, 0), d);
        assert_eq!(idx.ancestor_at(d, 1), a);
        assert_eq!(idx.ancestor_at(d, 2), t.root());
        // Clamped at root.
        assert_eq!(idx.ancestor_at(d, 99), t.root());
        assert_eq!(idx.parent(t.root()), t.root());
    }

    #[test]
    fn tightest_clade() {
        let (t, idx) = sample();
        let a = t.find_by_label("a").unwrap();
        assert_eq!(idx.tightest_clade(&t, LeafInterval { lo: 0, hi: 2 }), a);
        assert_eq!(
            idx.tightest_clade(&t, LeafInterval { lo: 0, hi: 3 }),
            t.root()
        );
        let d = t.find_by_label("d").unwrap();
        assert_eq!(idx.tightest_clade(&t, LeafInterval { lo: 0, hi: 1 }), d);
    }

    #[test]
    fn by_label() {
        let (t, idx) = sample();
        assert_eq!(idx.by_label("e").unwrap(), t.find_by_label("e").unwrap());
        assert!(idx.by_label("nope").is_err());
    }

    #[test]
    fn deep_chain_lca_and_depth() {
        // A pathological 64-deep caterpillar exercises multiple lifting
        // levels.
        let mut t = Tree::with_root(Some("n0".into()));
        let mut cur = t.root();
        for i in 1..=64 {
            let inner = t.add_child(cur, Some(format!("n{i}")), 1.0).unwrap();
            t.add_child(cur, Some(format!("leaf{i}")), 1.0).unwrap();
            cur = inner;
        }
        // Make the chain tip a leaf as well.
        let idx = TreeIndex::build(&t);
        let deep = t.find_by_label("n64").unwrap();
        assert_eq!(idx.depth(deep), 64);
        let l5 = t.find_by_label("leaf5").unwrap();
        let l60 = t.find_by_label("leaf60").unwrap();
        let lca = idx.lca(l5, l60);
        assert_eq!(t.node_unchecked(lca).label.as_deref(), Some("n4"));
        assert_eq!(idx.ancestor_at(deep, 64), t.root());
    }
}
