//! Rectangular cladogram layout.
//!
//! The standard phylogeny rendering: leaves at integer y positions in
//! leaf-rank order, internal nodes at the mean y of their children,
//! x equal to the cumulative branch length from the root (scaled so
//! the deepest tip sits at x = 1.0). Coordinates are abstract units;
//! the viewport maps them to pixels.

use drugtree_phylo::index::TreeIndex;
use drugtree_phylo::tree::{NodeId, Tree};

/// Layout coordinates for one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodePosition {
    /// Horizontal position in `[0, 1]` (root at 0, deepest tip at 1).
    pub x: f64,
    /// Vertical position in leaf units (leaf k sits at y = k).
    pub y: f64,
}

/// Layout of a whole tree.
#[derive(Debug, Clone)]
pub struct TreeLayout {
    positions: Vec<NodePosition>,
    /// Height of the layout in leaf units.
    leaf_count: u32,
}

impl TreeLayout {
    /// Compute the layout in two passes (root distances, then y by
    /// postorder averaging).
    pub fn compute(tree: &Tree, index: &TreeIndex) -> TreeLayout {
        let n = tree.len();
        let mut x = vec![0.0f64; n];
        let mut max_depth: f64 = 0.0;
        for &id in &tree.preorder() {
            if let Some(parent) = tree.node_unchecked(id).parent {
                x[id.index()] = x[parent.index()] + tree.node_unchecked(id).branch_length.max(0.0);
                max_depth = max_depth.max(x[id.index()]);
            }
        }
        if max_depth > 0.0 {
            for v in &mut x {
                *v /= max_depth;
            }
        }

        let mut y = vec![0.0f64; n];
        for &id in &tree.postorder() {
            let node = tree.node_unchecked(id);
            if node.is_leaf() {
                // Every leaf has a rank in its own index; 0.0 keeps
                // the layout total if that invariant ever breaks.
                y[id.index()] = index.rank_of(id).map_or(0.0, f64::from);
            } else {
                let sum: f64 = node.children.iter().map(|c| y[c.index()]).sum();
                y[id.index()] = sum / node.children.len() as f64;
            }
        }

        TreeLayout {
            positions: (0..n).map(|i| NodePosition { x: x[i], y: y[i] }).collect(),
            leaf_count: index.leaf_count() as u32,
        }
    }

    /// Position of a node.
    pub fn position(&self, id: NodeId) -> NodePosition {
        self.positions[id.index()]
    }

    /// Number of leaves (vertical extent).
    pub fn leaf_count(&self) -> u32 {
        self.leaf_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_phylo::newick::parse_newick;

    fn layout(newick: &str) -> (Tree, TreeIndex, TreeLayout) {
        let tree = parse_newick(newick).unwrap();
        let index = TreeIndex::build(&tree);
        let l = TreeLayout::compute(&tree, &index);
        (tree, index, l)
    }

    #[test]
    fn leaves_at_integer_rows() {
        let (tree, index, l) = layout("((a:1,b:1):1,(c:1,d:1):1);");
        for (rank, &leaf) in tree.leaves().iter().enumerate() {
            assert_eq!(l.position(leaf).y, rank as f64);
            assert_eq!(index.rank_of(leaf), Some(rank as u32));
        }
        assert_eq!(l.leaf_count(), 4);
    }

    #[test]
    fn internal_nodes_centered() {
        let (tree, _, l) = layout("((a:1,b:1)ab:1,(c:1,d:1)cd:1)r;");
        let ab = tree.find_by_label("ab").unwrap();
        let cd = tree.find_by_label("cd").unwrap();
        assert_eq!(l.position(ab).y, 0.5);
        assert_eq!(l.position(cd).y, 2.5);
        assert_eq!(l.position(tree.root()).y, 1.5);
    }

    #[test]
    fn x_normalized_to_unit_depth() {
        let (tree, _, l) = layout("((a:3,b:1)ab:1,c:2)r;");
        // Deepest tip: a at distance 4.
        let a = tree.find_by_label("a").unwrap();
        assert!((l.position(a).x - 1.0).abs() < 1e-12);
        assert_eq!(l.position(tree.root()).x, 0.0);
        let c = tree.find_by_label("c").unwrap();
        assert!((l.position(c).x - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_length_tree_does_not_divide_by_zero() {
        let (tree, _, l) = layout("(a:0,b:0);");
        assert_eq!(l.position(tree.root()).x, 0.0);
        for leaf in tree.leaves() {
            assert_eq!(l.position(leaf).x, 0.0);
        }
    }
}
