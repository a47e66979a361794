//! Arena-allocated rooted phylogenetic tree.
//!
//! Nodes are referenced by dense [`NodeId`]s, which every other layer of
//! DrugTree (store rows, overlay records, query plans, cached results)
//! uses as the canonical tree coordinate.

use crate::{PhyloError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense identifier of a tree node. Stable for the lifetime of the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into the tree's node arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A single tree node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Parent node, `None` for the root.
    pub parent: Option<NodeId>,
    /// Children, in insertion order.
    pub children: Vec<NodeId>,
    /// Taxon label for leaves; optional internal labels (clade names).
    pub label: Option<String>,
    /// Length of the branch from this node to its parent.
    pub branch_length: f64,
}

impl Node {
    /// True when the node has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// A rooted tree over an arena of nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tree {
    nodes: Vec<Node>,
    root: NodeId,
}

impl Tree {
    /// Create a tree containing only a root node.
    pub fn with_root(label: Option<String>) -> Tree {
        Tree {
            nodes: vec![Node {
                parent: None,
                children: Vec::new(),
                label,
                branch_length: 0.0,
            }],
            root: NodeId(0),
        }
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Total number of nodes (internal + leaves).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tree has no nodes (never the case for constructed trees).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow a node, checking the id.
    pub fn node(&self, id: NodeId) -> Result<&Node> {
        self.nodes
            .get(id.index())
            .ok_or(PhyloError::UnknownNode(id.0))
    }

    /// Borrow a node without the `Result` wrapper; panics on a foreign id.
    /// Intended for internal hot paths where ids are known-valid.
    #[inline]
    pub fn node_unchecked(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Append a child under `parent`, returning the new node's id.
    pub fn add_child(
        &mut self,
        parent: NodeId,
        label: Option<String>,
        branch_length: f64,
    ) -> Result<NodeId> {
        if parent.index() >= self.nodes.len() {
            return Err(PhyloError::UnknownNode(parent.0));
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            parent: Some(parent),
            children: Vec::new(),
            label,
            branch_length,
        });
        self.nodes[parent.index()].children.push(id);
        Ok(id)
    }

    /// Set a node's label.
    pub fn set_label(&mut self, id: NodeId, label: Option<String>) -> Result<()> {
        let node = self
            .nodes
            .get_mut(id.index())
            .ok_or(PhyloError::UnknownNode(id.0))?;
        node.label = label;
        Ok(())
    }

    /// Set a node's branch length.
    pub fn set_branch_length(&mut self, id: NodeId, length: f64) -> Result<()> {
        let node = self
            .nodes
            .get_mut(id.index())
            .ok_or(PhyloError::UnknownNode(id.0))?;
        node.branch_length = length;
        Ok(())
    }

    /// All node ids in arena order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Ids of all leaves, in preorder (left-to-right display order).
    pub fn leaves(&self) -> Vec<NodeId> {
        self.preorder()
            .into_iter()
            .filter(|&id| self.node_unchecked(id).is_leaf())
            .collect()
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Preorder (parent before children) traversal from the root.
    pub fn preorder(&self) -> Vec<NodeId> {
        self.preorder_from(self.root)
    }

    /// Preorder traversal of the subtree rooted at `start`.
    pub fn preorder_from(&self, start: NodeId) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![start];
        while let Some(id) = stack.pop() {
            order.push(id);
            // Push children reversed so the leftmost child is visited first.
            for &c in self.node_unchecked(id).children.iter().rev() {
                stack.push(c);
            }
        }
        order
    }

    /// Postorder (children before parent) traversal from the root.
    pub fn postorder(&self) -> Vec<NodeId> {
        let mut order = self.preorder();
        // Reverse preorder with children pushed left-to-right equals
        // postorder mirrored; recompute properly instead.
        order.clear();
        let mut stack = vec![(self.root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                order.push(id);
            } else {
                stack.push((id, true));
                for &c in self.node_unchecked(id).children.iter().rev() {
                    stack.push((c, false));
                }
            }
        }
        order
    }

    /// Path from `id` up to (and including) the root.
    pub fn ancestors(&self, id: NodeId) -> Result<Vec<NodeId>> {
        let mut node = self.node(id)?;
        let mut path = vec![id];
        while let Some(p) = node.parent {
            path.push(p);
            node = self.node_unchecked(p);
        }
        Ok(path)
    }

    /// Depth of a node (root has depth 0).
    pub fn depth(&self, id: NodeId) -> Result<usize> {
        Ok(self.ancestors(id)?.len() - 1)
    }

    /// Find the first node (in arena order) with the given label.
    pub fn find_by_label(&self, label: &str) -> Result<NodeId> {
        self.node_ids()
            .find(|&id| self.node_unchecked(id).label.as_deref() == Some(label))
            .ok_or_else(|| PhyloError::UnknownLabel(label.to_string()))
    }

    /// Crate-internal mutable node access, used by construction
    /// algorithms (neighbor joining) that re-parent nodes during joins.
    pub(crate) fn node_mut_internal(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Validate structural invariants: exactly one root, parent/child
    /// links are mutual, and the node graph is a connected acyclic tree.
    /// Used by tests and debug assertions after construction, and by the
    /// snapshot loader on links read from a file: the walk is its own
    /// (not `preorder()`, which trusts the links), checks every id
    /// before following it and stops at the second visit of a node, so
    /// a cycle or a foreign id is an error, not a hang or a panic.
    pub fn check_invariants(&self) -> Result<()> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = self.node(id)?;
            if seen[id.index()] {
                return Err(PhyloError::InvalidValue(format!("node {id} visited twice")));
            }
            seen[id.index()] = true;
            for &c in &node.children {
                let child = self.node(c)?;
                if child.parent != Some(id) {
                    return Err(PhyloError::InvalidValue(format!(
                        "child {c} of {id} has parent {:?}",
                        child.parent
                    )));
                }
                stack.push(c);
            }
        }
        if let Some(unreached) = seen.iter().position(|&s| !s) {
            return Err(PhyloError::InvalidValue(format!(
                "node n{unreached} unreachable from root"
            )));
        }
        if self.node(self.root)?.parent.is_some() {
            return Err(PhyloError::InvalidValue("root has a parent".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds:
    /// ```text
    ///        r
    ///      / | \
    ///     a  b  c
    ///    / \     \
    ///   d   e     f
    /// ```
    fn sample() -> (Tree, Vec<NodeId>) {
        let mut t = Tree::with_root(Some("r".into()));
        let r = t.root();
        let a = t.add_child(r, Some("a".into()), 1.0).unwrap();
        let b = t.add_child(r, Some("b".into()), 2.0).unwrap();
        let c = t.add_child(r, Some("c".into()), 3.0).unwrap();
        let d = t.add_child(a, Some("d".into()), 0.5).unwrap();
        let e = t.add_child(a, Some("e".into()), 0.25).unwrap();
        let f = t.add_child(c, Some("f".into()), 4.0).unwrap();
        (t, vec![r, a, b, c, d, e, f])
    }

    #[test]
    fn construction_and_lookup() {
        let (t, ids) = sample();
        assert_eq!(t.len(), 7);
        assert_eq!(t.leaf_count(), 4); // d, e, b, f
        assert_eq!(t.node(ids[1]).unwrap().label.as_deref(), Some("a"));
        assert!(t.node(NodeId(99)).is_err());
        t.check_invariants().unwrap();
    }

    #[test]
    fn preorder_is_parent_first_left_to_right() {
        let (t, ids) = sample();
        let order = t.preorder();
        let labels: Vec<&str> = order
            .iter()
            .map(|&id| t.node_unchecked(id).label.as_deref().unwrap())
            .collect();
        assert_eq!(labels, ["r", "a", "d", "e", "b", "c", "f"]);
        assert_eq!(order[0], ids[0]);
    }

    #[test]
    fn postorder_is_children_first() {
        let (t, _) = sample();
        let labels: Vec<&str> = t
            .postorder()
            .iter()
            .map(|&id| t.node_unchecked(id).label.as_deref().unwrap())
            .collect();
        assert_eq!(labels, ["d", "e", "a", "b", "f", "c", "r"]);
    }

    #[test]
    fn ancestors_and_depth() {
        let (t, ids) = sample();
        let f = ids[6];
        let path = t.ancestors(f).unwrap();
        assert_eq!(path, vec![ids[6], ids[3], ids[0]]);
        assert_eq!(t.depth(f).unwrap(), 2);
        assert_eq!(t.depth(t.root()).unwrap(), 0);
    }

    #[test]
    fn leaves_in_display_order() {
        let (t, _) = sample();
        let labels: Vec<&str> = t
            .leaves()
            .iter()
            .map(|&id| t.node_unchecked(id).label.as_deref().unwrap())
            .collect();
        assert_eq!(labels, ["d", "e", "b", "f"]);
    }

    #[test]
    fn find_by_label() {
        let (t, ids) = sample();
        assert_eq!(t.find_by_label("e").unwrap(), ids[5]);
        assert!(matches!(
            t.find_by_label("zz"),
            Err(PhyloError::UnknownLabel(_))
        ));
    }

    #[test]
    fn setters() {
        let (mut t, ids) = sample();
        t.set_label(ids[2], Some("bee".into())).unwrap();
        t.set_branch_length(ids[2], 9.0).unwrap();
        assert_eq!(t.node(ids[2]).unwrap().label.as_deref(), Some("bee"));
        assert_eq!(t.node(ids[2]).unwrap().branch_length, 9.0);
        assert!(t.set_label(NodeId(99), None).is_err());
        assert!(t.set_branch_length(NodeId(99), 1.0).is_err());
    }

    #[test]
    fn add_child_rejects_unknown_parent() {
        let mut t = Tree::with_root(None);
        assert!(t.add_child(NodeId(5), None, 1.0).is_err());
    }
}
