//! Online gesture-stream classification: the gate on prefetch.
//!
//! Experiment E10's finding: prefetch warms *siblings and the parent*
//! of the expanded clade, so it pays off for lateral browsing (sliding
//! between siblings) and is pure waste for drill-down walks (the user
//! only ever descends, and descents are already free by cache
//! containment). The classifier watches the topological relation
//! between consecutive expansions and decides, per session and online,
//! which regime the stream is in. A session with prefetch enabled
//! fires it only while the stream classifies as lateral; there is no
//! ungated prefetch (design decision D15).

use drugtree_phylo::tree::{NodeId, Tree};
use std::collections::VecDeque;

/// How one expansion relates topologically to the previous one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpandRelation {
    /// Into a descendant of the last expanded clade (drill-down).
    Descent,
    /// To a clade sharing the last one's parent (lateral browsing).
    Sibling,
    /// Back out to an ancestor (also lateral: the user is surveying).
    Parent,
    /// Anywhere else in the tree (no topological signal).
    Jump,
}

/// The classified navigation regime of a session's gesture stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SessionPattern {
    /// Not enough evidence (or a tie): prefetch stays off.
    #[default]
    Unknown,
    /// Mostly descents: prefetch candidates would never be touched.
    DrillDown,
    /// Mostly sibling/parent moves: prefetch candidates are exactly
    /// where the user is heading.
    Lateral,
}

impl SessionPattern {
    /// Short label for adapt events and experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            SessionPattern::Unknown => "unknown",
            SessionPattern::DrillDown => "drill-down",
            SessionPattern::Lateral => "lateral",
        }
    }
}

/// Relations retained for the vote (older ones age out).
const WINDOW: usize = 8;

/// Relations required before leaving [`SessionPattern::Unknown`].
const MIN_EVIDENCE: usize = 3;

/// Per-session online classifier over a sliding window of the last
/// eight expansion relations, silent until three of them exist.
/// Deterministic: the same gesture stream always classifies
/// identically, so adaptive replays stay byte-for-byte reproducible.
#[derive(Debug, Clone, Default)]
pub struct PatternClassifier {
    last_expanded: Option<NodeId>,
    recent: VecDeque<ExpandRelation>,
}

impl PatternClassifier {
    /// The topological relation of expanding `node` right after `prev`.
    pub fn relation(tree: &Tree, prev: NodeId, node: NodeId) -> ExpandRelation {
        if is_ancestor(tree, prev, node) {
            ExpandRelation::Descent
        } else if is_ancestor(tree, node, prev) {
            ExpandRelation::Parent
        } else if tree.node_unchecked(prev).parent == tree.node_unchecked(node).parent {
            ExpandRelation::Sibling
        } else {
            ExpandRelation::Jump
        }
    }

    /// Fold one `Expand` gesture into the stream and return the
    /// (possibly updated) classification.
    pub fn observe_expand(&mut self, tree: &Tree, node: NodeId) -> SessionPattern {
        if let Some(prev) = self.last_expanded {
            if prev != node {
                self.recent
                    .push_back(PatternClassifier::relation(tree, prev, node));
                while self.recent.len() > WINDOW {
                    self.recent.pop_front();
                }
            }
        }
        self.last_expanded = Some(node);
        self.pattern()
    }

    /// The current classification: a majority vote over the window
    /// (descents vs. sibling/parent moves; jumps abstain), `Unknown`
    /// below the evidence floor or on a tie.
    pub fn pattern(&self) -> SessionPattern {
        if self.recent.len() < MIN_EVIDENCE {
            return SessionPattern::Unknown;
        }
        let mut drill = 0usize;
        let mut lateral = 0usize;
        for r in &self.recent {
            match r {
                ExpandRelation::Descent => drill += 1,
                ExpandRelation::Sibling | ExpandRelation::Parent => lateral += 1,
                ExpandRelation::Jump => {}
            }
        }
        match drill.cmp(&lateral) {
            std::cmp::Ordering::Greater => SessionPattern::DrillDown,
            std::cmp::Ordering::Less => SessionPattern::Lateral,
            std::cmp::Ordering::Equal => SessionPattern::Unknown,
        }
    }

    /// Relations currently in the voting window.
    pub fn evidence(&self) -> usize {
        self.recent.len()
    }
}

fn is_ancestor(tree: &Tree, anc: NodeId, mut node: NodeId) -> bool {
    while let Some(p) = tree.node_unchecked(node).parent {
        if p == anc {
            return true;
        }
        node = p;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_phylo::newick::parse_newick;

    fn tree() -> Tree {
        parse_newick(
            "(((a:1,b:1)ab:1,(c:1,d:1)cd:1)abcd:1,((e:1,f:1)ef:1,(g:1,h:1)gh:1)efgh:1)root;",
        )
        .unwrap()
    }

    fn n(t: &Tree, label: &str) -> NodeId {
        t.find_by_label(label).unwrap()
    }

    #[test]
    fn relations_from_topology() {
        let t = tree();
        let (abcd, ab, cd, a, efgh) = (
            n(&t, "abcd"),
            n(&t, "ab"),
            n(&t, "cd"),
            n(&t, "a"),
            n(&t, "efgh"),
        );
        assert_eq!(
            PatternClassifier::relation(&t, abcd, a),
            ExpandRelation::Descent,
            "grandchild is still a descent"
        );
        assert_eq!(
            PatternClassifier::relation(&t, ab, cd),
            ExpandRelation::Sibling
        );
        assert_eq!(
            PatternClassifier::relation(&t, a, ab),
            ExpandRelation::Parent
        );
        assert_eq!(
            PatternClassifier::relation(&t, ab, efgh),
            ExpandRelation::Jump
        );
    }

    #[test]
    fn drill_walk_classifies_drill_down() {
        let t = tree();
        let mut c = PatternClassifier::default();
        for label in ["root", "abcd", "ab", "a"] {
            c.observe_expand(&t, n(&t, label));
        }
        assert_eq!(c.pattern(), SessionPattern::DrillDown);
    }

    #[test]
    fn sibling_slide_classifies_lateral() {
        let t = tree();
        let mut c = PatternClassifier::default();
        for label in ["ab", "cd", "ab", "cd"] {
            c.observe_expand(&t, n(&t, label));
        }
        assert_eq!(c.pattern(), SessionPattern::Lateral);
    }

    #[test]
    fn below_evidence_floor_stays_unknown() {
        let t = tree();
        let mut c = PatternClassifier::default();
        assert_eq!(c.observe_expand(&t, n(&t, "ab")), SessionPattern::Unknown);
        assert_eq!(c.observe_expand(&t, n(&t, "cd")), SessionPattern::Unknown);
        assert_eq!(c.evidence(), 1, "first expand has no predecessor");
    }

    #[test]
    fn window_forgets_the_old_regime() {
        // A chain of nested clades d0 ⊃ d1 ⊃ … ⊃ d9, each with a leaf
        // sibling l1 … l9.
        let mut newick = "(x:1,y:1)d9".to_string();
        for k in (0..9).rev() {
            newick = format!("({newick}:1,l{}:1)d{k}", k + 1);
        }
        let t = parse_newick(&format!("{newick};")).unwrap();
        let mut c = PatternClassifier::default();
        // A drill-down opening: nine descents...
        for k in 0..10 {
            c.observe_expand(&t, n(&t, &format!("d{k}")));
        }
        assert_eq!(c.pattern(), SessionPattern::DrillDown);
        // ...then five sibling slides. Over the whole stream descents
        // still win 9 to 5; the window keeps only the last three.
        for label in ["l9", "d9", "l9", "d9", "l9"] {
            c.observe_expand(&t, n(&t, label));
        }
        assert_eq!(c.evidence(), WINDOW);
        assert_eq!(c.pattern(), SessionPattern::Lateral);
    }

    #[test]
    fn repeated_same_node_adds_no_evidence() {
        let t = tree();
        let mut c = PatternClassifier::default();
        for _ in 0..5 {
            c.observe_expand(&t, n(&t, "ab"));
        }
        assert_eq!(c.evidence(), 0);
        assert_eq!(c.pattern(), SessionPattern::Unknown);
    }
}
