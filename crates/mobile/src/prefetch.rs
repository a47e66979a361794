//! Predictive prefetching: warming the semantic cache with the clades
//! the user is likely to open next.
//!
//! Tree navigation is highly predictable: after opening a clade, users
//! either drill into one of its children or slide to a sibling.
//! [`candidates`] enumerates the clades worth warming and the session
//! fetches them *during user think time* — the work is charged to the
//! virtual clock (sources really do it) but not to any interaction's
//! perceived latency. The payoff is a cache hit when the user's finger
//! lands. The session fires it only while its gesture stream
//! classifies as lateral browsing ([`crate::pattern`]).

use drugtree_phylo::tree::{NodeId, Tree};
use drugtree_phylo::TreeIndex;

/// Maximum clades prefetched per interaction.
pub const FAN_OUT: usize = 2;

/// Candidates spanning more leaves than this are skipped (prefetching
/// the whole tree would waste bandwidth and evict useful entries).
pub const MAX_LEAVES: u32 = 64;

/// Candidate clades after the user expanded `node`.
///
/// *Not* the node's children: the expansion just cached `node`'s
/// whole interval, and the semantic cache answers any contained
/// interval by containment — children are already free. The
/// candidates that add coverage are the node's **siblings** (lateral
/// browsing) and its **parent** (backing out), in that order, without
/// any clade over [`MAX_LEAVES`], truncated to [`FAN_OUT`].
pub fn candidates(tree: &Tree, index: &TreeIndex, node: NodeId) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = Vec::new();
    let push = |candidate: NodeId, out: &mut Vec<NodeId>| {
        if candidate != node
            && index.interval(candidate).len() <= MAX_LEAVES
            && !out.contains(&candidate)
        {
            out.push(candidate);
        }
    };

    if let Some(parent) = tree.node_unchecked(node).parent {
        // Adjacent siblings first (next/previous in display order).
        let siblings = &tree.node_unchecked(parent).children;
        if let Some(pos) = siblings.iter().position(|&s| s == node) {
            if pos + 1 < siblings.len() {
                push(siblings[pos + 1], &mut out);
            }
            if pos > 0 {
                push(siblings[pos - 1], &mut out);
            }
        }
        // Then the parent clade (covers every sibling at once when it
        // fits the size filter).
        push(parent, &mut out);
    }

    out.truncate(FAN_OUT);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_phylo::newick::parse_newick;

    fn setup(newick: &str) -> (Tree, TreeIndex) {
        let t = parse_newick(newick).unwrap();
        let i = TreeIndex::build(&t);
        (t, i)
    }

    fn eight() -> (Tree, TreeIndex) {
        setup("(((a:1,b:1)ab:1,(c:1,d:1)cd:1)abcd:1,((e:1,f:1)ef:1,(g:1,h:1)gh:1)efgh:1)root;")
    }

    fn labels(t: &Tree, nodes: &[NodeId]) -> Vec<String> {
        nodes
            .iter()
            .map(|&c| t.node_unchecked(c).label.clone().unwrap())
            .collect()
    }

    #[test]
    fn siblings_then_parent() {
        let (t, i) = eight();
        let abcd = t.find_by_label("abcd").unwrap();
        // Sibling efgh, then the root clade; never abcd's own children
        // (the cache already covers them by containment).
        assert_eq!(labels(&t, &candidates(&t, &i, abcd)), ["efgh", "root"]);
    }

    #[test]
    fn fan_out_limits() {
        // b has two siblings and a parent: three candidates, FAN_OUT kept.
        let (t, i) = setup("((a:1,b:1,c:1)abc:1,d:1)root;");
        let b = t.find_by_label("b").unwrap();
        assert_eq!(labels(&t, &candidates(&t, &i, b)), ["c", "a"]);
    }

    #[test]
    fn size_filter_skips_huge_clades() {
        let clade = |prefix: &str| {
            (0..40)
                .map(|n| format!("{prefix}{n}:1"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let (t, i) = setup(&format!("(({})x:1,({})y:1)xy;", clade("x"), clade("y")));
        let x = t.find_by_label("x").unwrap();
        // Sibling y (40 leaves) fits; parent xy (80 leaves) does not.
        assert!(i.interval(t.root()).len() > MAX_LEAVES);
        assert_eq!(labels(&t, &candidates(&t, &i, x)), ["y"]);
    }

    #[test]
    fn leaves_offer_sibling_and_parent() {
        let (t, i) = eight();
        let a = t.find_by_label("a").unwrap();
        assert_eq!(labels(&t, &candidates(&t, &i, a)), ["b", "ab"]);
    }

    #[test]
    fn root_has_no_candidates() {
        let (t, i) = eight();
        assert!(
            candidates(&t, &i, t.root()).is_empty(),
            "expanding the root already caches everything"
        );
    }
}
