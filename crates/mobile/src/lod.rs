//! Level-of-detail rendering (design decision D6).
//!
//! At low zoom a 8192-leaf tree cannot draw every tip on a 480-pixel
//! screen. The LOD pass walks the visible part of the tree top-down
//! and stops descending once a clade's on-screen height falls below
//! the resolvable threshold, emitting a *collapsed glyph* carrying the
//! clade's aggregate statistics instead of its contents. Payload size
//! therefore tracks what is *resolvable*, not what is *present* —
//! experiment E8's claim.

use crate::viewport::Viewport;
use drugtree_phylo::index::{LeafInterval, TreeIndex};
use drugtree_phylo::tree::{NodeId, Tree};

/// Minimum on-screen height (pixels) for a clade to stay expanded.
pub const MIN_PIXELS_PER_GLYPH: f64 = 12.0;

/// One drawable item.
#[derive(Debug, Clone, PartialEq)]
pub enum RenderItem {
    /// An individually drawn leaf.
    Leaf {
        /// The leaf node.
        node: NodeId,
        /// Its taxon label.
        label: Option<String>,
        /// Leaf rank (y position).
        rank: u32,
    },
    /// A clade collapsed into an aggregate glyph.
    Collapsed {
        /// Clade root.
        node: NodeId,
        /// Clade label, when named.
        label: Option<String>,
        /// Leaves hidden inside.
        interval: LeafInterval,
    },
    /// An internal node drawn as a branch point.
    Branch {
        /// The node.
        node: NodeId,
    },
}

/// The LOD pass output.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderList {
    /// Drawable items in preorder.
    pub items: Vec<RenderItem>,
    /// Leaves drawn individually.
    pub visible_leaves: usize,
    /// Leaves hidden inside collapsed glyphs.
    pub collapsed_leaves: usize,
    /// Estimated payload bytes for the item list.
    pub payload_bytes: usize,
}

/// Approximate wire size of one render item.
fn item_bytes(item: &RenderItem) -> usize {
    match item {
        RenderItem::Leaf { label, .. } => 24 + label.as_deref().map_or(0, str::len),
        RenderItem::Collapsed { label, .. } => {
            // Aggregate glyphs carry count + potency summary.
            40 + label.as_deref().map_or(0, str::len)
        }
        RenderItem::Branch { .. } => 12,
    }
}

/// Compute the render list for a viewport.
pub fn render_visible(
    tree: &Tree,
    index: &TreeIndex,
    viewport: &Viewport,
    layout: &crate::layout::TreeLayout,
) -> RenderList {
    let visible = viewport.visible_leaves(layout);
    let px_per_leaf = viewport.pixels_per_leaf();

    let mut items = Vec::new();
    let mut visible_leaves = 0usize;
    let mut collapsed_leaves = 0usize;
    let mut stack = vec![tree.root()];
    while let Some(node) = stack.pop() {
        let iv = index.interval(node);
        let Some(shown) = iv.intersect(visible) else {
            continue;
        };
        let n = tree.node_unchecked(node);
        if n.is_leaf() {
            visible_leaves += 1;
            items.push(RenderItem::Leaf {
                node,
                label: n.label.clone(),
                rank: iv.lo,
            });
            continue;
        }
        let screen_height = iv.len() as f64 * px_per_leaf;
        if screen_height < MIN_PIXELS_PER_GLYPH {
            collapsed_leaves += shown.len() as usize;
            items.push(RenderItem::Collapsed {
                node,
                label: n.label.clone(),
                interval: iv,
            });
            continue;
        }
        items.push(RenderItem::Branch { node });
        for &c in n.children.iter().rev() {
            stack.push(c);
        }
    }

    let payload_bytes = items.iter().map(item_bytes).sum();
    RenderList {
        items,
        visible_leaves,
        collapsed_leaves,
        payload_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::TreeLayout;
    use drugtree_phylo::newick::parse_newick;

    /// A balanced tree with 2^depth leaves.
    fn balanced(depth: usize) -> (Tree, TreeIndex, TreeLayout) {
        fn build(d: usize, next: &mut usize) -> String {
            if d == 0 {
                let s = format!("l{next}:1");
                *next += 1;
                s
            } else {
                format!("({},{}):1", build(d - 1, next), build(d - 1, next))
            }
        }
        let mut next = 0;
        let newick = format!("{};", build(depth, &mut next));
        let tree = parse_newick(&newick).unwrap();
        let index = TreeIndex::build(&tree);
        let layout = TreeLayout::compute(&tree, &index);
        (tree, index, layout)
    }

    #[test]
    fn zoomed_in_draws_individual_leaves() {
        let (tree, index, layout) = balanced(6); // 64 leaves
        let mut v = Viewport::fullscreen(&layout);
        v.focus_interval(LeafInterval { lo: 0, hi: 8 }); // 60 px per leaf
        let r = render_visible(&tree, &index, &v, &layout);
        assert_eq!(r.visible_leaves, 8);
        assert_eq!(r.collapsed_leaves, 0);
        assert!(r
            .items
            .iter()
            .any(|i| matches!(i, RenderItem::Branch { .. })));
    }

    #[test]
    fn zoomed_out_collapses() {
        let (tree, index, layout) = balanced(10); // 1024 leaves
        let v = Viewport::fullscreen(&layout); // 0.47 px per leaf
        let r = render_visible(&tree, &index, &v, &layout);
        assert_eq!(r.visible_leaves, 0, "nothing individually resolvable");
        assert_eq!(r.collapsed_leaves, 1024);
        // All items are glyphs/branches near the root; payload is tiny.
        assert!(r.items.len() < 150, "got {} items", r.items.len());
    }

    #[test]
    fn payload_grows_with_zoom_but_is_capped_when_zoomed_out() {
        let (tree, index, layout) = balanced(10);
        let zoomed_out = render_visible(&tree, &index, &Viewport::fullscreen(&layout), &layout);
        let mut v = Viewport::fullscreen(&layout);
        v.focus_interval(LeafInterval { lo: 0, hi: 16 });
        let zoomed_in = render_visible(&tree, &index, &v, &layout);
        assert!(zoomed_in.visible_leaves == 16);
        // Fully-rendered comparison: pretend no LOD by measuring leaves.
        assert!(
            zoomed_out.payload_bytes < 1024 * 24,
            "LOD payload {} must undercut full rendering",
            zoomed_out.payload_bytes
        );
    }

    #[test]
    fn items_cover_visible_interval_exactly() {
        let (tree, index, layout) = balanced(8); // 256 leaves
        let mut v = Viewport::fullscreen(&layout);
        v.focus_interval(LeafInterval { lo: 32, hi: 96 });
        let r = render_visible(&tree, &index, &v, &layout);
        // Every visible leaf is accounted for exactly once: drawn or
        // inside exactly one collapsed glyph.
        let mut covered = vec![0u32; 256];
        for item in &r.items {
            match item {
                RenderItem::Leaf { rank, .. } => covered[*rank as usize] += 1,
                RenderItem::Collapsed { interval, .. } => {
                    let shown = interval.intersect(LeafInterval { lo: 32, hi: 96 }).unwrap();
                    for i in shown.lo..shown.hi {
                        covered[i as usize] += 1;
                    }
                }
                RenderItem::Branch { .. } => {}
            }
        }
        for (i, &c) in covered.iter().enumerate() {
            let expected = u32::from((32..96).contains(&(i as u32)));
            assert_eq!(c, expected, "leaf {i} covered {c} times");
        }
        assert_eq!(r.visible_leaves + r.collapsed_leaves, 64);
    }

    #[test]
    fn offscreen_subtrees_skipped() {
        let (tree, index, layout) = balanced(6);
        let mut v = Viewport::fullscreen(&layout);
        v.focus_interval(LeafInterval { lo: 0, hi: 4 });
        let r = render_visible(&tree, &index, &v, &layout);
        for item in &r.items {
            if let RenderItem::Leaf { rank, .. } = item {
                assert!(*rank < 4);
            }
        }
    }
}
