//! Pan/zoom viewport over the cladogram.
//!
//! The viewport tracks the visible window in layout units (x in
//! `[0, 1]`, y in leaf units) plus the physical screen size. Its key
//! query-side product is [`Viewport::visible_leaves`]: the leaf-rank
//! interval the UI currently shows, which becomes the scope of every
//! viewport-driven query.

use crate::layout::TreeLayout;
use crate::{MobileError, Result};
use drugtree_phylo::index::LeafInterval;

/// A pan/zoom window over the tree layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Viewport {
    /// Visible y range, in leaf units.
    pub y_lo: f64,
    /// Exclusive upper y bound.
    pub y_hi: f64,
    /// Screen width in pixels.
    pub screen_w: u32,
    /// Screen height in pixels.
    pub screen_h: u32,
}

/// A 2013-era phone screen.
pub const DEFAULT_SCREEN: (u32, u32) = (320, 480);

impl Viewport {
    /// A viewport showing the whole tree on the default screen.
    pub fn fullscreen(layout: &TreeLayout) -> Viewport {
        Viewport {
            y_lo: 0.0,
            y_hi: layout.leaf_count().max(1) as f64,
            screen_w: DEFAULT_SCREEN.0,
            screen_h: DEFAULT_SCREEN.1,
        }
    }

    /// Visible vertical span in leaf units.
    pub fn span(&self) -> f64 {
        self.y_hi - self.y_lo
    }

    /// Pixels per leaf row at the current zoom.
    pub fn pixels_per_leaf(&self) -> f64 {
        self.screen_h as f64 / self.span().max(f64::MIN_POSITIVE)
    }

    /// The leaf-rank interval currently visible.
    pub fn visible_leaves(&self, layout: &TreeLayout) -> LeafInterval {
        let n = layout.leaf_count();
        let lo = self.y_lo.floor().max(0.0) as u32;
        let hi = (self.y_hi.ceil().max(0.0) as u32).min(n);
        LeafInterval { lo: lo.min(n), hi }
    }

    /// Pan vertically by `dy` leaf units, clamped to the layout. A
    /// non-finite `dy` is refused and leaves the viewport as it was.
    pub fn pan(&mut self, dy: f64, layout: &TreeLayout) -> Result<()> {
        if !dy.is_finite() {
            return Err(MobileError::DegenerateViewport(format!("pan by {dy}")));
        }
        let span = self.span();
        let max_hi = layout.leaf_count().max(1) as f64;
        let mut lo = self.y_lo + dy;
        lo = lo.clamp(0.0_f64.min(max_hi - span), (max_hi - span).max(0.0));
        self.y_lo = lo;
        self.y_hi = lo + span;
        Ok(())
    }

    /// Zoom by `factor` (>1 zooms in) around a focal y position,
    /// clamped so at least one leaf row stays visible. A non-finite or
    /// non-positive factor, or a non-finite focus, is refused and
    /// leaves the viewport as it was.
    pub fn zoom(&mut self, factor: f64, focus_y: f64, layout: &TreeLayout) -> Result<()> {
        if !(factor.is_finite() && factor > 0.0 && focus_y.is_finite()) {
            return Err(MobileError::DegenerateViewport(format!(
                "zoom by {factor} around {focus_y}"
            )));
        }
        let max_span = layout.leaf_count().max(1) as f64;
        let new_span = (self.span() / factor).clamp(1.0, max_span);
        // Keep the focus point at the same relative screen position.
        let rel = ((focus_y - self.y_lo) / self.span()).clamp(0.0, 1.0);
        let mut lo = focus_y - rel * new_span;
        lo = lo.clamp(0.0, (max_span - new_span).max(0.0));
        self.y_lo = lo;
        self.y_hi = lo + new_span;
        Ok(())
    }

    /// Jump the viewport to exactly cover a leaf interval.
    pub fn focus_interval(&mut self, iv: LeafInterval) {
        self.y_lo = iv.lo as f64;
        self.y_hi = (iv.hi as f64).max(iv.lo as f64 + 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_phylo::index::TreeIndex;
    use drugtree_phylo::newick::parse_newick;

    fn layout16() -> TreeLayout {
        // A balanced 16-leaf tree.
        let newick = "((((l0:1,l1:1):1,(l2:1,l3:1):1):1,((l4:1,l5:1):1,(l6:1,l7:1):1):1):1,(((l8:1,l9:1):1,(l10:1,l11:1):1):1,((l12:1,l13:1):1,(l14:1,l15:1):1):1):1);";
        let tree = parse_newick(newick).unwrap();
        let index = TreeIndex::build(&tree);
        TreeLayout::compute(&tree, &index)
    }

    #[test]
    fn fullscreen_sees_everything() {
        let l = layout16();
        let v = Viewport::fullscreen(&l);
        assert_eq!(v.visible_leaves(&l), LeafInterval { lo: 0, hi: 16 });
        assert_eq!(v.span(), 16.0);
        assert_eq!(v.pixels_per_leaf(), 30.0);
    }

    #[test]
    fn zoom_in_narrows_and_keeps_focus() {
        let l = layout16();
        let mut v = Viewport::fullscreen(&l);
        v.zoom(2.0, 8.0, &l).unwrap();
        assert_eq!(v.span(), 8.0);
        assert!(v.y_lo <= 8.0 && 8.0 <= v.y_hi, "focus stays visible");
        v.zoom(2.0, 8.0, &l).unwrap();
        assert_eq!(v.span(), 4.0);
        // Zoom out past full extent clamps.
        v.zoom(0.01, 8.0, &l).unwrap();
        assert_eq!(v.span(), 16.0);
    }

    #[test]
    fn zoom_never_below_one_leaf() {
        let l = layout16();
        let mut v = Viewport::fullscreen(&l);
        for _ in 0..10 {
            v.zoom(4.0, 3.0, &l).unwrap();
        }
        assert_eq!(v.span(), 1.0);
        assert!(v.zoom(f64::NAN, 0.0, &l).is_err());
        assert!(v.zoom(0.0, 0.0, &l).is_err());
    }

    #[test]
    fn pan_clamps_to_edges() {
        let l = layout16();
        let mut v = Viewport::fullscreen(&l);
        v.zoom(4.0, 8.0, &l).unwrap(); // span 4
        v.pan(-100.0, &l).unwrap();
        assert_eq!(v.y_lo, 0.0);
        assert_eq!(v.span(), 4.0);
        v.pan(100.0, &l).unwrap();
        assert_eq!(v.y_hi, 16.0);
        assert_eq!(v.visible_leaves(&l), LeafInterval { lo: 12, hi: 16 });
    }

    #[test]
    fn fractional_viewport_rounds_outward() {
        let l = layout16();
        let v = Viewport {
            y_lo: 2.3,
            y_hi: 5.7,
            screen_w: 320,
            screen_h: 480,
        };
        assert_eq!(v.visible_leaves(&l), LeafInterval { lo: 2, hi: 6 });
    }

    #[test]
    fn focus_interval_jumps() {
        let l = layout16();
        let mut v = Viewport::fullscreen(&l);
        v.focus_interval(LeafInterval { lo: 4, hi: 8 });
        assert_eq!(v.visible_leaves(&l), LeafInterval { lo: 4, hi: 8 });
        // Degenerate interval widens to one leaf.
        v.focus_interval(LeafInterval { lo: 3, hi: 3 });
        assert_eq!(v.span(), 1.0);
    }
}
