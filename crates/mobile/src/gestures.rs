//! Seeded gesture-script generation.
//!
//! Experiment E3 needs realistic interactive sessions with a *locality
//! knob*: real users drill down, back up, and revisit hot clades. The
//! generator produces a deterministic gesture script from a seed; the
//! Zipf exponent `theta` controls how strongly revisits concentrate on
//! recently/frequently visited clades (θ=0 uniform, θ→large =
//! hammering the same spot) — exactly the dimension the semantic
//! cache's hit rate depends on.

use crate::session::Gesture;
use drugtree_phylo::index::TreeIndex;
use drugtree_phylo::tree::{NodeId, Tree};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GestureConfig {
    /// Gestures to produce.
    pub len: usize,
    /// RNG seed.
    pub seed: u64,
    /// Zipf exponent of the revisit distribution (0 = uniform).
    pub zipf_theta: f64,
    /// Probability a step revisits a previously expanded clade.
    pub revisit_prob: f64,
}

impl Default for GestureConfig {
    fn default() -> GestureConfig {
        GestureConfig {
            len: 100,
            seed: 7,
            zipf_theta: 1.0,
            revisit_prob: 0.3,
        }
    }
}

/// Sample an index in `[0, n)` with probability ∝ `1/(i+1)^theta`.
pub fn zipf_sample(rng: &mut SmallRng, n: usize, theta: f64) -> usize {
    debug_assert!(n > 0);
    if n == 1 {
        return 0;
    }
    let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(theta)).collect();
    let total: f64 = weights.iter().sum();
    let mut target = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        target -= w;
        if target <= 0.0 {
            return i;
        }
    }
    n - 1
}

/// Generate a drill-down gesture script.
///
/// The walk maintains a current node. Each step either descends into a
/// child (weighted toward larger clades), ascends, revisits a
/// previously expanded clade (Zipf over most-recent-first history), or
/// inspects the viewport. Every `Expand` triggers a subtree query in
/// the session, so the script's locality directly shapes cache
/// behaviour.
pub fn drill_down_script(tree: &Tree, index: &TreeIndex, config: &GestureConfig) -> Vec<Gesture> {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut out = Vec::with_capacity(config.len);
    let mut current = tree.root();
    // Most-recent-first history of expanded clades.
    let mut history: Vec<NodeId> = vec![tree.root()];

    while out.len() < config.len {
        let roll: f64 = rng.gen();
        if roll < config.revisit_prob && history.len() > 1 {
            let pick = zipf_sample(&mut rng, history.len(), config.zipf_theta);
            current = history[pick];
            touch(&mut history, current);
            out.push(Gesture::Expand { node: current });
        } else if roll < config.revisit_prob + 0.45 {
            // Descend into a child, preferring bigger clades.
            let children = &tree.node_unchecked(current).children;
            if children.is_empty() {
                current = index.parent(current);
                out.push(Gesture::ZoomOut {
                    focus_y: index.interval(current).lo as f64,
                });
                continue;
            }
            let mut ordered: Vec<NodeId> = children.clone();
            ordered.sort_by_key(|&c| std::cmp::Reverse(index.interval(c).len()));
            let pick = zipf_sample(&mut rng, ordered.len(), 0.7);
            current = ordered[pick];
            touch(&mut history, current);
            out.push(Gesture::Expand { node: current });
        } else if roll < config.revisit_prob + 0.55 {
            current = index.parent(current);
            touch(&mut history, current);
            out.push(Gesture::Expand { node: current });
        } else if roll < config.revisit_prob + 0.65 {
            out.push(Gesture::InspectViewport);
        } else {
            let iv = index.interval(current);
            let span = iv.len().max(1) as f64;
            out.push(Gesture::Pan {
                dy: (rng.gen::<f64>() - 0.5) * span,
            });
        }
    }
    out
}

/// Generate a *lateral browsing* script: the user steps sideways
/// through clades at the same depth (e.g. paging through subfamilies),
/// expanding each in turn. No earlier clade's cache entry covers the
/// next expansion, a sibling, by containment: it hits only when the
/// walk comes back to a clade whose entry the cache still holds.
pub fn lateral_script(tree: &Tree, index: &TreeIndex, config: &GestureConfig) -> Vec<Gesture> {
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x1A7E);
    // Pick the shallowest depth offering at least 4 clades; walk them
    // in display order.
    let mut by_depth: std::collections::BTreeMap<u32, Vec<NodeId>> =
        std::collections::BTreeMap::new();
    for id in tree.node_ids() {
        if !tree.node_unchecked(id).is_leaf() {
            by_depth.entry(index.depth(id)).or_default().push(id);
        }
    }
    // Prefer a depth with many (hence small, cache-friendly) clades;
    // fall back to any depth with at least 4, then the root.
    let pick = |min: usize| {
        by_depth
            .iter()
            .find(|(_, nodes)| nodes.len() >= min)
            .map(|(_, nodes)| nodes.clone())
    };
    let row: Vec<NodeId> = pick(16).or_else(|| pick(4)).map_or_else(
        || vec![tree.root()],
        |mut nodes| {
            nodes.sort_by_key(|&n| index.interval(n).lo);
            nodes
        },
    );

    let mut out = Vec::with_capacity(config.len);
    let mut pos = rng.gen_range(0..row.len());
    while out.len() < config.len {
        out.push(Gesture::Expand { node: row[pos] });
        // Mostly step to the adjacent clade; occasionally jump.
        if rng.gen::<f64>() < 0.85 {
            pos = (pos + 1) % row.len();
        } else {
            pos = rng.gen_range(0..row.len());
        }
    }
    out
}

/// Move `node` to the front of the most-recent-first history.
fn touch(history: &mut Vec<NodeId>, node: NodeId) {
    history.retain(|&n| n != node);
    history.insert(0, node);
    history.truncate(64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_phylo::newick::parse_newick;

    fn tree() -> (Tree, TreeIndex) {
        let t = parse_newick(
            "(((a:1,b:1)ab:1,(c:1,d:1)cd:1)abcd:1,((e:1,f:1)ef:1,(g:1,h:1)gh:1)efgh:1)root;",
        )
        .unwrap();
        let i = TreeIndex::build(&t);
        (t, i)
    }

    #[test]
    fn script_is_deterministic() {
        let (t, i) = tree();
        let cfg = GestureConfig::default();
        let a = drill_down_script(&t, &i, &cfg);
        let b = drill_down_script(&t, &i, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.len);
    }

    #[test]
    fn different_seeds_differ() {
        let (t, i) = tree();
        let a = drill_down_script(
            &t,
            &i,
            &GestureConfig {
                seed: 1,
                ..Default::default()
            },
        );
        let b = drill_down_script(
            &t,
            &i,
            &GestureConfig {
                seed: 2,
                ..Default::default()
            },
        );
        assert_ne!(a, b);
    }

    #[test]
    fn scripts_contain_queries_and_view_changes() {
        let (t, i) = tree();
        let script = drill_down_script(
            &t,
            &i,
            &GestureConfig {
                len: 300,
                ..Default::default()
            },
        );
        let expands = script
            .iter()
            .filter(|g| matches!(g, Gesture::Expand { .. }))
            .count();
        let views = script
            .iter()
            .filter(|g| matches!(g, Gesture::Pan { .. } | Gesture::ZoomOut { .. }))
            .count();
        assert!(expands > 100, "got {expands}");
        assert!(views > 10, "got {views}");
    }

    #[test]
    fn expanded_nodes_are_valid() {
        let (t, i) = tree();
        let script = drill_down_script(
            &t,
            &i,
            &GestureConfig {
                len: 200,
                ..Default::default()
            },
        );
        for g in &script {
            if let Gesture::Expand { node } = g {
                assert!(node.index() < t.len());
            }
        }
    }

    #[test]
    fn lateral_script_steps_through_siblings() {
        let (t, i) = tree();
        let cfg = GestureConfig {
            len: 40,
            seed: 2,
            ..Default::default()
        };
        let script = lateral_script(&t, &i, &cfg);
        assert_eq!(script.len(), 40);
        assert_eq!(script, lateral_script(&t, &i, &cfg), "deterministic");
        // All gestures are expands of same-depth internal nodes.
        let depths: std::collections::HashSet<u32> = script
            .iter()
            .map(|g| match g {
                Gesture::Expand { node } => i.depth(*node),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(depths.len(), 1);
        // Adjacent gestures mostly move to a different clade.
        let moves = script.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(moves > 30, "{moves} moves");
    }

    #[test]
    fn zipf_sampling_is_skewed() {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut counts = [0usize; 5];
        for _ in 0..10_000 {
            counts[zipf_sample(&mut rng, 5, 1.5)] += 1;
        }
        assert!(counts[0] > counts[1], "{counts:?}");
        assert!(counts[1] > counts[3], "{counts:?}");
        // Uniform when theta = 0: first and last within 20%.
        let mut counts = [0usize; 5];
        for _ in 0..10_000 {
            counts[zipf_sample(&mut rng, 5, 0.0)] += 1;
        }
        let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!((*hi as f64) < *lo as f64 * 1.2, "{counts:?}");
    }

    #[test]
    fn higher_theta_concentrates_revisits() {
        let (t, i) = tree();
        let count_distinct = |theta: f64| {
            let script = drill_down_script(
                &t,
                &i,
                &GestureConfig {
                    len: 500,
                    zipf_theta: theta,
                    revisit_prob: 0.6,
                    seed: 9,
                },
            );
            let nodes: std::collections::HashSet<u32> = script
                .iter()
                .filter_map(|g| match g {
                    Gesture::Expand { node } => Some(node.0),
                    _ => None,
                })
                .collect();
            nodes.len()
        };
        assert!(count_distinct(3.0) <= count_distinct(0.0));
    }
}
