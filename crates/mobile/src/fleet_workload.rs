//! Multi-session workload generation for session fleets.
//!
//! Experiment E11 drives M concurrent mobile sessions against one
//! shared executor. What makes sharing pay off is *cross-session
//! locality*: real users of one dataset cluster on the same hot
//! clades (the well-studied protein families), so concurrent sessions
//! issue overlapping subtree queries that the shared cache and the
//! scheduler's flights can merge. The generator here produces one
//! deterministic gesture script per session, all sampling the **same
//! global hot-clade ranking** with per-session RNG streams: sessions
//! disagree on order and timing but agree on what is hot, exactly the
//! workload shape the fleet scheduler exploits.

use crate::gestures::{zipf_sample, GestureConfig};
use crate::network::NetworkProfile;
use crate::session::Gesture;
use drugtree_phylo::index::TreeIndex;
use drugtree_phylo::tree::{NodeId, Tree};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One session's share of a concurrent workload.
#[derive(Debug, Clone)]
pub struct SessionWorkload {
    /// Session index.
    pub session: usize,
    /// Network profile this session's transfers are charged under.
    pub network: NetworkProfile,
    /// The gesture script to replay.
    pub script: Vec<Gesture>,
}

/// The shared hot-clade ranking every session samples from: internal
/// clades in descending subtree size (position = Zipf rank), excluding
/// clades spanning more than half the tree so "hot" means a real
/// drill-down target, not the root. Deterministic: ties break on
/// interval position.
pub fn hot_clade_ranking(tree: &Tree, index: &TreeIndex) -> Vec<NodeId> {
    let half = (index.leaf_count() / 2).max(1);
    let mut clades: Vec<NodeId> = tree
        .node_ids()
        .filter(|&id| {
            !tree.node_unchecked(id).is_leaf() && index.interval(id).len() as usize <= half
        })
        .collect();
    clades.sort_by_key(|&id| {
        let iv = index.interval(id);
        (std::cmp::Reverse(iv.len()), iv.lo)
    });
    if clades.is_empty() {
        clades.push(tree.root());
    }
    clades
}

/// Generate `sessions` deterministic scripts over one shared hot-clade
/// ranking. `config.zipf_theta` sets how strongly sessions concentrate
/// on the same few clades (θ=0: uniform, no cross-session locality to
/// exploit; θ≥1: heavy overlap). `config.seed` keys the whole fleet;
/// each session derives an independent stream from it.
pub fn zipf_sessions(
    tree: &Tree,
    index: &TreeIndex,
    sessions: usize,
    config: &GestureConfig,
) -> Vec<SessionWorkload> {
    let ranking = hot_clade_ranking(tree, index);
    (0..sessions)
        .map(|s| {
            let mut rng = SmallRng::seed_from_u64(
                config.seed.wrapping_mul(0x9E37_79B9).wrapping_add(s as u64),
            );
            let mut script = Vec::with_capacity(config.len);
            while script.len() < config.len {
                let roll: f64 = rng.gen();
                // Always open with an expand: an InspectViewport before
                // any focus gesture would query the fullscreen (whole
                // tree) and trivialize every later probe.
                if script.is_empty() || roll < 0.8 {
                    // Expand a clade from the shared hot ranking.
                    let pick = zipf_sample(&mut rng, ranking.len(), config.zipf_theta);
                    script.push(Gesture::Expand {
                        node: ranking[pick],
                    });
                } else if roll < 0.9 {
                    script.push(Gesture::InspectViewport);
                } else {
                    script.push(Gesture::Pan {
                        dy: (rng.gen::<f64>() - 0.5) * 8.0,
                    });
                }
            }
            SessionWorkload {
                session: s,
                network: NetworkProfile::CELL_4G,
                script,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_phylo::newick::parse_newick;
    use std::collections::HashSet;

    fn tree() -> (Tree, TreeIndex) {
        let t = parse_newick(
            "(((a:1,b:1)ab:1,(c:1,d:1)cd:1)abcd:1,((e:1,f:1)ef:1,(g:1,h:1)gh:1)efgh:1)root;",
        )
        .unwrap();
        let i = TreeIndex::build(&t);
        (t, i)
    }

    #[test]
    fn ranking_excludes_root_and_is_deterministic() {
        let (t, i) = tree();
        let r = hot_clade_ranking(&t, &i);
        assert!(!r.contains(&t.root()));
        assert_eq!(r, hot_clade_ranking(&t, &i));
        // Largest eligible clades first.
        assert!(i.interval(r[0]).len() >= i.interval(*r.last().unwrap()).len());
    }

    #[test]
    fn sessions_are_deterministic_and_distinct() {
        let (t, i) = tree();
        let cfg = GestureConfig {
            len: 50,
            ..Default::default()
        };
        let a = zipf_sessions(&t, &i, 4, &cfg);
        let b = zipf_sessions(&t, &i, 4, &cfg);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.script, y.script, "same seed, same fleet");
        }
        assert_ne!(a[0].script, a[1].script, "sessions differ");
    }

    #[test]
    fn fleet_scale_replay_is_deterministic() {
        let (t, i) = tree();
        let cfg = GestureConfig {
            len: 6,
            zipf_theta: 1.0,
            ..Default::default()
        };
        let a = zipf_sessions(&t, &i, 4096, &cfg);
        let b = zipf_sessions(&t, &i, 4096, &cfg);
        assert_eq!(a.len(), 4096);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.session, y.session);
            assert_eq!(x.script, y.script, "fixed seed must replay byte-alike");
        }
        // A different seed produces a different fleet.
        let other = zipf_sessions(
            &t,
            &i,
            4096,
            &GestureConfig {
                seed: cfg.seed + 1,
                ..cfg
            },
        );
        assert!(
            a.iter().zip(&other).any(|(x, y)| x.script != y.script),
            "seed must key the fleet"
        );
    }

    #[test]
    fn fleet_scale_distribution_shape_is_zipfian() {
        let (t, i) = tree();
        let ranking = hot_clade_ranking(&t, &i);
        let cfg = GestureConfig {
            len: 6,
            zipf_theta: 1.0,
            ..Default::default()
        };
        let fleet = zipf_sessions(&t, &i, 4096, &cfg);
        let mut expands: u64 = 0;
        let mut per_rank = vec![0u64; ranking.len()];
        let mut gestures: u64 = 0;
        for w in &fleet {
            assert!(
                matches!(w.script[0], Gesture::Expand { .. }),
                "scripts open with a focus gesture"
            );
            for g in &w.script {
                gestures += 1;
                if let Gesture::Expand { node } = g {
                    expands += 1;
                    let rank = ranking.iter().position(|r| r == node).unwrap();
                    per_rank[rank] += 1;
                }
            }
        }
        // ~80% of gestures are expands (first gesture is forced).
        let expand_share = expands as f64 / gestures as f64;
        assert!(
            (0.75..=0.90).contains(&expand_share),
            "expand share {expand_share:.3} out of family"
        );
        // Zipf shape: the top-ranked clade dominates and the head
        // outweighs the tail. At 4096×6 gestures the law of large
        // numbers makes these comparisons rock-solid.
        assert!(
            per_rank[0] > per_rank[ranking.len() - 1],
            "rank 0 ({}) must beat the coldest rank ({})",
            per_rank[0],
            per_rank[ranking.len() - 1]
        );
        assert_eq!(
            per_rank.iter().max(),
            Some(&per_rank[0]),
            "hottest clade is the Zipf head"
        );
        let head: u64 = per_rank.iter().take(ranking.len() / 2).sum();
        assert!(
            head as f64 > 0.6 * expands as f64,
            "head half holds the bulk of traffic ({head}/{expands})"
        );
    }

    #[test]
    fn skewed_sessions_share_hot_clades() {
        let (t, i) = tree();
        let cfg = GestureConfig {
            len: 80,
            zipf_theta: 1.5,
            ..Default::default()
        };
        let fleet = zipf_sessions(&t, &i, 4, &cfg);
        let expanded = |w: &SessionWorkload| -> HashSet<u32> {
            w.script
                .iter()
                .filter_map(|g| match g {
                    Gesture::Expand { node } => Some(node.0),
                    _ => None,
                })
                .collect()
        };
        let mut common = expanded(&fleet[0]);
        for w in &fleet[1..] {
            common = common.intersection(&expanded(w)).copied().collect();
        }
        assert!(!common.is_empty(), "skewed sessions overlap on hot clades");
    }
}
