//! A budgeted gesture answers what the full listing answers, folded
//! through the render list the screen draws.
//!
//! An expand, and an inspect of a viewport with collapsed clades, ask
//! for one glyph row per drawn leaf or collapsed clade: its record
//! count and best pActivity over the clade's interval ∩ the gesture's
//! scope. The test generates gesture scripts (expands, inspects, pans,
//! zooms) with late measurements ingested between gestures, and feeds
//! them to the differential harness (`support`), so the view, the
//! mirror, the statistics and the cache go stale mid-session. Every
//! system's answer to every query a gesture asks is checked against the
//! naive listing of the same scope, folded through the same render
//! list: the same groups in the same order, equal counts, and the best
//! pActivity bit-equal to a max folded in rank order. An inspect whose
//! leaves are all drawn still lists rows, which the harness compares.

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree::prelude::*;
use drugtree_mobile::lod::{render_visible, GLYPH_METRICS};
use drugtree_phylo::index::LeafInterval;
use drugtree_query::ast::Groups;
use drugtree_query::dataset::test_fixtures::activity;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use support::{Answer, Matrix, Step, Systems};

mod support;

/// 480 pixels over 384 leaves: a fullscreen viewport collapses every
/// clade of fewer than ten leaves, and a viewport zoomed in two or four
/// times collapses the smallest clades, some of them across its edge.
const LEAVES: usize = 384;

/// The nodes of a binary tree over [`LEAVES`] leaves: an expand's
/// node is drawn modulo this.
const NODES: u32 = 2 * LEAVES as u32 - 1;

fn arb_gesture() -> impl Strategy<Value = Gesture> {
    prop_oneof![
        (0u32..10_000).prop_map(|n| Gesture::Expand {
            node: NodeId(n % NODES)
        }),
        Just(Gesture::InspectViewport),
        (-40.0f64..40.0).prop_map(|dy| Gesture::Pan { dy }),
        (0.0f64..LEAVES as f64).prop_map(|focus_y| Gesture::ZoomIn { focus_y }),
        (0.0f64..LEAVES as f64).prop_map(|focus_y| Gesture::ZoomOut { focus_y }),
    ]
}

/// The script as harness steps: after a gesture, one time in three, a
/// potent late measurement of a leaf. The ingests come from the case's
/// seed (an xorshift stream), so the drawn gestures stay the ones the
/// generator drew before ingests were added.
fn steps(seed: u64, script: &[Gesture]) -> Vec<Step> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut steps = Vec::new();
    for gesture in script {
        steps.push(Step::Gesture(gesture.clone()));
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        if state.is_multiple_of(3) {
            let leaf = format!("P{:04}", (state >> 8) % LEAVES as u64);
            let ligand = format!("L{:04}", (state >> 24) % 64);
            let value_nm = [0.5, 3.0, 40.0][(state >> 40) as usize % 3];
            let record = activity(&leaf, &ligand, value_nm, 2014);
            steps.push(Step::Ingest(record, 0));
        }
    }
    steps
}

/// The listing's record count and best pActivity (as bits) over
/// `group` ∩ `scope`, folded in the listing's rank order.
fn fold(listing: &QueryResult, group: LeafInterval, scope: LeafInterval) -> (i64, Option<u64>) {
    let mut count = 0;
    let mut best: Option<f64> = None;
    for row in &listing.rows {
        let rank = row[0].as_int().unwrap() as u32;
        if group.contains_rank(rank) && scope.contains_rank(rank) {
            count += 1;
            let p = row[5].as_f64().unwrap();
            best = Some(best.map_or(p, |b| b.max(p)));
        }
    }
    (count, best.map(f64::to_bits))
}

/// A glyph answer against the naive listing of its scope, folded
/// through the render list its session draws.
fn check_glyphs(
    answer: &Answer<'_, '_>,
    listing: &QueryResult,
    dataset: &Dataset,
) -> Result<(), String> {
    let (Some(session), Step::Gesture(gesture)) = (answer.session, answer.step) else {
        return Ok(());
    };
    let Scope::Interval(scope) = answer.query.scope else {
        return Err("a gesture scopes an interval".into());
    };
    let (tree, index) = (&dataset.tree, &dataset.index);
    let render = render_visible(tree, index, &session.viewport(), session.layout());
    let QueryKind::Aggregate {
        groups: Groups::Nodes(nodes),
        metrics,
    } = &answer.query.kind
    else {
        return if matches!(gesture, Gesture::InspectViewport) && render.collapsed_leaves == 0 {
            Ok(())
        } else {
            Err(format!("{gesture:?} asked {:?}", answer.query.kind))
        };
    };
    let rows = &answer.result.rows;
    let drawn = matches!(gesture, Gesture::Expand { .. }) || render.collapsed_leaves > 0;
    let glyphs = *nodes == render.glyph_nodes() && metrics[..] == GLYPH_METRICS[..];
    if !drawn || !glyphs || rows.len() != nodes.len() {
        let asked = format!("{} rows for {nodes:?} {metrics:?}", rows.len());
        return Err(format!("{gesture:?}: {asked}, drew {render:?}"));
    }
    for (row, &node) in rows.iter().zip(nodes) {
        let group = index.interval(node);
        let (count, best) = fold(listing, group, scope);
        let (lo, hi) = (i64::from(group.lo), i64::from(group.hi));
        let expected = (Some(lo), Some(hi), Some(count), best);
        let got = (row[1].as_int(), row[2].as_int(), row[3].as_int());
        let got = (got.0, got.1, got.2, row[4].as_f64().map(f64::to_bits));
        if got != expected {
            let node = node.0;
            return Err(format!("n{node}: {got:?}, the folded listing {expected:?}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn a_budgeted_gesture_answers_the_listing_folded_through_its_render_list(
        seed in 0u64..500,
        script in proptest::collection::vec(arb_gesture(), 4..16),
    ) {
        let bundle = SyntheticBundle::generate(
            &WorkloadSpec::default().leaves(LEAVES).ligands(64).seed(seed),
        );
        prop_assert_eq!(bundle.tree.len(), NODES as usize);
        let systems = Systems::new(&Matrix::fixed(), || bundle.build_dataset());
        let naive = systems.naive();
        // The naive plan answers each step first: its scope's listing
        // serves the step's other answers too.
        let mut listing = None;
        let mut glyph_answers = 0;
        let run = systems.run_with(&steps(seed, &script), |answer| {
            if answer.system == "naive" {
                let scope = answer.query.scope.clone();
                listing = Some(naive.execute(&Query::activities(scope)).unwrap());
                glyph_answers += usize::from(matches!(answer.query.kind, QueryKind::Aggregate { .. }));
            }
            check_glyphs(answer, listing.as_ref().unwrap(), naive.dataset())
        });
        run.map_err(TestCaseError::Fail)?;
        // Every expand asks for glyphs, so a script with one checks some;
        // every system answered each glyph query the naive plan answered.
        let expands = script.iter().filter(|g| matches!(g, Gesture::Expand { .. })).count();
        prop_assert!(glyph_answers >= expands);
    }
}
