//! Mobile-session integration tests: deterministic replay, cache
//! behaviour over realistic gesture scripts, and delivery-mode
//! invariants.

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree::prelude::*;
use drugtree_mobile::gestures::lateral_script;
use drugtree_query::cache::CacheConfig;
use std::time::Duration;
use support::{fleet_agrees, system, Matrix, Step, Systems};

mod support;

fn bundle() -> SyntheticBundle {
    SyntheticBundle::generate(&WorkloadSpec::default().leaves(128).ligands(32).seed(13))
}

fn script(bundle: &SyntheticBundle, seed: u64) -> Vec<Gesture> {
    drill_down_script(
        &bundle.tree,
        &bundle.index,
        &GestureConfig {
            len: 60,
            seed,
            zipf_theta: 1.0,
            revisit_prob: 0.3,
        },
    )
}

#[test]
fn replaying_a_script_is_deterministic() {
    let b = bundle();
    let gestures = script(&b, 4);

    let run = || {
        let s = system(b.build_dataset(), OptimizerConfig::full(), None);
        let mut session = s.mobile_session(NetworkProfile::CELL_4G);
        gestures
            .iter()
            .map(|g| {
                let r = session.apply(g).unwrap();
                (
                    r.rows,
                    r.first_usable,
                    r.complete,
                    r.payload_bytes,
                    r.cache_hit,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn optimized_session_outperforms_naive() {
    let b = bundle();
    let gestures = script(&b, 8);

    let total = |config: OptimizerConfig| {
        let s = system(b.build_dataset(), config, None);
        let mut session = s.mobile_session(NetworkProfile::CELL_4G);
        let mut total = Duration::ZERO;
        for g in &gestures {
            total += session.apply(g).unwrap().complete;
        }
        total
    };
    let naive = total(OptimizerConfig::naive());
    let optimized = total(OptimizerConfig::full());
    assert!(
        optimized < naive / 2,
        "optimized session {optimized:?} should be far below naive {naive:?}"
    );
}

#[test]
fn drill_down_scripts_achieve_cache_hits() {
    let b = bundle();
    let s = system(b.build_dataset(), OptimizerConfig::full(), None);
    let mut session = s.mobile_session(NetworkProfile::WIFI);
    for g in &script(&b, 15) {
        session.apply(g).unwrap();
    }
    let stats = s.report().cache;
    assert!(
        stats.hits > 0,
        "drill-down locality must produce hits: {stats:?}"
    );
    let queries: usize = session
        .log()
        .iter()
        .filter(|r| r.cache_hit.is_some())
        .count();
    assert!(queries > 10, "script should contain many queries");
}

/// A whole-tree expand fetches more rows than a budget of half the
/// activities: the cache declines it and keeps what it holds. Every
/// answer of a drill-down and of a lateral session, each opening and
/// ending on the whole tree, is still the naive plan's.
#[test]
fn a_small_row_budget_changes_no_answer() {
    let b = bundle();
    let cache = CacheConfig {
        max_rows: b.activities.len() / 2,
        ..CacheConfig::default()
    };
    let lateral = GestureConfig {
        len: 40,
        seed: 21,
        zipf_theta: 0.0,
        revisit_prob: 0.0,
    };
    let whole_tree = Gesture::Expand {
        node: b.tree.root(),
    };
    for script in [script(&b, 21), lateral_script(&b.tree, &b.index, &lateral)] {
        let mut steps = vec![Step::Gesture(whole_tree.clone())];
        steps.extend(script.into_iter().map(Step::Gesture));
        steps.push(Step::Gesture(whole_tree.clone()));
        let systems = Systems::new(&Matrix::fixed().with_cache(cache), || b.build_dataset());
        systems.run(&steps).unwrap();
        let stats = systems.get("full").report().cache;
        assert!(stats.declined >= 2 && stats.hits > 0, "{stats:?}");
    }
}

#[test]
fn view_only_gestures_never_touch_sources() {
    let b = bundle();
    let s = system(b.build_dataset(), OptimizerConfig::full(), None);
    let requests_before: u64 = s
        .dataset()
        .registry
        .all()
        .iter()
        .map(|src| src.metrics().requests)
        .sum();
    let mut session = s.mobile_session(NetworkProfile::WIFI);
    session.apply(&Gesture::Pan { dy: 5.0 }).unwrap();
    session.apply(&Gesture::ZoomIn { focus_y: 10.0 }).unwrap();
    session.apply(&Gesture::ZoomOut { focus_y: 10.0 }).unwrap();
    let requests_after: u64 = s
        .dataset()
        .registry
        .all()
        .iter()
        .map(|src| src.metrics().requests)
        .sum();
    assert_eq!(
        requests_before, requests_after,
        "pan/zoom are pure client-side view changes"
    );
}

#[test]
fn slower_networks_cost_more_never_change_results() {
    let b = bundle();
    let mut row_counts: Vec<Vec<usize>> = Vec::new();
    let mut totals: Vec<Duration> = Vec::new();
    for profile in NetworkProfile::ALL {
        let s = system(b.build_dataset(), OptimizerConfig::full(), None);
        let mut session = s.mobile_session(profile);
        let mut rows = Vec::new();
        let mut total = Duration::ZERO;
        for g in &script(&b, 22) {
            let r = session.apply(g).unwrap();
            rows.push(r.rows);
            total += r.complete;
        }
        row_counts.push(rows);
        totals.push(total);
    }
    // Identical answers across networks.
    assert!(row_counts.windows(2).all(|w| w[0] == w[1]));
    // Monotonically slower networks.
    assert!(
        totals.windows(2).all(|w| w[0] <= w[1]),
        "totals not monotone: {totals:?}"
    );
}

/// A fleet shares one cache and merges concurrent queries into
/// flights; with no deadline, admission or storm policy none of that
/// may change what a session sees. Each session of a Zipf fleet is
/// replayed alone, gesture by gesture, on a fresh system, by the
/// harness's fleet check.
#[test]
fn a_fleet_session_answers_what_its_solo_replay_answers() {
    const SESSIONS: usize = 64;
    let b = SyntheticBundle::generate(&WorkloadSpec::default().leaves(256).ligands(32).seed(31));
    let workloads = zipf_sessions(
        &b.tree,
        &b.index,
        SESSIONS,
        &GestureConfig {
            len: 12,
            seed: 31,
            zipf_theta: 1.0,
            revisit_prob: 0.3,
        },
    );
    let report = fleet_agrees(|| b.build_dataset(), &workloads).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(report.sessions, SESSIONS);
    assert!(
        report.sched.unwrap().flight_joins > 0,
        "the fleet merged some queries"
    );
}
