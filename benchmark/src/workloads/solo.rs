//! `solo_browse`: the paper's user. One mobile session on a 4G link
//! drills down a large tree, then walks sideways along one level, with
//! the scheduler bypassed and every gesture timed.

use super::{
    build_system, nanos, source_totals, BenchObserver, ObserverTotals, Rep, RepOptions, TraceSink,
    Workload,
};
use crate::check::fold;
use crate::procfs::cpu_time;
use drugtree::prelude::*;
use drugtree_mobile::gestures::lateral_script;
use drugtree_mobile::lod::render_visible;
use drugtree_mobile::progressive::{progressive_delivery, DEFAULT_CHUNK_ROWS};
use drugtree_mobile::session::InteractionResult;
use drugtree_mobile::{GestureStep, MobileError, QueryOutcome};
use drugtree_sources::clock::wall_now;
use std::sync::Arc;

const NETWORK: NetworkProfile = NetworkProfile::CELL_4G;

/// Seed of both scripts: this workload replays one session, the same
/// on every run, and `--seed` does not reach it.
///
/// A drill-down script is a random walk from the root, and what it
/// costs is decided by its first steps: whether it expands the larger
/// or the smaller child of the root, and how often it climbs back.
/// Between two seeds that is a factor of two in gestures per second
/// and 27 in the median gesture (555 us to 15.2 ms measured), which no
/// number of repetitions averages out in the seconds a run has. The
/// lateral script walks one whole level of the tree whatever its seed,
/// and costs the same within 7 %; but which of that level's clades it
/// returns to most moves the median gesture between 5.3 and 9.4 ms.
const SCRIPT_SEED: u64 = 1101;

/// Gestures in the drill-down script and in the lateral one after it.
/// The drill-down's first twenty gestures expand the top of the tree
/// and cost as much as the next eighty, so the script is kept short
/// enough for three reps to fit a run.
fn script_lens(smoke: bool) -> (usize, usize) {
    if smoke {
        (30, 30)
    } else {
        (60, 100)
    }
}

pub fn rep(opts: &RepOptions, mut sink: Option<&mut TraceSink>) -> Rep {
    let observer = sink.is_some().then(|| Arc::new(BenchObserver::default()));
    let (system, mut setup) = build_system(
        &Workload::SoloBrowse.system_spec(opts.smoke),
        observer.clone(),
    );

    let t_inputs = wall_now();
    let dataset = system.dataset();
    let (drill_len, lateral_len) = script_lens(opts.smoke);
    let config = |len, seed| GestureConfig {
        len,
        seed,
        zipf_theta: 1.0,
        revisit_prob: 0.3,
    };
    let mut script = drill_down_script(
        &dataset.tree,
        &dataset.index,
        &config(drill_len, SCRIPT_SEED),
    );
    script.extend(lateral_script(
        &dataset.tree,
        &dataset.index,
        &config(lateral_len, SCRIPT_SEED),
    ));
    let t_session = wall_now();
    let mut session = system.mobile_session(NETWORK);
    // The benchmark keeps what it needs of each result itself.
    session.retain_log(false);
    let t_ready = wall_now();
    setup.inputs = t_ready - t_inputs;
    if let Some(s) = sink.as_deref_mut() {
        s.scalar(
            "mobile.session_new_us",
            (t_ready - t_session).as_secs_f64() * 1e6,
        );
    }

    let sources = dataset.registry.all().to_vec();
    let sources_before = source_totals(&sources);
    let cache_before = system.executor().cache_stats();

    let mut out = Rep {
        setup,
        ops: script.len() as u64,
        op_wall_ns: Vec::with_capacity(script.len()),
        ..Rep::default()
    };
    let (mut rows, mut payload_bytes) = (0u64, 0u64);
    let mut keep = |out: &mut Rep, result: Result<InteractionResult, MobileError>, ns: u64| {
        out.op_wall_ns.push(ns);
        match result {
            Ok(r) => {
                if r.cache_hit.is_some() {
                    out.charged_ns.push(nanos(r.charged_latency));
                }
                out.virtual_makespan += r.charged_latency;
                rows += r.rows as u64;
                payload_bytes += r.payload_bytes as u64;
                out.digest = fold(
                    out.digest,
                    &(r.charged_latency, r.rows, r.payload_bytes, r.cache_hit),
                );
            }
            Err(_) => out.failed += 1,
        }
    };

    let cpu0 = cpu_time();
    let started = wall_now();
    match sink.as_deref_mut() {
        None => {
            for gesture in &script {
                let t = wall_now();
                let result = session.apply(gesture);
                let ns = nanos(wall_now() - t);
                keep(&mut out, result, ns);
            }
        }
        Some(s) => {
            for gesture in &script {
                let (result, ns) = traced_apply(s, &system, &mut session, gesture);
                keep(&mut out, result, ns);
            }
        }
    }
    out.wall = wall_now() - started;
    out.cpu = cpu_time().saturating_sub(cpu0);

    let sources_after = source_totals(&sources);
    let cache = system.executor().cache_stats();
    out.counts.extend([
        ("cache_probes", cache.probes - cache_before.probes),
        ("cache_hits", cache.hits - cache_before.hits),
        ("cache_misses", cache.misses - cache_before.misses),
        ("cache_evictions", cache.evictions - cache_before.evictions),
        ("source_requests", sources_after.0 - sources_before.0),
        ("source_rows_shipped", sources_after.1 - sources_before.1),
        ("rows_returned", rows),
        ("payload_bytes", payload_bytes),
    ]);
    if let (Some(s), Some(observer)) = (sink, observer) {
        ObserverTotals::read(&observer).record_since(&ObserverTotals::default(), s, out.ops);
    }
    out
}

/// `MobileSession::apply`, taken apart at its public seams so that
/// each layer gets its own span.
fn traced_apply(
    sink: &mut TraceSink,
    system: &DrugTree,
    session: &mut MobileSession<'_>,
    gesture: &Gesture,
) -> (Result<InteractionResult, MobileError>, u64) {
    let tracer = &mut sink.tracer;
    let op = tracer.begin_op();
    let (step, begin_ns) = tracer.child(op, "mobile.begin_gesture", || {
        session.begin_gesture(gesture)
    });
    let mut delivered = None;
    let mut commit_ns = None;
    let result = match step {
        Err(e) => Err(e),
        Ok(GestureStep::View(pending)) => Ok(tracer
            .child(op, "mobile.commit_view", || session.commit_view(pending))
            .0),
        Ok(GestureStep::Query(pending)) => {
            let (executed, _) = tracer.child(op, "query.execute", || {
                system.executor().execute(system.dataset(), &pending.query)
            });
            executed.map_err(MobileError::from).map(|result| {
                let result = Arc::new(result);
                let outcome = QueryOutcome::Rows {
                    charged: result.metrics.charged_cost,
                    query_latency: result.metrics.virtual_cost,
                    result: Arc::clone(&result),
                };
                let (interaction, ns) = tracer.child(op, "mobile.commit_query", || {
                    session.commit_query(pending, &outcome)
                });
                commit_ns = Some(ns);
                delivered = Some(result);
                interaction
            })
        }
    };
    let wall_ns = tracer.end(op);

    let us = |ns: u64| ns as f64 / 1e3;
    sink.sample(
        &format!("mobile.gesture_us.{}", gesture.kind()),
        us(wall_ns),
    );
    sink.sample("mobile.begin_gesture_us", us(begin_ns));
    if let Some(ns) = commit_ns {
        sink.sample("mobile.commit_query_us", us(ns));
    }
    // What a commit does inside, called directly: the level-of-detail
    // render of the viewport, and the chunked delivery schedule.
    let dataset = system.dataset();
    let viewport = session.viewport();
    let t = wall_now();
    std::hint::black_box(render_visible(
        &dataset.tree,
        &dataset.index,
        &viewport,
        session.layout(),
    ));
    sink.sample("mobile.render_visible_us", us(nanos(wall_now() - t)));
    if let Some(result) = delivered {
        let t = wall_now();
        std::hint::black_box(progressive_delivery(
            &result.rows,
            &NETWORK,
            DEFAULT_CHUNK_ROWS,
        ));
        sink.sample("mobile.delivery_us", us(nanos(wall_now() - t)));
    }
    (result, wall_ns)
}
