//! `fleet_hot` and `fleet_miss`: Zipf session fleets through the
//! event-driven scheduler, on either side of the cache's capacity.

use super::{
    build_system, nanos, source_totals, BenchObserver, ObserverTotals, Rep, RepOptions, SetupTimes,
    TraceSink, Workload,
};
use crate::check::fold;
use crate::procfs::cpu_time;
use drugtree::prelude::*;
use drugtree_mobile::layout::TreeLayout;
use drugtree_sources::clock::wall_now;
use std::sync::Arc;
use std::time::Duration;

/// Worker threads every fleet is pinned to, so that a result never
/// depends on the pool's default; lowered on a one-core machine.
const WORKERS: usize = 2;

const GESTURES_PER_SESSION: usize = 24;

const SCHED_OVERHEAD: &str = "core.sched_overhead_us_per_op";

/// (sessions, Zipf exponent over the hot-clade ranking).
fn fleet_shape(workload: Workload, smoke: bool) -> (usize, f64) {
    match (workload, smoke) {
        (Workload::FleetHot, false) => (512, 1.0),
        (Workload::FleetHot, true) => (48, 1.0),
        (_, false) => (128, 0.5),
        (_, true) => (24, 0.5),
    }
}

struct Prepared {
    system: DrugTree,
    sessions: Vec<SessionWorkload>,
    setup: SetupTimes,
}

fn prepare(
    workload: Workload,
    opts: &RepOptions,
    observer: Option<Arc<BenchObserver>>,
) -> Prepared {
    let (system, mut setup) = build_system(&workload.system_spec(opts.smoke), observer);
    let (sessions, zipf_theta) = fleet_shape(workload, opts.smoke);
    let t = wall_now();
    let sessions = zipf_sessions(
        &system.dataset().tree,
        &system.dataset().index,
        sessions,
        &GestureConfig {
            len: GESTURES_PER_SESSION,
            seed: opts.seed,
            zipf_theta,
            revisit_prob: 0.3,
        },
    );
    setup.inputs = wall_now() - t;
    Prepared {
        system,
        sessions,
        setup,
    }
}

pub fn rep(workload: Workload, opts: &RepOptions, mut sink: Option<&mut TraceSink>) -> Rep {
    let observer = sink.is_some().then(|| Arc::new(BenchObserver::default()));
    let Prepared {
        system,
        sessions,
        setup,
    } = prepare(workload, opts, observer.clone());

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let fleet = system.fleet();
    let sources = fleet.dataset().registry.all().to_vec();
    let before = source_totals(&sources);
    let fleet = fleet
        .with_sessions(sessions)
        .with_workers(WORKERS.min(cores));

    let spans = sink.as_deref_mut().map(|s| {
        let op = s.tracer.begin_op();
        (op, s.tracer.begin(op, Some(op), "core.fleet_run"))
    });
    let cpu0 = cpu_time();
    let t0 = wall_now();
    let report = fleet.run().expect("fleet serves");
    let wall = wall_now() - t0;
    let cpu = cpu_time().saturating_sub(cpu0);
    if let (Some(s), Some((op, run))) = (sink.as_deref_mut(), spans) {
        s.tracer.end(run);
        s.tracer.end(op);
    }

    let sched = report.sched.expect("the scheduler reports its counters");
    let after = source_totals(&sources);
    let mut out = Rep {
        setup,
        ops: report.gestures as u64,
        // A shed, timed-out or outage-degraded query is a failed op.
        failed: report.total_shed() + report.total_deadline_missed() + report.total_outages(),
        wall,
        cpu,
        charged_ns: report.latencies.iter().map(|d| nanos(*d)).collect(),
        virtual_makespan: report.virtual_makespan(),
        workers: sched.workers,
        mailbox_waits: sched.mailbox.waits,
        ..Rep::default()
    };
    out.counts.extend([
        ("cache_probes", report.cache.probes),
        ("cache_hits", report.cache.hits),
        ("cache_misses", report.cache.misses),
        ("cache_evictions", report.cache.evictions),
        ("source_requests", after.0 - before.0),
        ("source_rows_shipped", after.1 - before.1),
        ("sched_events", sched.events),
        ("sched_flights", sched.flights),
        ("sched_flight_joins", sched.flight_joins),
    ]);
    out.digest = fold(
        0,
        &(
            &report.latencies,
            &report.session_totals,
            format!("{:?}", report.classes),
        ),
    );

    if let (Some(s), Some(observer)) = (sink, observer) {
        ObserverTotals::read(&observer).record_since(&ObserverTotals::default(), s, out.ops);
        // Once per run: the replay costs as much as the fleet itself.
        if !s.scalars.contains_key(SCHED_OVERHEAD) {
            let sequential = replay_sequentially(workload, opts);
            s.scalar(
                SCHED_OVERHEAD,
                (wall.as_secs_f64() - sequential.as_secs_f64()) * 1e6 / out.ops as f64,
            );
        }
    }
    out
}

/// Wall time of the same scripts replayed one session after another
/// through `MobileSession::apply` on one shared system, with the
/// layout shared and the log off as the scheduler's sessions have
/// them: what the gestures cost without any scheduling.
fn replay_sequentially(workload: Workload, opts: &RepOptions) -> Duration {
    let Prepared {
        system, sessions, ..
    } = prepare(workload, opts, None);
    let dataset = system.dataset();
    let layout = Arc::new(TreeLayout::compute(&dataset.tree, &dataset.index));
    let t0 = wall_now();
    for workload in &sessions {
        let mut session = MobileSession::with_layout(
            dataset,
            system.executor(),
            workload.network,
            Arc::clone(&layout),
        );
        session.retain_log(false);
        for gesture in &workload.script {
            std::hint::black_box(session.apply(gesture).expect("gesture applies"));
        }
    }
    wall_now() - t0
}
