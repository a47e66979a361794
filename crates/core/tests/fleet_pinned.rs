//! Pins the fleet scheduler against the engine it replaced.
//!
//! Every constant below was recorded from the multi-threaded
//! worker-pool scheduler (commit d9f8a41, the parent of the rewrite to
//! a single-threaded discrete-event loop) for one fixed fleet that
//! turns on everything at once: E11's `sla` policy (deadlines,
//! admission control, hedging), a `FlakySource` outage storm, and a
//! `FleetObserver` with a JSONL export attached. The loop must
//! reproduce them bit for bit: same latencies, same session timelines,
//! same per-class counters, same cache traffic, same event/flight
//! counts and — because observer emissions are ordered by the
//! scheduler — the same export bytes. The one declared difference: the
//! old engine labelled a fleet fetch span `"stage":"coalesce"`; the
//! export hash was recorded with that label mapped to `"fetch"`.

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree::prelude::*;
use drugtree_sources::flaky::{FlakySource, OutageWindow};
use drugtree_sources::SourceRegistry;
use std::sync::Arc;
use std::time::Duration;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fnv_durations(ds: &[Duration]) -> u64 {
    fnv1a(ds.iter().flat_map(|d| d.as_nanos().to_le_bytes()))
}

/// The report and the JSONL export lines of the pinned fleet.
fn run_pinned_fleet() -> (ServeReport, Vec<String>) {
    let bundle =
        SyntheticBundle::generate(&WorkloadSpec::default().leaves(64).ligands(16).seed(1101));
    let sink = Arc::new(VecSink::new());
    let observer = Arc::new(
        FleetObserver::with_windows(
            Duration::from_secs(2),
            16,
            SloPolicy::default().with_session_target(Duration::from_millis(100)),
        )
        .with_slowlog(8)
        .with_export(Arc::clone(&sink) as Arc<dyn Sink>),
    );
    let mut fleet = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .optimizer(OptimizerConfig::full())
        .with_observer(observer as Arc<dyn Observer>)
        .build()
        .expect("system builds")
        .fleet();
    let workloads = zipf_sessions(
        &fleet.dataset().tree,
        &fleet.dataset().index,
        64,
        &GestureConfig {
            len: 12,
            seed: 1101,
            zipf_theta: 1.0,
            revisit_prob: 0.3,
        },
    );
    // E11's storm: every source is down for the first 100 ms of every
    // 250 ms of virtual time.
    let clock = Arc::clone(&fleet.dataset().clock);
    let windows: Vec<OutageWindow> = (0..64)
        .map(|k| OutageWindow::at(Duration::from_millis(250 * k), Duration::from_millis(100)))
        .collect();
    let mut stormy = SourceRegistry::new();
    for source in fleet.dataset().registry.all().to_vec() {
        stormy
            .register(Arc::new(
                FlakySource::new(source, 0.0, Duration::ZERO, 1101)
                    .with_storms(Arc::clone(&clock), windows.clone()),
            ))
            .expect("unique source names");
    }
    fleet.dataset_mut().registry = stormy;
    // E11's sla policy.
    let report = fleet
        .with_sessions(workloads)
        .with_deadline_policy(DeadlinePolicy::uniform(Duration::from_millis(150)))
        .with_admission_control(AdmissionControl::max_open(32))
        .with_hedging(HedgePolicy {
            enabled: true,
            quantile: 0.95,
            warmup: 16,
        })
        .run()
        .expect("fleet serves");
    (report, sink.lines())
}

#[test]
fn single_threaded_engine_reproduces_the_worker_pool_engine() {
    let (report, export) = run_pinned_fleet();
    assert_eq!(report.sessions, 64);
    assert_eq!(report.gestures, 768);
    assert_eq!(report.latencies.len(), 692);
    assert_eq!(fnv_durations(&report.latencies), 0x06c0_863e_93f1_2553);
    assert_eq!(fnv_durations(&report.session_totals), 0xf3cc_4a0e_05a2_911f);
    assert_eq!(
        report.virtual_makespan(),
        Duration::from_nanos(1_157_271_993)
    );
    assert_eq!(
        report.classes,
        vec![ServeClassCounters {
            class: "listing".to_string(),
            admitted: 692,
            shed: 0,
            hedged: 3,
            hedges_won: 1,
            deadline_missed: 26,
            outages: 25,
        }]
    );
    let cache = report.cache;
    assert_eq!(
        (cache.probes, cache.hits, cache.misses, cache.evictions),
        (550, 535, 15, 0)
    );
    let sched = report.sched.expect("scheduler stats present");
    assert_eq!(
        (
            sched.events,
            sched.flights,
            sched.flight_joins,
            sched.max_open_flights
        ),
        (1411, 579, 113, 30)
    );
    assert_eq!(export.len(), 1299);
    assert_eq!(fnv1a(export.join("\n").bytes()), 0x8ac5_704d_dbe4_32e2);
}
