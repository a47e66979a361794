//! Pins the fleet scheduler's output for one fixed fleet that turns on
//! everything at once: E11's `sla` policy (deadlines, admission
//! control, hedging), a `FlakySource` outage storm, and a
//! `FleetObserver` with a JSONL export attached. A run must reproduce
//! every constant below bit for bit: same latencies, same session
//! timelines, same per-class counters, same cache traffic, same
//! event/flight counts and — because observer emissions are ordered by
//! the scheduler — the same export bytes.
//!
//! The constants were recorded from this tree, where an expand asks for
//! one glyph row per drawn item. A change that moves what a gesture
//! ships moves every session's virtual timeline, and so every constant;
//! it re-records them and says why. The export hash was re-recorded
//! once more when the cache probe's `insert` token left the plan shape:
//! the four plan fingerprints in the export changed, one for one, and
//! no other byte. That the fleet answers what each
//! session's solo replay answers is `tests/session_replay.rs`'s claim.

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
        .with_hedging(HedgePolicy { enabled: true })
        .run()
        .expect("fleet serves");
    (report, sink.lines())
}

#[test]
fn the_pinned_fleet_replays_bit_for_bit() {
    let (report, export) = run_pinned_fleet();
    assert_eq!(report.sessions, 64);
    assert_eq!(report.gestures, 768);
    assert_eq!(report.latencies.len(), 692);
    assert_eq!(fnv_durations(&report.latencies), 0x0fba_9ba9_4e1f_6b21);
    assert_eq!(fnv_durations(&report.session_totals), 0xf320_e739_50e3_422b);
    assert_eq!(
        report.virtual_makespan(),
        Duration::from_nanos(1_136_737_628)
    );
    // Expands ask for glyphs (`aggregate`); inspects of a viewport
    // whose leaves are all drawn still list rows (`listing`).
    assert_eq!(
        report.classes,
        vec![
            ServeClassCounters {
                class: "listing".to_string(),
                admitted: 65,
                shed: 0,
                hedged: 3,
                hedges_won: 0,
                deadline_missed: 6,
                outages: 0,
            },
            ServeClassCounters {
                class: "aggregate".to_string(),
                admitted: 627,
                shed: 0,
                hedged: 1,
                hedges_won: 0,
                deadline_missed: 17,
                outages: 24,
            }
        ]
    );
    let cache = report.cache;
    assert_eq!(
        (cache.probes, cache.hits, cache.misses, cache.evictions),
        (509, 492, 17, 0)
    );
    let sched = report.sched.expect("scheduler stats present");
    assert_eq!(
        (
            sched.events,
            sched.flights,
            sched.flight_joins,
            sched.max_open_flights
        ),
        (1370, 538, 154, 30)
    );
    assert_eq!(export.len(), 1278);
    assert_eq!(fnv1a(export.join("\n").bytes()), 0xBECE_23F7_7D47_5AAC);
}
