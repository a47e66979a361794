//! Loom model checks for the cross-session fetch coordinator.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`, when the serving
//! stack's locks (via `drugtree_sources::sync`) swap for loom's
//! instrumented types. Each `loom::model` closure is executed under
//! many perturbed thread schedules (the vendored loom is a
//! shuttle-style randomized-schedule stand-in; `LOOM_ITERS` overrides
//! the schedule count), so the invariants below are checked across
//! genuinely different interleavings, not one lucky run:
//!
//! * single-flight: every caller is a leader or a joiner, joiners see
//!   byte-identical rows, and exactly the leaders advance the clock;
//! * error broadcast: a failing leader fails every joiner — nobody
//!   hangs on a flight slot whose leader already gave up;
//! * coalescer window barrier: whatever the schedule batches, each
//!   participant gets exactly its own rows back and exactly one
//!   participant per dispatched batch advances the clock.
//!
//! Run with:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p drugtree-sources --test loom_model --release
//! ```

#![cfg(loom)]
// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree_sources::batcher::{batched_lookup_with_retry, Dispatch, RetryPolicy};
use drugtree_sources::latency::LatencyModel;
use drugtree_sources::serve::{CoordinatedFetch, FetchCoordinator, ServeConfig};
use drugtree_sources::source::{
    DataSource, FetchRequest, FetchResponse, MetricsSnapshot, SimulatedSource, SourceCapabilities,
    SourceKind,
};
use drugtree_sources::{Result as SourceResult, SourceError};
use drugtree_store::schema::{Column, Schema};
use drugtree_store::table::Table;
use drugtree_store::value::{Value, ValueType};
use std::sync::Arc;
use std::time::Duration;

fn source(max_batch: usize, n_rows: i64) -> SimulatedSource {
    let schema = Schema::new(vec![
        Column::required("k", ValueType::Int),
        Column::required("v", ValueType::Int),
    ]);
    let mut t = Table::new("t", schema);
    for i in 0..n_rows {
        t.insert(vec![Value::Int(i), Value::Int(i * 10)]).unwrap();
    }
    SimulatedSource::new(
        "s",
        SourceKind::Assay,
        t,
        "k",
        SourceCapabilities {
            max_batch,
            ..SourceCapabilities::full()
        },
        LatencyModel {
            base_rtt: Duration::from_millis(100),
            per_row: Duration::from_millis(1),
            per_row_scanned: Duration::ZERO,
            jitter: 0.0,
            seed: 0,
        },
    )
    .unwrap()
}

fn keys(range: std::ops::Range<i64>) -> Vec<Value> {
    range.map(Value::Int).collect()
}

fn sorted(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut out = rows.to_vec();
    out.sort();
    out
}

/// A source that fails every fetch with a transient error.
struct FailingSource(SimulatedSource);

impl DataSource for FailingSource {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn kind(&self) -> SourceKind {
        self.0.kind()
    }
    fn schema(&self) -> &Schema {
        self.0.schema()
    }
    fn key_column(&self) -> &str {
        self.0.key_column()
    }
    fn capabilities(&self) -> SourceCapabilities {
        self.0.capabilities()
    }
    fn fetch(&self, _request: &FetchRequest) -> SourceResult<FetchResponse> {
        Err(SourceError::Transient {
            source: self.0.name().to_string(),
            cost: Duration::from_millis(5),
        })
    }
    fn metrics(&self) -> MetricsSnapshot {
        self.0.metrics()
    }
    fn record_count(&self) -> usize {
        self.0.record_count()
    }
    fn latency_model(&self) -> LatencyModel {
        self.0.latency_model()
    }
}

/// Single-flight under perturbed schedules: whatever subset of the N
/// identical fetches joins the leader's flight, every caller sees the
/// leader's exact rows, leader/joiner tallies account for everyone,
/// and exactly the leaders advance the shared clock.
#[test]
fn single_flight_broadcast_is_identical_for_all_callers() {
    loom::model(|| {
        const N: usize = 3;
        let s = Arc::new(source(10, 12));
        let coord = Arc::new(FetchCoordinator::new(ServeConfig {
            single_flight: true,
            coalesce: false,
            delay_yields: 0,
        }));
        let ks = keys(0..6);

        let handles: Vec<_> = (0..N)
            .map(|_| {
                let (s, c, ks) = (Arc::clone(&s), Arc::clone(&coord), ks.clone());
                loom::thread::spawn(move || {
                    c.fetch(&*s, &ks, None, Dispatch::Sequential, RetryPolicy::none())
                        .unwrap()
                })
            })
            .collect();
        let results: Vec<CoordinatedFetch> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();

        let direct =
            batched_lookup_with_retry(&*s, &ks, None, Dispatch::Sequential, RetryPolicy::none())
                .unwrap();
        let stats = coord.stats();
        assert_eq!(stats.flights_led + stats.flights_joined, N as u64);
        for (i, cf) in results.iter().enumerate() {
            assert_eq!(sorted(&cf.rows), sorted(&direct.rows), "caller {i}");
        }
        let advancers = results.iter().filter(|r| r.advance).count() as u64;
        assert_eq!(advancers, stats.flights_led, "exactly leaders advance");
        assert_eq!(
            stats.requests_issued,
            results.iter().map(|r| r.requests as u64).sum::<u64>()
        );
    });
}

/// A failing leader must broadcast its error: every caller gets *an*
/// error (never a hang, never fabricated rows), and the flight slot
/// is gone afterwards so the next fetch starts a fresh flight.
#[test]
fn single_flight_error_reaches_every_caller_and_slot_is_reclaimed() {
    loom::model(|| {
        const N: usize = 3;
        let s = Arc::new(FailingSource(source(10, 12)));
        let coord = Arc::new(FetchCoordinator::new(ServeConfig {
            single_flight: true,
            coalesce: false,
            delay_yields: 0,
        }));
        let ks = keys(0..4);

        let handles: Vec<_> = (0..N)
            .map(|_| {
                let (s, c, ks) = (Arc::clone(&s), Arc::clone(&coord), ks.clone());
                loom::thread::spawn(move || {
                    c.fetch(&*s, &ks, None, Dispatch::Sequential, RetryPolicy::none())
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        for (i, r) in results.iter().enumerate() {
            assert!(r.is_err(), "caller {i} must see the broadcast error");
        }
        let stats = coord.stats();
        assert_eq!(stats.flights_led + stats.flights_joined, N as u64);
        // The slot was reclaimed: a fresh fetch leads its own flight
        // (it cannot join a dead one) and fails on its own terms.
        let before = stats.flights_led;
        assert!(coord
            .fetch(&*s, &ks, None, Dispatch::Sequential, RetryPolicy::none())
            .is_err());
        assert_eq!(coord.stats().flights_led, before + 1);
    });
}

/// Coalescer window barrier: three disjoint key windows race into the
/// bounded-delay batch window. Whatever the schedule merges, each
/// participant's rows are exactly its solo fetch, batches + joins
/// account for everyone, and exactly one participant per dispatched
/// batch advances the shared clock.
#[test]
fn coalescer_splits_rows_exactly_per_participant() {
    loom::model(|| {
        let windows = [0i64..4, 4..8, 8..12];
        let s = Arc::new(source(16, 24));
        let coord = Arc::new(FetchCoordinator::new(ServeConfig {
            single_flight: false,
            coalesce: true,
            delay_yields: 40,
        }));

        let handles: Vec<_> = windows
            .clone()
            .map(|w| {
                let (s, c) = (Arc::clone(&s), Arc::clone(&coord));
                let ks = keys(w);
                loom::thread::spawn(move || {
                    c.fetch(&*s, &ks, None, Dispatch::Sequential, RetryPolicy::none())
                        .unwrap()
                })
            })
            .into_iter()
            .collect();
        let results: Vec<CoordinatedFetch> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();

        let stats = coord.stats();
        for (w, cf) in windows.iter().zip(&results) {
            let direct = batched_lookup_with_retry(
                &*s,
                &keys(w.clone()),
                None,
                Dispatch::Sequential,
                RetryPolicy::none(),
            )
            .unwrap();
            assert_eq!(
                sorted(&cf.rows),
                sorted(&direct.rows),
                "window {w:?} must get exactly its own rows"
            );
        }
        assert_eq!(
            stats.batches + stats.batch_joins,
            windows.len() as u64,
            "every participant led or joined a batch"
        );
        let advancers = results.iter().filter(|r| r.advance).count() as u64;
        assert_eq!(advancers, stats.batches, "one clock advance per batch");
    });
}

/// The fleet scheduler's event queue under perturbed schedules: a
/// coalescer completion and a deadline expiry pushed from racing
/// producer threads must both reach the blocked coordinator — no lost
/// wakeup whichever side wins the race with the consumer's
/// empty-check-then-park window, and whichever of them races `close`.
#[test]
fn event_queue_never_loses_completion_racing_deadline_expiry() {
    use drugtree_sources::sched::EventQueue;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Ev {
        CoalescerDone,
        DeadlineExpired,
    }

    loom::model(|| {
        let q = Arc::new(EventQueue::new());
        let completion = {
            let q = Arc::clone(&q);
            loom::thread::spawn(move || q.push(Ev::CoalescerDone))
        };
        let expiry = {
            let q = Arc::clone(&q);
            loom::thread::spawn(move || {
                q.push(Ev::DeadlineExpired);
                // The expiry side also initiates shutdown, racing the
                // consumer's drain: close must never drop the queued
                // completion. (Queued: an event pushed after the close
                // and the drain is not lost, it is late — so shutdown
                // waits for the other producer.)
                completion.join().unwrap();
                q.close();
            })
        };

        // The coordinator blocks for both events; `pop` may only
        // return `None` once the queue is closed *and* drained.
        let mut seen = std::collections::HashSet::new();
        while seen.len() < 2 {
            let ev = q
                .pop()
                .expect("event lost: pop returned None before both arrived");
            seen.insert(ev);
        }
        expiry.join().unwrap();

        assert!(seen.contains(&Ev::CoalescerDone));
        assert!(seen.contains(&Ev::DeadlineExpired));
        assert_eq!(q.pop(), None, "closed and drained");
        let stats = q.stats();
        assert_eq!(stats.pushed, 2);
        assert_eq!(stats.popped, 2);
    });
}
