//! The six workloads. Names are normative: later issues cite them.
//!
//! Every workload is a sequence of identical *reps*. A rep sets a
//! fresh system up (timed as set-up), generates its operations from
//! the seed, then runs its timed section; because inputs and system
//! are the same each time, every count and every virtual-clock figure
//! of a rep must repeat exactly, and the harness fails the run when one
//! does not.
//!
//! The deployment itself (tree, ligands, activity records) is part of
//! a workload's definition, as its leaf count is, and comes from
//! [`DEPLOYMENT_SEED`]; `--seed` keys the operations run against it.
//! A gesture or query costs in proportion to the rows under its clade,
//! and two random trees of one size differ by a factor of two in how
//! big their top clades are, and by a third in resident memory: with
//! the deployment seeded per run, no two runs would measure the same
//! thing, and no bound on `peak_rss_mb` could hold.

pub mod fleet;
pub mod query;
pub mod solo;

use crate::trace::Tracer;
use drugtree::prelude::{DrugTree, OptimizerConfig, SyntheticBundle, WorkloadSpec};
use drugtree_query::cache::CacheConfig;
use drugtree_query::trace::{GestureObservation, MetricsRegistry, Observer, QueryTrace, Stage};
use drugtree_sources::clock::wall_now;
use drugtree_sources::source::DataSource;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetHot,
    FleetMiss,
    SoloBrowse,
    QueryCold,
    QueryWarm,
    QueryLocal,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::FleetHot,
        Workload::FleetMiss,
        Workload::SoloBrowse,
        Workload::QueryCold,
        Workload::QueryWarm,
        Workload::QueryLocal,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetHot => "fleet_hot",
            Workload::FleetMiss => "fleet_miss",
            Workload::SoloBrowse => "solo_browse",
            Workload::QueryCold => "query_cold",
            Workload::QueryWarm => "query_warm",
            Workload::QueryLocal => "query_local",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percentile `wall_us_tail` reports on this workload, fixed
    /// so that the metric means the same thing on every run: the
    /// highest one that a rep's separately timed calls (1,500 queries,
    /// 160 gestures) leave ten samples beyond. A fleet is one call
    /// from outside and has a single sample, its wall time per
    /// gesture, which every percentile returns.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::FleetHot | Workload::FleetMiss => 100.0,
            Workload::SoloBrowse => 90.0,
            Workload::QueryCold | Workload::QueryWarm | Workload::QueryLocal => 99.0,
        }
    }

    /// The system this workload sets up. `--smoke` shrinks trees too;
    /// full-size runs never do (sizes are part of a workload's name).
    pub fn system_spec(self, smoke: bool) -> SystemSpec {
        let (leaves, smoke_leaves) = match self {
            Workload::FleetHot => (256, 256),
            Workload::FleetMiss => (1024, 1024),
            Workload::SoloBrowse => (16_384, 2048),
            Workload::QueryCold | Workload::QueryWarm | Workload::QueryLocal => (4096, 512),
        };
        SystemSpec {
            leaves: if smoke { smoke_leaves } else { leaves },
            // Smaller than fleet_miss's working set once split over
            // the serving cache's 8 shards: nearly every probe misses
            // and evicts. Every other workload keeps the default.
            cache: (self == Workload::FleetMiss).then_some(CacheConfig {
                max_entries: 64,
                max_rows: 1024,
                ..CacheConfig::default()
            }),
            local_structures: self == Workload::QueryLocal,
        }
    }

    /// One rep: set-up, then the timed section.
    pub fn rep(self, opts: &RepOptions, sink: Option<&mut TraceSink>) -> Rep {
        match self {
            Workload::FleetHot | Workload::FleetMiss => fleet::rep(self, opts, sink),
            Workload::SoloBrowse => solo::rep(opts, sink),
            Workload::QueryCold | Workload::QueryWarm | Workload::QueryLocal => {
                query::rep(self, opts, sink)
            }
        }
    }

    /// Checks that need more than one rep's own data (run once, after
    /// the timed reps). Returns the number of failed checks.
    pub fn check_answers(self, opts: &RepOptions, first: &Rep) -> u64 {
        match self {
            Workload::QueryCold | Workload::QueryWarm | Workload::QueryLocal => {
                query::check_against_naive(self, opts, first)
            }
            // Fleet and solo reps are checked by their digests.
            _ => 0,
        }
    }
}

/// The system a workload runs against. Ligands are always a quarter of
/// the leaves.
pub struct SystemSpec {
    pub leaves: usize,
    /// `None` keeps the default cache.
    pub cache: Option<CacheConfig>,
    /// Build the materialized view and the columnar mirror.
    pub local_structures: bool,
}

/// Seed of every workload's deployment (see the module comment).
const DEPLOYMENT_SEED: u64 = 1101;

/// The deployment of `spec.leaves` leaves, as the workload crate
/// generates it.
pub fn deployment(spec: &SystemSpec) -> SyntheticBundle {
    SyntheticBundle::generate(
        &WorkloadSpec::default()
            .leaves(spec.leaves)
            .ligands(spec.leaves / 4)
            .seed(DEPLOYMENT_SEED),
    )
}

/// Generate the deployment and stand the system up, timing each step
/// (`inputs` is left for the caller).
pub fn build_system(
    spec: &SystemSpec,
    observer: Option<Arc<BenchObserver>>,
) -> (DrugTree, SetupTimes) {
    let t0 = wall_now();
    let bundle = deployment(spec);
    let t1 = wall_now();
    let dataset = bundle.build_dataset();
    let t2 = wall_now();
    let mut builder = DrugTree::builder()
        .dataset(dataset)
        .optimizer(OptimizerConfig::full());
    if let Some(cache) = spec.cache {
        builder = builder.cache(cache);
    }
    if spec.local_structures {
        builder = builder.with_matview().with_columnar();
    }
    if let Some(observer) = observer {
        builder = builder.with_observer(observer);
    }
    let system = builder.build().expect("the benchmark's system builds");
    let t3 = wall_now();
    let setup = SetupTimes {
        generate: t1 - t0,
        build_dataset: t2 - t1,
        build: t3 - t2,
        inputs: Duration::ZERO,
    };
    (system, setup)
}

/// What a rep is built from.
#[derive(Debug, Clone, Copy)]
pub struct RepOptions {
    pub seed: u64,
    /// `--smoke` sizes: small enough for a CI hook, not for numbers.
    pub smoke: bool,
}

/// Where set-up time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `SyntheticBundle::generate`.
    pub generate: Duration,
    /// `SyntheticBundle::build_dataset` (overlay integration, sources).
    pub build_dataset: Duration,
    /// `DrugTreeBuilder::build` (statistics, matview, columnar).
    pub build: Duration,
    /// Gesture scripts or query stream, and the session if any.
    pub inputs: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.generate + self.build_dataset + self.build + self.inputs
    }
}

/// What one rep measured.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup: SetupTimes,
    /// Gestures or queries attempted.
    pub ops: u64,
    /// Ops that returned `Err` or a degraded result.
    pub failed: u64,
    /// Wall time of the timed section.
    pub wall: Duration,
    /// CPU time (all threads) of the timed section.
    pub cpu: Duration,
    /// Wall time of each op, where ops are separate calls.
    pub op_wall_ns: Vec<u64>,
    /// Charged virtual latency of each query-bearing op.
    pub charged_ns: Vec<u64>,
    /// Virtual time the rep's client(s) needed: a fleet's makespan, a
    /// lone client's total.
    pub virtual_makespan: Duration,
    /// Counts that must repeat exactly from rep to rep.
    pub counts: BTreeMap<&'static str, u64>,
    /// Fleets only: times a worker found its mailbox empty and parked.
    /// Decided by the kernel's thread scheduling, not by the inputs,
    /// so it is the one count that need not repeat.
    pub mailbox_waits: u64,
    /// Digest of everything deterministic the rep returned.
    pub digest: u64,
    /// Digest of the answers alone, comparable across the three
    /// `query_*` workloads (0 where there are no query answers).
    pub answers_digest: u64,
    /// Fleet worker threads (0 when no fleet ran).
    pub workers: usize,
    /// `query_*` only: the digest of each query's answer, in stream
    /// order, for the check that runs some of them again.
    pub answer_digests: Vec<u64>,
}

/// Everything a traced run collects besides the reps themselves.
pub struct TraceSink {
    pub tracer: Tracer,
    /// Named wall-clock samples, pooled over reps.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Named single measurements; the last rep's value wins.
    pub scalars: BTreeMap<String, f64>,
}

impl TraceSink {
    pub fn new() -> TraceSink {
        TraceSink {
            tracer: Tracer::new(),
            samples: BTreeMap::new(),
            scalars: BTreeMap::new(),
        }
    }

    pub fn sample(&mut self, name: &str, value: f64) {
        match self.samples.get_mut(name) {
            Some(v) => v.push(value),
            None => {
                self.samples.insert(name.to_string(), vec![value]);
            }
        }
    }

    pub fn scalar(&mut self, name: &str, value: f64) {
        self.scalars.insert(name.to_string(), value);
    }
}

/// The observer a traced run installs: the library's own registry
/// (per-stage charged time, retries, rows fetched) plus the two sums
/// it does not keep.
#[derive(Default)]
pub struct BenchObserver {
    pub registry: MetricsRegistry,
    pub rows_returned: AtomicU64,
}

impl Observer for BenchObserver {
    fn on_query(&self, trace: &QueryTrace) {
        self.registry.record_trace(trace);
    }

    fn on_gesture(&self, gesture: &GestureObservation) {
        self.registry.record_gesture(gesture);
        self.rows_returned
            .fetch_add(gesture.rows as u64, Ordering::Relaxed);
    }
}

/// Stages of the library's own query trace, under the names the
/// `query.stage_charged_ms.*` metrics give them.
const STAGES: [(&str, &[Stage]); 6] = [
    ("plan", &[Stage::Plan]),
    ("cache_probe", &[Stage::CacheProbe]),
    // A coalesced fetch is a fetch the coordinator shared.
    ("fetch", &[Stage::Fetch, Stage::Coalesce]),
    ("compute", &[Stage::Compute]),
    ("overlay", &[Stage::Overlay]),
    ("finish", &[Stage::Finish]),
];

/// What a traced run's observer has summed so far.
#[derive(Default)]
pub struct ObserverTotals {
    stage_nanos: [u64; STAGES.len()],
    retries: u64,
    rows_fetched: u64,
    rows_returned: u64,
}

impl ObserverTotals {
    pub fn read(observer: &BenchObserver) -> ObserverTotals {
        let registry = &observer.registry;
        ObserverTotals {
            stage_nanos: STAGES
                .map(|(_, stages)| stages.iter().map(|s| registry.stage_nanos(*s)).sum()),
            retries: registry.retries.get(),
            rows_fetched: registry.rows_fetched.get(),
            rows_returned: observer.rows_returned.load(Ordering::Relaxed),
        }
    }

    /// Record, per op, what was added since `before`.
    pub fn record_since(&self, before: &ObserverTotals, sink: &mut TraceSink, ops: u64) {
        let per_op = |now: u64, then: u64| (now - then) as f64 / ops.max(1) as f64;
        for (i, (name, _)) in STAGES.iter().enumerate() {
            sink.scalar(
                &format!("query.stage_charged_ms.{name}"),
                per_op(self.stage_nanos[i], before.stage_nanos[i]) / 1e6,
            );
        }
        sink.scalar(
            "sources.retries_per_op",
            per_op(self.retries, before.retries),
        );
        sink.scalar(
            "query.rows_fetched_per_op",
            per_op(self.rows_fetched, before.rows_fetched),
        );
        sink.scalar(
            "query.rows_returned_per_op",
            per_op(self.rows_returned, before.rows_returned),
        );
    }
}

/// Requests served and rows shipped by `sources` so far.
pub fn source_totals(sources: &[Arc<dyn DataSource>]) -> (u64, u64) {
    sources
        .iter()
        .map(|s| s.metrics())
        .fold((0, 0), |(requests, rows), m| {
            (requests + m.requests, rows + m.rows_returned)
        })
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
