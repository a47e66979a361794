//! The serving API: session fleets over one shared executor.
//!
//! [`FleetBuilder`] is the public face of the event-driven scheduler
//! in [`crate::sched`]: it owns a dataset/executor pair, takes a fleet
//! of [`SessionWorkload`]s, and drives every session as a poll-able
//! state machine on the virtual clock — 4k–16k Zipf sessions replay
//! deterministically on one thread. The builder's `with_*` methods
//! opt into the production failure scenarios (client deadlines,
//! admission control with load shedding, hedged requests, graceful
//! outage degradation); [`FleetBuilder::run`] returns a
//! [`ServeReport`] whose per-class [`ServeClassCounters`] expose the
//! shed/hedged/deadline-missed counts, also emitted to any attached
//! observer as `{"event":"serve"}` JSONL records for `drugtree top`.

use crate::sched::{run_fleet, SchedStats, SchedulerConfig};
use crate::system::{DrugTree, DrugTreeError};
use drugtree_mobile::{MobileError, SessionWorkload};
use drugtree_query::cache::CacheStats;
use drugtree_query::obs::ServeClassCounters;
use drugtree_query::trace::Observer;
use drugtree_query::{Dataset, Executor};
use drugtree_sources::clock::wall_now;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

pub use crate::sched::{AdmissionControl, DeadlinePolicy, HedgePolicy};

/// Errors from the serving layer.
///
/// Marked `#[non_exhaustive]`: downstream matches must keep a wildcard
/// arm. Wrapped lower-layer errors are reachable through
/// [`std::error::Error::source`].
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// A session's script is at fault: a gesture failed to begin
    /// (e.g. an unknown node) or its query is one no retry can answer
    /// (e.g. an unknown column).
    Session {
        /// The failing session's index.
        session: usize,
        /// The underlying mobile-layer error.
        source: MobileError,
    },
    /// The fleet was misconfigured.
    Config(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Session { session, source } => {
                write!(f, "session {session} failed: {source}")
            }
            ServeError::Config(msg) => write!(f, "fleet misconfigured: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Session { source, .. } => Some(source),
            ServeError::Config(_) => None,
        }
    }
}

impl From<ServeError> for DrugTreeError {
    fn from(e: ServeError) -> DrugTreeError {
        DrugTreeError::Serve(e.to_string())
    }
}

/// What a serving run measured.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Concurrent sessions driven.
    pub sessions: usize,
    /// Total gestures replayed across all sessions.
    pub gestures: usize,
    /// Real (wall-clock) time the run took. The only
    /// machine-dependent field — exclude it when comparing replays.
    pub wall: Duration,
    /// Charged latency of every query-bearing interaction (including
    /// degraded ones), unsorted.
    pub latencies: Vec<Duration>,
    /// Per-session virtual completion time: the sum of every
    /// interaction's charged latency in that session. Sessions are
    /// independent clients, so they overlap; the fleet's virtual
    /// makespan is the maximum entry.
    pub session_totals: Vec<Duration>,
    /// Cache counters after the run.
    pub cache: CacheStats,
    /// Per-class shed/hedge/deadline/outage counters, in class display
    /// order, omitting classes that saw no traffic.
    pub classes: Vec<ServeClassCounters>,
    /// Scheduler counters (events, flights).
    pub sched: Option<SchedStats>,
}

impl ServeReport {
    /// The fleet's virtual makespan: the slowest session's completion
    /// time (sessions overlap; the server is done when the last one is).
    pub fn virtual_makespan(&self) -> Duration {
        self.session_totals
            .iter()
            .copied()
            .max()
            .unwrap_or_default()
    }

    /// Gestures per *virtual* second: total gestures over the virtual
    /// makespan. Deterministic and machine-independent, like every
    /// latency in the experiment suite; wall-clock CPU is
    /// `benchmark/`'s job.
    pub fn throughput(&self) -> f64 {
        let secs = self.virtual_makespan().as_secs_f64();
        if secs > 0.0 {
            self.gestures as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// Total queries shed by admission control, across classes.
    pub fn total_shed(&self) -> u64 {
        self.classes.iter().map(|c| c.shed).sum()
    }

    /// Total deadline misses (hard timeouts plus soft overruns).
    pub fn total_deadline_missed(&self) -> u64 {
        self.classes.iter().map(|c| c.deadline_missed).sum()
    }

    /// Total hedged queries across classes.
    pub fn total_hedged(&self) -> u64 {
        self.classes.iter().map(|c| c.hedged).sum()
    }

    /// Total outage-degraded queries across classes.
    pub fn total_outages(&self) -> u64 {
        self.classes.iter().map(|c| c.outages).sum()
    }
}

/// Builder for a deterministic session-fleet run.
///
/// ```
/// use drugtree::prelude::*;
///
/// let bundle = SyntheticBundle::generate(&WorkloadSpec::default().leaves(32).ligands(8));
/// let fleet = DrugTree::builder()
///     .dataset(bundle.build_dataset())
///     .optimizer(OptimizerConfig::full())
///     .build()
///     .unwrap()
///     .fleet();
/// let workloads = zipf_sessions(
///     &fleet.dataset().tree,
///     &fleet.dataset().index,
///     8,
///     &GestureConfig { len: 10, ..Default::default() },
/// );
/// let report = fleet
///     .with_sessions(workloads)
///     .with_deadline_policy(DeadlinePolicy::uniform(std::time::Duration::from_secs(2)))
///     .run()
///     .unwrap();
/// assert_eq!(report.sessions, 8);
/// ```
pub struct FleetBuilder {
    dataset: Dataset,
    executor: Executor,
    workloads: Vec<SessionWorkload>,
    config: SchedulerConfig,
}

impl FleetBuilder {
    pub(crate) fn new(dataset: Dataset, executor: Executor) -> FleetBuilder {
        FleetBuilder {
            dataset,
            executor,
            workloads: Vec::new(),
            config: SchedulerConfig::default(),
        }
    }

    /// The fleet's workloads (replaces any previous set).
    pub fn with_sessions(mut self, workloads: Vec<SessionWorkload>) -> FleetBuilder {
        self.workloads = workloads;
        self
    }

    /// Client deadlines.
    pub fn with_deadline_policy(mut self, deadline: DeadlinePolicy) -> FleetBuilder {
        self.config.deadline = deadline;
        self
    }

    /// Admission control and load shedding.
    pub fn with_admission_control(mut self, admission: AdmissionControl) -> FleetBuilder {
        self.config.admission = admission;
        self
    }

    /// Hedged requests against replicas.
    pub fn with_hedging(mut self, hedging: HedgePolicy) -> FleetBuilder {
        self.config.hedging = hedging;
        self
    }

    /// Accepted and ignored: the scheduler is one thread. Inert:
    /// called by `benchmark/`, which this tree may not edit; goes when
    /// a benchmark issue releases it.
    pub fn with_workers(self, _workers: usize) -> FleetBuilder {
        self
    }

    /// Attach an observer (e.g. a
    /// [`FleetObserver`](drugtree_query::obs::FleetObserver) with a
    /// JSONL export) to the executor; the run's per-class serve
    /// counters are rolled up to it at the end.
    pub fn with_observer(mut self, observer: Arc<dyn Observer>) -> FleetBuilder {
        self.executor.set_observer(observer);
        self
    }

    /// The dataset the fleet will serve (e.g. for generating
    /// workloads over its tree).
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Mutable dataset access, for failure injection: tests swap the
    /// source registry for
    /// [`FlakySource`](drugtree_sources::flaky::FlakySource)-wrapped
    /// replicas with scripted outage storms.
    pub fn dataset_mut(&mut self) -> &mut Dataset {
        &mut self.dataset
    }

    /// Run the fleet to completion and roll up the measurements. The
    /// executor's cache is served as it stands: what the system
    /// cached before [`DrugTree::fleet`] answers the fleet too.
    pub fn run(self) -> Result<ServeReport, ServeError> {
        let started = wall_now();
        let outcome = run_fleet(&self.dataset, &self.executor, &self.workloads, &self.config)?;
        let wall = wall_now().duration_since(started);
        if let Some(observer) = self.executor.observer() {
            for class in &outcome.classes {
                observer.on_serve_rollup(class);
            }
        }
        Ok(ServeReport {
            sessions: self.workloads.len(),
            gestures: outcome.gestures,
            wall,
            latencies: outcome.latencies,
            session_totals: outcome.session_totals,
            cache: self.executor.cache_stats(),
            classes: outcome.classes,
            sched: Some(outcome.stats),
        })
    }
}

impl DrugTree {
    /// Convert into a fleet builder: the entry point of the serving
    /// API.
    pub fn fleet(self) -> FleetBuilder {
        let (dataset, executor) = self.into_parts();
        FleetBuilder::new(dataset, executor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_mobile::fleet_workload::{hot_clade_ranking, zipf_sessions};
    use drugtree_mobile::gestures::GestureConfig;
    use drugtree_mobile::{Gesture, NetworkProfile};
    use drugtree_query::ast::Scope;
    use drugtree_query::cache::CacheConfig;
    use drugtree_query::optimizer::OptimizerConfig;
    use drugtree_query::{Query, QueryError};
    use drugtree_sources::flaky::{FlakySource, OutageWindow};
    use drugtree_sources::SourceRegistry;
    use drugtree_workload::{SyntheticBundle, WorkloadSpec};

    fn system() -> DrugTree {
        let bundle = SyntheticBundle::generate(&WorkloadSpec::default().leaves(32).ligands(8));
        DrugTree::builder()
            .dataset(bundle.build_dataset())
            .optimizer(OptimizerConfig::full())
            .build()
            .unwrap()
    }

    fn fleet_workloads(fleet: &FleetBuilder, sessions: usize, len: usize) -> Vec<SessionWorkload> {
        zipf_sessions(
            &fleet.dataset().tree,
            &fleet.dataset().index,
            sessions,
            &GestureConfig {
                len,
                ..Default::default()
            },
        )
    }

    #[test]
    fn fleet_serves_zipf_sessions() {
        let fleet = system().fleet();
        let workloads = fleet_workloads(&fleet, 4, 20);
        let report = fleet.with_sessions(workloads).run().unwrap();
        assert_eq!(report.sessions, 4);
        assert_eq!(report.gestures, 80);
        assert!(!report.latencies.is_empty());
        assert!(report.throughput() > 0.0);
        let stats = report.cache;
        assert_eq!(stats.hits + stats.misses, stats.probes);
        let sched = report.sched.expect("scheduler stats present");
        assert!(sched.flights > 0);
        assert!(sched.events as usize >= report.gestures);
        assert!(!report.classes.is_empty(), "query classes saw traffic");
        assert_eq!(report.total_shed(), 0, "no admission control configured");
    }

    /// The fleet's cache is the configured one, whole: 16 entries hold
    /// 16 disjoint clades, so nothing is evicted and every revisit hits.
    #[test]
    fn a_fleet_keeps_the_whole_cache_budget() {
        let bundle = SyntheticBundle::generate(&WorkloadSpec::default().leaves(32).ligands(8));
        let fleet = DrugTree::builder()
            .dataset(bundle.build_dataset())
            .optimizer(OptimizerConfig::full())
            .cache(CacheConfig {
                max_entries: 16,
                max_rows: 100_000,
            })
            // No statistics, so no clade is pruned as empty: each of
            // the 32 gestures probes.
            .with_stats(false)
            .build()
            .unwrap()
            .fleet();
        // A leaf is the smallest clade, and no two leaves overlap. Each
        // session visits four of its own, then all four again.
        let workloads: Vec<SessionWorkload> = fleet.dataset().tree.leaves()[..16]
            .chunks(4)
            .enumerate()
            .map(|(session, own)| SessionWorkload {
                session,
                network: NetworkProfile::CELL_4G,
                script: own
                    .iter()
                    .chain(own)
                    .map(|&node| Gesture::Expand { node })
                    .collect(),
            })
            .collect();
        let cache = fleet.with_sessions(workloads).run().unwrap().cache;
        assert_eq!(cache.evictions, 0, "16 entries fit a 16-entry cache");
        assert_eq!((cache.misses, cache.hits), (16, 16), "every revisit hits");
    }

    /// `fleet()` hands the system's cache over as it stands.
    #[test]
    fn a_fleet_is_served_from_what_the_system_already_cached() {
        let system = system();
        let clade = hot_clade_ranking(&system.dataset().tree, &system.dataset().index)[0];
        let scope = Scope::Interval(system.dataset().index.interval(clade));
        system.execute(&Query::activities(scope)).unwrap();
        let workload = SessionWorkload {
            session: 0,
            network: NetworkProfile::CELL_4G,
            script: vec![Gesture::Expand { node: clade }],
        };
        let cache = system
            .fleet()
            .with_sessions(vec![workload])
            .run()
            .unwrap()
            .cache;
        assert_eq!(
            (cache.misses, cache.hits),
            (1, 1),
            "the solo miss, the fleet hit"
        );
    }

    #[test]
    fn fleet_replays_are_deterministic() {
        let run = || {
            let fleet = system().fleet();
            let workloads = fleet_workloads(&fleet, 8, 15);
            let report = fleet.with_sessions(workloads).run().unwrap();
            (
                report.session_totals.clone(),
                report.latencies.clone(),
                format!("{:?}", report.classes),
                report.cache,
            )
        };
        assert_eq!(run(), run(), "two fleet replays must match exactly");
    }

    #[test]
    fn admission_control_sheds_per_class() {
        let fleet = system().fleet();
        // Eight sessions expanding eight *distinct* clades at the same
        // virtual instant: distinct query keys, so only one flight can
        // be open and the rest are shed.
        let clades = hot_clade_ranking(&fleet.dataset().tree, &fleet.dataset().index);
        assert!(clades.len() >= 8, "need distinct clades for the test");
        let workloads: Vec<SessionWorkload> = clades
            .iter()
            .take(8)
            .enumerate()
            .map(|(i, node)| SessionWorkload {
                session: i,
                network: NetworkProfile::CELL_4G,
                script: vec![Gesture::Expand { node: *node }],
            })
            .collect();
        let report = fleet
            .with_sessions(workloads)
            .with_admission_control(AdmissionControl::max_open(1))
            .run()
            .unwrap();
        assert_eq!(report.total_shed(), 7, "one admitted, seven shed");
        let admitted: u64 = report.classes.iter().map(|c| c.admitted).sum();
        assert_eq!(admitted, 1);
        // Shed queries still produce (degraded) latencies.
        assert_eq!(report.latencies.len(), 8);
    }

    #[test]
    fn deadlines_expire_and_are_counted() {
        let fleet = system().fleet();
        let workloads = fleet_workloads(&fleet, 4, 10);
        let deadline = Duration::from_nanos(1);
        let report = fleet
            .with_sessions(workloads)
            .with_deadline_policy(DeadlinePolicy::uniform(deadline))
            .run()
            .unwrap();
        assert!(report.total_deadline_missed() > 0);
        // Every query either timed out (charged exactly the deadline)
        // or was a view gesture; timed-out queries charge the deadline.
        assert!(report.latencies.iter().all(|l| *l >= deadline));
    }

    #[test]
    fn hedging_arms_on_the_learned_percentile() {
        let fleet = system().fleet();
        // Enough queries per class to pass the warm-up, and one past the
        // class's 95th percentile.
        let workloads = fleet_workloads(&fleet, 16, 40);
        let report = fleet
            .with_sessions(workloads)
            .with_hedging(HedgePolicy { enabled: true })
            .run()
            .unwrap();
        let hedged = report.total_hedged();
        let won: u64 = report.classes.iter().map(|c| c.hedges_won).sum();
        assert!(
            hedged > 0,
            "a hedge past the class's 95th percentile must fire"
        );
        assert!(won <= hedged);
    }

    #[test]
    fn outage_storms_degrade_gracefully() {
        let mut fleet = system().fleet();
        let workloads = fleet_workloads(&fleet, 4, 12);
        // Wrap every source in a permanent storm: all fetches fail.
        let clock = Arc::clone(&fleet.dataset().clock);
        let mut stormy = SourceRegistry::new();
        for source in fleet.dataset().registry.all().to_vec() {
            stormy
                .register(Arc::new(
                    FlakySource::new(source, 0.0, Duration::from_millis(200), 7).with_storms(
                        Arc::clone(&clock),
                        vec![OutageWindow::at(
                            Duration::ZERO,
                            Duration::from_secs(1 << 30),
                        )],
                    ),
                ))
                .unwrap();
        }
        fleet.dataset_mut().registry = stormy;
        let report = fleet.with_sessions(workloads).run().unwrap();
        assert!(
            report.total_outages() > 0,
            "storms must degrade some queries"
        );
        assert_eq!(report.sessions, 4, "the fleet rides through the storm");
    }

    #[test]
    fn a_bad_query_is_an_error_not_an_outage() {
        let fleet = system().fleet();
        // Valid query text, but the similarity reference is no SMILES:
        // the executor rejects it before any source is asked.
        let bad = Query::parse("activities similar to 'C(' >= 0.5").unwrap();
        let clade = hot_clade_ranking(&fleet.dataset().tree, &fleet.dataset().index)[0];
        let workloads: Vec<SessionWorkload> = (0..2)
            .map(|session| SessionWorkload {
                session,
                network: NetworkProfile::CELL_4G,
                script: vec![
                    Gesture::Expand { node: clade },
                    Gesture::RunQuery(Box::new(bad.clone())),
                ],
            })
            .collect();
        // The solo replay of the script fails on the query ...
        let solo_system = system();
        let mut solo = solo_system.mobile_session(NetworkProfile::CELL_4G);
        solo.apply(&workloads[0].script[0]).unwrap();
        let solo_err = solo.apply(&workloads[0].script[1]).unwrap_err();
        // ... and so does the fleet, with the same error.
        let err = fleet.with_sessions(workloads).run().unwrap_err();
        match err {
            ServeError::Session { session, source } => {
                assert_eq!(session, 0, "the flight's first participant");
                assert_eq!(source, solo_err);
                assert!(matches!(
                    source,
                    MobileError::Query(QueryError::BadSimilarityReference(_))
                ));
            }
            other => panic!("expected a session error, got {other:?}"),
        }
    }

    #[test]
    fn serve_error_chains_sources() {
        let fleet = system().fleet();
        let bogus = SessionWorkload {
            session: 0,
            network: NetworkProfile::WIFI,
            script: vec![Gesture::Expand {
                node: drugtree_phylo::NodeId(u32::MAX),
            }],
        };
        let err = fleet.with_sessions(vec![bogus]).run().unwrap_err();
        match &err {
            ServeError::Session { session, .. } => assert_eq!(*session, 0),
            other => panic!("expected session error, got {other:?}"),
        }
        assert!(
            std::error::Error::source(&err).is_some(),
            "source() chains to the mobile error"
        );
    }
}
