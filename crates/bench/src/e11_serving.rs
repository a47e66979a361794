//! E11 (extension): concurrent serving — throughput and per-query
//! cost as the session count grows, now at fleet scale.
//!
//! The poster's system served one mobile client; a deployed server
//! faces thousands at once, clustered on the same hot protein
//! families. The experiment has three sections, all on Zipf-correlated
//! session fleets:
//!
//! 1. **Serving modes** (small fleets) — *naive* per-session systems
//!    (per-leaf singleton round-trips, no cache), *per-session-opt*
//!    (full optimizer, private caches: M sessions pay for the same hot
//!    clades M times), and *fleet* (one [`FleetBuilder`] run over one
//!    shared executor: one semantic cache, virtual-time flight
//!    coalescing — one session's miss warms every session).
//! 2. **Fleet scale** — the shared scheduler alone from 64 up to
//!    16,384 sessions; the event-driven design runs them all on one
//!    thread.
//! 3. **Failure scenarios** — an *sla* row (deadlines + admission
//!    control + hedging) and a *storm* row (scripted
//!    [`FlakySource`] outage
//!    windows, served through as graceful partial results). The
//!    `degraded` column reads `shed/deadline/hedged/outage`.
//!
//! All numbers are **virtual-clock** and deterministic — the scheduler
//! replays a fleet byte-identically (the full run proves it by
//! replaying the 4,096-session cell twice).
//! Throughput is gestures per virtual second of makespan; wall-clock
//! CPU is measured separately by `benchmark/`.

use crate::table::ExperimentTable;
use crate::{fmt_ms, percentile, RunConfig};
use drugtree::prelude::*;
use drugtree_sources::flaky::{FlakySource, OutageWindow};
use drugtree_sources::SourceRegistry;
use std::sync::Arc;
use std::time::Duration;

/// The serving modes of the small-fleet comparison.
const MODES: [&str; 3] = ["naive", "per-session-opt", "fleet"];

/// What one (sessions, mode) cell measured.
struct CellOutcome {
    /// Charged latency of every query-bearing interaction.
    latencies: Vec<Duration>,
    /// Virtual makespan: the slowest session's total charged time.
    makespan: Duration,
    /// Upstream source requests issued by the whole fleet.
    requests: u64,
    /// Query-bearing gestures replayed by the whole fleet.
    queries: usize,
    /// `shed/deadline/hedged/outage` counters, `-` for isolated modes.
    degraded: String,
}

impl CellOutcome {
    fn throughput(&self, gestures: usize) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs > 0.0 {
            gestures as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    fn rt_per_query(&self) -> f64 {
        self.requests as f64 / self.queries.max(1) as f64
    }

    fn row(&self, sessions: usize, mode: &str, gestures: usize) -> Vec<String> {
        vec![
            sessions.to_string(),
            mode.to_string(),
            format!("{:.1}", self.throughput(gestures)),
            fmt_ms(percentile(&self.latencies, 0.50)),
            fmt_ms(percentile(&self.latencies, 0.95)),
            fmt_ms(percentile(&self.latencies, 0.99)),
            format!("{:.2}", self.rt_per_query()),
            self.requests.to_string(),
            self.degraded.clone(),
        ]
    }
}

/// Gestures that run a query (mode-independent: derived from the
/// script, not from any executor's plan shape).
fn is_query(g: &Gesture) -> bool {
    matches!(
        g,
        Gesture::Expand { .. } | Gesture::InspectViewport | Gesture::RunQuery(_)
    )
}

fn count_queries(workloads: &[SessionWorkload]) -> usize {
    workloads
        .iter()
        .flat_map(|w| &w.script)
        .filter(|g| is_query(g))
        .count()
}

/// Replay each session against its own private system (naive or
/// optimized): no sharing anywhere, the M-copies baseline.
fn run_isolated(
    bundle: &SyntheticBundle,
    optimizer: OptimizerConfig,
    workloads: &[SessionWorkload],
) -> CellOutcome {
    let mut latencies = Vec::new();
    let mut makespan = Duration::ZERO;
    let mut requests = 0u64;
    let mut queries = 0usize;
    for w in workloads {
        let system = DrugTree::builder()
            .dataset(bundle.build_dataset())
            .optimizer(optimizer)
            .build()
            .expect("system builds");
        let mut session = system.mobile_session(w.network);
        let mut total = Duration::ZERO;
        for g in &w.script {
            let r = session.apply(g).expect("gesture applies");
            total += r.charged_latency;
            if is_query(g) {
                queries += 1;
                latencies.push(r.charged_latency);
            }
        }
        makespan = makespan.max(total);
        requests += system
            .dataset()
            .registry
            .all()
            .iter()
            .map(|s| s.metrics().requests)
            .sum::<u64>();
    }
    CellOutcome {
        latencies,
        makespan,
        requests,
        queries,
        degraded: "-".to_string(),
    }
}

/// The knobs a shared-scheduler cell can turn.
#[derive(Default)]
struct FleetScenario {
    deadline: Option<DeadlinePolicy>,
    admission: Option<AdmissionControl>,
    hedging: Option<HedgePolicy>,
    storm: bool,
}

/// Replay the whole fleet through the event-driven scheduler.
fn run_fleet_cell(
    bundle: &SyntheticBundle,
    workloads: &[SessionWorkload],
    scenario: &FleetScenario,
) -> CellOutcome {
    let mut fleet = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .optimizer(OptimizerConfig::full())
        .build()
        .expect("system builds")
        .fleet();
    if scenario.storm {
        // Scripted outage storms: every source flickers off for the
        // first 100ms of every 250ms of virtual time, starting
        // mid-storm at t=0 so the cold-cache fetch burst lands in an
        // outage. Affected queries degrade to partial results; the
        // fleet rides through and the gaps let the cache warm.
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
    }
    // The sources survive the run via these handles: the builder is
    // consumed by `run`, the metrics live in the shared `Arc`s.
    let sources = fleet.dataset().registry.all().to_vec();
    let mut builder = fleet.with_sessions(workloads.to_vec());
    if let Some(deadline) = scenario.deadline {
        builder = builder.with_deadline_policy(deadline);
    }
    if let Some(admission) = scenario.admission {
        builder = builder.with_admission_control(admission);
    }
    if let Some(hedging) = scenario.hedging {
        builder = builder.with_hedging(hedging);
    }
    let report = builder.run().expect("fleet serves");
    let requests = sources.iter().map(|s| s.metrics().requests).sum();
    CellOutcome {
        degraded: format!(
            "{}/{}/{}/{}",
            report.total_shed(),
            report.total_deadline_missed(),
            report.total_hedged(),
            report.total_outages()
        ),
        makespan: report.virtual_makespan(),
        latencies: report.latencies,
        requests,
        queries: count_queries(workloads),
    }
}

/// Run E11.
pub fn run(config: RunConfig) -> ExperimentTable {
    // Small-fleet mode comparison (isolated baselines are M full
    // systems each — keep M modest) and large-fleet scheduler scale.
    let (leaves, len, mode_counts, fleet_counts): (usize, usize, Vec<usize>, Vec<usize>) =
        if config.quick {
            (64, 12, vec![1, 4, 8], vec![64, 256, 1024])
        } else {
            // 64 sessions already appear in the mode comparison.
            (256, 12, vec![1, 8, 64], vec![1024, 4096, 16384])
        };
    let failure_sessions = if config.quick { 256 } else { 1024 };
    let bundle = SyntheticBundle::generate(
        &WorkloadSpec::default()
            .leaves(leaves)
            .ligands(leaves / 4)
            .seed(1101),
    );
    let gesture_config = GestureConfig {
        len,
        seed: 1101,
        zipf_theta: 1.0,
        revisit_prob: 0.3,
    };
    let fleet_for = |sessions: usize| -> Vec<SessionWorkload> {
        zipf_sessions(&bundle.tree, &bundle.index, sessions, &gesture_config)
    };

    let mut table = ExperimentTable::new(
        "E11 (extension)",
        format!("fleet serving: Zipf session fleets, {len} gestures/session, {leaves} leaves"),
        vec![
            "sessions",
            "mode",
            "gestures/s",
            "p50",
            "p95",
            "p99",
            "RT/query",
            "source reqs",
            "degraded",
        ],
    );

    // 1. Serving modes, small fleets.
    for &sessions in &mode_counts {
        let workloads = fleet_for(sessions);
        let gestures: usize = workloads.iter().map(|w| w.script.len()).sum();
        for mode in MODES {
            let outcome = match mode {
                "naive" => run_isolated(&bundle, OptimizerConfig::naive(), &workloads),
                "per-session-opt" => run_isolated(&bundle, OptimizerConfig::full(), &workloads),
                _ => run_fleet_cell(&bundle, &workloads, &FleetScenario::default()),
            };
            table.row(outcome.row(sessions, mode, gestures));
        }
    }

    // 2. Fleet scale: the scheduler alone, 64 → 16k sessions.
    for &sessions in &fleet_counts {
        let workloads = fleet_for(sessions);
        let gestures: usize = workloads.iter().map(|w| w.script.len()).sum();
        let outcome = run_fleet_cell(&bundle, &workloads, &FleetScenario::default());
        table.row(outcome.row(sessions, "fleet", gestures));
    }

    // 3. Failure scenarios at a fixed fleet.
    let failure_workloads = fleet_for(failure_sessions);
    let failure_gestures: usize = failure_workloads.iter().map(|w| w.script.len()).sum();
    let sla = run_fleet_cell(
        &bundle,
        &failure_workloads,
        &FleetScenario {
            deadline: Some(DeadlinePolicy::uniform(Duration::from_millis(150))),
            admission: Some(AdmissionControl::max_open(32)),
            hedging: Some(HedgePolicy { enabled: true }),
            ..Default::default()
        },
    );
    table.row(sla.row(failure_sessions, "sla", failure_gestures));
    let storm = run_fleet_cell(
        &bundle,
        &failure_workloads,
        &FleetScenario {
            storm: true,
            ..Default::default()
        },
    );
    table.row(storm.row(failure_sessions, "storm", failure_gestures));

    // 4. Full mode only: replay the 4,096-session cell and check the
    // two runs render identically (wall-clock never enters the table).
    if !config.quick {
        let workloads = fleet_for(4096);
        let gestures: usize = workloads.iter().map(|w| w.script.len()).sum();
        let a = run_fleet_cell(&bundle, &workloads, &FleetScenario::default());
        let b = run_fleet_cell(&bundle, &workloads, &FleetScenario::default());
        let replayed = a.row(4096, "fleet", gestures) == b.row(4096, "fleet", gestures);
        table.note(if replayed {
            "4096-session replay check: byte-identical across two runs"
        } else {
            "4096-session replay check: MISMATCH (nondeterminism regression!)"
        });
    }
    table.note("latencies are charged per interaction (a query's share of coalesced work)");
    table.note("sessions overlap in virtual time; makespan = slowest session's total");
    table.note("degraded column reads shed/deadline/hedged/outage");
    table.note("sla = 150ms deadlines + 32-flight admission + p95 hedging; storm = 100ms source outages every 250ms");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell<'a>(t: &'a ExperimentTable, sessions: &str, mode: &str) -> &'a Vec<String> {
        t.rows
            .iter()
            .find(|r| r[0] == sessions && r[1] == mode)
            .expect("cell present")
    }

    fn degraded(row: &[String]) -> Vec<u64> {
        row[8].split('/').map(|v| v.parse().unwrap()).collect()
    }

    #[test]
    fn shared_serving_wins_at_scale() {
        let t = run(RunConfig { quick: true });
        let rt = |sessions: &str, mode: &str| -> f64 {
            cell(&t, sessions, mode)[6].parse().expect("RT parses")
        };
        let tput = |sessions: &str, mode: &str| -> f64 {
            cell(&t, sessions, mode)[2]
                .parse()
                .expect("throughput parses")
        };
        // Optimization already beats naive per session.
        assert!(rt("8", "per-session-opt") < rt("8", "naive"));
        // The acceptance bar: at 8 sessions, the shared fleet issues
        // strictly fewer round-trips per query than per-session
        // optimization (one session's miss warms every session)...
        assert!(
            rt("8", "fleet") < rt("8", "per-session-opt"),
            "fleet {} vs per-session {}",
            rt("8", "fleet"),
            rt("8", "per-session-opt")
        );
        // ...and throughput grows at least 3x from 1 to 8 sessions.
        assert!(
            tput("8", "fleet") >= 3.0 * tput("1", "fleet"),
            "1 session: {}/s, 8 sessions: {}/s",
            tput("1", "fleet"),
            tput("8", "fleet")
        );
    }

    #[test]
    fn quick_mode_reaches_a_thousand_sessions() {
        let t = run(RunConfig { quick: true });
        let big = cell(&t, "1024", "fleet");
        let tput: f64 = big[2].parse().unwrap();
        assert!(tput > 0.0);
        // The failure scenarios are present.
        let storm = degraded(cell(&t, "256", "storm"));
        assert!(storm[3] > 0, "storm row must record outages: {storm:?}");
        let sla = degraded(cell(&t, "256", "sla"));
        assert!(
            sla.iter().sum::<u64>() > 0,
            "sla row must shed, miss, or hedge something: {sla:?}"
        );
    }

    #[test]
    fn fleet_replays_at_4096_are_byte_identical() {
        // The full run's acceptance check, at test-friendly scale
        // knobs: 4,096 sessions, short scripts, two replays, rendered
        // rows compared (wall-clock never enters a row).
        let bundle =
            SyntheticBundle::generate(&WorkloadSpec::default().leaves(64).ligands(16).seed(1101));
        let workloads = zipf_sessions(
            &bundle.tree,
            &bundle.index,
            4096,
            &GestureConfig {
                len: 4,
                seed: 1101,
                zipf_theta: 1.0,
                revisit_prob: 0.3,
            },
        );
        let gestures: usize = workloads.iter().map(|w| w.script.len()).sum();
        let run_once = || {
            run_fleet_cell(&bundle, &workloads, &FleetScenario::default())
                .row(4096, "fleet", gestures)
        };
        assert_eq!(run_once(), run_once(), "4096-session replay must match");
    }
}
