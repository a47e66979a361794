//! The one differential harness the generators in `tests/` feed.
//!
//! A generator hands [`Systems::new`] a dataset constructor, called
//! once per system, and [`Systems::run`] a list of [`Step`]s. The list
//! runs on one fixed [`Matrix`]: the naive plan (the reference),
//! `full()`, and `full()` with the materialized view and the columnar
//! mirror. Each planned system answers twice, on its warm cache and
//! through a second executor over the same dataset that is invalidated
//! before every query; the naive plan has no cache, so it answers once.
//! Query text may be refused, by every system alike; a refused built
//! query or gesture is a divergence.
//!
//! Every answer is compared with the naive plan's by one rule
//! ([`same_answer`]). A divergence is an `Err` naming each system that
//! differs, with both answers' row counts and the first row one has and
//! the other lacks, and quoting the step list with the step marked.
//! [`fleet_agrees`] runs several gesture scripts as one fleet and checks
//! each session against its solo replay.

// Each test binary uses part of the harness.
#![allow(dead_code)]

use drugtree::prelude::*;
use drugtree_chem::affinity::ActivityRecord;
use drugtree_mobile::{GestureStep, QueryOutcome};
use drugtree_query::cache::CacheConfig;
use drugtree_query::local::Keep;
use drugtree_query::phases::ablatable_rules;
use drugtree_query::QueryError;
use drugtree_sources::assay_db::assay_row;
use drugtree_sources::source::SourceKind;
use drugtree_sources::sync::Mutex;
use std::fmt::Write;
use std::sync::Arc;

const WIFI: NetworkProfile = NetworkProfile::WIFI;
/// The most of one step or one row a divergence quotes, in bytes.
const MAX_QUOTE_BYTES: usize = 1024;

/// One thing a generator asks of every system.
#[derive(Debug, Clone)]
pub enum Step {
    /// Query text: every system answers it, or every system refuses it.
    Text(String),
    Query(Query),
    /// A gesture on every system's mobile session: each begins it alike,
    /// and the query it asks (if any) is the answer compared.
    Gesture(Gesture),
    /// Deposit a record into assay source `.1` (modulo the sources) of
    /// every system's dataset and into that source's declared replicas.
    /// Nothing is invalidated or re-collected.
    Ingest(ActivityRecord, usize),
    /// Drop every system's cached answers.
    Invalidate,
}

/// The systems checked against the naive plan: a name, a configuration
/// and the local structures built; and the cache every planned run has.
pub struct Matrix(Vec<(String, OptimizerConfig, Option<Keep>)>, CacheConfig);

impl Matrix {
    /// `full()`, and `full()` with the view and the mirror.
    pub fn fixed() -> Matrix {
        let full = OptimizerConfig::full();
        let name = String::from;
        Matrix(
            vec![
                (name("full"), full, None),
                (name("full+view+mirror"), full, Some(Keep::Both)),
            ],
            CacheConfig::default(),
        )
    }

    /// The same systems, each run with a cache of `cache`'s budgets.
    pub fn with_cache(self, cache: CacheConfig) -> Matrix {
        Matrix(self.0, cache)
    }

    /// The fixed matrix plus every single-rule ablation of `full()`,
    /// with and without the view and the mirror.
    pub fn with_ablations() -> Matrix {
        let mut matrix = Matrix::fixed();
        for rule in ablatable_rules() {
            let config = OptimizerConfig::ablate(rule.name).unwrap();
            let name = format!("ablate {}", rule.name);
            let local = format!("{name}+view+mirror");
            matrix.0.push((name, config, None));
            matrix.0.push((local, config, Some(Keep::Both)));
        }
        matrix
    }
}

/// `dataset` behind `config`, with the local structures `keep` names.
/// The naive plan reads no statistics, so none are collected for it.
pub fn system(dataset: Dataset, config: OptimizerConfig, keep: Option<Keep>) -> DrugTree {
    cached_system(dataset, config, keep, CacheConfig::default())
}

/// [`system`] with a cache of `cache`'s budgets.
fn cached_system(
    dataset: Dataset,
    config: OptimizerConfig,
    keep: Option<Keep>,
    cache: CacheConfig,
) -> DrugTree {
    let builder = DrugTree::builder().dataset(dataset).optimizer(config);
    let builder = builder.cache(cache);
    let builder = builder.with_stats(config != OptimizerConfig::naive());
    let builder = match keep {
        None => builder,
        Some(Keep::View) => builder.with_matview(),
        Some(Keep::Mirror) => builder.with_columnar(),
        Some(Keep::Both) => builder.with_matview().with_columnar(),
    };
    builder.build().unwrap()
}

/// The naive plan and the matrix, each system over its own dataset; a
/// matrix system keeps the second executor of its cold run.
pub struct Systems(Vec<(String, DrugTree, Option<Executor>)>);

/// A run: a name, a dataset, an executor, and whether it is cold.
type Runner<'a> = (String, &'a Dataset, &'a Executor, bool);

type Answered = Result<QueryResult, QueryError>;

/// One system's answer to a step, handed to a test's own checks.
pub struct Answer<'a, 's> {
    /// `"naive"`, a matrix name, or a matrix name and `", cold"`.
    pub system: &'a str,
    pub step: &'a Step,
    /// The step's query, or the one its gesture asked.
    pub query: &'a Query,
    pub result: &'a QueryResult,
    /// On a gesture step, the system's session after the gesture began.
    pub session: Option<&'a MobileSession<'s>>,
}

impl Systems {
    /// Build every system, each over its own `dataset()`.
    pub fn new(matrix: &Matrix, mut dataset: impl FnMut() -> Dataset) -> Systems {
        let naive = system(dataset(), OptimizerConfig::naive(), None);
        let mut systems = vec![("naive".to_string(), naive, None)];
        for (name, config, keep) in &matrix.0 {
            let system = cached_system(dataset(), *config, *keep, matrix.1);
            // The builder's steps, for a second executor on one dataset
            // (a dataset per run made source_records 1.5 times as slow).
            let mut cold = Executor::with_cache_config(Optimizer::new(*config), matrix.1);
            cold.collect_stats(system.dataset()).unwrap();
            if let Some(keep) = *keep {
                cold.build_local(system.dataset(), keep).unwrap();
            }
            systems.push((name.clone(), system, Some(cold)));
        }
        Systems(systems)
    }

    /// The naive plan's system.
    pub fn naive(&self) -> &DrugTree {
        &self.0[0].1
    }

    /// The matrix system named `name` (its warm run).
    pub fn get(&self, name: &str) -> &DrugTree {
        &self.0.iter().find(|(n, ..)| n == name).unwrap().1
    }

    /// Run `steps`, comparing every answer with the naive plan's; `Ok`
    /// holds how many queries the naive plan answered (not refused).
    pub fn run(&self, steps: &[Step]) -> Result<usize, String> {
        self.run_with(steps, |_| Ok(()))
    }

    /// [`Systems::run`], also handing every answer (the naive plan's
    /// first) to `check`, whose `Err` fails the run like a divergence.
    pub fn run_with(
        &self,
        steps: &[Step],
        mut check: impl FnMut(&Answer<'_, '_>) -> Result<(), String>,
    ) -> Result<usize, String> {
        let runners = self.runners();
        let mut sessions = Vec::new();
        let mut answered = 0;
        for (at, step) in steps.iter().enumerate() {
            let mut ask = |query: &Query| {
                let answers = ask(&runners, step, query, &[], &mut check)?;
                Ok(answers[0].is_ok())
            };
            let naive_answered = match step {
                Step::Text(text) => Query::parse(text).map_or(Ok(false), |q| ask(&q)),
                Step::Query(query) => ask(query),
                Step::Gesture(gesture) => {
                    if sessions.is_empty() {
                        let open = runners.iter().map(|r| MobileSession::new(r.1, r.2, WIFI));
                        sessions = open.collect();
                    }
                    begin(&runners, &mut sessions, step, gesture, &mut check)
                }
                Step::Ingest(record, to) => {
                    for (_, system, _) in &self.0 {
                        ingest(system.dataset(), record, *to);
                    }
                    Ok(false)
                }
                Step::Invalidate => {
                    runners.iter().for_each(|r| r.2.invalidate());
                    Ok(false)
                }
            };
            answered += usize::from(naive_answered.map_err(|what| report(steps, at, &what))?);
        }
        Ok(answered)
    }

    /// The naive plan first, then each matrix system warm, then cold.
    fn runners(&self) -> Vec<Runner<'_>> {
        let mut runners = Vec::new();
        for (name, system, cold) in &self.0 {
            let dataset = system.dataset();
            runners.push((name.clone(), dataset, system.executor(), false));
            if let Some(cold) = cold {
                runners.push((format!("{name}, cold"), dataset, cold, true));
            }
        }
        runners
    }
}

/// Every run answers `query`; each answer is compared with the naive
/// plan's (`answers[0]`), then handed to `check`. Only query text may
/// be refused, and by every run.
fn ask(
    runners: &[Runner<'_>],
    step: &Step,
    query: &Query,
    sessions: &[MobileSession<'_>],
    check: &mut impl FnMut(&Answer<'_, '_>) -> Result<(), String>,
) -> Result<Vec<Answered>, String> {
    let mut answers = Vec::new();
    for (_, dataset, executor, cold) in runners {
        if *cold {
            executor.invalidate();
        }
        answers.push(executor.execute(dataset, query));
    }
    let mut diverged = String::new();
    for ((system, ..), got) in runners.iter().zip(&answers).skip(1) {
        let same = match (&answers[0], got) {
            (Ok(a), Ok(b)) => same_answer(query, a, b),
            (a, b) => a.is_err() && b.is_err() && matches!(step, Step::Text(_)),
        };
        if !same {
            let _ = write!(diverged, "\n  {system}: {}", difference(&answers[0], got));
        }
    }
    if !diverged.is_empty() {
        return Err(format!("naive and{diverged}"));
    }
    for (i, ((system, ..), answer)) in runners.iter().zip(&answers).enumerate() {
        if let Ok(result) = answer {
            let session = sessions.get(i);
            let answer = Answer {
                system,
                step,
                query,
                result,
                session,
            };
            check(&answer).map_err(|e| format!("{system}: {e}"))?;
        }
    }
    Ok(answers)
}

/// Every session begins `gesture`, and all alike (a refusal is a
/// divergence); the query they ask (one query) is answered by [`ask`],
/// then committed. `true` when they asked one.
fn begin<'s>(
    runners: &[Runner<'s>],
    sessions: &mut [MobileSession<'s>],
    step: &Step,
    gesture: &Gesture,
    check: &mut impl FnMut(&Answer<'_, '_>) -> Result<(), String>,
) -> Result<bool, String> {
    let mut begun = Vec::new();
    for ((system, ..), session) in runners.iter().zip(sessions.iter_mut()) {
        let refused = |e| format!("{system} refused {gesture:?}: {e}");
        begun.push(session.begin_gesture(gesture).map_err(refused)?);
    }
    // `None` a view change, else the query asked.
    let asked = |begun: &GestureStep| match begun {
        GestureStep::View(_) => None,
        GestureStep::Query(pending) => Some(pending.query.clone()),
    };
    let naive = asked(&begun[0]);
    let mut pending = Vec::new();
    for (((system, ..), session), begun) in runners.iter().zip(sessions.iter_mut()).zip(begun) {
        if asked(&begun) != naive {
            return Err(format!(
                "{system} began {:?}, naive {naive:?}",
                asked(&begun)
            ));
        }
        match begun {
            GestureStep::View(view) => drop(session.commit_view(view)),
            GestureStep::Query(p) => pending.push(p),
        }
    }
    let Some(query) = naive else {
        return Ok(false);
    };
    let answers = ask(runners, step, &query, sessions, check)?;
    for ((session, pending), answer) in sessions.iter_mut().zip(pending).zip(answers) {
        // `ask` returned, so every run answered.
        let result = answer.unwrap();
        let (charged, query_latency) = (result.metrics.charged_cost, result.metrics.virtual_cost);
        let result = Arc::new(result);
        session.commit_query(
            pending,
            &QueryOutcome::Rows {
                charged,
                query_latency,
                result,
            },
        );
    }
    Ok(true)
}

/// The one comparison rule: the same columns, and the same
/// [`normalise`]d rows; a top-k compares only the multiset of its
/// ranking keys, since equal keys may tie-break differently by plan.
fn same_answer(query: &Query, a: &QueryResult, b: &QueryResult) -> bool {
    let key = match &query.kind {
        QueryKind::TopK { by, .. } => a.columns.iter().position(|c| c == by),
        _ => None,
    };
    a.columns == b.columns
        && match key {
            Some(column) => topk_keys(&a.rows, column) == topk_keys(&b.rows, column),
            None => normalise(&a.rows) == normalise(&b.rows),
        }
}

/// Rows in a comparable form: floats rounded to 1e-9, rows sorted.
pub fn normalise(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut out: Vec<Vec<Value>> = rows.iter().map(|r| r.iter().map(round).collect()).collect();
    out.sort();
    out
}

/// A top-k's ranking keys (column `column`), rounded and sorted.
fn topk_keys(rows: &[Vec<Value>], column: usize) -> Vec<Value> {
    let mut keys: Vec<Value> = rows.iter().map(|row| round(&row[column])).collect();
    keys.sort();
    keys
}

fn round(value: &Value) -> Value {
    match value {
        Value::Float(f) => Value::Float((f * 1e9).round() / 1e9),
        other => other.clone(),
    }
}

fn ingest(dataset: &Dataset, record: &ActivityRecord, to: usize) {
    let registry = &dataset.registry;
    let sources = registry.by_kind(SourceKind::Assay);
    let target = sources[to % sources.len()].name();
    let group = registry.replica_group_of(target).map(<[String]>::to_vec);
    for name in group.unwrap_or_else(|| vec![target.to_string()]) {
        let source = registry.by_name(&name).unwrap();
        source.ingest(assay_row(record)).unwrap();
    }
}

/// `value`'s `Debug`, cut to [`MAX_QUOTE_BYTES`]: a divergence quotes a
/// 1 MiB literal by its length.
fn quote(value: &impl std::fmt::Debug) -> String {
    let text = format!("{value:?}");
    match (0..=MAX_QUOTE_BYTES)
        .rev()
        .find(|&i| text.is_char_boundary(i))
    {
        Some(end) if end < text.len() => format!("{}… ({} bytes)", &text[..end], text.len()),
        _ => text,
    }
}

/// Two answers told apart: the row counts (or the errors), then the
/// first normalised row either holds and the other lacks.
fn difference(naive: &Answered, got: &Answered) -> String {
    let (Ok(a), Ok(b)) = (naive, got) else {
        let count = |a: &Answered| {
            a.as_ref()
                .map(|r| r.rows.len())
                .map_err(ToString::to_string)
        };
        return quote(&(count(naive), count(got)));
    };
    let (a, b) = (normalise(&a.rows), normalise(&b.rows));
    let only = |x: &[Vec<Value>], y: &[Vec<Value>]| x.iter().find(|r| !y.contains(r)).cloned();
    let only = quote(&(only(&a, &b), only(&b, &a)));
    format!(
        "naive {} rows, got {}; only naive's, only got's: {only}",
        a.len(),
        b.len()
    )
}

/// The divergence at step `at`: what differed, then the steps.
fn report(steps: &[Step], at: usize, what: &str) -> String {
    let mut out = format!("step {at} diverged: {what}\nsteps:");
    for (i, step) in steps.iter().enumerate() {
        let mark = if i == at { ">>" } else { "  " };
        let _ = write!(out, "\n{mark} {i}: {}", quote(step));
    }
    out
}

/// Every gesture observation, in arrival order.
#[derive(Default)]
struct GestureLog(Mutex<Vec<GestureObservation>>);

impl Observer for GestureLog {
    fn on_gesture(&self, gesture: &GestureObservation) {
        self.0.lock().push(gesture.clone());
    }
}

impl GestureLog {
    /// Session `session`'s `(gesture, rows, payload_bytes)`, in order.
    fn of(&self, session: u32) -> Vec<(&'static str, usize, usize)> {
        let log = self.0.lock();
        let mine = log.iter().filter(|g| g.session == Some(session));
        mine.map(|g| (g.gesture, g.rows, g.payload_bytes)).collect()
    }
}

/// Run `workloads` as one fleet on `full()`, then each session alone on
/// a fresh system: every session must see what its solo replay sees
/// (gesture, rows and payload, in order). A fleet shares one cache and
/// merges concurrent queries into flights; with no deadline, admission
/// or storm policy none of that may show.
pub fn fleet_agrees(
    dataset: impl Fn() -> Dataset,
    workloads: &[SessionWorkload],
) -> Result<ServeReport, String> {
    let observed = |log: &Arc<GestureLog>| {
        let observer = Arc::clone(log) as Arc<dyn Observer>;
        let builder = DrugTree::builder().dataset(dataset());
        builder.with_observer(observer).build().unwrap()
    };
    let fleet_log = Arc::new(GestureLog::default());
    let fleet = observed(&fleet_log).fleet();
    let report = fleet.with_sessions(workloads.to_vec()).run();
    let report = report.map_err(|e| e.to_string())?;
    for workload in workloads {
        let solo_log = Arc::new(GestureLog::default());
        let solo = observed(&solo_log);
        let id = workload.session as u32;
        let mut session = solo.mobile_session(workload.network);
        session.set_session_id(id);
        for gesture in &workload.script {
            session
                .apply(gesture)
                .map_err(|e| format!("session {id}: {e}"))?;
        }
        let (fleet, solo) = (fleet_log.of(id), solo_log.of(id));
        if solo.len() != workload.script.len() || fleet != solo {
            return Err(format!("session {id}: fleet {fleet:?}, solo {solo:?}"));
        }
    }
    Ok(report)
}
