//! The query executor.
//!
//! Interprets a [`PhysicalPlan`] against a [`Dataset`], charging all
//! simulated source latency to the session's virtual clock and
//! reporting per-query metrics (round-trips, rows shipped, cache
//! behaviour) — the quantities every experiment in EXPERIMENTS.md
//! reports.

use crate::adaptive::{AdaptiveRuntime, QueryFeedback};
use crate::ast::{Metric, Query};
use crate::cache::{CacheConfig, CacheStats, SemanticCache};
use crate::columnar::{ActivityColumns, LIGAND_ID, P_ACTIVITY, RANK};
use crate::dataset::{unified_schema, Dataset};
use crate::local::{Keep, LocalBuild};
use crate::matview::MaterializedAggregates;
use crate::optimizer::{Optimizer, PlanInputs};
use crate::plan::{Access, ColumnarPushdown, FetchPlan, Finish, LeafSet, PhysicalPlan, ViewAccess};
use crate::stats::OverlayStats;
use crate::trace::{AnalyzedResult, Observer, QuerySpan, Stage, TraceBuilder};
use crate::{QueryError, Result};
use drugtree_chem::similarity::tanimoto;
use drugtree_integrate::overlay::tables;
use drugtree_phylo::index::LeafInterval;
use drugtree_phylo::tree::NodeId;
pub use drugtree_sources::batcher::RetryPolicy;
use drugtree_sources::batcher::{batched_lookup_with_retry, SortedKeys};
use drugtree_sources::clock::VirtualInstant;
use drugtree_sources::sync::Mutex;
use drugtree_store::expr::{BoundPredicate, Predicate};
use drugtree_store::segment::ColumnSlice;
use drugtree_store::table::Table;
use drugtree_store::value::Value;
use rustc_hash::FxHashMap;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

/// Per-query execution metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecMetrics {
    /// Virtual time charged for this query.
    pub virtual_cost: Duration,
    /// Virtual clock when the query started.
    pub started: VirtualInstant,
    /// Virtual clock when the query finished.
    pub finished: VirtualInstant,
    /// Source round-trips issued.
    pub source_requests: usize,
    /// Activity rows shipped from sources.
    pub rows_fetched: usize,
    /// Fetched rows dropped by the widening rule (`AssayRows::unify`):
    /// their accession is not on the tree, or their `value_nm` is not
    /// finite and positive.
    pub rows_unmapped: usize,
    /// Cache outcome: `None` when the plan had no cache probe.
    pub cache_hit: Option<bool>,
    /// Leaves pruned by statistics.
    pub pruned_leaves: usize,
    /// Transient source failures retried.
    pub retries: usize,
    /// Virtual fetch cost attributable to this query alone. When
    /// threads share the executor, the shared clock (and thus
    /// `virtual_cost`) interleaves every caller's work; this is the
    /// per-query number.
    pub charged_cost: Duration,
    /// Always 0. Inert: named by a `benchmark/` struct literal, which
    /// this tree may not edit; goes when a benchmark issue releases it.
    pub flights_joined: usize,
    /// Always 0. Inert, frozen by `benchmark/` like `flights_joined`.
    pub shared_batch_peers: usize,
    /// Optimizer notes (rule applications).
    pub notes: Vec<String>,
}

/// Cost-model estimates for a query, obtained by planning alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanEstimate {
    /// Estimated access latency (the miss path for cache probes).
    pub cost: Duration,
    /// Estimated rows shipped by the access.
    pub rows: u64,
}

/// A finished query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Result column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
    /// Execution metrics.
    pub metrics: ExecMetrics,
}

/// The executor: optimizer + semantic cache + statistics + views.
///
/// `Send + Sync` by construction: every mutable piece sits behind a
/// lock, an atomic, or an `Arc`, so M sessions can share one
/// executor from real OS threads. The `const` assertion below makes
/// that a compile-time guarantee a future field cannot silently break.
pub struct Executor {
    optimizer: Optimizer,
    /// The one semantic cache. A probe holds the lock for an entry
    /// search and a reference-count bump, never a row copy, and no
    /// fetch runs under it.
    cache: Mutex<SemanticCache>,
    stats: Option<OverlayStats>,
    /// The aggregate view and/or columnar mirror, from one scan.
    local: Option<LocalBuild>,
    retry: RetryPolicy,
    /// Observability hook (design decision D9). `None` is the fast
    /// path: no span is built, no plan cloned, no string formatted.
    observer: Option<Arc<dyn Observer>>,
    /// The self-driving runtime (design decision D15). `None` is the
    /// fast path: no feedback is folded, planning stays nominal.
    adaptive: Option<Arc<AdaptiveRuntime>>,
}

// Compile-time proof that the executor (and the dataset it serves) can
// be shared across threads; a non-Sync field fails the build here.
const _: () = {
    const fn _assert<T: Send + Sync>() {}
    _assert::<Executor>();
    _assert::<Dataset>();
};

impl Executor {
    /// Build with an optimizer and default cache sizing.
    pub fn new(optimizer: Optimizer) -> Executor {
        Executor::with_cache_config(optimizer, CacheConfig::default())
    }

    /// Build with explicit cache sizing.
    pub fn with_cache_config(optimizer: Optimizer, cache: CacheConfig) -> Executor {
        Executor {
            optimizer,
            cache: Mutex::new(SemanticCache::new(cache)),
            stats: None,
            local: None,
            retry: RetryPolicy::default(),
            observer: None,
            adaptive: None,
        }
    }

    /// Install the self-driving runtime (design decision D15): the
    /// advisor may auto-build the aggregate view, and every executed
    /// query is folded back into its break-even ledger.
    pub fn enable_adaptive(&mut self, runtime: Arc<AdaptiveRuntime>) {
        self.adaptive = Some(runtime);
    }

    /// The adaptive runtime, when installed.
    pub fn adaptive(&self) -> Option<&Arc<AdaptiveRuntime>> {
        self.adaptive.as_ref()
    }

    /// Install an [`Observer`] receiving a [`crate::trace::QueryTrace`]
    /// after every executed query. Tracing work happens only while an
    /// observer is installed (or during [`Executor::analyze`]), and is
    /// never charged to the virtual clock, so installing one cannot
    /// change measured latencies.
    pub fn set_observer(&mut self, observer: Arc<dyn Observer>) {
        self.observer = Some(observer);
    }

    /// The installed observer, if any.
    pub fn observer(&self) -> Option<&Arc<dyn Observer>> {
        self.observer.as_ref()
    }

    /// Plan a query and return its cost/cardinality estimates without
    /// executing it (the fleet scheduler's hedging prices a replica
    /// this way).
    pub fn estimate(&self, dataset: &Dataset, query: &Query) -> Result<PlanEstimate> {
        let plan = self.plan_query(dataset, query)?;
        Ok(PlanEstimate {
            cost: plan.estimated_cost,
            rows: plan.estimated_rows,
        })
    }

    /// Replace the transient-failure retry policy.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Collect (or re-collect) overlay statistics. Charges the collection
    /// scan to the dataset clock.
    pub fn collect_stats(&mut self, dataset: &Dataset) -> Result<()> {
        let stats = OverlayStats::collect(dataset)?;
        dataset.clock.advance(stats.collection_cost);
        self.stats = Some(stats);
        Ok(())
    }

    /// Build (or rebuild) the local structures from one scan: the
    /// materialized aggregate view, the columnar activity mirror, or
    /// both. Charges the build scan to the dataset clock. While the build
    /// is fresh, the view answers whole-clade aggregates and, with the
    /// `columnar_scan` rule enabled, interval scopes execute as local
    /// vectorized kernel scans instead of source fetches.
    pub fn build_local(&mut self, dataset: &Dataset, keep: Keep) -> Result<Duration> {
        let local = LocalBuild::build(dataset, keep)?;
        let cost = local.build_cost;
        dataset.clock.advance(cost);
        self.local = Some(local);
        Ok(cost)
    }

    /// The columnar activity mirror, if built.
    pub fn columnar(&self) -> Option<&ActivityColumns> {
        self.local.as_ref()?.mirror.as_deref()
    }

    /// Drop all cached results, so the next queries run cold.
    pub fn invalidate(&self) {
        self.cache.lock().invalidate_all();
    }

    /// Cumulative cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().stats()
    }

    /// Current statistics, if collected.
    pub fn stats(&self) -> Option<&OverlayStats> {
        self.stats.as_ref()
    }

    /// The planner in use.
    pub fn optimizer(&self) -> &Optimizer {
        &self.optimizer
    }

    /// The adaptively-built view, consulted only when no view was
    /// built explicitly (an explicit view always wins, so enabling the
    /// adaptive layer cannot change a session that manages its own).
    fn adaptive_view(&self) -> Option<Arc<LocalBuild>> {
        if self.local.as_ref().is_some_and(|l| l.view.is_some()) {
            return None;
        }
        self.adaptive.as_ref().and_then(|a| a.view())
    }

    /// Plan as [`Executor::execute`] would.
    fn plan_query(&self, dataset: &Dataset, query: &Query) -> Result<PhysicalPlan> {
        let adaptive_view = self.adaptive_view();
        let inputs = self.plan_inputs(dataset, adaptive_view.as_deref());
        self.optimizer.plan(&inputs, query)
    }

    /// The planner's inputs: the query's one source epoch, read here,
    /// before any fetch (D2), the statistics, the explicit local build
    /// and `adaptive_view`.
    fn plan_inputs<'a>(
        &'a self,
        dataset: &'a Dataset,
        adaptive_view: Option<&'a LocalBuild>,
    ) -> PlanInputs<'a> {
        PlanInputs {
            dataset,
            epoch: dataset.source_epoch(),
            stats: self.stats.as_ref(),
            local: self.local.as_ref(),
            adaptive_view,
        }
    }

    /// EXPLAIN a query without executing it.
    pub fn explain(&self, dataset: &Dataset, query: &Query) -> Result<String> {
        let plan = self.plan_query(dataset, query)?;
        Ok(plan.explain())
    }

    /// Plan and execute a query.
    pub fn execute(&self, dataset: &Dataset, query: &Query) -> Result<QueryResult> {
        match &self.observer {
            // Null-observer fast path: no trace is built at all.
            None => self.execute_inner(dataset, query, None),
            Some(obs) => {
                let mut tb = TraceBuilder::new(query, obs.wants_plan());
                let result = self.execute_inner(dataset, query, Some(&mut tb))?;
                let (trace, plan) = tb.finish(&result.metrics);
                match plan {
                    Some(plan) => obs.on_query_planned(&trace, &plan),
                    None => obs.on_query(&trace),
                }
                Ok(result)
            }
        }
    }

    /// Execute with tracing and return plan, span tree, and result —
    /// the `EXPLAIN ANALYZE` entry point. Always traces, whether or
    /// not an observer is installed; an installed observer also
    /// receives the trace.
    pub fn analyze(&self, dataset: &Dataset, query: &Query) -> Result<AnalyzedResult> {
        let mut tb = TraceBuilder::new(query, true);
        let result = self.execute_inner(dataset, query, Some(&mut tb))?;
        let (trace, plan) = tb.finish(&result.metrics);
        let plan = plan.ok_or_else(|| QueryError::Plan("analyze produced no plan".into()))?;
        if let Some(obs) = &self.observer {
            obs.on_query_planned(&trace, &plan);
        }
        Ok(AnalyzedResult {
            plan,
            trace,
            result,
        })
    }

    fn execute_inner(
        &self,
        dataset: &Dataset,
        query: &Query,
        mut sink: Option<&mut TraceBuilder>,
    ) -> Result<QueryResult> {
        let adaptive_view = self.adaptive_view();
        let inputs = self.plan_inputs(dataset, adaptive_view.as_deref());
        let plan = self.optimizer.plan(&inputs, query)?;
        let view = inputs.view();
        let served_by_adaptive =
            adaptive_view.is_some() && matches!(plan.access, Access::MaterializedView(_));
        let started = dataset.clock.now();
        if let Some(tb) = sink.as_deref_mut() {
            tb.record_plan(&plan, started);
        }

        let mut m = ExecMetrics {
            virtual_cost: Duration::ZERO,
            started,
            finished: started,
            source_requests: 0,
            rows_fetched: 0,
            rows_unmapped: 0,
            cache_hit: None,
            pruned_leaves: plan.pruned_leaves,
            retries: 0,
            charged_cost: Duration::ZERO,
            flights_joined: 0,
            shared_batch_peers: 0,
            notes: plan.notes.clone(),
        };

        // 1. Obtain the activity half: a batch (a fetch, a cache entry,
        // the mirror) and the range of it in scope; on the mirror, also
        // the positions its kernels selected.
        let mut selected = None;
        let whole = |batch: Arc<ActivityColumns>| {
            let all = 0..batch.len();
            (batch, all)
        };
        let (batch, range) = match &plan.access {
            // Finish reads the view directly.
            Access::ProvedEmpty | Access::MaterializedView(_) => {
                whole(Arc::new(ActivityColumns::widen(dataset, &[])?.0))
            }
            Access::ColumnarScan { pushdown } => {
                let (range, positions) =
                    self.columnar_select(dataset, &plan, pushdown, &mut m, sink.as_deref_mut())?;
                selected = Some(positions);
                (Arc::clone(self.columnar_mirror()?), range)
            }
            Access::Fetch {
                fetches,
                concurrent_sources,
            } => whole(Arc::new(self.run_fetches(
                dataset,
                fetches,
                *concurrent_sources,
                &mut m,
                sink.as_deref_mut(),
            )?)),
            Access::CacheProbe(probe) => {
                let found = self
                    .cache
                    .lock()
                    .probe(inputs.epoch, plan.interval, probe.key());
                match found {
                    Some(hit) => {
                        m.cache_hit = Some(true);
                        if let Some(tb) = sink.as_deref_mut() {
                            let mut span =
                                QuerySpan::new(Stage::CacheProbe, "hit", dataset.clock.now());
                            span.rows = Some(hit.range.len() as u64);
                            tb.push(span);
                        }
                        (hit.entry_rows, hit.range)
                    }
                    None => {
                        m.cache_hit = Some(false);
                        if let Some(tb) = sink.as_deref_mut() {
                            tb.push(QuerySpan::new(
                                Stage::CacheProbe,
                                "miss",
                                dataset.clock.now(),
                            ));
                        }
                        let batch = Arc::new(self.run_fetches(
                            dataset,
                            probe.on_miss(),
                            probe.concurrent_sources(),
                            &mut m,
                            sink.as_deref_mut(),
                        )?);
                        self.cache.lock().insert(
                            inputs.epoch,
                            plan.interval,
                            probe.key().cloned(),
                            Arc::clone(&batch),
                        );
                        whole(batch)
                    }
                }
            }
        };

        // Steps 2–5 read cells in place and select *survivor positions*;
        // no unified row exists until step 6 builds the ones returned
        // (design decision D16).
        let overlay_started = dataset.clock.now();
        let cells = Cells::new(&batch, range);
        let mut survivors = selected.unwrap_or_else(|| (0..cells.len()).collect());
        let rows_in = survivors.len() as u64;

        // 2. Ligand join: per position, the catalog's row for its
        // ligand, whose cells are read when a filter or the output needs
        // them. Positions a filter is about to drop, or a top-k does not
        // return, are joined only when the residual or the ranking reads
        // a ligand column.
        let residual = plan.residual.bind(unified_schema())?;
        let mut join = LigandJoin::default();
        let ranks_by_ligand = matches!(&plan.finish,
            Finish::TopK { column, .. } if column.index() >= ACTIVITY_CELLS);
        let join_before_filters =
            plan.ligand_join && (reads_ligand_cells(&residual) || ranks_by_ligand);
        if plan.ligand_join {
            if survivors.iter().any(|&i| cells.ligand(i).is_none()) {
                return Err(QueryError::Plan("non-text ligand_id".into()));
            }
            join = LigandJoin::new(
                dataset.overlay.catalog().table(tables::LIGAND)?,
                cells.len(),
            );
        }
        if join_before_filters {
            join.probe(&cells, &survivors);
        }

        // 3. Residual filter, over activity cells ‖ ligand cells ‖ NULL.
        if plan.residual != Predicate::True {
            survivors.retain(|&i| residual.matches_with(&|c| unified_cell(&cells, &join, i, c)));
        }

        // 4. Similarity filter, one Tanimoto per distinct ligand.
        if let Some(sim) = &plan.similarity {
            let mut similar = PerLigand::default();
            survivors.retain(|&i| {
                cells.ligand(i).is_some_and(|lig| {
                    similar.get(lig, |lig| {
                        dataset
                            .overlay
                            .catalogued_fingerprint(lig)
                            .is_some_and(|fp| tanimoto(fp, &sim.fingerprint) >= sim.min_tanimoto)
                    })
                })
            });
        }

        // 5. Substructure filter: fingerprint prescreen, then exact
        // subgraph match, once per distinct ligand.
        if let Some(sub) = &plan.substructure {
            let mut verdicts = PerLigand::default();
            survivors.retain(|&i| {
                let Some(lig) = cells.ligand(i) else {
                    return false;
                };
                verdicts.get(lig, |lig| {
                    let Some(fp) = dataset.overlay.catalogued_fingerprint(lig) else {
                        return false;
                    };
                    if !drugtree_chem::substructure::fingerprint_prescreen(&sub.pattern_fp, fp) {
                        return false;
                    }
                    dataset.overlay.catalogued_molecule(lig).is_some_and(|m| {
                        drugtree_chem::substructure::is_substructure(&sub.pattern, m)
                    })
                })
            });
        }

        if let Some(tb) = sink.as_deref_mut() {
            let mut span = QuerySpan::new(Stage::Overlay, "", overlay_started);
            span.ended = dataset.clock.now();
            span.attrs.push(("rows_in", rows_in));
            span.attrs.push(("rows_out", survivors.len() as u64));
            tb.push(span);
        }

        // A top-k keeps its k best survivors, best first. Ties keep rank
        // order, as a stable sort would: the position breaks them, so
        // the order is total, and selecting the k best before sorting
        // them returns what a stable sort of every survivor cut at k
        // returns.
        if let Finish::TopK {
            column,
            k,
            descending,
        } = &plan.finish
        {
            let column = column.index();
            let best_first = |a: &usize, b: &usize| {
                let ord = unified_cell(&cells, &join, *a, column)
                    .cmp(&unified_cell(&cells, &join, *b, column));
                let ord = if *descending { ord.reverse() } else { ord };
                ord.then(a.cmp(b))
            };
            if *k < survivors.len() {
                survivors.select_nth_unstable_by(*k, best_first);
                survivors.truncate(*k);
            }
            survivors.sort_unstable_by(best_first);
        }
        if plan.ligand_join && !join_before_filters {
            join.probe(&cells, &survivors);
        }

        // 6. Finish.
        let finish_started = dataset.clock.now();
        let finish_label = match &plan.finish {
            Finish::Collect => "collect",
            Finish::TopK { .. } => "top-k",
            Finish::Aggregate { .. } => "aggregate",
            Finish::CountPerLeaf => "count-per-leaf",
        };
        let (columns, out_rows) = finish_survivors(dataset, &plan, view, &cells, survivors, &join)?;
        if let Some(tb) = sink {
            let mut span = QuerySpan::new(Stage::Finish, finish_label, finish_started);
            span.ended = dataset.clock.now();
            span.rows = Some(out_rows.len() as u64);
            tb.push(span);
        }

        m.finished = dataset.clock.now();
        m.virtual_cost = m.finished.since(m.started);

        // Close the loop: fold this query's charged latency back into
        // the adaptive runtime (the advisor's break-even ledger).
        if let Some(adaptive) = &self.adaptive {
            // A view-answerable aggregate the view did not serve: the
            // same gate `use_matview` applies, minus view presence.
            let matview_candidate = !matches!(plan.access, Access::MaterializedView(_))
                && ViewAccess::admit(
                    query,
                    &plan.residual,
                    &dataset.index,
                    plan.scope_node,
                    plan.interval,
                )
                .is_some();
            let feedback = QueryFeedback {
                epoch: inputs.epoch,
                matview_candidate,
                served_by_adaptive,
                fingerprint: crate::obs::answer_fingerprint(&plan),
                charged: m.charged_cost,
                break_even_proxy: self
                    .stats
                    .as_ref()
                    .map_or(Duration::ZERO, |s| s.collection_cost),
            };
            adaptive.after_query(dataset, &feedback)?;
        }

        Ok(QueryResult {
            columns,
            rows: out_rows,
            metrics: m,
        })
    }

    /// The built mirror, or a plan error — a `ColumnarScan` access can
    /// only be planned when the executor carries one.
    fn columnar_mirror(&self) -> Result<&Arc<ActivityColumns>> {
        self.local
            .as_ref()
            .and_then(|l| l.mirror.as_ref())
            .ok_or_else(|| QueryError::Plan("columnar plan without a built mirror".into()))
    }

    /// Run the interval range-slice plus filter kernels over the
    /// mirror: binary-search the plan interval to a contiguous row
    /// range, evaluate the bound pushdown as bitmap kernels over it,
    /// charge the modeled compute cost, and emit a [`Stage::Compute`]
    /// span. Returns the range and the selected rows' offsets in it,
    /// ascending.
    fn columnar_select(
        &self,
        dataset: &Dataset,
        plan: &PhysicalPlan,
        pushdown: &ColumnarPushdown,
        m: &mut ExecMetrics,
        sink: Option<&mut TraceBuilder>,
    ) -> Result<(Range<usize>, Vec<usize>)> {
        let cols = self.columnar_mirror()?;
        let started = dataset.clock.now();
        let range = cols.rows_in(plan.interval);
        let scanned = range.len();
        let selected: Vec<usize> = match pushdown.bound() {
            // Nothing to evaluate: the whole range is selected.
            BoundPredicate::True => (0..scanned).collect(),
            bound => {
                let selection = cols.table().eval(bound, range.clone());
                let mut selected = Vec::with_capacity(selection.count_ones());
                selected.extend(selection.iter_ones().map(|i| i - range.start));
                selected
            }
        };
        let cost = crate::cost::columnar_scan_cost(scanned as u64);
        dataset.clock.advance(cost);
        m.charged_cost += cost;
        if let Some(tb) = sink {
            let mut span = QuerySpan::new(Stage::Compute, kernel_detail(plan), started);
            span.ended = dataset.clock.now();
            span.actual = cost;
            span.rows = Some(selected.len() as u64);
            span.attrs = vec![
                ("rows_scanned", scanned as u64),
                ("rows_selected", selected.len() as u64),
            ];
            tb.push(span);
        }
        Ok((range, selected))
    }

    /// Run a plan's fetches and widen what every source shipped into
    /// one activity batch.
    fn run_fetches(
        &self,
        dataset: &Dataset,
        fetches: &[FetchPlan],
        concurrent_sources: bool,
        m: &mut ExecMetrics,
        mut sink: Option<&mut TraceBuilder>,
    ) -> Result<ActivityColumns> {
        let mut shipped: Vec<Table> = Vec::new();
        let mut per_source_cost = Vec::with_capacity(fetches.len());
        // The sources of a plan share one leaf set: its keys are built once.
        let mut built: Option<(&LeafSet, SortedKeys)> = None;
        for f in fetches {
            let fetch_started = dataset.clock.now();
            let (_, keys) = match built.take() {
                Some(same) if *same.0 == f.leaves => built.insert(same),
                _ => built.insert((&f.leaves, dataset.fetch_keys(&f.leaves))),
            };
            let resp = batched_lookup_with_retry(
                f.handle(),
                keys,
                f.pushdown(),
                f.max_batch(),
                f.dispatch(),
                self.retry,
            )?;
            let rows = resp.rows();
            m.retries += resp.retries as usize;
            m.source_requests += resp.requests();
            m.rows_fetched += rows;
            if let Some(tb) = sink.as_deref_mut() {
                let mut span = QuerySpan::new(Stage::Fetch, f.source(), fetch_started);
                span.actual = resp.cost;
                span.est_cost = Some(f.est_cost);
                span.est_rows = Some(f.est_rows);
                span.rows = Some(rows as u64);
                span.attrs = vec![
                    ("requests", resp.requests() as u64),
                    ("keys", keys.len() as u64),
                    ("retries", u64::from(resp.retries)),
                ];
                tb.push(span);
            }
            per_source_cost.push(resp.cost);
            shipped.extend(resp.batches);
        }

        let total_cost = if concurrent_sources {
            per_source_cost.into_iter().max().unwrap_or(Duration::ZERO)
        } else {
            per_source_cost.into_iter().sum()
        };
        dataset.clock.advance(total_cost);
        m.charged_cost += total_cost;

        let (batch, unmapped) = ActivityColumns::widen(dataset, &shipped)?;
        m.rows_unmapped += unmapped;
        Ok(batch)
    }
}

/// Activity-half width of a unified row; ligand cells follow.
const ACTIVITY_CELLS: usize = crate::ast::columns::ACTIVITY.len();
/// Cells the ligand join contributes (the ligand table minus its id).
const LIGAND_CELLS: usize = crate::ast::columns::LIGAND.len();

/// The one accessor steps 2–6 read activity cells through, by
/// position: a batch's columns over the range in scope. A position is
/// an offset into the range, and a cell is read from its column, so no
/// row exists until one is returned.
struct Cells<'a> {
    columns: [ColumnSlice<'a>; ACTIVITY_CELLS],
    range: Range<usize>,
}

impl<'a> Cells<'a> {
    fn new(batch: &'a ActivityColumns, range: Range<usize>) -> Cells<'a> {
        let table = batch.table();
        Cells {
            columns: std::array::from_fn(|c| table.column(c)),
            range,
        }
    }

    /// Positions held.
    fn len(&self) -> usize {
        self.range.len()
    }

    /// Activity cell `column` at position `i` (a text cell as a handle
    /// to the batch dictionary's allocation).
    fn cell(&self, i: usize, column: usize) -> Value {
        self.columns[column].value_at(self.range.start + i)
    }

    /// The ligand id at position `i`, borrowed from the batch
    /// dictionary's one allocation of it; `None` when it is not text.
    fn ligand(&self, i: usize) -> Option<&'a str> {
        self.columns[LIGAND_ID].text_at(self.range.start + i)
    }

    /// The leaf rank at position `i`, when it is an integer.
    fn rank(&self, i: usize) -> Option<i64> {
        self.columns[RANK].int_at(self.range.start + i)
    }

    /// The pActivity at position `i`, when it is a number.
    fn potency(&self, i: usize) -> Option<f64> {
        self.columns[P_ACTIVITY].f64_at(self.range.start + i)
    }

    /// Build the unified output rows at `picked` positions, in that
    /// order.
    fn unified_rows(&self, picked: &[usize], join: &LigandJoin) -> Vec<Vec<Value>> {
        picked
            .iter()
            .map(|&i| join.unified_row(i, (0..ACTIVITY_CELLS).map(|c| self.cell(i, c))))
            .collect()
    }
}

/// A value per distinct ligand, computed once per text allocation. Ids
/// are read from a batch's dictionary, which holds one allocation per
/// string, so a memo keyed by the text's address hashes no bytes. The
/// texts are borrowed for `'a`, the memo's whole life, so two equal
/// addresses are one live allocation and hence one text; equal texts in
/// two allocations are merely computed twice.
struct PerLigand<'a, T> {
    memo: FxHashMap<*const u8, T>,
    texts: PhantomData<&'a str>,
}

impl<T> Default for PerLigand<'_, T> {
    fn default() -> Self {
        PerLigand {
            memo: FxHashMap::default(),
            texts: PhantomData,
        }
    }
}

impl<'a, T: Copy> PerLigand<'a, T> {
    fn get(&mut self, id: &'a str, compute: impl FnOnce(&'a str) -> T) -> T {
        *self.memo.entry(id.as_ptr()).or_insert_with(|| compute(id))
    }
}

/// Step 2's ligand join: per activity position, the row of the
/// overlay's ligand table it joins to, whose cells are read from the
/// table's columns when a filter or the output needs them. A position
/// with none joins NULL cells.
#[derive(Default)]
struct LigandJoin<'d> {
    /// The ligand table (ligand_id, then the LIGAND_CELLS joined) and
    /// its joined columns: name, smiles, mw, hbd, hba, rings. `None`
    /// when the plan joins nothing.
    table: Option<(&'d Table, [ColumnSlice<'d>; LIGAND_CELLS])>,
    /// Per activity position, its ligand-table row.
    rows: Vec<Option<u32>>,
}

impl<'d> LigandJoin<'d> {
    /// A join of `positions` activity positions, none joined yet.
    fn new(table: &'d Table, positions: usize) -> LigandJoin<'d> {
        LigandJoin {
            table: Some((table, std::array::from_fn(|c| table.column(c + 1)))),
            rows: vec![None; positions],
        }
    }

    /// Join the positions at `targets` to the ligand table by its
    /// `ligand_id` key, where the first row holding an id wins. A
    /// ligand the table lacks leaves no row (NULL cells). The key is
    /// probed once per distinct ligand ([`PerLigand`]).
    fn probe(&mut self, cells: &Cells<'_>, targets: &[usize]) {
        let Some((table, _)) = self.table else {
            return;
        };
        let mut joined = PerLigand::default();
        for &i in targets {
            let Some(ligand) = cells.ligand(i) else {
                continue;
            };
            self.rows[i] = joined.get(ligand, |_| {
                table.key_rows(&cells.cell(i, LIGAND_ID)).first().copied()
            });
        }
    }

    /// The joined columns and the row position `i` joined to.
    fn joined(&self, i: usize) -> Option<(&[ColumnSlice<'_>; LIGAND_CELLS], usize)> {
        let (_, columns) = self.table.as_ref()?;
        Some((columns, (*self.rows.get(i)?)? as usize))
    }

    /// Output row `i`, allocated once at its full width: the activity
    /// cells, then the joined ligand cells or NULLs.
    fn unified_row(&self, i: usize, activity_cells: impl Iterator<Item = Value>) -> Vec<Value> {
        let mut row = Vec::with_capacity(ACTIVITY_CELLS + LIGAND_CELLS);
        row.extend(activity_cells);
        match self.joined(i) {
            Some((columns, at)) => row.extend(columns.iter().map(|c| c.value_at(at))),
            None => row.resize(ACTIVITY_CELLS + LIGAND_CELLS, Value::Null),
        }
        row
    }
}

/// True when the predicate reads a cell the ligand join supplies.
fn reads_ligand_cells(pred: &BoundPredicate) -> bool {
    match pred {
        BoundPredicate::True => false,
        BoundPredicate::Compare { column, .. }
        | BoundPredicate::Between { column, .. }
        | BoundPredicate::InSet { column, .. }
        | BoundPredicate::IsNull { column } => *column >= ACTIVITY_CELLS,
        BoundPredicate::And(ps) | BoundPredicate::Or(ps) => ps.iter().any(reads_ligand_cells),
        BoundPredicate::Not(p) => reads_ligand_cells(p),
    }
}

/// Cell `column` of the unified row at position `i`, without building
/// the row: an activity cell (read in place), a joined ligand cell
/// (read from its column), or NULL.
fn unified_cell(cells: &Cells<'_>, join: &LigandJoin, i: usize, column: usize) -> Value {
    if column < ACTIVITY_CELLS {
        return cells.cell(i, column);
    }
    match join.joined(i) {
        Some((columns, at)) => columns[column - ACTIVITY_CELLS].value_at(at),
        None => Value::Null,
    }
}

/// The Compute span's detail: `columnar-aggregate` for a pure
/// aggregate, whose groups are folded from the kernels' selection with
/// no filter step between, else `columnar-scan`.
fn kernel_detail(plan: &PhysicalPlan) -> &'static str {
    match &plan.finish {
        Finish::Aggregate { metrics, .. }
            if !metrics.contains(&Metric::DistinctLigands)
                && plan.residual == Predicate::True
                && plan.similarity.is_none()
                && plan.substructure.is_none()
                && !plan.ligand_join =>
        {
            "columnar-aggregate"
        }
        _ => "columnar-scan",
    }
}

fn unified_columns() -> Vec<String> {
    unified_schema()
        .columns()
        .iter()
        .map(|c| c.name.clone())
        .collect()
}

/// Step 6, finish, on survivor positions: rank, group or count over
/// cells read in place, and build unified rows only for what is
/// returned: a top-k's survivors are its k best, best first.
fn finish_survivors(
    dataset: &Dataset,
    plan: &PhysicalPlan,
    view: Option<&MaterializedAggregates>,
    cells: &Cells<'_>,
    survivors: Vec<usize>,
    join: &LigandJoin,
) -> Result<(Vec<String>, Vec<Vec<Value>>)> {
    Ok(match &plan.finish {
        Finish::Collect | Finish::TopK { .. } => {
            (unified_columns(), cells.unified_rows(&survivors, join))
        }
        Finish::Aggregate {
            groups, metrics, ..
        } => {
            let out = if matches!(plan.access, Access::MaterializedView(_)) {
                let view =
                    view.ok_or_else(|| QueryError::Plan("matview plan without view".into()))?;
                groups
                    .iter()
                    .map(|&(node, iv)| {
                        let cells = metrics.iter().map(|&metric| view.value(node, metric));
                        group_row(dataset, node, iv, cells)
                    })
                    .collect()
            } else {
                // Every access hands over rank-sorted positions of the
                // scope and filtering keeps them ascending, so a group's
                // positions are one run of survivors, found by binary
                // search: those of its interval ∩ the scope. A batch's
                // ranks are never NULL.
                let rank = |i| cells.rank(i).unwrap_or(i64::MAX);
                debug_assert!((1..cells.len()).all(|i| rank(i - 1) <= rank(i)));
                groups
                    .iter()
                    .map(|&(node, iv)| {
                        let start = survivors.partition_point(|&i| rank(i) < i64::from(iv.lo));
                        let end = survivors.partition_point(|&i| rank(i) < i64::from(iv.hi));
                        let run = &survivors[start..end.max(start)];
                        let values = metrics
                            .iter()
                            .map(|&metric| aggregate_group(cells, run, metric));
                        group_row(dataset, node, iv, values)
                    })
                    .collect()
            };
            (aggregate_columns(metrics), out)
        }
        Finish::CountPerLeaf => {
            let columns = vec![
                "leaf_rank".to_string(),
                "accession".to_string(),
                "count".to_string(),
            ];
            let mut counts = vec![0i64; plan.interval.len() as usize];
            for &i in &survivors {
                let slot = cells
                    .rank(i)
                    .and_then(|rank| (rank as u32).checked_sub(plan.interval.lo))
                    .and_then(|offset| counts.get_mut(offset as usize));
                if let Some(slot) = slot {
                    *slot += 1;
                }
            }
            let out = (plan.interval.lo..plan.interval.hi)
                .zip(counts)
                .map(|(rank, count)| {
                    vec![
                        Value::from(rank),
                        dataset
                            .accession_of_rank(rank)
                            .map_or(Value::Null, Value::from),
                        Value::Int(count),
                    ]
                })
                .collect();
            (columns, out)
        }
    })
}

/// Column names of an aggregate result: the group, then one column per
/// metric.
fn aggregate_columns(metrics: &[Metric]) -> Vec<String> {
    ["clade", "leaf_lo", "leaf_hi"]
        .into_iter()
        .map(str::to_string)
        .chain(metrics.iter().map(|m| m.label().to_string()))
        .collect()
}

/// One aggregate result row: the group's label (`n<id>` when it has
/// none) and interval, then one cell per metric.
fn group_row(
    dataset: &Dataset,
    node: NodeId,
    iv: LeafInterval,
    cells: impl IntoIterator<Item = Value>,
) -> Vec<Value> {
    let label = match &dataset.tree.node_unchecked(node).label {
        Some(label) => Value::from(label.as_str()),
        None => Value::from(format!("n{}", node.0)),
    };
    let cells = cells.into_iter();
    let mut row = Vec::with_capacity(3 + cells.size_hint().0);
    row.extend([label, Value::from(iv.lo), Value::from(iv.hi)]);
    row.extend(cells);
    row
}

/// One group's metric over the cells at `group` positions, folded in
/// position (rank) order.
fn aggregate_group(cells: &Cells<'_>, group: &[usize], metric: Metric) -> Value {
    let potencies = || group.iter().filter_map(|&i| cells.potency(i));
    match metric {
        Metric::Count => Value::Int(group.len() as i64),
        Metric::DistinctLigands => {
            let distinct: std::collections::HashSet<&str> =
                group.iter().filter_map(|&i| cells.ligand(i)).collect();
            Value::Int(distinct.len() as i64)
        }
        Metric::MaxPActivity => potencies()
            .fold(None, |acc: Option<f64>, p| {
                Some(acc.map_or(p, |a| a.max(p)))
            })
            .map_or(Value::Null, Value::Float),
        Metric::MeanPActivity => {
            // Summed in rank order: the order the matview reproduces
            // bit for bit.
            let mut n = 0usize;
            let sum: f64 = potencies().inspect(|_| n += 1).sum();
            if n == 0 {
                Value::Null
            } else {
                Value::Float(sum / n as f64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Query, Scope};
    use crate::dataset::test_fixtures::small_dataset;
    use crate::optimizer::OptimizerConfig;
    use drugtree_sources::source::SourceCapabilities;
    use drugtree_store::expr::CompareOp;

    fn executor(config: OptimizerConfig) -> Executor {
        Executor::new(Optimizer::new(config))
    }

    fn full_executor_with_stats(dataset: &Dataset) -> Executor {
        let mut e = executor(OptimizerConfig::full());
        e.collect_stats(dataset).unwrap();
        e
    }

    #[test]
    fn naive_and_optimized_agree_on_results() {
        let d = small_dataset(SourceCapabilities::full());
        let naive = executor(OptimizerConfig::naive());
        let full = full_executor_with_stats(&d);
        for query in [
            Query::activities(Scope::Tree),
            Query::activities(Scope::Subtree("cladeA".into())),
            Query::activities(Scope::Tree).filter(Predicate::cmp("p_activity", CompareOp::Ge, 6.5)),
            Query::activities(Scope::Tree).filter(Predicate::cmp("mw", CompareOp::Lt, 100.0)),
            Query::activities(Scope::Tree).top_k("p_activity", 2, true),
        ] {
            let a = naive.execute(&d, &query).unwrap();
            let b = full.execute(&d, &query).unwrap();
            assert_eq!(a.columns, b.columns);
            assert_eq!(a.rows, b.rows, "query {query:?}");
        }
    }

    #[test]
    fn nesting_at_the_bound_answers_as_the_flat_query() {
        use crate::ast::MAX_PREDICATE_DEPTH;
        let d = small_dataset(SourceCapabilities::full());
        let flat = Query::parse("activities where year >= 2012").unwrap();
        let wrapped = |open: &str, close: &str| {
            let text = format!(
                "activities where {}year >= 2012{}",
                open.repeat(MAX_PREDICATE_DEPTH),
                close.repeat(MAX_PREDICATE_DEPTH)
            );
            Query::parse(&text).unwrap()
        };
        // An even number of negations is the identity.
        for nested in [wrapped("(", ")"), wrapped("not ", "")] {
            for e in [
                executor(OptimizerConfig::naive()),
                full_executor_with_stats(&d),
            ] {
                let expected = e.execute(&d, &flat).unwrap();
                assert_eq!(expected.rows.len(), 3);
                assert_eq!(e.execute(&d, &nested).unwrap().rows, expected.rows);
            }
        }
        // A built query one level deeper is refused, not followed.
        let mut deep = wrapped("not ", "");
        deep.predicate = Predicate::Not(Box::new(deep.predicate));
        let e = executor(OptimizerConfig::full());
        assert!(matches!(e.execute(&d, &deep), Err(QueryError::Plan(_))));
    }

    #[test]
    fn optimized_costs_less_virtual_time() {
        let d = small_dataset(SourceCapabilities::full());
        let naive = executor(OptimizerConfig::naive());
        let full = full_executor_with_stats(&d);
        let q = Query::activities(Scope::Tree);
        let a = naive.execute(&d, &q).unwrap();
        let b = full.execute(&d, &q).unwrap();
        assert!(
            b.metrics.virtual_cost < a.metrics.virtual_cost,
            "optimized {:?} vs naive {:?}",
            b.metrics.virtual_cost,
            a.metrics.virtual_cost
        );
        assert!(b.metrics.source_requests < a.metrics.source_requests);
    }

    #[test]
    fn activities_rows_are_joined_and_ordered() {
        let d = small_dataset(SourceCapabilities::full());
        let e = executor(OptimizerConfig::naive());
        let r = e.execute(&d, &Query::activities(Scope::Tree)).unwrap();
        assert_eq!(r.rows.len(), 4);
        assert_eq!(r.columns.len(), 14);
        // Rank-ordered.
        let ranks: Vec<i64> = r.rows.iter().map(|x| x[0].as_int().unwrap()).collect();
        let mut sorted = ranks.clone();
        sorted.sort();
        assert_eq!(ranks, sorted);
        // Ligand join filled mw for aspirin rows.
        let aspirin_row = r.rows.iter().find(|x| x[2] == Value::from("L1")).unwrap();
        assert!(aspirin_row[10].as_f64().unwrap() > 100.0);
    }

    #[test]
    fn cache_hit_on_drilldown() {
        let d = small_dataset(SourceCapabilities::full());
        let e = full_executor_with_stats(&d);
        let parent = Query::activities(Scope::Tree);
        let child = Query::activities(Scope::Subtree("cladeA".into()));

        let r1 = e.execute(&d, &parent).unwrap();
        assert_eq!(r1.metrics.cache_hit, Some(false));
        assert!(r1.metrics.source_requests > 0);

        let r2 = e.execute(&d, &child).unwrap();
        assert_eq!(r2.metrics.cache_hit, Some(true));
        assert_eq!(r2.metrics.source_requests, 0, "drill-down hits the cache");
        assert_eq!(r2.metrics.virtual_cost, Duration::ZERO);
        assert_eq!(r2.rows.len(), 3);

        let stats = e.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn invalidation_forces_refetch() {
        let d = small_dataset(SourceCapabilities::full());
        let e = full_executor_with_stats(&d);
        let q = Query::activities(Scope::Tree);
        e.execute(&d, &q).unwrap();
        e.invalidate();
        let r = e.execute(&d, &q).unwrap();
        assert_eq!(r.metrics.cache_hit, Some(false));
    }

    #[test]
    fn top_k_orders_and_truncates() {
        let d = small_dataset(SourceCapabilities::full());
        let e = executor(OptimizerConfig::full());
        let q = Query::activities(Scope::Tree).top_k("p_activity", 2, true);
        let r = e.execute(&d, &q).unwrap();
        assert_eq!(r.rows.len(), 2);
        // Best potency first: P3-L3 at 1 nM (p=9), then P1-L1 at 10 nM (p=8).
        assert_eq!(r.rows[0][2], Value::from("L3"));
        assert_eq!(r.rows[1][2], Value::from("L1"));
        // Ascending flips it.
        let q = Query::activities(Scope::Tree).top_k("p_activity", 1, false);
        let r = e.execute(&d, &q).unwrap();
        assert_eq!(r.rows[0][2], Value::from("L2"), "weakest first ascending");
    }

    #[test]
    fn aggregate_children() {
        let d = small_dataset(SourceCapabilities::full());
        let e = executor(OptimizerConfig::naive());
        let q = Query::activities(Scope::Tree).aggregate(Metric::Count);
        let r = e.execute(&d, &q).unwrap();
        assert_eq!(r.columns, vec!["clade", "leaf_lo", "leaf_hi", "count"]);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Value::from("cladeA"));
        assert_eq!(r.rows[0][3], Value::Int(3));
        assert_eq!(r.rows[1][3], Value::Int(1));
    }

    #[test]
    fn a_node_list_folds_each_clade_inside_the_scope() {
        let d = small_dataset(SourceCapabilities::full());
        let node = |label| d.index.by_label(label).unwrap();
        // Leaves [1, 3): P2, then P3 of cladeB [2, 4), which the scope
        // cuts in half.
        let scope = Scope::Interval(LeafInterval { lo: 1, hi: 3 });
        let q = Query::activities(scope).aggregate_nodes(
            vec![node("P2"), node("cladeB")],
            &[Metric::Count, Metric::MaxPActivity],
        );
        let naive = executor(OptimizerConfig::naive()).execute(&d, &q).unwrap();
        assert_eq!(
            naive.columns,
            ["clade", "leaf_lo", "leaf_hi", "count", "max_p_activity"]
        );
        // P2: one record at 100 nM; cladeB ∩ scope: P3's 1 nM alone.
        let glyphs: Vec<(Value, i64, f64)> = naive
            .rows
            .iter()
            .map(|r| (r[0].clone(), r[3].as_int().unwrap(), r[4].as_f64().unwrap()))
            .collect();
        assert_eq!(
            glyphs,
            [(Value::from("P2"), 1, 7.0), (Value::from("cladeB"), 1, 9.0)]
        );
        let mut local = executor(OptimizerConfig::full());
        local.build_local(&d, Keep::Both).unwrap();
        for e in [full_executor_with_stats(&d), local] {
            assert_eq!(e.execute(&d, &q).unwrap().rows, naive.rows);
        }
        let text = executor(OptimizerConfig::full()).explain(&d, &q).unwrap();
        assert!(
            text.contains("AggregateNodes metric=count,max_p_activity nodes=2"),
            "{text}"
        );
    }

    #[test]
    fn aggregate_served_by_matview() {
        let d = small_dataset(SourceCapabilities::full());
        let mut e = executor(OptimizerConfig::full());
        e.build_local(&d, Keep::View).unwrap();
        let q = Query::activities(Scope::Tree).aggregate(Metric::Count);
        let r = e.execute(&d, &q).unwrap();
        assert_eq!(r.metrics.source_requests, 0, "view answers without fetch");
        assert_eq!(r.rows[0][3], Value::Int(3));
        assert_eq!(r.rows[1][3], Value::Int(1));
        assert!(r.metrics.notes.iter().any(|n| n.contains("matview")));
    }

    #[test]
    fn interval_scope_served_by_columnar_mirror() {
        let d = small_dataset(SourceCapabilities::full());
        let naive = executor(OptimizerConfig::naive());
        let mut e = executor(OptimizerConfig::full());
        e.build_local(&d, Keep::Mirror).unwrap();
        for query in [
            Query::activities(Scope::Tree),
            Query::activities(Scope::Subtree("cladeA".into())),
            Query::activities(Scope::Tree).filter(Predicate::cmp("p_activity", CompareOp::Ge, 6.5)),
            Query::activities(Scope::Tree).top_k("p_activity", 2, true),
        ] {
            let a = naive.execute(&d, &query).unwrap();
            let b = e.execute(&d, &query).unwrap();
            assert_eq!(a.columns, b.columns);
            assert_eq!(a.rows, b.rows, "query {query:?}");
            assert_eq!(b.metrics.source_requests, 0, "mirror answers locally");
            assert!(b.metrics.notes.iter().any(|n| n.contains("columnar")));
        }
    }

    #[test]
    fn aggregates_served_by_columnar_kernels() {
        let d = small_dataset(SourceCapabilities::full());
        let naive = executor(OptimizerConfig::naive());
        let mut e = executor(OptimizerConfig::full());
        e.build_local(&d, Keep::Mirror).unwrap();
        for metric in [Metric::Count, Metric::MeanPActivity, Metric::MaxPActivity] {
            let q = Query::activities(Scope::Tree).aggregate(metric);
            let a = naive.execute(&d, &q).unwrap();
            let b = e.execute(&d, &q).unwrap();
            assert_eq!(a.columns, b.columns);
            assert_eq!(a.rows, b.rows, "metric {metric:?}");
            assert_eq!(b.metrics.source_requests, 0);
        }
        // DistinctLigands needs the rows; the kernel fast path must
        // decline it, not answer it wrong.
        let q = Query::activities(Scope::Tree).aggregate(Metric::DistinctLigands);
        let a = naive.execute(&d, &q).unwrap();
        let b = e.execute(&d, &q).unwrap();
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn columnar_trace_carries_compute_span() {
        let d = small_dataset(SourceCapabilities::full());
        let mut e = executor(OptimizerConfig::full());
        e.build_local(&d, Keep::Mirror).unwrap();
        let q =
            Query::activities(Scope::Tree).filter(Predicate::cmp("p_activity", CompareOp::Ge, 6.5));
        let analyzed = e.analyze(&d, &q).unwrap();
        assert!(
            analyzed.trace.stage_total(crate::trace::Stage::Compute) > Duration::ZERO,
            "columnar execution must attribute cost to the compute stage"
        );
        assert_eq!(
            analyzed.trace.stage_total(crate::trace::Stage::Fetch),
            Duration::ZERO
        );
    }

    #[test]
    fn matview_still_preferred_over_columnar_for_aggregates() {
        let d = small_dataset(SourceCapabilities::full());
        let mut e = executor(OptimizerConfig::full());
        e.build_local(&d, Keep::Both).unwrap();
        let q = Query::activities(Scope::Tree).aggregate(Metric::Count);
        let r = e.execute(&d, &q).unwrap();
        // The view is precomputed (zero per-row work at query time), so
        // it outranks even the kernel path when both are fresh.
        assert!(r.metrics.notes.iter().any(|n| n.contains("matview")));
        assert_eq!(r.rows[0][3], Value::Int(3));
    }

    #[test]
    fn count_per_leaf() {
        let d = small_dataset(SourceCapabilities::full());
        let e = executor(OptimizerConfig::full());
        let q = Query {
            scope: Scope::Tree,
            predicate: Predicate::True,
            similarity: None,
            substructure: None,
            kind: crate::ast::QueryKind::CountPerLeaf,
        };
        let r = e.execute(&d, &q).unwrap();
        assert_eq!(r.rows.len(), 4);
        let counts: Vec<i64> = r.rows.iter().map(|x| x[2].as_int().unwrap()).collect();
        assert_eq!(counts, vec![2, 1, 1, 0]);
    }

    #[test]
    fn similarity_filters_rows() {
        let d = small_dataset(SourceCapabilities::full());
        let e = executor(OptimizerConfig::full());
        // Exactly ethanol: only the P1-L2 record survives.
        let q = Query::activities(Scope::Tree).similar_to("CCO", 0.999);
        let r = e.execute(&d, &q).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][2], Value::from("L2"));
        // Threshold zero keeps everything with a fingerprint.
        let q = Query::activities(Scope::Tree).similar_to("CCO", 0.0);
        let r = e.execute(&d, &q).unwrap();
        assert_eq!(r.rows.len(), 4);
    }

    #[test]
    fn proved_empty_returns_no_rows_and_no_cost() {
        let d = small_dataset(SourceCapabilities::full());
        let e = full_executor_with_stats(&d);
        let before = d.clock.now();
        let q = Query::activities(Scope::Subtree("P4".into()));
        let r = e.execute(&d, &q).unwrap();
        assert!(r.rows.is_empty());
        assert_eq!(r.metrics.source_requests, 0);
        assert_eq!(d.clock.now(), before);
    }

    /// Append a measurement to the one assay source, as a remote
    /// deposition would.
    fn ingest(d: &Dataset, acc: &str, ligand: &str, value_nm: f64) {
        let record = crate::dataset::test_fixtures::activity(acc, ligand, value_nm, 2014);
        d.registry
            .by_kind(drugtree_sources::source::SourceKind::Assay)[0]
            .ingest(drugtree_sources::assay_db::assay_row(&record))
            .unwrap();
    }

    #[test]
    fn statistics_prove_nothing_after_an_ingest() {
        let d = small_dataset(SourceCapabilities::full());
        let naive = executor(OptimizerConfig::naive());
        let mut full = full_executor_with_stats(&d);
        // P4 was empty when the statistics were collected; 5 nM is a
        // pActivity of 8.3, above P4's recorded maximum.
        ingest(&d, "P4", "L2", 5.0);
        let clade_b = Query::activities(Scope::Subtree("cladeB".into()));
        let potent =
            Query::activities(Scope::Tree).filter(Predicate::cmp("p_activity", CompareOp::Ge, 8.0));
        for (query, rows) in [(&clade_b, 2), (&potent, 3)] {
            let want = naive.execute(&d, query).unwrap();
            let got = full.execute(&d, query).unwrap();
            assert_eq!(want.rows.len(), rows, "{query:?}");
            assert_eq!(got.rows, want.rows, "{query:?}");
            assert_eq!(got.metrics.pruned_leaves, 0, "{query:?}");
        }
        // Statistics collected again prove again: P2 (7.0 at most) is
        // dropped, and the deposition is kept.
        full.collect_stats(&d).unwrap();
        let got = full.execute(&d, &potent).unwrap();
        assert_eq!(got.metrics.pruned_leaves, 1);
        assert_eq!(got.rows, naive.execute(&d, &potent).unwrap().rows);
        assert_eq!(got.rows.len(), 3);
    }

    #[test]
    fn a_cached_answer_is_not_served_after_an_ingest() {
        let d = small_dataset(SourceCapabilities::full());
        let naive = executor(OptimizerConfig::naive());
        let full = executor(OptimizerConfig::full());
        let clade_a = Query::activities(Scope::Subtree("cladeA".into()));
        assert_eq!(full.execute(&d, &clade_a).unwrap().rows.len(), 3);
        ingest(&d, "P2", "L2", 50.0);
        let got = full.execute(&d, &clade_a).unwrap();
        assert_eq!(got.metrics.cache_hit, Some(false));
        assert_eq!(got.rows.len(), 4);
        assert_eq!(got.rows, naive.execute(&d, &clade_a).unwrap().rows);
        assert_eq!(full.cache_stats().invalidations, 1);
    }

    #[test]
    fn explain_without_execution() {
        let d = small_dataset(SourceCapabilities::full());
        let e = executor(OptimizerConfig::full());
        let text = e.explain(&d, &Query::activities(Scope::Tree)).unwrap();
        assert!(text.contains("CacheProbe"));
        assert!(
            e.cache_stats().misses == 0,
            "explain must not touch the cache"
        );
    }

    #[test]
    fn pushdown_of_derived_column_executes_on_cold_cache() {
        // Regression: p_activity does not exist in the remote assay
        // schema; the optimizer must ship a value_nm translation. A
        // fresh executor guarantees the fetch path actually runs
        // (earlier this bug was masked by cache hits).
        let d = small_dataset(SourceCapabilities::full());
        let mut e = executor(OptimizerConfig::full());
        e.collect_stats(&d).unwrap();
        let q =
            Query::activities(Scope::Tree).filter(Predicate::cmp("p_activity", CompareOp::Ge, 6.5));
        let r = e.execute(&d, &q).unwrap();
        assert_eq!(r.metrics.cache_hit, Some(false), "must hit the sources");
        // P1-L1 (p=8), P2-L1 (p=7), P3-L3 (p=9) qualify; P1-L2 (p≈5.7) not.
        assert_eq!(r.rows.len(), 3);
        // The pushdown actually reduced shipped rows below the total.
        assert!(r.metrics.rows_fetched <= 3);
    }

    #[test]
    fn pushdown_boundary_rows_survive() {
        // A measurement exactly at the translated boundary must not be
        // lost to float error: p_activity >= 6 vs the 1000 nM record.
        let d = small_dataset(SourceCapabilities::full());
        let e = executor(OptimizerConfig::full());
        let q =
            Query::activities(Scope::Tree).filter(Predicate::cmp("p_activity", CompareOp::Ge, 8.0));
        let r = e.execute(&d, &q).unwrap();
        // P1-L1 at exactly 10 nM (p = 8.0) must be included.
        assert!(r
            .rows
            .iter()
            .any(|row| row[2] == Value::from("L1") && row[4] == Value::Float(10.0)));
    }

    #[test]
    fn substructure_filters_by_scaffold() {
        let d = small_dataset(SourceCapabilities::full());
        let e = executor(OptimizerConfig::full());
        // Phenyl ring: only aspirin (L1) contains it.
        let q = Query::activities(Scope::Tree).containing("c1ccccc1");
        let r = e.execute(&d, &q).unwrap();
        assert_eq!(r.rows.len(), 2, "both L1 records survive");
        assert!(r.rows.iter().all(|row| row[2] == Value::from("L1")));
        // Using a ligand id as the pattern: structures containing
        // ethanol's C-C-O chain.
        let q = Query::activities(Scope::Tree).containing("L2");
        let r = e.execute(&d, &q).unwrap();
        assert!(r.rows.iter().any(|row| row[2] == Value::from("L2")));
        // A scaffold nobody has: empty result.
        let q = Query::activities(Scope::Tree).containing("C#N");
        assert!(e.execute(&d, &q).unwrap().rows.is_empty());
        // Invalid pattern: clean error.
        let q = Query::activities(Scope::Tree).containing("((((");
        assert!(matches!(
            e.execute(&d, &q),
            Err(crate::QueryError::BadSubstructurePattern(_))
        ));
    }

    #[test]
    fn substructure_explain_and_agreement_with_naive() {
        let d = small_dataset(SourceCapabilities::full());
        let full = executor(OptimizerConfig::full());
        let naive = executor(OptimizerConfig::naive());
        let q = Query::activities(Scope::Tree).containing("c1ccccc1");
        assert_eq!(
            naive.execute(&d, &q).unwrap().rows,
            full.execute(&d, &q).unwrap().rows
        );
        let text = full.explain(&d, &q).unwrap();
        assert!(text.contains("Substructure"), "{text}");
    }
}
