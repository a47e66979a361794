//! The phased rewrite engine that turns a [`Query`] into a
//! [`PhysicalPlan`] (design decision D13).
//!
//! Planning runs four explicit phases in order (see
//! [`crate::phases::PHASE_ORDER`]):
//!
//! 1. **Analyze** resolves the query against the dataset: the scope
//!    becomes a leaf interval via the tree index (the "standard" from
//!    tree/XML databases, design decision D1), similarity and
//!    substructure references resolve to fingerprints/patterns, and
//!    the assay sources and the ligand-join need are discovered.
//! 2. **Canonicalize** normalizes the predicate
//!    ([`crate::ast::canon::canonicalize`]): negation-normal form,
//!    flattening, constant folding, `between` merging, and conjunct
//!    deduplication, iterated to a fixpoint inside the one rule.
//! 3. **Optimize** applies the cost-reducing rewrites: statistics
//!    pruning (D4), predicate pushdown, selectivity ordering,
//!    cardinality estimation from the overlay histograms, replica
//!    selection, and matview/columnar/cache eligibility.
//! 4. **Lower** produces the physical shape: batching + concurrent
//!    dispatch (D3), per-source fetch plans, access-path selection
//!    (including the semantic cache wrap, D2), and the finish operator.
//!    A fetch names leaf ranks ([`crate::plan::LeafSet`]), not keys.
//!
//! Every rule lives in the per-phase registry
//! ([`crate::phases::REGISTRY`]) with a name, description, body (in
//! this module's `rules`), and — for flag-gated rules — a toggle into
//! [`OptimizerConfig`], so experiment E4's ablations and the `drugtree
//! rules` listing derive from one table. The driver runs each phase's
//! rules once, in registry order, and records every firing in the
//! plan's rule trace for EXPLAIN. The plan's parts are built by
//! constructors that make its ten invariants hold by construction
//! ([`crate::plan`]), so a finished plan is not checked again.
//! `OptimizerConfig::naive()` reproduces the unoptimized DrugTree
//! described in the paper's opening: one sequential round-trip per leaf
//! per source, all filtering client-side, no caching, no pruning.
//!
//! The access path is chosen by one fixed order in every mode:
//! proved-empty, materialized view, columnar scan, cache wrap, fetch.
//! Replica selection prices each group member from its self-declared
//! latency model at a nominal 100 rows.

use crate::ast::{columns, Groups, Query, QueryKind, SimilaritySpec, MAX_PREDICATE_DEPTH};
use crate::dataset::{Dataset, SourceEpoch};
use crate::local::LocalBuild;
use crate::matview::MaterializedAggregates;
use crate::phases::{PassTrace, RewritePhase, RuleFiring, RuleOutcome, PHASE_ORDER};
use crate::plan::{
    Access, CacheProbe, ColumnarPushdown, FetchLowering, Finish, LeafSet, PhysicalPlan,
    ResolvedSimilarity, ResolvedSubstructure, SourcePushdown, UnifiedColumn, ViewAccess,
};
use crate::stats::OverlayStats;
use crate::{QueryError, Result};
use drugtree_chem::fingerprint::Fingerprint;
use drugtree_chem::smiles::parse_smiles;
use drugtree_phylo::index::LeafInterval;
use drugtree_phylo::tree::NodeId;
use drugtree_sources::source::SourceKind;
use drugtree_sources::DataSource;
use drugtree_store::expr::{CompareOp, Predicate};
use std::sync::Arc;
use std::time::Duration;

/// Which rewrites are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizerConfig {
    /// Normalize the predicate (negation-normal form, flattening,
    /// constant folding, `between` merging, deduplication).
    pub canonicalize: bool,
    /// Push supported predicate conjuncts into source fetches.
    pub pushdown: bool,
    /// Coalesce key lookups into batches.
    pub batching: bool,
    /// Dispatch batches and sources concurrently.
    pub concurrent_dispatch: bool,
    /// Prune leaves/subtrees via statistics.
    pub stats_pruning: bool,
    /// Probe and populate the semantic cache.
    pub semantic_cache: bool,
    /// Reorder residual conjuncts by selectivity.
    pub selectivity_ordering: bool,
    /// Answer eligible aggregates from the materialized view.
    pub use_matview: bool,
    /// Serve each declared replica group from its cheapest member
    /// instead of fetching every copy.
    pub replica_selection: bool,
    /// Answer interval scopes from the local columnar activity mirror
    /// (when one is built and fresh) with vectorized kernels instead
    /// of fetching from sources.
    pub columnar_scan: bool,
}

impl OptimizerConfig {
    /// Everything on.
    pub fn full() -> OptimizerConfig {
        OptimizerConfig {
            canonicalize: true,
            pushdown: true,
            batching: true,
            concurrent_dispatch: true,
            stats_pruning: true,
            semantic_cache: true,
            selectivity_ordering: true,
            use_matview: true,
            replica_selection: true,
            columnar_scan: true,
        }
    }

    /// The unoptimized baseline.
    pub fn naive() -> OptimizerConfig {
        OptimizerConfig {
            canonicalize: false,
            pushdown: false,
            batching: false,
            concurrent_dispatch: false,
            stats_pruning: false,
            semantic_cache: false,
            selectivity_ordering: false,
            use_matview: false,
            replica_selection: false,
            columnar_scan: false,
        }
    }

    /// `full()` with one named rule disabled — the E4 ablation helper.
    /// Names resolve against the phase registry
    /// ([`crate::phases::REGISTRY`]), so every flag-gated rule is
    /// ablatable automatically. Unknown (or structural, always-on)
    /// rule names are a caller error reported as
    /// [`QueryError::UnknownRule`], never a panic.
    pub fn ablate(rule: &str) -> Result<OptimizerConfig> {
        let mut c = OptimizerConfig::full();
        match crate::phases::rule_named(rule).and_then(|r| r.toggle) {
            Some(toggle) => {
                toggle(&mut c, false);
                Ok(c)
            }
            None => Err(QueryError::UnknownRule(rule.to_string())),
        }
    }
}

/// Everything the planner borrows besides the query. Only `dataset` and
/// its `epoch` are required; [`PlanInputs::new`] leaves the rest absent.
#[derive(Clone, Copy)]
pub struct PlanInputs<'a> {
    /// The dataset the plan will execute on.
    pub dataset: &'a Dataset,
    /// The query's source epoch, read once before planning.
    pub epoch: SourceEpoch,
    /// Overlay statistics (pruning while fresh, selectivity, cardinality).
    pub stats: Option<&'a OverlayStats>,
    /// The explicit local build: the aggregate view and/or the columnar
    /// mirror, read only while it is fresh.
    pub local: Option<&'a LocalBuild>,
    /// The adaptive runtime's view-only build, read (while fresh) when
    /// `local` holds no view.
    pub adaptive_view: Option<&'a LocalBuild>,
}

impl<'a> PlanInputs<'a> {
    /// Inputs with the dataset and its current epoch alone.
    pub fn new(dataset: &'a Dataset) -> PlanInputs<'a> {
        PlanInputs {
            dataset,
            epoch: dataset.source_epoch(),
            stats: None,
            local: None,
            adaptive_view: None,
        }
    }

    /// The aggregate view a plan reads: the explicit build's, else the
    /// adaptive one.
    pub(crate) fn view(&self) -> Option<&'a MaterializedAggregates> {
        let view = |build: Option<&'a LocalBuild>| build.and_then(|b| b.view.as_ref());
        view(self.local).or_else(|| view(self.adaptive_view))
    }
}

/// The planner.
#[derive(Debug, Clone)]
pub struct Optimizer {
    config: OptimizerConfig,
}

impl Optimizer {
    /// Build with a configuration.
    pub fn new(config: OptimizerConfig) -> Optimizer {
        Optimizer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> OptimizerConfig {
        self.config
    }

    /// Plan a query.
    pub fn plan(&self, inputs: &PlanInputs<'_>, query: &Query) -> Result<PhysicalPlan> {
        validate(query)?;
        // Each local build's one freshness check of this plan.
        let fresh = |build: &&LocalBuild| build.is_fresh(inputs.epoch);
        let fresh_inputs = PlanInputs {
            local: inputs.local.filter(fresh),
            adaptive_view: inputs.adaptive_view.filter(fresh),
            ..*inputs
        };
        let mut rw = Rewrite::new(&self.config, fresh_inputs, query);
        for phase in PHASE_ORDER {
            rw.run_phase(phase)?;
        }
        Ok(rw.into_plan())
    }
}

/// The in-flight draft the phased engine rewrites (design decision
/// D13): the planning inputs plus every product a phase computes.
/// Rules ([`rules`]) mutate the draft and report a [`RuleOutcome`];
/// [`Rewrite::into_plan`] assembles the final [`PhysicalPlan`] once
/// every phase has run.
pub(crate) struct Rewrite<'a> {
    config: &'a OptimizerConfig,
    inputs: PlanInputs<'a>,
    query: &'a Query,

    notes: Vec<String>,
    rule_trace: Vec<PassTrace>,

    // Analyze products.
    scope_node: Option<NodeId>,
    interval: Option<LeafInterval>,
    similarity: Option<ResolvedSimilarity>,
    substructure: Option<ResolvedSubstructure>,
    assay_sources: Vec<Arc<dyn DataSource>>,
    ligand_join: bool,

    // Canonicalize product: the normalized predicate. Starts as the
    // query predicate verbatim; with the rule off it stays
    // byte-identical to it.
    canonical: Predicate,

    // Optimize products.
    residual: Option<Predicate>,
    /// The fetch's leaves once statistics pruned them, and the count
    /// dropped; `None` means every protein-bearing leaf of the interval.
    pruned: Option<(LeafSet, usize)>,
    proved_empty: bool,
    pruning_bound: Option<f64>,
    pushdown: Option<SourcePushdown>,
    expected_rows: u64,
    /// `Some` once replica selection ran; `None` means every assay
    /// source participates.
    chosen_sources: Option<Vec<Arc<dyn DataSource>>>,
    view: Option<ViewAccess>,
    columnar_ready: bool,
    cache_wrap: bool,

    // Lower products.
    lowering: Option<FetchLowering>,
    access: Option<Access>,
    finish: Option<Finish>,
}

impl<'a> Rewrite<'a> {
    fn new(config: &'a OptimizerConfig, inputs: PlanInputs<'a>, query: &'a Query) -> Rewrite<'a> {
        Rewrite {
            config,
            inputs,
            query,
            notes: Vec::new(),
            rule_trace: Vec::new(),
            scope_node: None,
            interval: None,
            similarity: None,
            substructure: None,
            assay_sources: Vec::new(),
            ligand_join: false,
            canonical: query.predicate.clone(),
            residual: None,
            pruned: None,
            proved_empty: false,
            pruning_bound: None,
            pushdown: None,
            expected_rows: 0,
            chosen_sources: None,
            view: None,
            columnar_ready: false,
            cache_wrap: false,
            lowering: None,
            access: None,
            finish: None,
        }
    }

    /// Run one phase: each of its rules once, in registry order,
    /// recording the firings.
    fn run_phase(&mut self, phase: RewritePhase) -> Result<()> {
        let mut firings = Vec::new();
        for rule in crate::phases::rules_in(phase) {
            firings.push(RuleFiring {
                rule: rule.name,
                outcome: (rule.apply)(self)?,
            });
        }
        self.rule_trace.push(PassTrace { phase, firings });
        Ok(())
    }

    fn interval(&self) -> LeafInterval {
        match self.interval {
            Some(iv) => iv,
            None => unreachable!("Analyze resolved the interval"),
        }
    }

    fn scope(&self) -> NodeId {
        match self.scope_node {
            Some(node) => node,
            None => unreachable!("Analyze resolved the scope"),
        }
    }

    /// The sources the fetch path targets: the replica-selection
    /// winners when that rule ran, every assay source otherwise.
    fn sources_for_fetch(&self) -> Vec<Arc<dyn DataSource>> {
        self.chosen_sources
            .clone()
            .unwrap_or_else(|| self.assay_sources.clone())
    }

    /// Replica selection: from each declared replica group, fetch only
    /// the member with the cheapest estimated access; ungrouped sources
    /// all participate. Members are priced from their self-declared
    /// latency model at a nominal 100 rows.
    fn select_replicas(&mut self) {
        let sources = self.assay_sources.clone();
        let mut chosen: Vec<Arc<dyn DataSource>> = Vec::new();
        let mut handled_groups: Vec<&[String]> = Vec::new();
        for s in &sources {
            match self.inputs.dataset.registry.replica_group_of(s.name()) {
                None => chosen.push(s.clone()),
                Some(group) => {
                    if handled_groups.contains(&group) {
                        continue;
                    }
                    handled_groups.push(group);
                    let members = sources
                        .iter()
                        .filter(|c| group.iter().any(|n| n == c.name()));
                    let cheapest = members.min_by_key(|c| {
                        let m = c.latency_model();
                        m.base_rtt + m.per_row * 100
                    });
                    // Registration guarantees groups are non-empty;
                    // fall back to the current source rather than
                    // trusting that here.
                    let Some(cheapest) = cheapest else {
                        chosen.push(s.clone());
                        continue;
                    };
                    self.notes.push(format!(
                        "replica-selection: {} chosen from {group:?}",
                        cheapest.name()
                    ));
                    chosen.push(cheapest.clone());
                }
            }
        }
        self.chosen_sources = Some(chosen);
    }

    /// Assemble the physical plan from the finished draft.
    fn into_plan(self) -> PhysicalPlan {
        let pruned_leaves = self.pruned.map_or(0, |(_, pruned)| pruned);
        let Some(access) = self.access else {
            unreachable!("Lower selected the access path")
        };
        // Cost estimate (for EXPLAIN and hedging):
        // combine the per-fetch estimates the same way the executor
        // combines charged latency; a columnar scan's estimate is the
        // modeled local-compute term.
        let estimated_cost = match &access {
            Access::ColumnarScan { .. } => crate::cost::columnar_scan_cost(self.expected_rows),
            _ => combine_access_cost(&access),
        };
        let estimated_rows = match &access {
            Access::MaterializedView(_) | Access::ProvedEmpty => 0,
            _ => self.expected_rows,
        };
        let (Some(scope_node), Some(interval)) = (self.scope_node, self.interval) else {
            unreachable!("Analyze resolved the scope and interval")
        };
        PhysicalPlan {
            scope_node,
            interval,
            pruned_leaves,
            access,
            // The full predicate re-applies client-side; pushdown only
            // reduces shipped rows, never correctness.
            residual: self.residual.unwrap_or(self.canonical),
            ligand_join: self.ligand_join,
            similarity: self.similarity,
            substructure: self.substructure,
            finish: match self.finish {
                Some(finish) => finish,
                None => unreachable!("Lower built the finish operator"),
            },
            notes: self.notes,
            estimated_cost,
            estimated_rows,
            rule_trace: self.rule_trace,
        }
    }
}

/// The rule bodies [`crate::phases::REGISTRY`] points at, one function
/// per registered rule, in registry order.
pub(crate) mod rules {
    use super::*;
    use RuleOutcome::{Changed, NoChange, NotApplicable, Off};

    // ---------------- Analyze ----------------

    pub(crate) fn interval_rewrite(rw: &mut Rewrite<'_>) -> Result<RuleOutcome> {
        let (node, interval) = rw.inputs.dataset.resolve_scope(&rw.query.scope)?;
        rw.notes.push(format!(
            "interval-rewrite: scope -> [{}, {})",
            interval.lo, interval.hi
        ));
        rw.scope_node = Some(node);
        rw.interval = Some(interval);
        Ok(Changed)
    }

    pub(crate) fn similarity_resolve(rw: &mut Rewrite<'_>) -> Result<RuleOutcome> {
        let Some(spec) = &rw.query.similarity else {
            return Ok(NotApplicable);
        };
        rw.similarity = Some(resolve_similarity(rw.inputs.dataset, spec)?);
        Ok(Changed)
    }

    pub(crate) fn substructure_resolve(rw: &mut Rewrite<'_>) -> Result<RuleOutcome> {
        let Some(pattern) = &rw.query.substructure else {
            return Ok(NotApplicable);
        };
        rw.substructure = Some(resolve_substructure(rw.inputs.dataset, pattern)?);
        Ok(Changed)
    }

    pub(crate) fn column_discovery(rw: &mut Rewrite<'_>) -> Result<RuleOutcome> {
        let dataset = rw.inputs.dataset;
        let sources = dataset.registry.by_kind(SourceKind::Assay);
        if sources.is_empty() {
            return Err(QueryError::Plan("no assay sources registered".into()));
        }
        rw.assay_sources = sources;
        let residual_needs_ligand = rw
            .query
            .predicate
            .columns()
            .iter()
            .any(|c| columns::LIGAND.contains(c));
        let output_needs_ligand = matches!(
            rw.query.kind,
            QueryKind::Activities | QueryKind::TopK { .. }
        );
        rw.ligand_join = residual_needs_ligand
            || output_needs_ligand
            || rw.similarity.is_some()
            || rw.substructure.is_some();
        Ok(Changed)
    }

    // ---------------- Canonicalize ----------------

    pub(crate) fn canonicalize(rw: &mut Rewrite<'_>) -> Result<RuleOutcome> {
        if !rw.config.canonicalize {
            return Ok(Off);
        }
        let draft = std::mem::replace(&mut rw.canonical, Predicate::True);
        let (canonical, changed) = crate::ast::canon::canonicalize(draft)?;
        rw.canonical = canonical;
        Ok(if changed { Changed } else { NoChange })
    }

    // ---------------- Optimize ----------------

    pub(crate) fn selectivity_ordering(rw: &mut Rewrite<'_>) -> Result<RuleOutcome> {
        if !rw.config.selectivity_ordering {
            return Ok(Off);
        }
        let Some(stats) = rw.inputs.stats else {
            return Ok(NotApplicable);
        };
        rw.residual = Some(order_by_selectivity(rw.canonical.clone(), stats));
        rw.notes
            .push("selectivity-ordering: residual conjuncts reordered".into());
        Ok(Changed)
    }

    pub(crate) fn stats_pruning(rw: &mut Rewrite<'_>) -> Result<RuleOutcome> {
        if !rw.config.stats_pruning {
            return Ok(Off);
        }
        // An ingest since the statistics may have filled a leaf they saw empty.
        let epoch = rw.inputs.epoch;
        let Some(stats) = rw.inputs.stats.filter(|s| s.epoch.holds_at(epoch)) else {
            return Ok(NotApplicable);
        };
        if stats.interval_count(rw.interval()) == 0 {
            rw.proved_empty = true;
            rw.notes.push("stats-pruning: interval proven empty".into());
            return Ok(Changed);
        }
        let p_bound = min_p_activity_bound(&rw.canonical);
        rw.pruning_bound = p_bound;
        let (leaves, pruned) = LeafSet::new(rw.inputs.dataset, rw.interval(), |rank| {
            let leaf_iv = LeafInterval {
                lo: rank,
                hi: rank + 1,
            };
            let weak = |bound| stats.interval_max_p(leaf_iv).is_none_or(|m| m < bound);
            stats.interval_count(leaf_iv) > 0 && !p_bound.is_some_and(weak)
        });
        rw.pruned = Some((leaves, pruned));
        if pruned == 0 {
            return Ok(NoChange);
        }
        rw.notes
            .push(format!("stats-pruning: {pruned} leaves dropped"));
        Ok(Changed)
    }

    pub(crate) fn pushdown(rw: &mut Rewrite<'_>) -> Result<RuleOutcome> {
        if !rw.config.pushdown {
            return Ok(Off);
        }
        // What every assay source can evaluate (`SourcePushdown::new`):
        // conjuncts translated into the remote assay schema (derived
        // columns like p_activity become value_nm bounds), restricted to
        // a fact's key where a fact may have been measured twice.
        rw.pushdown = SourcePushdown::new(&rw.inputs, &rw.assay_sources, &rw.canonical);
        let Some(pushdown) = &rw.pushdown else {
            return Ok(NotApplicable);
        };
        rw.notes.push(format!(
            "pushdown: {}",
            crate::plan::fmt_pred(pushdown.predicate())
        ));
        Ok(Changed)
    }

    pub(crate) fn cardinality_estimate(rw: &mut Rewrite<'_>) -> Result<RuleOutcome> {
        let pushed = rw.pushdown.as_ref().map(SourcePushdown::local);
        rw.expected_rows = estimate_rows(rw.inputs.stats, rw.interval(), pushed);
        Ok(Changed)
    }

    pub(crate) fn replica_selection(rw: &mut Rewrite<'_>) -> Result<RuleOutcome> {
        if !rw.config.replica_selection {
            return Ok(Off);
        }
        let registry = &rw.inputs.dataset.registry;
        if !rw
            .assay_sources
            .iter()
            .any(|s| registry.replica_group_of(s.name()).is_some())
        {
            // No declared replica groups: every source participates
            // (chosen_sources stays None).
            return Ok(NotApplicable);
        }
        rw.select_replicas();
        Ok(Changed)
    }

    pub(crate) fn use_matview(rw: &mut Rewrite<'_>) -> Result<RuleOutcome> {
        if !rw.config.use_matview {
            return Ok(Off);
        }
        // Eligibility is a correctness gate: the view holds whole-clade
        // aggregates, so the scope must cover the clade exactly — an
        // interval or leaf-set scope that only partially covers its
        // tightest enclosing clade aggregates a subset of each child's
        // rows, which the view cannot answer. (Found by the
        // differential oracle.)
        rw.view = rw.inputs.view().and_then(|_| {
            ViewAccess::admit(
                rw.query,
                &rw.canonical,
                &rw.inputs.dataset.index,
                rw.scope(),
                rw.interval(),
            )
        });
        Ok(if rw.view.is_some() {
            Changed
        } else {
            NotApplicable
        })
    }

    pub(crate) fn columnar_scan(rw: &mut Rewrite<'_>) -> Result<RuleOutcome> {
        if !rw.config.columnar_scan {
            return Ok(Off);
        }
        // The mirror holds the fetch path's resolved rows, so any
        // interval scope can be served locally while it is fresh.
        rw.columnar_ready = rw.inputs.local.is_some_and(|l| l.mirror.is_some());
        Ok(if rw.columnar_ready {
            Changed
        } else {
            NotApplicable
        })
    }

    pub(crate) fn semantic_cache(rw: &mut Rewrite<'_>) -> Result<RuleOutcome> {
        if !rw.config.semantic_cache {
            return Ok(Off);
        }
        // `CacheProbe::new` keys the probe by the pushdown and the
        // pruning bound.
        rw.cache_wrap = true;
        Ok(Changed)
    }

    // ---------------- Lower ----------------

    pub(crate) fn batching(rw: &mut Rewrite<'_>) -> Result<RuleOutcome> {
        if !rw.config.batching {
            return Ok(Off);
        }
        rw.notes.push("batching: keyed lookups coalesced".into());
        Ok(Changed)
    }

    pub(crate) fn concurrent_dispatch(rw: &mut Rewrite<'_>) -> Result<RuleOutcome> {
        Ok(if rw.config.concurrent_dispatch {
            Changed
        } else {
            Off
        })
    }

    pub(crate) fn lower_fetches(rw: &mut Rewrite<'_>) -> Result<RuleOutcome> {
        // Every source's fetch shares one leaf set.
        let leaves = match &rw.pruned {
            Some((leaves, _)) => leaves.clone(),
            None => LeafSet::new(rw.inputs.dataset, rw.interval(), |_| true).0,
        };
        rw.lowering = Some(FetchLowering {
            sources: rw.sources_for_fetch(),
            leaves,
            batched: rw.config.batching,
            concurrent: rw.config.concurrent_dispatch,
            expected_rows: rw.expected_rows,
        });
        Ok(Changed)
    }

    /// By fixed order: proved-empty, matview, columnar scan, cache
    /// wrap, plain fetch.
    pub(crate) fn access_select(rw: &mut Rewrite<'_>) -> Result<RuleOutcome> {
        rw.access = Some(if rw.proved_empty {
            Access::ProvedEmpty
        } else if let Some(view) = rw.view {
            rw.notes
                .push("matview: aggregate served from materialized view".into());
            Access::MaterializedView(view)
        } else if rw.columnar_ready {
            let interval = rw.interval();
            rw.notes.push(format!(
                "columnar-scan: interval [{}, {}) served by vectorized kernels",
                interval.lo, interval.hi
            ));
            let pushdown = rw.pushdown.as_ref().map(|p| p.predicate().clone());
            Access::ColumnarScan {
                pushdown: ColumnarPushdown::bind(pushdown)?,
            }
        } else {
            let Some(lowering) = &rw.lowering else {
                unreachable!("lower_fetches ran before access_select")
            };
            if rw.cache_wrap {
                Access::CacheProbe(CacheProbe::new(
                    lowering,
                    rw.pushdown.take(),
                    rw.pruning_bound,
                ))
            } else {
                Access::Fetch {
                    fetches: lowering.fetches(rw.pushdown.as_ref()),
                    concurrent_sources: lowering.concurrent,
                }
            }
        });
        Ok(Changed)
    }

    pub(crate) fn finish_build(rw: &mut Rewrite<'_>) -> Result<RuleOutcome> {
        rw.finish = Some(build_finish(
            rw.inputs.dataset,
            rw.scope(),
            rw.interval(),
            rw.query,
        )?);
        Ok(Changed)
    }
}

/// Reject over-nested predicates (before anything recurses on them)
/// and unknown columns early, with a good error.
fn validate(query: &Query) -> Result<()> {
    if crate::ast::nests_deeper_than(&query.predicate, MAX_PREDICATE_DEPTH) {
        return Err(QueryError::Plan(format!(
            "predicate nested deeper than {MAX_PREDICATE_DEPTH} levels"
        )));
    }
    for col in query.predicate.columns() {
        if !columns::is_known(col) {
            return Err(QueryError::UnknownColumn(col.to_string()));
        }
    }
    if let QueryKind::TopK { by, .. } = &query.kind {
        if !columns::is_known(by) {
            return Err(QueryError::UnknownColumn(by.clone()));
        }
    }
    if let Some(sim) = &query.similarity {
        if !(0.0..=1.0).contains(&sim.min_tanimoto) {
            return Err(QueryError::Plan(format!(
                "similarity threshold {} outside [0, 1]",
                sim.min_tanimoto
            )));
        }
    }
    Ok(())
}

/// Resolve a similarity reference: a known ligand id first, otherwise
/// parsed as SMILES.
fn resolve_similarity(dataset: &Dataset, spec: &SimilaritySpec) -> Result<ResolvedSimilarity> {
    let fingerprint = match dataset.overlay.fingerprint(&spec.reference) {
        Some(fp) => fp.clone(),
        None => match parse_smiles(&spec.reference) {
            Ok(mol) => Fingerprint::of_molecule(&mol),
            Err(_) => return Err(QueryError::BadSimilarityReference(spec.reference.clone())),
        },
    };
    Ok(ResolvedSimilarity {
        fingerprint,
        min_tanimoto: spec.min_tanimoto,
    })
}

/// Resolve a substructure pattern: a known ligand id's structure
/// first, otherwise parsed as SMILES.
fn resolve_substructure(dataset: &Dataset, pattern: &str) -> Result<ResolvedSubstructure> {
    let molecule = match dataset.overlay.molecule(pattern) {
        Some(m) => m.clone(),
        None => parse_smiles(pattern)
            .map_err(|_| QueryError::BadSubstructurePattern(pattern.to_string()))?,
    };
    let pattern_fp = Fingerprint::of_molecule(&molecule);
    Ok(ResolvedSubstructure {
        pattern: molecule,
        pattern_fp,
    })
}

/// The tightest `p_activity >= c` (or `> c`) bound in the predicate's
/// top-level conjuncts, used for max-pActivity pruning. A `between`
/// conjunct (as canonicalization produces) contributes its lower edge:
/// `between lo and hi` only matches cells `>= lo`.
fn min_p_activity_bound(pred: &Predicate) -> Option<f64> {
    conjuncts_of(pred)
        .into_iter()
        .filter_map(|c| match c {
            Predicate::Compare { column, op, value }
                if column == "p_activity" && matches!(op, CompareOp::Ge | CompareOp::Gt) =>
            {
                value.as_f64()
            }
            Predicate::Between { column, lo, .. } if column == "p_activity" => lo.as_f64(),
            _ => None,
        })
        .fold(None, |acc: Option<f64>, v| {
            Some(acc.map_or(v, |a| a.max(v)))
        })
}

pub(crate) fn conjuncts_of(p: &Predicate) -> Vec<&Predicate> {
    match p {
        Predicate::And(ps) => ps.iter().flat_map(conjuncts_of).collect(),
        Predicate::True => Vec::new(),
        other => vec![other],
    }
}

/// Reorder a conjunction most-selective-first; other shapes unchanged.
fn order_by_selectivity(pred: Predicate, stats: &OverlayStats) -> Predicate {
    match pred {
        Predicate::And(mut ps) => {
            ps.sort_by(|a, b| {
                stats
                    .predicate_selectivity(a)
                    .total_cmp(&stats.predicate_selectivity(b))
            });
            Predicate::And(ps)
        }
        other => other,
    }
}

/// Build the finish operator. An aggregate's explicit node list is
/// input: a node the tree does not hold, or one whose clade lies wholly
/// outside the scope `interval`, is a plan error here.
fn build_finish(
    dataset: &Dataset,
    scope_node: NodeId,
    interval: LeafInterval,
    query: &Query,
) -> Result<Finish> {
    Ok(match &query.kind {
        QueryKind::Activities => Finish::Collect,
        QueryKind::TopK { by, k, descending } => Finish::TopK {
            column: UnifiedColumn::named(by)?,
            k: *k,
            descending: *descending,
        },
        QueryKind::Aggregate { groups, metrics } => {
            if metrics.is_empty() {
                return Err(QueryError::Plan("an aggregate needs a metric".into()));
            }
            let over_children = matches!(groups, Groups::Children);
            let groups = match groups {
                Groups::Children => dataset
                    .tree
                    .node_unchecked(scope_node)
                    .children
                    .iter()
                    .map(|&c| (c, dataset.index.interval(c)))
                    .collect(),
                Groups::Nodes(nodes) => nodes
                    .iter()
                    .map(|&node| {
                        let group = dataset.index.checked_interval(node).ok_or_else(|| {
                            QueryError::Plan(format!("group n{} is not a node of the tree", node.0))
                        })?;
                        if !group.overlaps(interval) {
                            return Err(QueryError::Plan(format!(
                                "group n{} [{}, {}) lies outside the scope [{}, {})",
                                node.0, group.lo, group.hi, interval.lo, interval.hi
                            )));
                        }
                        Ok((node, group))
                    })
                    .collect::<Result<_>>()?,
            };
            Finish::Aggregate {
                groups,
                metrics: metrics.clone(),
                over_children,
            }
        }
        QueryKind::CountPerLeaf => Finish::CountPerLeaf,
    })
}

/// Cardinality estimate for the access: interval record count scaled
/// by the histogram selectivity of the pushed conjuncts, passed in
/// their *local* column forms (interval length when no statistics were
/// collected). The local forms matter: the overlay histograms index
/// local columns like `p_activity`, so pricing the remote-translated
/// `value_nm` bound would fall back to the nominal 0.5 guess and
/// misestimate every affinity filter.
fn estimate_rows(
    stats: Option<&OverlayStats>,
    interval: LeafInterval,
    pushdown: Option<&Predicate>,
) -> u64 {
    stats.map_or(interval.len() as u64, |s| {
        let base = s.interval_count(interval);
        let sel = pushdown.map_or(1.0, |p| s.predicate_selectivity(p));
        (base as f64 * sel).ceil() as u64
    })
}

/// Combine per-fetch estimates the way the executor combines charged
/// latency: max across concurrent sources, sum across sequential.
fn combine_access_cost(access: &Access) -> Duration {
    let (fetches, concurrent_sources) = match access {
        Access::Fetch {
            fetches,
            concurrent_sources,
        } => (fetches.as_slice(), *concurrent_sources),
        // The cache hit path costs ~nothing; estimate the miss path so
        // EXPLAIN shows the worst case.
        Access::CacheProbe(probe) => (probe.on_miss(), probe.concurrent_sources()),
        // Columnar scans price via the compute model, not fetch
        // estimates; the caller special-cases them before combining.
        Access::ColumnarScan { .. } | Access::MaterializedView(_) | Access::ProvedEmpty => {
            return Duration::ZERO
        }
    };
    if concurrent_sources {
        fetches
            .iter()
            .map(|f| f.est_cost)
            .max()
            .unwrap_or(Duration::ZERO)
    } else {
        fetches.iter().map(|f| f.est_cost).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Metric, Scope};
    use crate::dataset::test_fixtures::small_dataset;
    use crate::local::Keep;
    use drugtree_sources::source::SourceCapabilities;
    use drugtree_store::value::Value;

    fn dataset() -> Dataset {
        small_dataset(SourceCapabilities::full())
    }

    fn inputs<'a>(
        dataset: &'a Dataset,
        stats: Option<&'a OverlayStats>,
        local: Option<&'a LocalBuild>,
    ) -> PlanInputs<'a> {
        PlanInputs {
            stats,
            local,
            ..PlanInputs::new(dataset)
        }
    }

    #[test]
    fn naive_plan_shape() {
        let d = dataset();
        let q = Query::activities(Scope::Tree);
        let plan = Optimizer::new(OptimizerConfig::naive())
            .plan(&inputs(&d, None, None), &q)
            .unwrap();
        match &plan.access {
            Access::Fetch {
                fetches,
                concurrent_sources,
            } => {
                assert!(!concurrent_sources);
                assert_eq!(fetches.len(), 1);
                assert_eq!(fetches[0].leaves.ranks().len(), 4);
                assert!(!fetches[0].batched());
                assert!(fetches[0].pushdown().is_none());
            }
            other => panic!("expected Fetch, got {other:?}"),
        }
        assert_eq!(plan.pruned_leaves, 0);
        assert!(plan.ligand_join);
    }

    #[test]
    fn full_plan_uses_cache_and_pushdown() {
        let d = dataset();
        let stats = OverlayStats::collect(&d).unwrap();
        let q = Query::activities(Scope::Subtree("cladeA".into())).filter(Predicate::cmp(
            "p_activity",
            CompareOp::Ge,
            6.5,
        ));
        let plan = Optimizer::new(OptimizerConfig::full())
            .plan(&inputs(&d, Some(&stats), None), &q)
            .unwrap();
        match &plan.access {
            Access::CacheProbe(probe) => {
                assert!(probe.key().is_some(), "p_activity filter is pushable");
                assert!(probe.on_miss().iter().all(|f| f.batched() && f.concurrent));
            }
            other => panic!("expected CacheProbe, got {other:?}"),
        }
        assert!(plan.explain().contains("pushdown"));
    }

    #[test]
    fn ligand_columns_not_pushed_down() {
        let d = dataset();
        let q = Query::activities(Scope::Tree)
            .filter(Predicate::cmp("mw", CompareOp::Lt, 500.0))
            .filter(Predicate::cmp("year", CompareOp::Ge, 2012i64));
        let plan = Optimizer::new(OptimizerConfig::full())
            .plan(&inputs(&d, None, None), &q)
            .unwrap();
        let key = match &plan.access {
            Access::CacheProbe(probe) => probe.key().cloned(),
            other => panic!("{other:?}"),
        };
        // Only the year conjunct is pushable.
        let p = key.expect("year pushable");
        assert!(crate::plan::fmt_pred(&p).contains("year"));
        assert!(!crate::plan::fmt_pred(&p).contains("mw"));
    }

    #[test]
    fn incapable_sources_receive_no_pushdown() {
        let d = small_dataset(SourceCapabilities::minimal());
        let q =
            Query::activities(Scope::Tree).filter(Predicate::cmp("year", CompareOp::Ge, 2012i64));
        let plan = Optimizer::new(OptimizerConfig::full())
            .plan(&inputs(&d, None, None), &q)
            .unwrap();
        match &plan.access {
            Access::CacheProbe(probe) => assert!(probe.key().is_none()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stats_pruning_drops_empty_leaves() {
        let d = dataset();
        let stats = OverlayStats::collect(&d).unwrap();
        // P4 (rank 3) has no activities.
        let q = Query::activities(Scope::Tree);
        let plan = Optimizer::new(OptimizerConfig::full())
            .plan(&inputs(&d, Some(&stats), None), &q)
            .unwrap();
        assert_eq!(plan.pruned_leaves, 1);
        match &plan.access {
            Access::CacheProbe(probe) => {
                assert_eq!(probe.on_miss()[0].leaves.ranks(), [0, 1, 2]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_plan_holds_no_accession_handle() {
        let d = dataset();
        let stats = OverlayStats::collect(&d).unwrap();
        let view = LocalBuild::build(&d, Keep::View).unwrap();
        let mirror = LocalBuild::build(&d, Keep::Mirror).unwrap();
        let all = LeafInterval { lo: 0, hi: 4 };
        let handles = || -> Vec<usize> {
            d.accessions_in(all)
                .map(|(_, accession)| match accession {
                    Value::Text(text) => Arc::strong_count(text),
                    other => panic!("{other:?}"),
                })
                .collect()
        };
        let before = handles();
        let opt = Optimizer::new(OptimizerConfig::full());
        let listing = Query::activities(Scope::Tree);
        let aggregate = Query::activities(Scope::Tree).aggregate(Metric::Count);
        let plans = [
            opt.plan(&inputs(&d, Some(&stats), None), &listing),
            opt.plan(&inputs(&d, Some(&stats), Some(&mirror)), &listing),
            opt.plan(&inputs(&d, Some(&stats), Some(&view)), &aggregate),
        ]
        .map(Result::unwrap);
        assert!(matches!(plans[0].access, Access::CacheProbe(_)));
        assert!(matches!(plans[1].access, Access::ColumnarScan { .. }));
        assert!(matches!(plans[2].access, Access::MaterializedView(_)));
        // The accession keys are built when a fetch runs, not before.
        assert_eq!(handles(), before);
    }

    #[test]
    fn p_activity_bound_prunes_by_range_max() {
        let d = dataset();
        let stats = OverlayStats::collect(&d).unwrap();
        // Only P3 (1 nM -> p=9) clears p >= 8.5; P1/P2/P4 pruned.
        let q =
            Query::activities(Scope::Tree).filter(Predicate::cmp("p_activity", CompareOp::Ge, 8.5));
        let plan = Optimizer::new(OptimizerConfig::full())
            .plan(&inputs(&d, Some(&stats), None), &q)
            .unwrap();
        assert_eq!(plan.pruned_leaves, 3);
    }

    #[test]
    fn empty_interval_proved_empty() {
        let d = dataset();
        let stats = OverlayStats::collect(&d).unwrap();
        // cladeB's P4 side: leaves [3, 4) hold nothing.
        let q = Query::activities(Scope::Subtree("P4".into()));
        let plan = Optimizer::new(OptimizerConfig::full())
            .plan(&inputs(&d, Some(&stats), None), &q)
            .unwrap();
        assert_eq!(plan.access, Access::ProvedEmpty);
        assert_eq!(plan.estimated_cost, Duration::ZERO);
    }

    #[test]
    fn validation_errors() {
        let d = dataset();
        let opt = Optimizer::new(OptimizerConfig::full());
        let q = Query::activities(Scope::Tree).filter(Predicate::eq("bogus", 1i64));
        assert!(matches!(
            opt.plan(&inputs(&d, None, None), &q),
            Err(QueryError::UnknownColumn(_))
        ));
        let q = Query::activities(Scope::Tree).top_k("nope", 5, true);
        assert!(matches!(
            opt.plan(&inputs(&d, None, None), &q),
            Err(QueryError::UnknownColumn(_))
        ));
        let q = Query::activities(Scope::Tree).similar_to("CCO", 1.5);
        assert!(opt.plan(&inputs(&d, None, None), &q).is_err());
        let q = Query::activities(Scope::Tree).similar_to("((((", 0.5);
        assert!(matches!(
            opt.plan(&inputs(&d, None, None), &q),
            Err(QueryError::BadSimilarityReference(_))
        ));
    }

    #[test]
    fn similarity_resolves_ligand_id_or_smiles() {
        let d = dataset();
        let opt = Optimizer::new(OptimizerConfig::full());
        // Known ligand id.
        let q = Query::activities(Scope::Tree).similar_to("L1", 0.5);
        let plan = opt.plan(&inputs(&d, None, None), &q).unwrap();
        assert!(plan.similarity.is_some());
        // Raw SMILES.
        let q = Query::activities(Scope::Tree).similar_to("CCO", 0.5);
        let plan = opt.plan(&inputs(&d, None, None), &q).unwrap();
        let sim = plan.similarity.unwrap();
        let ethanol_fp = d.overlay.fingerprint("L2").unwrap();
        assert_eq!(&sim.fingerprint, ethanol_fp, "SMILES CCO == ligand L2");
    }

    #[test]
    fn aggregate_children_enumerated() {
        let d = dataset();
        let q = Query::activities(Scope::Tree).aggregate(Metric::Count);
        let plan = Optimizer::new(OptimizerConfig::naive())
            .plan(&inputs(&d, None, None), &q)
            .unwrap();
        let clade_a = d.index.by_label("cladeA").unwrap();
        let clade_b = d.index.by_label("cladeB").unwrap();
        match &plan.finish {
            Finish::Aggregate {
                groups,
                over_children: true,
                ..
            } => {
                let nodes: Vec<NodeId> = groups.iter().map(|&(n, _)| n).collect();
                assert_eq!(nodes, [clade_a, clade_b]);
            }
            other => panic!("{other:?}"),
        }
        // Aggregates without ligand predicates skip the join.
        assert!(!plan.ligand_join);
    }

    #[test]
    fn a_node_the_tree_does_not_hold_is_a_plan_error() {
        let d = dataset();
        let q = Query::activities(Scope::Tree).aggregate_nodes(vec![NodeId(999)], &[Metric::Count]);
        for config in [OptimizerConfig::naive(), OptimizerConfig::full()] {
            assert!(matches!(
                Optimizer::new(config).plan(&inputs(&d, None, None), &q),
                Err(QueryError::Plan(_))
            ));
        }
    }

    #[test]
    fn a_node_outside_the_scope_is_a_plan_error() {
        let d = dataset();
        let view = LocalBuild::build(&d, Keep::View).unwrap();
        let clade_b = d.index.by_label("cladeB").unwrap();
        let p1 = d.index.by_label("P1").unwrap();
        let q = Query::activities(Scope::Subtree("cladeA".into()))
            .aggregate_nodes(vec![p1, clade_b], &[Metric::Count]);
        for view in [None, Some(&view)] {
            assert!(matches!(
                Optimizer::new(OptimizerConfig::full()).plan(&inputs(&d, None, view), &q),
                Err(QueryError::Plan(_))
            ));
        }
        // No metric is a plan error too.
        let q = Query::activities(Scope::Tree).aggregate_nodes(vec![p1], &[]);
        assert!(Optimizer::new(OptimizerConfig::full())
            .plan(&inputs(&d, None, None), &q)
            .is_err());
    }

    #[test]
    fn matview_rejected_for_partial_clade_coverage() {
        let d = dataset();
        let view = LocalBuild::build(&d, Keep::View).unwrap();
        let opt = Optimizer::new(OptimizerConfig::full());
        // Whole tree: eligible.
        let q = Query::activities(Scope::Tree).aggregate(Metric::Count);
        let plan = opt.plan(&inputs(&d, None, Some(&view)), &q).unwrap();
        assert!(matches!(plan.access, Access::MaterializedView(_)));
        // Leaves P2..P3 span clades A and B, so the tightest clade is
        // the whole root but the interval is [1, 3): the view's whole-
        // clade aggregates would overcount. (Differential-oracle
        // regression.)
        let q = Query::activities(Scope::Leaves(vec!["P2".into(), "P3".into()]))
            .aggregate(Metric::Count);
        let plan = opt.plan(&inputs(&d, None, Some(&view)), &q).unwrap();
        assert!(!matches!(plan.access, Access::MaterializedView(_)));
    }

    #[test]
    fn selectivity_ordering_reorders_residual() {
        let d = dataset();
        let stats = OverlayStats::collect(&d).unwrap();
        let wide = Predicate::cmp("p_activity", CompareOp::Ge, 5.0);
        let narrow = Predicate::cmp("p_activity", CompareOp::Ge, 8.9);
        let q = Query::activities(Scope::Tree)
            .filter(wide.clone())
            .filter(narrow.clone());
        let plan = Optimizer::new(OptimizerConfig::full())
            .plan(&inputs(&d, Some(&stats), None), &q)
            .unwrap();
        match &plan.residual {
            Predicate::And(ps) => {
                assert_eq!(ps[0], narrow, "most selective first");
                assert_eq!(ps[1], wide);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cost_estimate_orders_plans_sanely() {
        let d = dataset();
        let stats = OverlayStats::collect(&d).unwrap();
        let q = Query::activities(Scope::Tree);
        let naive = Optimizer::new(OptimizerConfig::naive())
            .plan(&inputs(&d, Some(&stats), None), &q)
            .unwrap();
        let full = Optimizer::new(OptimizerConfig::full())
            .plan(&inputs(&d, Some(&stats), None), &q)
            .unwrap();
        assert!(
            full.estimated_cost < naive.estimated_cost,
            "optimized estimate {:?} not below naive {:?}",
            full.estimated_cost,
            naive.estimated_cost
        );
    }

    #[test]
    fn ablation_helper() {
        for rule in crate::phases::ablatable_rules() {
            let c = OptimizerConfig::ablate(rule.name).unwrap();
            assert_ne!(
                c,
                OptimizerConfig::full(),
                "{} should change config",
                rule.name
            );
        }
        assert!(OptimizerConfig::ablate("no_such_rule").is_err());
        // Structural rules are registered but not ablatable.
        assert!(OptimizerConfig::ablate("interval_rewrite").is_err());
        // The five per-step canonicalization toggles merged into one.
        for step in ["nnf", "flatten", "fold", "between", "dedup"] {
            assert!(matches!(
                OptimizerConfig::ablate(&format!("canon_{step}")),
                Err(QueryError::UnknownRule(_))
            ));
        }
    }

    #[test]
    fn ablate_unknown_rule_is_an_error() {
        match OptimizerConfig::ablate("warp-drive") {
            Err(QueryError::UnknownRule(rule)) => assert_eq!(rule, "warp-drive"),
            other => panic!("expected UnknownRule, got {other:?}"),
        }
    }
}
