//! Physical plans and EXPLAIN rendering. A fetch, its source pushdown,
//! a cache probe, a top-k column, a columnar pushdown and a view access
//! are built only by constructors that establish what the executor
//! relies on (DESIGN.md §4b).

use crate::ast::{Groups, Metric, Query, QueryKind};
use crate::dataset::{activity_half_schema, unified_schema, Dataset};
use crate::optimizer::{conjuncts_of, PlanInputs};
use crate::stats::OverlayStats;
use crate::Result;
use drugtree_chem::fingerprint::Fingerprint;
use drugtree_phylo::index::{LeafInterval, TreeIndex};
use drugtree_phylo::tree::NodeId;
use drugtree_sources::batcher::Dispatch;
use drugtree_sources::DataSource;
use drugtree_store::expr::{BoundPredicate, CompareOp, Predicate};
use drugtree_store::value::Value;
use std::fmt::{self, Write as _};
use std::sync::Arc;
use std::time::Duration;

/// The leaves a fetch asks for, by rank, ascending: the protein-bearing
/// leaves of an interval that statistics did not prune. The sources of
/// one plan share it; a fetch builds its accession keys when it runs
/// ([`Dataset::fetch_keys`]). [`LeafSet::new`] is the only constructor,
/// so every rank is a protein-bearing leaf of the interval, and kept
/// plus pruned is their count; a pruned leaf cannot be planted back:
///
/// ```compile_fail
/// let resurrected = drugtree_query::plan::LeafSet(std::sync::Arc::from([0u32, 1, 2, 3]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LeafSet(Arc<[u32]>);

impl LeafSet {
    /// The protein-bearing leaves of `interval` that `keep` holds, and
    /// how many it dropped.
    pub fn new(
        dataset: &Dataset,
        interval: LeafInterval,
        mut keep: impl FnMut(u32) -> bool,
    ) -> (LeafSet, usize) {
        let ranks = dataset.accessions_in(interval).map(|(rank, _)| rank);
        let (kept, pruned): (Vec<u32>, Vec<u32>) = ranks.partition(|&rank| keep(rank));
        (LeafSet(kept.into()), pruned.len())
    }

    /// The leaf ranks, ascending.
    pub fn ranks(&self) -> &[u32] {
        &self.0
    }
}

/// The source a fetch reads: the handle the planner took from the
/// dataset's registry, so running the fetch looks nothing up. A plan
/// prints and compares it by name.
#[derive(Clone)]
struct FetchSource(Arc<dyn DataSource>);

impl fmt::Debug for FetchSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0.name(), f)
    }
}

impl PartialEq for FetchSource {
    fn eq(&self, other: &FetchSource) -> bool {
        self.0.name() == other.0.name()
    }
}

/// One source's share of a federated fetch.
///
/// The source, its pushdown, and the batching that follows from its
/// capability are fixed by [`FetchPlan::new`]:
///
/// ```compile_fail
/// fn widen(fetch: &mut drugtree_query::plan::FetchPlan) {
///     fetch.max_batch = 1_000; // private: derived from the source
/// }
/// ```
///
/// A fetch is built from the registry's handle to its source, not from
/// a name the executor would have to resolve:
///
/// ```compile_fail
/// use drugtree_query::plan::{FetchPlan, LeafSet};
/// fn by_name(leaves: LeafSet) -> FetchPlan {
///     FetchPlan::new("assay-sim", leaves, None, true, true, 0)
/// }
/// ```
///
/// and its pushdown only from `SourcePushdown::new`:
///
/// ```compile_fail
/// use drugtree_store::expr::{CompareOp, Predicate};
/// fn push(fetch: &mut drugtree_query::plan::FetchPlan) {
///     fetch.pushdown = Some(Predicate::cmp("mw", CompareOp::Lt, 500.0));
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FetchPlan {
    source: FetchSource,
    /// The leaves whose accessions the fetch looks up.
    pub(crate) leaves: LeafSet,
    pushdown: Option<SourcePushdown>,
    batched: bool,
    max_batch: usize,
    /// Dispatch the batches concurrently (vs sequentially).
    pub concurrent: bool,
    /// Cost-model estimate of this fetch's virtual latency.
    pub est_cost: Duration,
    /// Cardinality estimate: rows this fetch is expected to ship.
    pub est_rows: u64,
}

impl FetchPlan {
    /// A fetch of the accessions of `leaves` from `source`. A batched
    /// fetch sends up to the source's declared `max_batch` keys per
    /// request, a non-batched one a key per request; the latency
    /// estimate comes from the source's self-declared latency model.
    pub fn new(
        source: &Arc<dyn DataSource>,
        leaves: LeafSet,
        pushdown: Option<SourcePushdown>,
        batched: bool,
        concurrent: bool,
        expected_rows: u64,
    ) -> FetchPlan {
        let max_batch = if batched {
            source.capabilities().max_batch.max(1)
        } else {
            1
        };
        let requests = leaves.ranks().len().div_ceil(max_batch).max(1);
        let model = source.latency_model();
        let transfer = model.per_row * (expected_rows as u32);
        let est_cost = if concurrent {
            // All requests in flight: one RTT plus the transfer.
            model.base_rtt + transfer
        } else {
            model.base_rtt * requests as u32 + transfer
        };
        FetchPlan {
            source: FetchSource(Arc::clone(source)),
            leaves,
            pushdown,
            batched,
            max_batch,
            concurrent,
            est_cost,
            est_rows: expected_rows,
        }
    }

    /// Source name.
    pub fn source(&self) -> &str {
        self.source.0.name()
    }

    /// The source itself, as the registry held it at planning.
    pub(crate) fn handle(&self) -> &dyn DataSource {
        self.source.0.as_ref()
    }

    /// The predicate pushed into the source, in the remote assay schema.
    pub fn pushdown(&self) -> Option<&Predicate> {
        self.pushdown.as_ref().map(SourcePushdown::predicate)
    }

    /// Whether keys are coalesced into multi-key requests.
    pub fn batched(&self) -> bool {
        self.batched
    }

    /// Keys per request: the source's capability when batched, else 1.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// How the requests are dispatched. A non-batched fetch is the
    /// naive access path, one request after another, whatever
    /// `concurrent` says.
    pub fn dispatch(&self) -> Dispatch {
        if self.batched && self.concurrent {
            Dispatch::Concurrent
        } else {
            Dispatch::Sequential
        }
    }
}

/// What every fetch of one plan shares: the sources it asks, one fetch
/// each, the leaves, the dispatch, and the rows it expects.
pub(crate) struct FetchLowering {
    /// The sources fetched from, one fetch each.
    pub(crate) sources: Vec<Arc<dyn DataSource>>,
    /// The leaves every fetch asks for.
    pub(crate) leaves: LeafSet,
    /// Coalesce keys into multi-key requests.
    pub(crate) batched: bool,
    /// Dispatch batches and sources concurrently.
    pub(crate) concurrent: bool,
    /// The cardinality estimate each fetch is priced at.
    pub(crate) expected_rows: u64,
}

impl FetchLowering {
    /// One fetch per source, every one under `pushdown`.
    pub(crate) fn fetches(&self, pushdown: Option<&SourcePushdown>) -> Vec<FetchPlan> {
        self.sources
            .iter()
            .map(|source| {
                FetchPlan::new(
                    source,
                    self.leaves.clone(),
                    pushdown.cloned(),
                    self.batched,
                    self.concurrent,
                    self.expected_rows,
                )
            })
            .collect()
    }
}

/// The conjuncts of a query's predicate that the sources evaluate
/// themselves, in the remote assay schema. `SourcePushdown::new` is
/// the only constructor, so a pushdown names only columns the remote
/// schema has, and only what every assay source the plan may fetch
/// from declared it can evaluate:
///
/// ```compile_fail
/// use drugtree_store::expr::{CompareOp, Predicate};
/// let unchecked = drugtree_query::plan::SourcePushdown {
///     remote: Predicate::cmp("year", CompareOp::Ge, 2012i64),
///     local: Predicate::cmp("year", CompareOp::Ge, 2012i64),
/// };
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SourcePushdown {
    /// The pushed conjuncts, translated into the remote assay schema.
    remote: Predicate,
    /// The same conjuncts in their local forms.
    local: Predicate,
}

impl SourcePushdown {
    /// The conjuncts of `predicate` with a remote form that each of
    /// `sources` supports, or `None` when there are none. A source
    /// filters before the resolve step, so where the deployment resolves
    /// conflicts and a fact may have been measured twice (no statistics
    /// say otherwise, or the sources changed since), only a conjunct
    /// over a fact's key is pushed: a value bound could ship a
    /// superseded measurement whose successor fails it.
    pub(crate) fn new(
        inputs: &PlanInputs<'_>,
        sources: &[Arc<dyn DataSource>],
        predicate: &Predicate,
    ) -> Option<SourcePushdown> {
        let measured_once = |s: &OverlayStats| s.facts_measured_once(inputs.epoch);
        let key_only =
            inputs.dataset.resolves_conflicts() && !inputs.stats.is_some_and(measured_once);
        let mut remote = Vec::new();
        let mut local = Vec::new();
        for conjunct in conjuncts_of(predicate) {
            let Some(r) = remote_form(conjunct) else {
                continue;
            };
            if key_only && !r.columns().iter().all(|c| FACT_KEY_COLUMNS.contains(c)) {
                continue;
            }
            if sources
                .iter()
                .all(|s| s.capabilities().supports_predicate(&r))
            {
                remote.push(r);
                local.push(conjunct.clone());
            }
        }
        if remote.is_empty() {
            return None;
        }
        let all = |ps: Vec<Predicate>| ps.into_iter().fold(Predicate::True, Predicate::and);
        Some(SourcePushdown {
            remote: all(remote),
            local: all(local),
        })
    }

    /// The pushed conjuncts as the sources evaluate them.
    pub(crate) fn predicate(&self) -> &Predicate {
        &self.remote
    }

    /// The pushed conjuncts in their local forms: the overlay histograms
    /// index local columns like `p_activity`, not the remote `value_nm`.
    pub(crate) fn local(&self) -> &Predicate {
        &self.local
    }
}

/// The remote columns that name a fact: a conjunct over them alone keeps
/// or drops every measurement of a fact together.
const FACT_KEY_COLUMNS: &[&str] = &["protein_accession", "ligand_id", "activity_type"];

/// Columns that physically exist in the remote assay schema.
const REMOTE_COLUMNS: &[&str] = &[
    "protein_accession",
    "ligand_id",
    "activity_type",
    "value_nm",
    "source",
    "year",
];

/// Translate one conjunct into its remote evaluable form, or `None`
/// when it cannot be pushed.
///
/// `p_activity` is derived locally (`-log10(value_nm * 1e-9)`), so its
/// bounds translate into `value_nm` bounds with the comparison flipped
/// (larger pActivity = smaller concentration). Translated bounds are
/// widened by one part in 10^9 so floating-point error at the boundary
/// can only ship an extra row (dropped by the residual), never lose
/// one. Equality on a derived float is not translated.
fn remote_form(conjunct: &Predicate) -> Option<Predicate> {
    match conjunct {
        Predicate::Compare { column, op, value } if column == "p_activity" => {
            let p = value.as_f64()?;
            let (op, slack) = match op {
                CompareOp::Ge => (CompareOp::Le, 1.0 + 1e-9),
                CompareOp::Gt => (CompareOp::Lt, 1.0 + 1e-9),
                CompareOp::Le => (CompareOp::Ge, 1.0 - 1e-9),
                CompareOp::Lt => (CompareOp::Gt, 1.0 - 1e-9),
                CompareOp::Eq | CompareOp::Ne => return None,
            };
            Some(Predicate::Compare {
                column: "value_nm".into(),
                op,
                value: Value::Float(p_to_nm(p) * slack),
            })
        }
        Predicate::Between { column, lo, hi } if column == "p_activity" => {
            let (lo, hi) = (lo.as_f64()?, hi.as_f64()?);
            Some(Predicate::Between {
                column: "value_nm".into(),
                lo: Value::Float(p_to_nm(hi) * (1.0 - 1e-9)),
                hi: Value::Float(p_to_nm(lo) * (1.0 + 1e-9)),
            })
        }
        other => {
            let remote = other.columns().iter().all(|c| REMOTE_COLUMNS.contains(c));
            remote.then(|| other.clone())
        }
    }
}

/// Concentration (nM) at a given pActivity.
fn p_to_nm(p: f64) -> f64 {
    10f64.powf(9.0 - p)
}

/// A column of the unified schema, by index. [`UnifiedColumn::named`]
/// is the only constructor, so a top-k finish always ranks by a column
/// the unified rows have:
///
/// ```compile_fail
/// let column = drugtree_query::plan::UnifiedColumn(99);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnifiedColumn(usize);

impl UnifiedColumn {
    /// Resolve a column name against the unified schema.
    pub fn named(name: &str) -> Result<UnifiedColumn> {
        Ok(UnifiedColumn(unified_schema().column_index(name)?))
    }

    /// The column's index in a unified row.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A columnar scan's pushdown, bound once, at plan time, to the
/// activity-half schema the columnar mirror stores: every predicate
/// leaf names a column with a kernel to run on.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarPushdown {
    predicate: Option<Predicate>,
    bound: BoundPredicate,
}

impl ColumnarPushdown {
    /// Bind `predicate` (none selects every row of the range); an
    /// error when it names a column the mirror lacks.
    pub fn bind(predicate: Option<Predicate>) -> Result<ColumnarPushdown> {
        let bound = match &predicate {
            Some(p) => p.bind(activity_half_schema())?,
            None => BoundPredicate::True,
        };
        Ok(ColumnarPushdown { predicate, bound })
    }

    /// The pushdown as planned, for EXPLAIN.
    pub fn predicate(&self) -> Option<&Predicate> {
        self.predicate.as_ref()
    }

    /// The pushdown bound to the mirror's columns.
    pub fn bound(&self) -> &BoundPredicate {
        &self.bound
    }
}

/// Permission to answer from the materialized view. Only
/// [`ViewAccess::admit`] grants it, and only to an aggregate with no
/// predicate, similarity or substructure constraint whose every group
/// lies inside the scope: the view holds whole-clade aggregates of
/// every row.
///
/// ```compile_fail
/// let access = drugtree_query::plan::Access::MaterializedView(
///     drugtree_query::plan::ViewAccess(()),
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewAccess(());

impl ViewAccess {
    /// `Some` when `query`, filtered by `predicate` over `interval`, is
    /// a pure aggregate the view answers; `scope_node` is the scope's
    /// root. The children of that root lie inside `interval` exactly
    /// when it is the root's whole clade; an explicit node must lie
    /// inside it (a node the index does not hold is never admitted).
    pub fn admit(
        query: &Query,
        predicate: &Predicate,
        index: &TreeIndex,
        scope_node: NodeId,
        interval: LeafInterval,
    ) -> Option<ViewAccess> {
        let QueryKind::Aggregate { groups, .. } = &query.kind else {
            return None;
        };
        let inside = match groups {
            Groups::Children => index.checked_interval(scope_node) == Some(interval),
            Groups::Nodes(nodes) => nodes.iter().all(|&n| {
                index
                    .checked_interval(n)
                    .is_some_and(|group| interval.contains(group))
            }),
        };
        (inside
            && *predicate == Predicate::True
            && query.similarity.is_none()
            && query.substructure.is_none())
        .then_some(ViewAccess(()))
    }
}

/// A semantic-cache probe and the fetch that fills the cache on a miss.
/// `CacheProbe::new` is the only constructor: it lowers every miss
/// fetch under one pushdown and derives the probe key from that same
/// pushdown, so cached rows are keyed by what shipped them:
///
/// ```compile_fail
/// use drugtree_query::plan::{CacheProbe, FetchPlan};
/// fn unkeyed(on_miss: Vec<FetchPlan>) -> CacheProbe {
///     CacheProbe { key: None, on_miss, concurrent_sources: true }
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CacheProbe {
    key: Option<Predicate>,
    on_miss: Vec<FetchPlan>,
    concurrent_sources: bool,
}

impl CacheProbe {
    /// A probe keyed by `pushdown` and, when statistics pruned leaves by
    /// a potency bound, `p_activity >= pruning_bound` too: the pruned
    /// leaves' rows are absent from what the miss path ships, so an
    /// entry keyed without the bound would wrongly answer unfiltered
    /// probes. On a miss it fetches `lowering`'s sources under
    /// `pushdown` and inserts the rows.
    pub(crate) fn new(
        lowering: &FetchLowering,
        pushdown: Option<SourcePushdown>,
        pruning_bound: Option<f64>,
    ) -> CacheProbe {
        let on_miss = lowering.fetches(pushdown.as_ref());
        let mut key = pushdown.map_or(Predicate::True, |p| p.remote);
        if let Some(bound) = pruning_bound {
            key = key.and(Predicate::cmp("p_activity", CompareOp::Ge, bound));
        }
        CacheProbe {
            key: (key != Predicate::True).then_some(key),
            on_miss,
            concurrent_sources: lowering.concurrent,
        }
    }

    /// The key a cache entry must match: every row-reducing effect of
    /// the miss path's fetch.
    pub fn key(&self) -> Option<&Predicate> {
        self.key.as_ref()
    }

    /// The per-source fetches run when the probe misses.
    pub fn on_miss(&self) -> &[FetchPlan] {
        &self.on_miss
    }

    /// Whether per-source results may be combined concurrently.
    pub fn concurrent_sources(&self) -> bool {
        self.concurrent_sources
    }
}

/// How the activity rows are obtained.
#[derive(Debug, Clone, PartialEq)]
pub enum Access {
    /// Served from the semantic cache.
    CacheProbe(CacheProbe),
    /// Fetched from the federated sources.
    Fetch {
        /// Per-source fetch plans.
        fetches: Vec<FetchPlan>,
        /// Whether per-source results may be combined concurrently.
        concurrent_sources: bool,
    },
    /// Served locally from the columnar activity mirror: the interval
    /// rewrite becomes a binary-searched row range over rank-sorted
    /// column buffers, and predicate leaves run as vectorized
    /// bitmap-producing kernels. No source round-trip.
    ColumnarScan {
        /// Predicate the filter kernels evaluate over the range (the
        /// residual still re-applies the full query predicate).
        pushdown: ColumnarPushdown,
    },
    /// Answered entirely by a materialized aggregate view.
    MaterializedView(ViewAccess),
    /// Proven empty by statistics; no access at all.
    ProvedEmpty,
}

/// A similarity constraint with the reference fingerprint resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedSimilarity {
    /// The reference fingerprint.
    pub fingerprint: Fingerprint,
    /// Minimum Tanimoto similarity.
    pub min_tanimoto: f64,
}

/// A substructure constraint with the pattern parsed and
/// fingerprinted (for the prescreen).
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedSubstructure {
    /// The pattern molecule.
    pub pattern: drugtree_chem::Molecule,
    /// Its fingerprint (prescreen).
    pub pattern_fp: Fingerprint,
}

/// Finishing operator of a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Finish {
    /// Return matching rows in leaf-rank order.
    Collect,
    /// Return the k best rows by a unified column.
    TopK {
        /// Ranking column of the unified schema.
        column: UnifiedColumn,
        /// Result size.
        k: usize,
        /// Sort direction.
        descending: bool,
    },
    /// One row per group, folding the rows of the group's interval ∩
    /// the scope, one column per metric.
    Aggregate {
        /// (node, its clade's interval) per group, in output order.
        groups: Vec<(NodeId, LeafInterval)>,
        /// The metrics.
        metrics: Vec<Metric>,
        /// Whether the groups are the scope root's children (EXPLAIN
        /// names the group list by where it came from).
        over_children: bool,
    },
    /// One row per leaf in the interval with its matching-record count.
    CountPerLeaf,
}

/// A complete physical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    /// Root of the addressed subtree.
    pub scope_node: NodeId,
    /// Its leaf interval.
    pub interval: LeafInterval,
    /// Leaves dropped by statistics pruning (count, for metrics).
    pub pruned_leaves: usize,
    /// Row access.
    pub access: Access,
    /// Residual predicate over unified rows (client-side).
    pub residual: Predicate,
    /// Whether the ligand join is required (residual/similarity/output
    /// reference ligand columns).
    pub ligand_join: bool,
    /// Similarity constraint.
    pub similarity: Option<ResolvedSimilarity>,
    /// Substructure constraint.
    pub substructure: Option<ResolvedSubstructure>,
    /// Finishing operator.
    pub finish: Finish,
    /// Rule applications, for EXPLAIN.
    pub notes: Vec<String>,
    /// Cost-model estimate of the access latency.
    pub estimated_cost: Duration,
    /// Cost-model cardinality estimate (rows shipped by the access).
    pub estimated_rows: u64,
    /// Per-phase rule firings recorded by the phased rewrite engine
    /// (one entry per phase), rendered by EXPLAIN.
    pub rule_trace: Vec<crate::phases::PassTrace>,
}

impl PhysicalPlan {
    /// Multi-line EXPLAIN rendering.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Plan: scope=n{} interval=[{}, {}) pruned_leaves={} est_cost={:?} est_rows={}",
            self.scope_node.0,
            self.interval.lo,
            self.interval.hi,
            self.pruned_leaves,
            self.estimated_cost,
            self.estimated_rows,
        );
        match &self.access {
            Access::CacheProbe(probe) => {
                let _ = writeln!(out, "  CacheProbe pushdown={}", fmt_pred_opt(probe.key()));
                for f in probe.on_miss() {
                    let _ = writeln!(out, "    miss-> {}", fmt_fetch(f));
                }
            }
            Access::Fetch {
                fetches,
                concurrent_sources,
            } => {
                let _ = writeln!(out, "  Fetch concurrent_sources={concurrent_sources}");
                for f in fetches {
                    let _ = writeln!(out, "    {}", fmt_fetch(f));
                }
            }
            Access::ColumnarScan { pushdown } => {
                let _ = writeln!(
                    out,
                    "  ColumnarScan kernels=range-slice+filter pushdown={}",
                    fmt_pred_opt(pushdown.predicate())
                );
            }
            Access::MaterializedView(_) => {
                let _ = writeln!(out, "  MaterializedView");
            }
            Access::ProvedEmpty => {
                let _ = writeln!(out, "  ProvedEmpty (statistics)");
            }
        }
        let _ = writeln!(out, "  Residual: {}", fmt_pred(&self.residual));
        if self.ligand_join {
            let _ = writeln!(out, "  LigandJoin");
        }
        if let Some(sim) = &self.similarity {
            let _ = writeln!(out, "  Similarity: tanimoto >= {}", sim.min_tanimoto);
        }
        if let Some(sub) = &self.substructure {
            let _ = writeln!(
                out,
                "  Substructure: pattern of {} atoms (fingerprint prescreen)",
                sub.pattern.atom_count()
            );
        }
        match &self.finish {
            Finish::Collect => {
                let _ = writeln!(out, "  Collect");
            }
            Finish::TopK {
                column,
                k,
                descending,
            } => {
                let _ = writeln!(
                    out,
                    "  TopK k={k} by=col{} {}",
                    column.index(),
                    if *descending { "desc" } else { "asc" }
                );
            }
            Finish::Aggregate {
                groups,
                metrics,
                over_children,
            } => {
                let (kind, list) = if *over_children {
                    ("Children", "children")
                } else {
                    ("Nodes", "nodes")
                };
                let _ = writeln!(
                    out,
                    "  Aggregate{kind} metric={} {list}={}",
                    metric_labels(metrics),
                    groups.len()
                );
            }
            Finish::CountPerLeaf => {
                let _ = writeln!(out, "  CountPerLeaf");
            }
        }
        for note in &self.notes {
            let _ = writeln!(out, "  # {note}");
        }
        for pass in &self.rule_trace {
            let firings: Vec<String> = pass
                .firings
                .iter()
                .map(|f| format!("{}={}", f.rule, f.outcome.label()))
                .collect();
            let _ = writeln!(
                out,
                "  RuleTrace {}: {}",
                pass.phase.label(),
                firings.join(" ")
            );
        }
        out
    }
}

/// Metric labels, comma-joined, as EXPLAIN and plan shapes print them.
pub(crate) fn metric_labels(metrics: &[Metric]) -> String {
    let labels: Vec<&str> = metrics.iter().map(|m| m.label()).collect();
    labels.join(",")
}

fn fmt_fetch(f: &FetchPlan) -> String {
    format!(
        "SourceFetch source={} keys={} pushdown={} batched={} max_batch={} concurrent={} \
         est_cost={:?} est_rows={}",
        f.source(),
        f.leaves.ranks().len(),
        fmt_pred_opt(f.pushdown()),
        f.batched,
        f.max_batch,
        f.concurrent,
        f.est_cost,
        f.est_rows
    )
}

pub(crate) fn fmt_pred_opt(p: Option<&Predicate>) -> String {
    match p {
        Some(p) => fmt_pred(p),
        None => "-".to_string(),
    }
}

/// Predicate rendering in the text query language's own syntax: used
/// by EXPLAIN and by `Query`'s `Display`, and re-parseable by
/// `crate::parser`.
pub fn fmt_pred(p: &Predicate) -> String {
    match p {
        Predicate::True => "true".into(),
        Predicate::Compare { column, op, value } => {
            format!("{column} {} {}", op.symbol(), fmt_literal(value))
        }
        Predicate::Between { column, lo, hi } => {
            format!(
                "{column} between {} and {}",
                fmt_literal(lo),
                fmt_literal(hi)
            )
        }
        Predicate::InSet { column, values } => {
            let rendered: Vec<String> = values.iter().map(fmt_literal).collect();
            format!("{column} in ({})", rendered.join(", "))
        }
        Predicate::IsNull { column } => format!("{column} is null"),
        Predicate::And(ps) => {
            let parts: Vec<String> = ps.iter().map(fmt_pred).collect();
            format!("({})", parts.join(" and "))
        }
        Predicate::Or(ps) => {
            let parts: Vec<String> = ps.iter().map(fmt_pred).collect();
            format!("({})", parts.join(" or "))
        }
        Predicate::Not(p) => format!("not {}", fmt_pred(p)),
    }
}

/// Literal rendering in query-language syntax (single-quoted strings).
fn fmt_literal(v: &Value) -> String {
    match v {
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Null => "null".into(),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_sources::source::SourceCapabilities;

    fn assay_source(caps: SourceCapabilities) -> std::sync::Arc<dyn DataSource> {
        let d = crate::dataset::test_fixtures::small_dataset(caps);
        d.registry.by_name("assay-sim").unwrap()
    }

    /// The small dataset's leaves in `[lo, hi)`: P1..P4 at ranks 0..4.
    fn leaves(lo: u32, hi: u32) -> LeafSet {
        let d = crate::dataset::test_fixtures::small_dataset(SourceCapabilities::full());
        LeafSet::new(&d, LeafInterval { lo, hi }, |_| true).0
    }

    #[test]
    fn explain_renders_all_sections() {
        let source = assay_source(SourceCapabilities::full());
        let plan = PhysicalPlan {
            scope_node: NodeId(3),
            interval: LeafInterval { lo: 2, hi: 9 },
            pruned_leaves: 2,
            access: Access::Fetch {
                fetches: vec![FetchPlan::new(&source, leaves(0, 2), None, true, true, 7)],
                concurrent_sources: true,
            },
            residual: Predicate::cmp("mw", CompareOp::Lt, 500.0),
            ligand_join: true,
            similarity: None,
            substructure: None,
            finish: Finish::TopK {
                column: UnifiedColumn::named("p_activity").unwrap(),
                k: 10,
                descending: true,
            },
            notes: vec!["pushdown: p_activity >= 6".into()],
            estimated_cost: Duration::from_millis(42),
            estimated_rows: 7,
            rule_trace: vec![crate::phases::PassTrace {
                phase: crate::phases::RewritePhase::Optimize,
                firings: vec![crate::phases::RuleFiring {
                    rule: "pushdown",
                    outcome: crate::phases::RuleOutcome::Changed,
                }],
            }],
        };
        let text = plan.explain();
        assert!(text.contains("interval=[2, 9)"));
        assert!(text.contains("est_cost=42ms est_rows=7"));
        assert!(text.contains("SourceFetch source=assay-sim keys=2"));
        assert!(text.contains("batched=true max_batch=100 concurrent=true"));
        // One 10 ms round-trip plus 7 rows at 1 ms.
        assert!(text.contains("est_cost=17ms est_rows=7"), "{text}");
        assert!(text.contains("mw < 500"));
        assert!(text.contains("LigandJoin"));
        assert!(text.contains("TopK k=10 by=col5 desc"));
        assert!(text.contains("# pushdown"));
        assert!(text.contains("RuleTrace optimize: pushdown=changed"));
    }

    #[test]
    fn fetch_plans_take_their_batch_from_the_source() {
        let full = assay_source(SourceCapabilities::full());
        let batched = FetchPlan::new(&full, leaves(0, 2), None, true, true, 0);
        assert_eq!(
            (batched.max_batch(), batched.dispatch()),
            (100, Dispatch::Concurrent)
        );
        let sequential = FetchPlan::new(&full, leaves(0, 1), None, true, false, 0);
        assert_eq!(sequential.dispatch(), Dispatch::Sequential);
        // Unbatched: one key per request, one request at a time, even
        // under concurrent dispatch (the ablate-batching plan).
        let naive = FetchPlan::new(&full, leaves(0, 2), None, false, true, 0);
        assert_eq!(
            (naive.max_batch(), naive.dispatch()),
            (1, Dispatch::Sequential)
        );
        assert!(naive.concurrent, "EXPLAIN still prints the flag");
        // A dump-only source accepts one key per request.
        let minimal = assay_source(SourceCapabilities::minimal());
        let plan = FetchPlan::new(&minimal, leaves(0, 2), None, true, false, 0);
        assert_eq!(plan.max_batch(), 1);
        // Two sequential round-trips at 10 ms.
        assert_eq!(plan.est_cost, Duration::from_millis(20));
        assert_eq!(plan.leaves.ranks(), [0, 1]);
    }

    #[test]
    fn remote_form_translates_derived_columns() {
        // p_activity >= 8  <=>  value_nm <= 10 (widened by 1e-9).
        let p = Predicate::cmp("p_activity", CompareOp::Ge, 8.0);
        match remote_form(&p).unwrap() {
            Predicate::Compare { column, op, value } => {
                assert_eq!(column, "value_nm");
                assert_eq!(op, CompareOp::Le);
                let v = value.as_f64().unwrap();
                assert!((v - 10.0).abs() < 1e-6 && v >= 10.0, "got {v}");
            }
            other => panic!("{other:?}"),
        }
        // Between flips and swaps bounds.
        let p = Predicate::between("p_activity", 6.0, 8.0);
        match remote_form(&p).unwrap() {
            Predicate::Between { column, lo, hi } => {
                assert_eq!(column, "value_nm");
                assert!(lo.as_f64().unwrap() < hi.as_f64().unwrap());
                assert!((lo.as_f64().unwrap() - 10.0).abs() < 1e-6);
                assert!((hi.as_f64().unwrap() - 1000.0).abs() < 1e-3);
            }
            other => panic!("{other:?}"),
        }
        // Equality on a derived float is never pushed.
        assert!(remote_form(&Predicate::eq("p_activity", 8.0)).is_none());
        // Local-only coordinates are never pushed.
        assert!(remote_form(&Predicate::eq("leaf_rank", 3i64)).is_none());
        // Ligand columns are never pushed.
        assert!(remote_form(&Predicate::cmp("mw", CompareOp::Lt, 500.0)).is_none());
        // Native remote columns pass through unchanged.
        let p = Predicate::eq("year", 2012i64);
        assert_eq!(remote_form(&p).unwrap(), p);
    }

    #[test]
    fn unified_column_resolves_names() {
        assert_eq!(UnifiedColumn::named("p_activity").unwrap().index(), 5);
        assert_eq!(UnifiedColumn::named("rings").unwrap().index(), 13);
        assert!(UnifiedColumn::named("no_such_column").is_err());
    }

    #[test]
    fn columnar_pushdown_binds_to_the_mirror_schema() {
        let ok = ColumnarPushdown::bind(Some(Predicate::cmp("p_activity", CompareOp::Ge, 6.5)));
        assert!(ok.is_ok());
        assert!(matches!(
            ColumnarPushdown::bind(None).unwrap().bound(),
            BoundPredicate::True
        ));
        // Neither an unknown column nor a ligand column (joined later,
        // not mirrored) has a kernel.
        for column in ["no_such_column", "mw"] {
            let p = Predicate::cmp(column, CompareOp::Ge, 1i64);
            assert!(ColumnarPushdown::bind(Some(p)).is_err(), "{column}");
        }
    }

    #[test]
    fn view_access_admits_only_pure_aggregates_inside_the_scope() {
        use crate::ast::Scope;
        let d = crate::dataset::test_fixtures::small_dataset(
            drugtree_sources::source::SourceCapabilities::full(),
        );
        let (root, clade) = d.resolve_scope(&Scope::Tree).unwrap();
        let admit = |q: &Query, p: &Predicate, iv| ViewAccess::admit(q, p, &d.index, root, iv);
        let aggregate = Query::activities(Scope::Tree).aggregate(Metric::Count);
        assert!(admit(&aggregate, &Predicate::True, clade).is_some());

        let filter = Predicate::cmp("year", CompareOp::Ge, 2012i64);
        assert!(admit(&aggregate, &filter, clade).is_none());
        let part = LeafInterval { lo: 1, hi: 3 };
        assert!(admit(&aggregate, &Predicate::True, part).is_none());
        let listing = Query::activities(Scope::Tree);
        assert!(admit(&listing, &Predicate::True, clade).is_none());
        let similar = Query::activities(Scope::Tree)
            .similar_to("CCO", 0.5)
            .aggregate(Metric::Count);
        assert!(admit(&similar, &Predicate::True, clade).is_none());
        let containing = Query::activities(Scope::Tree)
            .containing("c1ccccc1")
            .aggregate(Metric::Count);
        assert!(admit(&containing, &Predicate::True, clade).is_none());

        // A node list is admitted when every node lies inside the scope.
        let p1 = d.index.by_label("P1").unwrap();
        let clade_a = d.index.by_label("cladeA").unwrap();
        let nodes = |nodes: Vec<NodeId>| {
            Query::activities(Scope::Tree).aggregate_nodes(nodes, &[Metric::Count])
        };
        assert!(admit(&nodes(vec![p1, clade_a]), &Predicate::True, clade).is_some());
        let first = LeafInterval { lo: 0, hi: 1 };
        assert!(admit(&nodes(vec![p1]), &Predicate::True, first).is_some());
        assert!(admit(&nodes(vec![clade_a]), &Predicate::True, first).is_none());
        assert!(admit(&nodes(vec![NodeId(999)]), &Predicate::True, clade).is_none());
    }

    #[test]
    fn predicate_formatting() {
        let p = Predicate::And(vec![
            Predicate::eq("a", 1i64),
            Predicate::Or(vec![
                Predicate::between("b", 1i64, 2i64),
                Predicate::Not(Box::new(Predicate::IsNull { column: "c".into() })),
            ]),
        ]);
        assert_eq!(
            fmt_pred(&p),
            "(a = 1 and (b between 1 and 2 or not c is null))"
        );
        assert_eq!(fmt_pred(&Predicate::True), "true");
        // Literals render in query-language syntax.
        assert_eq!(fmt_pred(&Predicate::eq("s", "it's")), "s = 'it''s'");
        let inset = Predicate::InSet {
            column: "ligand_id".into(),
            values: vec![Value::from("L1"), Value::from("L2")],
        };
        assert_eq!(fmt_pred(&inset), "ligand_id in ('L1', 'L2')");
    }

    #[test]
    fn proved_empty_explain() {
        let plan = PhysicalPlan {
            scope_node: NodeId(0),
            interval: LeafInterval { lo: 0, hi: 0 },
            pruned_leaves: 5,
            access: Access::ProvedEmpty,
            residual: Predicate::True,
            ligand_join: false,
            similarity: None,
            substructure: None,
            finish: Finish::Collect,
            notes: vec![],
            estimated_cost: Duration::ZERO,
            estimated_rows: 0,
            rule_trace: vec![],
        };
        assert!(plan.explain().contains("ProvedEmpty"));
    }
}
