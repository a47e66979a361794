//! Plan-invariant validation: defense-in-depth for the rewrite
//! pipeline.
//!
//! Every optimizer rule preserves a set of structural invariants on the
//! [`PhysicalPlan`] it helps construct; nothing used to *check* them,
//! so a bad rule interaction could silently corrupt results (and every
//! E4 ablation number with them). [`PlanValidator`] walks a finished
//! plan and verifies each invariant against the live [`Dataset`]:
//!
//! * **interval-bounds** — the resolved leaf interval lies inside the
//!   tree index (`lo` ≤ `hi` ≤ leaf count).
//! * **fetch-keys-sorted-deduped** — every fetch's key list is strictly
//!   increasing (sorted, no duplicates), so batching is deterministic
//!   and cache rows stay mergeable.
//! * **fetch-source-resolves** — every fetch names a registered source.
//! * **fetch-batch-limit** — the per-request key count the plan
//!   resolved (`FetchPlan::max_batch`) respects the source's live
//!   capability, and non-batched fetches promise singleton requests.
//! * **pushdown-capability** — pushdown predicates reference only
//!   columns that physically exist in the remote assay schema and are
//!   evaluable by the target source's declared capabilities.
//! * **pruning-consistency** — statistics-pruned leaves never reappear
//!   in a fetch key set: every key maps to a leaf inside the interval,
//!   and key count plus pruned count equals the interval's
//!   protein-bearing leaf count.
//! * **cache-key-consistency** — a cache probe's predicate key equals
//!   the miss-path pushdown plus (at most) the statistics-pruning
//!   `p_activity >=` bound; anything else would reuse cached entries
//!   under the wrong key.
//! * **matview-purity** — the materialized view only answers pure
//!   aggregates: no residual predicate, no similarity, no substructure.
//! * **columnar-kernel-columns** — a columnar scan's pushdown
//!   references only columns of the activity-half mirror schema, so
//!   every predicate leaf has a vectorized kernel to run on.
//! * **finish-shape** — the finish operator addresses real columns of
//!   the unified schema and in-bounds child intervals.
//!
//! Violations come back as structured [`InvariantViolation`]s (rule
//! name, plan path, explanation) rather than panics, so planning
//! surfaces them as a [`QueryError::Invariant`] and EXPLAIN output
//! stays printable for debugging. The optimizer runs the validator
//! once, on every plan it emits, in every build
//! ([`crate::optimizer::Optimizer::plan`]); nothing checks a plan
//! again downstream.
//!
//! [`QueryError::Invariant`]: crate::QueryError

use crate::dataset::{unified_schema, Dataset};
use crate::plan::{fmt_pred, Access, FetchPlan, Finish, PhysicalPlan};
use drugtree_store::expr::{CompareOp, Predicate};
use std::fmt;

/// One violated plan invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The invariant's rule name (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// Where in the plan the violation sits, e.g. `access.on_miss[0]`.
    pub path: String,
    /// Human-readable explanation of what is wrong.
    pub explanation: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.rule, self.path, self.explanation)
    }
}

/// Rule name: leaf interval inside the tree index bounds.
pub const RULE_INTERVAL_BOUNDS: &str = "interval-bounds";
/// Rule name: fetch keys strictly increasing (sorted and deduplicated).
pub const RULE_KEYS_SORTED: &str = "fetch-keys-sorted-deduped";
/// Rule name: fetch source names resolve in the registry.
pub const RULE_SOURCE_RESOLVES: &str = "fetch-source-resolves";
/// Rule name: resolved batch size respects the source capability.
pub const RULE_BATCH_LIMIT: &str = "fetch-batch-limit";
/// Rule name: pushdown predicates evaluable by the target source.
pub const RULE_PUSHDOWN_CAPABILITY: &str = "pushdown-capability";
/// Rule name: pruned leaves absent from fetch key sets.
pub const RULE_PRUNING: &str = "pruning-consistency";
/// Rule name: cache probe key consistent with the miss-path pushdown.
pub const RULE_CACHE_KEY: &str = "cache-key-consistency";
/// Rule name: materialized view only answers pure aggregates.
pub const RULE_MATVIEW: &str = "matview-purity";
/// Rule name: columnar pushdown columns exist in the mirror schema.
pub const RULE_COLUMNAR: &str = "columnar-kernel-columns";
/// Rule name: finish operator addresses real columns and intervals.
pub const RULE_FINISH: &str = "finish-shape";

/// Walks a [`PhysicalPlan`] and checks every structural invariant
/// against the dataset it will execute on.
pub struct PlanValidator<'a> {
    dataset: &'a Dataset,
}

impl<'a> PlanValidator<'a> {
    /// A validator bound to the dataset the plan targets.
    pub fn new(dataset: &'a Dataset) -> PlanValidator<'a> {
        PlanValidator { dataset }
    }

    /// Check every invariant; `Ok(())` when the plan is well-formed.
    pub fn validate(&self, plan: &PhysicalPlan) -> Result<(), Vec<InvariantViolation>> {
        let violations = self.check(plan);
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }

    /// Check every invariant, collecting all violations (never panics,
    /// never stops at the first finding).
    pub fn check(&self, plan: &PhysicalPlan) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        self.check_interval(plan, &mut out);
        self.check_fetches(plan, &mut out);
        self.check_cache_key(plan, &mut out);
        self.check_matview(plan, &mut out);
        self.check_columnar(plan, &mut out);
        self.check_finish(plan, &mut out);
        out
    }

    fn check_interval(&self, plan: &PhysicalPlan, out: &mut Vec<InvariantViolation>) {
        let leaves = self.dataset.leaf_count() as u32;
        for (name, bound) in [("lo", plan.interval.lo), ("hi", plan.interval.hi)] {
            if bound > leaves {
                out.push(InvariantViolation {
                    rule: RULE_INTERVAL_BOUNDS,
                    path: "interval".into(),
                    explanation: format!(
                        "interval {name}={bound} exceeds the tree's {leaves} leaves"
                    ),
                });
            }
        }
        if plan.interval.lo > plan.interval.hi {
            out.push(InvariantViolation {
                rule: RULE_INTERVAL_BOUNDS,
                path: "interval".into(),
                explanation: format!(
                    "interval lo={} above hi={}",
                    plan.interval.lo, plan.interval.hi
                ),
            });
        }
    }

    fn check_fetches(&self, plan: &PhysicalPlan, out: &mut Vec<InvariantViolation>) {
        for (path, fetch) in fetches_of(&plan.access) {
            self.check_keys_sorted(&path, fetch, out);
            self.check_pruning(plan, &path, fetch, out);

            let Ok(source) = self.dataset.registry.by_name(&fetch.source) else {
                out.push(InvariantViolation {
                    rule: RULE_SOURCE_RESOLVES,
                    path,
                    explanation: format!("source {:?} is not registered", fetch.source),
                });
                continue;
            };
            let caps = source.capabilities();

            // Batch contract: the plan records the per-request key
            // count it resolved; a batched fetch must stay within the
            // source's live capability, a non-batched fetch promises
            // singleton requests.
            if fetch.max_batch == 0 {
                out.push(InvariantViolation {
                    rule: RULE_BATCH_LIMIT,
                    path: path.clone(),
                    explanation: "resolved batch size of zero can issue no requests".into(),
                });
            } else if fetch.batched && fetch.max_batch > caps.max_batch {
                out.push(InvariantViolation {
                    rule: RULE_BATCH_LIMIT,
                    path: path.clone(),
                    explanation: format!(
                        "plan batches {} keys per request but source {:?} accepts at most {}",
                        fetch.max_batch, fetch.source, caps.max_batch
                    ),
                });
            } else if !fetch.batched && fetch.max_batch != 1 {
                out.push(InvariantViolation {
                    rule: RULE_BATCH_LIMIT,
                    path: path.clone(),
                    explanation: format!(
                        "non-batched fetch must issue singleton requests, not {} keys",
                        fetch.max_batch
                    ),
                });
            }

            if let Some(pred) = &fetch.pushdown {
                for col in pred.columns() {
                    if !crate::optimizer::REMOTE_COLUMNS.contains(&col) {
                        out.push(InvariantViolation {
                            rule: RULE_PUSHDOWN_CAPABILITY,
                            path: path.clone(),
                            explanation: format!(
                                "pushdown references {col:?}, which does not exist in the \
                                 remote assay schema"
                            ),
                        });
                    }
                }
                if !caps.supports_predicate(pred) {
                    out.push(InvariantViolation {
                        rule: RULE_PUSHDOWN_CAPABILITY,
                        path: path.clone(),
                        explanation: format!(
                            "source {:?} cannot evaluate pushdown `{}` (eq_pushdown={}, \
                             range_pushdown={})",
                            fetch.source,
                            fmt_pred(pred),
                            caps.eq_pushdown,
                            caps.range_pushdown
                        ),
                    });
                }
            }
        }
    }

    fn check_keys_sorted(&self, path: &str, fetch: &FetchPlan, out: &mut Vec<InvariantViolation>) {
        for pair in fetch.keys.windows(2) {
            if pair[0] >= pair[1] {
                out.push(InvariantViolation {
                    rule: RULE_KEYS_SORTED,
                    path: path.to_string(),
                    explanation: format!(
                        "keys are not strictly increasing at {} >= {}",
                        pair[0], pair[1]
                    ),
                });
                // One finding per fetch is enough.
                break;
            }
        }
    }

    fn check_pruning(
        &self,
        plan: &PhysicalPlan,
        path: &str,
        fetch: &FetchPlan,
        out: &mut Vec<InvariantViolation>,
    ) {
        let in_scope = self.dataset.accessions_in(plan.interval).count();
        for key in &fetch.keys {
            let rank = key
                .as_text()
                .and_then(|acc| self.dataset.rank_of_accession(acc));
            match rank {
                Some(r) if plan.interval.contains_rank(r) => {}
                Some(r) => out.push(InvariantViolation {
                    rule: RULE_PRUNING,
                    path: path.to_string(),
                    explanation: format!(
                        "key {key} addresses leaf {r}, outside the scope interval \
                         [{}, {})",
                        plan.interval.lo, plan.interval.hi
                    ),
                }),
                None => out.push(InvariantViolation {
                    rule: RULE_PRUNING,
                    path: path.to_string(),
                    explanation: format!("key {key} maps to no leaf of the tree"),
                }),
            }
        }
        // A pruned leaf that "reappears" inflates the key count past
        // what the interval can supply after pruning.
        if fetch.keys.len() + plan.pruned_leaves != in_scope {
            out.push(InvariantViolation {
                rule: RULE_PRUNING,
                path: path.to_string(),
                explanation: format!(
                    "{} keys + {} pruned leaves != {} protein-bearing leaves in scope",
                    fetch.keys.len(),
                    plan.pruned_leaves,
                    in_scope
                ),
            });
        }
    }

    fn check_cache_key(&self, plan: &PhysicalPlan, out: &mut Vec<InvariantViolation>) {
        let Access::CacheProbe {
            pushdown, on_miss, ..
        } = &plan.access
        else {
            return;
        };
        let Some(first) = on_miss.first() else {
            out.push(InvariantViolation {
                rule: RULE_CACHE_KEY,
                path: "access".into(),
                explanation: "cache probe has no miss path to fill the cache".into(),
            });
            return;
        };
        // All miss-path fetches must carry the same pushdown: the probe
        // has a single predicate key.
        for (i, f) in on_miss.iter().enumerate().skip(1) {
            if f.pushdown != first.pushdown {
                out.push(InvariantViolation {
                    rule: RULE_CACHE_KEY,
                    path: format!("access.on_miss[{i}]"),
                    explanation: format!(
                        "pushdown {} differs from on_miss[0]'s {}",
                        fmt_opt_pred(&f.pushdown),
                        fmt_opt_pred(&first.pushdown)
                    ),
                });
            }
        }
        // The probe key must be exactly the fetch pushdown plus, at
        // most, the statistics-pruning potency bound. A looser key
        // would answer later probes with rows the fetch never shipped;
        // a stricter key silently disables reuse.
        let probe = conjuncts_owned(pushdown.as_ref());
        let fetched = conjuncts_owned(first.pushdown.as_ref());
        for c in &fetched {
            if !probe.contains(c) {
                out.push(InvariantViolation {
                    rule: RULE_CACHE_KEY,
                    path: "access.pushdown".into(),
                    explanation: format!(
                        "probe key is missing the miss-path conjunct `{}`; cached rows \
                         would be reused under a looser key",
                        fmt_pred(c)
                    ),
                });
            }
        }
        for c in &probe {
            if !fetched.contains(c) && !is_pruning_bound(c) {
                out.push(InvariantViolation {
                    rule: RULE_CACHE_KEY,
                    path: "access.pushdown".into(),
                    explanation: format!(
                        "probe key conjunct `{}` is neither fetched remotely nor a \
                         statistics-pruning p_activity bound",
                        fmt_pred(c)
                    ),
                });
            }
        }
    }

    fn check_matview(&self, plan: &PhysicalPlan, out: &mut Vec<InvariantViolation>) {
        if plan.access != Access::MaterializedView {
            return;
        }
        if plan.residual != Predicate::True {
            out.push(InvariantViolation {
                rule: RULE_MATVIEW,
                path: "access".into(),
                explanation: format!(
                    "materialized view cannot answer under residual predicate `{}`",
                    fmt_pred(&plan.residual)
                ),
            });
        }
        if plan.similarity.is_some() || plan.substructure.is_some() {
            out.push(InvariantViolation {
                rule: RULE_MATVIEW,
                path: "access".into(),
                explanation: "materialized view cannot answer under structural constraints".into(),
            });
        }
        if !matches!(plan.finish, Finish::AggregateChildren { .. }) {
            out.push(InvariantViolation {
                rule: RULE_MATVIEW,
                path: "finish".into(),
                explanation: "materialized view only answers per-child aggregates".into(),
            });
        }
        // The view stores whole-clade aggregates: a scope interval
        // that only partially covers its clade needs per-row access.
        // (Bounds-checked so a malformed scope_node cannot panic.)
        if plan.scope_node.index() < self.dataset.index.node_count() {
            let clade = self.dataset.index.interval(plan.scope_node);
            if plan.interval != clade {
                out.push(InvariantViolation {
                    rule: RULE_MATVIEW,
                    path: "interval".into(),
                    explanation: format!(
                        "materialized view answers whole clades, but scope interval \
                         [{}, {}) covers clade n{} = [{}, {}) only partially",
                        plan.interval.lo, plan.interval.hi, plan.scope_node.0, clade.lo, clade.hi
                    ),
                });
            }
        }
    }

    /// A columnar scan's pushdown runs as bitmap kernels over the
    /// activity mirror, so every column it names must exist in the
    /// activity-half schema (binding would fail at execution time,
    /// but the validator reports it as a structured violation first).
    fn check_columnar(&self, plan: &PhysicalPlan, out: &mut Vec<InvariantViolation>) {
        let Access::ColumnarScan { pushdown } = &plan.access else {
            return;
        };
        let Some(pred) = pushdown else { return };
        let schema = crate::dataset::activity_half_schema();
        for col in pred.columns() {
            if schema.column_index(col).is_err() {
                out.push(InvariantViolation {
                    rule: RULE_COLUMNAR,
                    path: "access.pushdown".into(),
                    explanation: format!(
                        "columnar pushdown references `{col}`, which has no column \
                         (and hence no kernel) in the activity mirror"
                    ),
                });
            }
        }
    }

    fn check_finish(&self, plan: &PhysicalPlan, out: &mut Vec<InvariantViolation>) {
        match &plan.finish {
            Finish::TopK { column, .. } => {
                let arity = unified_schema().arity();
                if *column >= arity {
                    out.push(InvariantViolation {
                        rule: RULE_FINISH,
                        path: "finish".into(),
                        explanation: format!(
                            "top-k ranks by column {column}, but unified rows have only \
                             {arity} columns"
                        ),
                    });
                }
            }
            Finish::AggregateChildren { children, .. } => {
                let leaves = self.dataset.leaf_count() as u32;
                for (i, (_, label, iv)) in children.iter().enumerate() {
                    if iv.hi > leaves || iv.lo > iv.hi {
                        out.push(InvariantViolation {
                            rule: RULE_FINISH,
                            path: format!("finish.children[{i}]"),
                            explanation: format!(
                                "child {label:?} interval [{}, {}) outside the tree's \
                                 {leaves} leaves",
                                iv.lo, iv.hi
                            ),
                        });
                    }
                }
            }
            Finish::Collect | Finish::CountPerLeaf => {}
        }
    }
}

/// Every fetch in the plan's access path, with its plan path.
fn fetches_of(access: &Access) -> Vec<(String, &FetchPlan)> {
    match access {
        Access::Fetch { fetches, .. } => fetches
            .iter()
            .enumerate()
            .map(|(i, f)| (format!("access.fetches[{i}]"), f))
            .collect(),
        Access::CacheProbe { on_miss, .. } => on_miss
            .iter()
            .enumerate()
            .map(|(i, f)| (format!("access.on_miss[{i}]"), f))
            .collect(),
        Access::ColumnarScan { .. } | Access::MaterializedView | Access::ProvedEmpty => Vec::new(),
    }
}

fn conjuncts_owned(pred: Option<&Predicate>) -> Vec<Predicate> {
    match pred {
        None => Vec::new(),
        Some(p) => crate::optimizer::conjuncts_of(p)
            .into_iter()
            .cloned()
            .collect(),
    }
}

/// The extra conjunct statistics pruning is allowed to add to a cache
/// key: a lower bound on `p_activity` (see the optimizer's cache-key
/// construction).
fn is_pruning_bound(pred: &Predicate) -> bool {
    matches!(
        pred,
        Predicate::Compare { column, op, .. }
            if column == "p_activity" && matches!(op, CompareOp::Ge | CompareOp::Gt)
    )
}

fn fmt_opt_pred(p: &Option<Predicate>) -> String {
    p.as_ref().map_or_else(|| "-".to_string(), fmt_pred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Metric, Query, Scope};
    use crate::dataset::test_fixtures::small_dataset;
    use crate::optimizer::{Optimizer, OptimizerConfig, PlanInputs};
    use crate::stats::OverlayStats;
    use drugtree_phylo::index::LeafInterval;
    use drugtree_sources::source::SourceCapabilities;
    use drugtree_store::value::Value;

    fn planned(dataset: &Dataset, config: OptimizerConfig, query: &Query) -> PhysicalPlan {
        let stats = OverlayStats::collect(dataset).unwrap();
        let inputs = PlanInputs {
            stats: Some(&stats),
            ..PlanInputs::new(dataset)
        };
        Optimizer::new(config).plan(&inputs, query).unwrap()
    }

    fn filtered_query() -> Query {
        use drugtree_store::expr::CompareOp;
        Query::activities(Scope::Tree).filter(Predicate::cmp("p_activity", CompareOp::Ge, 6.5))
    }

    /// Mutate every fetch in the plan's access path.
    fn mutate_fetches(plan: &mut PhysicalPlan, f: impl Fn(&mut FetchPlan)) {
        match &mut plan.access {
            Access::Fetch { fetches, .. } => fetches.iter_mut().for_each(f),
            Access::CacheProbe { on_miss, .. } => on_miss.iter_mut().for_each(f),
            _ => {}
        }
    }

    fn rules_of(violations: &[InvariantViolation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn well_formed_plans_pass() {
        let d = small_dataset(SourceCapabilities::full());
        let v = PlanValidator::new(&d);
        for config in [OptimizerConfig::naive(), OptimizerConfig::full()] {
            for query in [
                Query::activities(Scope::Tree),
                filtered_query(),
                Query::activities(Scope::Subtree("cladeA".into())).top_k("p_activity", 2, true),
                Query::activities(Scope::Tree).aggregate(Metric::Count),
            ] {
                let plan = planned(&d, config, &query);
                assert_eq!(v.check(&plan), vec![], "{query}");
            }
        }
    }

    #[test]
    fn rejects_unsorted_or_duplicated_keys() {
        let d = small_dataset(SourceCapabilities::full());
        let mut plan = planned(
            &d,
            OptimizerConfig::naive(),
            &Query::activities(Scope::Tree),
        );
        mutate_fetches(&mut plan, |f| f.keys.reverse());
        assert!(rules_of(&PlanValidator::new(&d).check(&plan)).contains(&RULE_KEYS_SORTED));

        let mut plan = planned(
            &d,
            OptimizerConfig::naive(),
            &Query::activities(Scope::Tree),
        );
        mutate_fetches(&mut plan, |f| {
            let dup = f.keys[0].clone();
            f.keys.insert(0, dup);
        });
        let rules = rules_of(&PlanValidator::new(&d).check(&plan));
        assert!(rules.contains(&RULE_KEYS_SORTED), "{rules:?}");
    }

    #[test]
    fn rejects_unknown_source() {
        let d = small_dataset(SourceCapabilities::full());
        let mut plan = planned(
            &d,
            OptimizerConfig::naive(),
            &Query::activities(Scope::Tree),
        );
        mutate_fetches(&mut plan, |f| f.source = "bogus-db".into());
        assert!(rules_of(&PlanValidator::new(&d).check(&plan)).contains(&RULE_SOURCE_RESOLVES));
    }

    #[test]
    fn rejects_oversized_batches() {
        let d = small_dataset(SourceCapabilities::full());
        let mut plan = planned(&d, OptimizerConfig::full(), &Query::activities(Scope::Tree));
        // The fixture source accepts at most 100 keys per request.
        mutate_fetches(&mut plan, |f| f.max_batch = 1000);
        assert!(rules_of(&PlanValidator::new(&d).check(&plan)).contains(&RULE_BATCH_LIMIT));

        // A non-batched fetch claiming multi-key requests is equally
        // malformed.
        let mut plan = planned(
            &d,
            OptimizerConfig::naive(),
            &Query::activities(Scope::Tree),
        );
        mutate_fetches(&mut plan, |f| f.max_batch = 7);
        assert!(rules_of(&PlanValidator::new(&d).check(&plan)).contains(&RULE_BATCH_LIMIT));
    }

    #[test]
    fn rejects_unsupported_pushdown() {
        use drugtree_store::expr::CompareOp;
        let d = small_dataset(SourceCapabilities::full());
        // `mw` lives in the local ligand table; no source can see it.
        let mut plan = planned(&d, OptimizerConfig::full(), &filtered_query());
        mutate_fetches(&mut plan, |f| {
            f.pushdown = Some(Predicate::cmp("mw", CompareOp::Lt, 500.0));
        });
        assert!(rules_of(&PlanValidator::new(&d).check(&plan)).contains(&RULE_PUSHDOWN_CAPABILITY));

        // A range pushdown against a dump-only source exceeds its
        // declared capabilities.
        let d = small_dataset(SourceCapabilities::minimal());
        let mut plan = planned(
            &d,
            OptimizerConfig::naive(),
            &Query::activities(Scope::Tree),
        );
        mutate_fetches(&mut plan, |f| {
            f.pushdown = Some(Predicate::cmp("year", CompareOp::Ge, 2012i64));
        });
        assert!(rules_of(&PlanValidator::new(&d).check(&plan)).contains(&RULE_PUSHDOWN_CAPABILITY));
    }

    #[test]
    fn rejects_mismatched_cache_key() {
        use drugtree_store::expr::CompareOp;
        let d = small_dataset(SourceCapabilities::full());
        let mut plan = planned(&d, OptimizerConfig::full(), &filtered_query());
        // Loosen the probe key relative to the miss path: cached rows
        // fetched under the pushdown would answer unfiltered probes.
        if let Access::CacheProbe { pushdown, .. } = &mut plan.access {
            *pushdown = None;
        }
        assert!(rules_of(&PlanValidator::new(&d).check(&plan)).contains(&RULE_CACHE_KEY));

        // A probe key conjunct the miss path never fetched is equally
        // wrong in the other direction.
        let mut plan = planned(&d, OptimizerConfig::full(), &Query::activities(Scope::Tree));
        if let Access::CacheProbe { pushdown, .. } = &mut plan.access {
            *pushdown = Some(Predicate::cmp("year", CompareOp::Ge, 2012i64));
        }
        assert!(rules_of(&PlanValidator::new(&d).check(&plan)).contains(&RULE_CACHE_KEY));
    }

    #[test]
    fn rejects_impure_matview() {
        use drugtree_store::expr::CompareOp;
        let d = small_dataset(SourceCapabilities::full());
        let mut plan = planned(
            &d,
            OptimizerConfig::full(),
            &Query::activities(Scope::Tree).aggregate(Metric::Count),
        );
        plan.access = Access::MaterializedView;
        plan.residual = Predicate::cmp("year", CompareOp::Ge, 2012i64);
        assert!(rules_of(&PlanValidator::new(&d).check(&plan)).contains(&RULE_MATVIEW));
    }

    #[test]
    fn rejects_columnar_pushdown_on_unknown_column() {
        use drugtree_store::expr::CompareOp;
        let d = small_dataset(SourceCapabilities::full());
        let mut plan = planned(&d, OptimizerConfig::full(), &filtered_query());
        plan.access = Access::ColumnarScan {
            pushdown: Some(Predicate::cmp("no_such_column", CompareOp::Ge, 1i64)),
        };
        assert!(rules_of(&PlanValidator::new(&d).check(&plan)).contains(&RULE_COLUMNAR));

        // A pushdown over real mirror columns passes the rule.
        plan.access = Access::ColumnarScan {
            pushdown: Some(Predicate::cmp("p_activity", CompareOp::Ge, 6.5)),
        };
        assert!(!rules_of(&PlanValidator::new(&d).check(&plan)).contains(&RULE_COLUMNAR));
    }

    #[test]
    fn rejects_out_of_bounds_interval() {
        let d = small_dataset(SourceCapabilities::full());
        let mut plan = planned(
            &d,
            OptimizerConfig::naive(),
            &Query::activities(Scope::Tree),
        );
        plan.interval = LeafInterval { lo: 0, hi: 99 };
        assert!(rules_of(&PlanValidator::new(&d).check(&plan)).contains(&RULE_INTERVAL_BOUNDS));
    }

    #[test]
    fn rejects_inverted_interval() {
        let d = small_dataset(SourceCapabilities::full());
        let mut plan = planned(
            &d,
            OptimizerConfig::naive(),
            &Query::activities(Scope::Tree),
        );
        // Both bounds inside the tree's 4 leaves, but lo above hi.
        plan.interval = LeafInterval { lo: 2, hi: 1 };
        assert!(rules_of(&PlanValidator::new(&d).check(&plan)).contains(&RULE_INTERVAL_BOUNDS));
    }

    #[test]
    fn rejects_reappearing_pruned_leaves() {
        let d = small_dataset(SourceCapabilities::full());
        // Full config with stats prunes P4 (no activities): 3 keys + 1
        // pruned. Resurrecting the pruned key breaks the count.
        let mut plan = planned(&d, OptimizerConfig::full(), &Query::activities(Scope::Tree));
        assert_eq!(plan.pruned_leaves, 1);
        mutate_fetches(&mut plan, |f| f.keys.push(Value::from("P4")));
        assert!(rules_of(&PlanValidator::new(&d).check(&plan)).contains(&RULE_PRUNING));

        // A key addressing a leaf outside the scope interval is the
        // same class of corruption.
        let mut plan = planned(
            &d,
            OptimizerConfig::naive(),
            &Query::activities(Scope::Subtree("cladeA".into())),
        );
        mutate_fetches(&mut plan, |f| f.keys = vec![Value::from("P3")]);
        assert!(rules_of(&PlanValidator::new(&d).check(&plan)).contains(&RULE_PRUNING));
    }

    #[test]
    fn rejects_out_of_schema_top_k() {
        let d = small_dataset(SourceCapabilities::full());
        let mut plan = planned(
            &d,
            OptimizerConfig::naive(),
            &Query::activities(Scope::Tree).top_k("p_activity", 2, true),
        );
        plan.finish = Finish::TopK {
            column: 99,
            k: 2,
            descending: true,
        };
        assert!(rules_of(&PlanValidator::new(&d).check(&plan)).contains(&RULE_FINISH));
    }

    #[test]
    fn violations_render_and_collect() {
        let d = small_dataset(SourceCapabilities::full());
        let mut plan = planned(&d, OptimizerConfig::full(), &filtered_query());
        plan.interval = LeafInterval { lo: 0, hi: 99 };
        mutate_fetches(&mut plan, |f| {
            f.source = "bogus-db".into();
            f.keys.reverse();
        });
        let violations = PlanValidator::new(&d).check(&plan);
        assert!(
            violations.len() >= 3,
            "collects all findings: {violations:?}"
        );
        let rendered = violations[0].to_string();
        assert!(rendered.contains(violations[0].rule), "{rendered}");
        assert!(PlanValidator::new(&d).validate(&plan).is_err());
    }
}
