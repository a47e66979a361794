//! Plan-invariant validation: the checks that depend on the live
//! dataset.
//!
//! A [`PhysicalPlan`] keeps ten invariants; DESIGN.md §4b maps each to
//! what guarantees it. Seven hold by construction: the plan's parts are
//! built only by constructors that establish them ([`crate::plan`], and
//! [`Dataset::resolve_scope`] for the interval). Among them,
//! *pruning-consistency*: a fetch names its leaves by a
//! [`LeafSet`](crate::plan::LeafSet), whose one constructor takes the
//! dataset, the interval and the pruning rule, so no pruned leaf and no
//! leaf outside the interval can reach a fetch. [`PlanValidator`]
//! checks the other three against the [`Dataset`] the plan will execute
//! on:
//!
//! * **fetch-source-resolves** — every fetch names a registered source.
//! * **pushdown-capability** — pushdown predicates reference only
//!   columns that physically exist in the remote assay schema and are
//!   evaluable by the target source's declared capabilities.
//! * **cache-key-consistency** — a cache probe's predicate key equals
//!   the miss-path pushdown plus (at most) the statistics-pruning
//!   `p_activity >=` bound; anything else would reuse cached entries
//!   under the wrong key.
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

use crate::dataset::Dataset;
use crate::plan::{fmt_pred, fmt_pred_opt, Access, FetchPlan, PhysicalPlan};
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

/// Rule name: fetch source names resolve in the registry.
pub const RULE_SOURCE_RESOLVES: &str = "fetch-source-resolves";
/// Rule name: pushdown predicates evaluable by the target source.
pub const RULE_PUSHDOWN_CAPABILITY: &str = "pushdown-capability";
/// Rule name: cache probe key consistent with the miss-path pushdown.
pub const RULE_CACHE_KEY: &str = "cache-key-consistency";

/// Walks a [`PhysicalPlan`] and checks the invariants that depend on
/// the dataset it will execute on.
pub struct PlanValidator<'a> {
    dataset: &'a Dataset,
}

impl<'a> PlanValidator<'a> {
    /// A validator bound to the dataset the plan targets.
    pub fn new(dataset: &'a Dataset) -> PlanValidator<'a> {
        PlanValidator { dataset }
    }

    /// Check the three runtime invariants, collecting all violations
    /// (never panics, never stops at the first finding).
    pub fn check(&self, plan: &PhysicalPlan) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        self.check_fetches(plan, &mut out);
        self.check_cache_key(plan, &mut out);
        out
    }

    fn check_fetches(&self, plan: &PhysicalPlan, out: &mut Vec<InvariantViolation>) {
        for (path, fetch) in fetches_of(&plan.access) {
            let Ok(source) = self.dataset.registry.by_name(fetch.source()) else {
                out.push(InvariantViolation {
                    rule: RULE_SOURCE_RESOLVES,
                    path,
                    explanation: format!("source {:?} is not registered", fetch.source()),
                });
                continue;
            };
            let caps = source.capabilities();

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
                            fetch.source(),
                            fmt_pred(pred),
                            caps.eq_pushdown,
                            caps.range_pushdown
                        ),
                    });
                }
            }
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
                        fmt_pred_opt(f.pushdown.as_ref()),
                        fmt_pred_opt(first.pushdown.as_ref())
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
        Access::ColumnarScan { .. } | Access::MaterializedView(_) | Access::ProvedEmpty => {
            Vec::new()
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Metric, Query, Scope};
    use crate::dataset::test_fixtures::{small_dataset, test_latency};
    use crate::optimizer::{Optimizer, OptimizerConfig, PlanInputs};
    use crate::stats::OverlayStats;
    use drugtree_sources::assay_db::assay_source;
    use drugtree_sources::source::SourceCapabilities;

    fn planned(dataset: &Dataset, config: OptimizerConfig, query: &Query) -> PhysicalPlan {
        let stats = OverlayStats::collect(dataset).unwrap();
        let inputs = PlanInputs {
            stats: Some(&stats),
            ..PlanInputs::new(dataset)
        };
        Optimizer::new(config).plan(&inputs, query).unwrap()
    }

    fn filtered_query() -> Query {
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

    /// Re-plan every fetch against a source the dataset never
    /// registered.
    fn retarget_to_unregistered_source(plan: &mut PhysicalPlan) {
        let bogus =
            assay_source("bogus-db", &[], SourceCapabilities::full(), test_latency()).unwrap();
        mutate_fetches(plan, |f| {
            *f = FetchPlan::new(
                &bogus,
                f.leaves.clone(),
                f.pushdown.clone(),
                f.batched(),
                f.concurrent,
                f.est_rows,
            );
        });
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
    fn rejects_unknown_source() {
        let d = small_dataset(SourceCapabilities::full());
        let mut plan = planned(
            &d,
            OptimizerConfig::naive(),
            &Query::activities(Scope::Tree),
        );
        retarget_to_unregistered_source(&mut plan);
        assert!(rules_of(&PlanValidator::new(&d).check(&plan)).contains(&RULE_SOURCE_RESOLVES));
    }

    #[test]
    fn rejects_unsupported_pushdown() {
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
    fn violations_render_and_collect() {
        let d = small_dataset(SourceCapabilities::full());
        let mut plan = planned(&d, OptimizerConfig::full(), &filtered_query());
        retarget_to_unregistered_source(&mut plan);
        if let Access::CacheProbe { pushdown, .. } = &mut plan.access {
            *pushdown = None;
        }
        let violations = PlanValidator::new(&d).check(&plan);
        let rules = rules_of(&violations);
        for rule in [RULE_SOURCE_RESOLVES, RULE_CACHE_KEY] {
            assert!(
                rules.contains(&rule),
                "collects all findings: {violations:?}"
            );
        }
        let rendered = violations[0].to_string();
        assert!(rendered.contains(violations[0].rule), "{rendered}");
    }
}
