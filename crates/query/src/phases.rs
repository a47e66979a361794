//! The phased rewrite engine's rule registry (design decision D13).
//!
//! The optimizer runs four explicit phases in a fixed order
//! ([`PHASE_ORDER`]): **Analyze** resolves the query against the
//! dataset (scope interval, similarity/substructure references, source
//! and key discovery), **Canonicalize** normalizes the predicate
//! ([`crate::ast::canon::canonicalize`]), **Optimize** applies the
//! cost-reducing rewrites (pruning, pushdown, selectivity ordering,
//! replica selection, matview/columnar/cache eligibility), and
//! **Lower** turns the optimized draft into the physical plan
//! (batching, fetch construction, access selection, finish shape).
//!
//! Every rule is registered here as a [`RuleDef`] with its phase, a
//! one-line description, its body, and — for flag-gated rules — a
//! toggle into [`OptimizerConfig`], so the driver, ablation
//! (`OptimizerConfig::ablate`), the `drugtree rules` listing, the
//! differential oracle's single-rule configs, and the repo-lint
//! registry check all derive from one table the compiler checks.
//!
//! The driver runs each phase's rules once, in registry order: no rule
//! reads a product of a later rule of its own phase. Only the
//! canonicalize rule iterates, inside itself, bounded by
//! [`MAX_PASSES_PER_PHASE`]. Each firing's [`RuleOutcome`] is recorded
//! in the plan's rule trace ([`PassTrace`]) and rendered by EXPLAIN.

use crate::optimizer::{rules, OptimizerConfig, Rewrite};

/// One of the rewrite engine's four phases, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RewritePhase {
    /// Resolve the query against the dataset into the analysis context.
    Analyze,
    /// Normalize the predicate into canonical form.
    Canonicalize,
    /// Apply cost-reducing rewrites to the draft.
    Optimize,
    /// Construct the physical access path and finish operator.
    Lower,
}

impl RewritePhase {
    /// Stable label for rendering and metric keys.
    pub fn label(self) -> &'static str {
        match self {
            RewritePhase::Analyze => "analyze",
            RewritePhase::Canonicalize => "canonicalize",
            RewritePhase::Optimize => "optimize",
            RewritePhase::Lower => "lower",
        }
    }
}

/// The phases, in the order the driver runs them.
pub const PHASE_ORDER: [RewritePhase; 4] = [
    RewritePhase::Analyze,
    RewritePhase::Canonicalize,
    RewritePhase::Optimize,
    RewritePhase::Lower,
];

/// Upper bound on the canonicalize rule's fixpoint passes (the only
/// rule that iterates). Canonicalization strictly shrinks a measure of
/// the predicate each changing pass, so real queries converge in two
/// or three passes; the bound exists so a buggy step oscillating
/// between forms fails loudly instead of spinning.
pub const MAX_PASSES_PER_PHASE: usize = 32;

/// What one rule application did to the draft.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleOutcome {
    /// The rule's config flag is disabled.
    Off,
    /// Enabled, but the rule's context gate did not match this query.
    NotApplicable,
    /// Ran and left the draft as it was.
    NoChange,
    /// Ran and changed the draft.
    Changed,
}

impl RuleOutcome {
    /// Stable label for the EXPLAIN rule trace.
    pub fn label(self) -> &'static str {
        match self {
            RuleOutcome::Off => "off",
            RuleOutcome::NotApplicable => "n/a",
            RuleOutcome::NoChange => "no-change",
            RuleOutcome::Changed => "changed",
        }
    }
}

/// One registered rewrite rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleDef {
    /// Registry name (also the `ablate` / EXPLAIN trace name).
    pub name: &'static str,
    /// The phase the rule runs in.
    pub phase: RewritePhase,
    /// One-line description for `drugtree rules`.
    pub description: &'static str,
    /// Flag setter on [`OptimizerConfig`] for ablatable rules;
    /// `None` marks a structural rule that always runs.
    pub toggle: Option<fn(&mut OptimizerConfig, bool)>,
    /// The rule's body: applies it to the planning draft.
    pub(crate) apply: for<'a> fn(&mut Rewrite<'a>) -> crate::Result<RuleOutcome>,
}

impl RuleDef {
    /// Whether the rule can be switched off (has a config flag).
    pub fn ablatable(&self) -> bool {
        self.toggle.is_some()
    }
}

// Named toggle functions: function pointers in a `const` table must be
// items, not closures.
fn t_canonicalize(c: &mut OptimizerConfig, on: bool) {
    c.canonicalize = on;
}
fn t_selectivity_ordering(c: &mut OptimizerConfig, on: bool) {
    c.selectivity_ordering = on;
}
fn t_stats_pruning(c: &mut OptimizerConfig, on: bool) {
    c.stats_pruning = on;
}
fn t_pushdown(c: &mut OptimizerConfig, on: bool) {
    c.pushdown = on;
}
fn t_replica_selection(c: &mut OptimizerConfig, on: bool) {
    c.replica_selection = on;
}
fn t_use_matview(c: &mut OptimizerConfig, on: bool) {
    c.use_matview = on;
}
fn t_columnar_scan(c: &mut OptimizerConfig, on: bool) {
    c.columnar_scan = on;
}
fn t_semantic_cache(c: &mut OptimizerConfig, on: bool) {
    c.semantic_cache = on;
}
fn t_batching(c: &mut OptimizerConfig, on: bool) {
    c.batching = on;
}
fn t_concurrent_dispatch(c: &mut OptimizerConfig, on: bool) {
    c.concurrent_dispatch = on;
}

/// Every rewrite rule, grouped by phase in application order. The
/// driver iterates this table directly, so registry order IS rule
/// order within a phase (the EXPLAIN note order depends on it).
pub const REGISTRY: &[RuleDef] = &[
    // -------- Analyze --------
    RuleDef {
        name: "interval_rewrite",
        phase: RewritePhase::Analyze,
        description: "resolve the scope to a leaf interval via the tree index",
        toggle: None,
        apply: rules::interval_rewrite,
    },
    RuleDef {
        name: "similarity_resolve",
        phase: RewritePhase::Analyze,
        description: "resolve a similarity reference to a fingerprint",
        toggle: None,
        apply: rules::similarity_resolve,
    },
    RuleDef {
        name: "substructure_resolve",
        phase: RewritePhase::Analyze,
        description: "parse a substructure pattern and its prescreen fingerprint",
        toggle: None,
        apply: rules::substructure_resolve,
    },
    RuleDef {
        name: "column_discovery",
        phase: RewritePhase::Analyze,
        description: "discover assay sources and the ligand-join need",
        toggle: None,
        apply: rules::column_discovery,
    },
    // -------- Canonicalize --------
    RuleDef {
        name: "canonicalize",
        phase: RewritePhase::Canonicalize,
        description: "normalize the predicate: NNF, flatten, fold, between-merge, dedup",
        toggle: Some(t_canonicalize),
        apply: rules::canonicalize,
    },
    // -------- Optimize --------
    RuleDef {
        name: "selectivity_ordering",
        phase: RewritePhase::Optimize,
        description: "reorder residual conjuncts most-selective-first",
        toggle: Some(t_selectivity_ordering),
        apply: rules::selectivity_ordering,
    },
    RuleDef {
        name: "stats_pruning",
        phase: RewritePhase::Optimize,
        description: "drop leaves (or the whole interval) proven empty by statistics",
        toggle: Some(t_stats_pruning),
        apply: rules::stats_pruning,
    },
    RuleDef {
        name: "pushdown",
        phase: RewritePhase::Optimize,
        description: "push remotely evaluable conjuncts into the source fetches",
        toggle: Some(t_pushdown),
        apply: rules::pushdown,
    },
    RuleDef {
        name: "cardinality_estimate",
        phase: RewritePhase::Optimize,
        description: "estimate shipped rows from histograms",
        toggle: None,
        apply: rules::cardinality_estimate,
    },
    RuleDef {
        name: "replica_selection",
        phase: RewritePhase::Optimize,
        description: "fetch each replica group from its cheapest member only",
        toggle: Some(t_replica_selection),
        apply: rules::replica_selection,
    },
    RuleDef {
        name: "use_matview",
        phase: RewritePhase::Optimize,
        description: "answer eligible aggregates from the materialized view",
        toggle: Some(t_use_matview),
        apply: rules::use_matview,
    },
    RuleDef {
        name: "columnar_scan",
        phase: RewritePhase::Optimize,
        description: "serve interval scopes from the columnar mirror's kernels",
        toggle: Some(t_columnar_scan),
        apply: rules::columnar_scan,
    },
    RuleDef {
        name: "semantic_cache",
        phase: RewritePhase::Optimize,
        description: "wrap the fetch in a semantic cache probe",
        toggle: Some(t_semantic_cache),
        apply: rules::semantic_cache,
    },
    // -------- Lower --------
    RuleDef {
        name: "batching",
        phase: RewritePhase::Lower,
        description: "coalesce key lookups into max-batch requests",
        toggle: Some(t_batching),
        apply: rules::batching,
    },
    RuleDef {
        name: "concurrent_dispatch",
        phase: RewritePhase::Lower,
        description: "dispatch batches and sources concurrently",
        toggle: Some(t_concurrent_dispatch),
        apply: rules::concurrent_dispatch,
    },
    RuleDef {
        name: "lower_fetches",
        phase: RewritePhase::Lower,
        description: "build per-source fetch plans over one leaf set, with latency estimates",
        toggle: None,
        apply: rules::lower_fetches,
    },
    RuleDef {
        name: "access_select",
        phase: RewritePhase::Lower,
        description: "select the access path: proved-empty, matview, columnar, cache wrap, fetch",
        toggle: None,
        apply: rules::access_select,
    },
    RuleDef {
        name: "finish_build",
        phase: RewritePhase::Lower,
        description: "construct the finishing operator",
        toggle: None,
        apply: rules::finish_build,
    },
];

/// The registered rules of one phase, in application order.
pub fn rules_in(phase: RewritePhase) -> impl Iterator<Item = &'static RuleDef> {
    REGISTRY.iter().filter(move |r| r.phase == phase)
}

/// Look up a rule by its registry name.
pub fn rule_named(name: &str) -> Option<&'static RuleDef> {
    REGISTRY.iter().find(|r| r.name == name)
}

/// The flag-gated rules, in registry order — the `ablate` name space.
pub fn ablatable_rules() -> impl Iterator<Item = &'static RuleDef> {
    REGISTRY.iter().filter(|r| r.ablatable())
}

/// One rule application recorded in the plan's rule trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleFiring {
    /// Registry name of the rule.
    pub rule: &'static str,
    /// What the application did.
    pub outcome: RuleOutcome,
}

/// The one pass of one phase: every rule of the phase fired once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassTrace {
    /// The phase the pass belongs to.
    pub phase: RewritePhase,
    /// Per-rule outcomes, in registry order.
    pub firings: Vec<RuleFiring>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_name_is_unique() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|r| r.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate rule names in REGISTRY");
    }

    #[test]
    fn registry_is_grouped_in_phase_order() {
        // Rules appear phase-contiguously in PHASE_ORDER order, so
        // iterating the registry directly equals iterating phase by
        // phase (the EXPLAIN note order depends on this).
        let phases: Vec<RewritePhase> = REGISTRY.iter().map(|r| r.phase).collect();
        let mut sorted = phases.clone();
        sorted.sort();
        assert_eq!(phases, sorted, "REGISTRY must be grouped by phase");
        for phase in PHASE_ORDER {
            assert!(rules_in(phase).count() > 0, "{phase:?} has no rules");
        }
    }

    #[test]
    fn toggles_flip_exactly_one_flag() {
        for rule in ablatable_rules() {
            let mut c = OptimizerConfig::full();
            (rule.toggle.unwrap())(&mut c, false);
            assert_ne!(c, OptimizerConfig::full(), "{} toggles nothing", rule.name);
            (rule.toggle.unwrap())(&mut c, true);
            assert_eq!(c, OptimizerConfig::full(), "{} does not restore", rule.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(rule_named("pushdown").is_some());
        assert!(rule_named("interval_rewrite").is_some());
        assert!(rule_named("warp-drive").is_none());
        assert!(!rule_named("access_select").unwrap().ablatable());
        assert!(rule_named("canonicalize").unwrap().ablatable());
        assert_eq!((REGISTRY.len(), ablatable_rules().count()), (18, 10));
    }
}
