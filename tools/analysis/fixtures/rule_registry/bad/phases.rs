//! Seeded-violation twin for the rule-registry pass: `ghost_rule`
//! declares no phase and never appears in the goldens, and
//! `interval_rewrite` is registered twice.

pub enum RewritePhase {
    Analyze,
    Lower,
}

pub struct RuleDef {
    pub name: &'static str,
    pub phase: RewritePhase,
    pub description: &'static str,
    pub apply: fn(&mut Rewrite) -> RuleOutcome,
}

pub const REGISTRY: &[RuleDef] = &[
    RuleDef {
        name: "interval_rewrite",
        phase: RewritePhase::Analyze,
        description: "resolve the scope to a leaf interval",
        apply: rules::interval_rewrite,
    },
    RuleDef {
        name: "ghost_rule",
        description: "no phase field, unpinned by any golden",
        apply: rules::ghost_rule,
    },
    RuleDef {
        name: "interval_rewrite",
        phase: RewritePhase::Lower,
        description: "duplicate registration",
        apply: rules::interval_rewrite,
    },
];
