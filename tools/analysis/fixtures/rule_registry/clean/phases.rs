//! Clean twin: every rule names its phase and is pinned by the golden.

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
        name: "finish_build",
        phase: RewritePhase::Lower,
        description: "construct the finishing operator",
        apply: rules::finish_build,
    },
];
