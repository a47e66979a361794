//! E16: phased-rewrite ablation sweep — every registered rule (and
//! every phase's rule group of two or more) toggled off against a
//! mixed query corpus,
//! reporting result equivalence, charged latency, and planning time.
//!
//! This is the registry-driven successor of E4: configurations are
//! derived from [`drugtree_query::phases`] instead of a hand-kept
//! list, so a newly registered rule shows up in the sweep (and in the
//! committed benchdiff baseline) automatically. Every configuration's
//! results are checked against the full planner's — the "match" column
//! is a miniature differential oracle, and any value other than n/n is
//! a correctness bug, not a performance finding.
//!
//! Charged latency runs on the virtual clock and is deterministic;
//! planning time is wall-clock (the planner is pure CPU), so that
//! column uses a benchdiff-neutral header and the committed baseline
//! gates coverage and the deterministic columns only.

use crate::table::ExperimentTable;
use crate::{fmt_ms, mean, RunConfig};
use drugtree::prelude::*;
use drugtree_query::phases::{self, PHASE_ORDER};
use drugtree_query::stats::OverlayStats;
use drugtree_query::PlanInputs;
use drugtree_sources::clock::wall_now;
use drugtree_workload::queries::{mixed_stream, QueryWorkloadConfig};
use std::time::Duration;

/// One planner configuration in the sweep.
struct Mode {
    label: String,
    config: OptimizerConfig,
    rules_off: usize,
}

/// Full, each phase's ablatable rules off as a group (phases with a
/// single ablatable rule are left to that rule's own row), each
/// ablatable rule off alone, and naive — all derived from the
/// registry.
fn sweep_modes() -> Vec<Mode> {
    let mut modes = vec![Mode {
        label: "full".into(),
        config: OptimizerConfig::full(),
        rules_off: 0,
    }];
    for phase in PHASE_ORDER {
        let rules: Vec<_> = phases::rules_in(phase).filter(|r| r.ablatable()).collect();
        if rules.len() < 2 {
            continue;
        }
        let mut config = OptimizerConfig::full();
        for rule in &rules {
            (rule.toggle.expect("ablatable"))(&mut config, false);
        }
        modes.push(Mode {
            label: format!("no-{}", phase.label()),
            config,
            rules_off: rules.len(),
        });
    }
    for rule in phases::ablatable_rules() {
        modes.push(Mode {
            label: format!("no-{}", rule.name),
            config: OptimizerConfig::ablate(rule.name).expect("registered rule"),
            rules_off: 1,
        });
    }
    modes.push(Mode {
        label: "naive".into(),
        config: OptimizerConfig::naive(),
        rules_off: phases::ablatable_rules().count(),
    });
    modes
}

/// Order-free row comparison with float rounding, as the differential
/// oracle normalizes.
fn normalized(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut out: Vec<Vec<Value>> = rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Float(f) => Value::Float((f * 1e9).round() / 1e9),
                    other => other.clone(),
                })
                .collect()
        })
        .collect();
    out.sort();
    out
}

/// Best-of-`reps` wall time of `f` (one untimed warm-up).
fn best_of(reps: usize, mut f: impl FnMut()) -> Duration {
    f();
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t = wall_now();
        f();
        best = best.min(wall_now().duration_since(t));
    }
    best
}

/// Run E16.
pub fn run(config: RunConfig) -> ExperimentTable {
    let (leaves, ligands, corpus_len, reps) = if config.quick {
        (96, 32, 32, 3)
    } else {
        (256, 64, 160, 5)
    };
    let bundle = SyntheticBundle::generate(
        &WorkloadSpec::default()
            .leaves(leaves)
            .ligands(ligands)
            .seed(1616),
    );
    let corpus = mixed_stream(
        &bundle.tree,
        &bundle.index,
        &bundle.ligands,
        &QueryWorkloadConfig {
            len: corpus_len,
            seed: 16,
            scope_theta: 0.8,
        },
    );

    // Planning-time inputs shared by every mode: planning mutates
    // nothing, so one dataset and one stats collection serve all.
    let plan_dataset = bundle.build_dataset();
    let stats = OverlayStats::collect(&plan_dataset).expect("stats collect");
    let plan_inputs = PlanInputs {
        stats: Some(&stats),
        ..PlanInputs::new(&plan_dataset)
    };

    let mut table = ExperimentTable::new(
        "E16",
        format!(
            "phased-rewrite ablation sweep, {leaves} leaves, {} queries, best of {reps}",
            corpus.len()
        ),
        vec!["mode", "rules off", "match", "mean charged", "plan wall"],
    );

    let mut baseline: Option<Vec<Vec<Vec<Value>>>> = None;
    for mode in sweep_modes() {
        let system = DrugTree::builder()
            .dataset(bundle.build_dataset())
            .optimizer(mode.config)
            .with_matview()
            .build()
            .expect("system builds");
        let mut charged = Vec::with_capacity(corpus.len());
        let mut results = Vec::with_capacity(corpus.len());
        for q in &corpus {
            system.executor().invalidate();
            let r = system.execute(q).expect("query executes");
            charged.push(r.metrics.charged_cost);
            results.push(normalized(&r.rows));
        }
        let matched = match &baseline {
            None => {
                baseline = Some(results);
                corpus.len()
            }
            Some(full) => results.iter().zip(full).filter(|(a, b)| a == b).count(),
        };

        let optimizer = Optimizer::new(mode.config);
        let plan_wall = best_of(reps, || {
            for q in &corpus {
                let _ = optimizer.plan(&plan_inputs, q).expect("query plans");
            }
        });

        table.row(vec![
            mode.label,
            mode.rules_off.to_string(),
            format!("{matched}/{}", corpus.len()),
            fmt_ms(mean(&charged)),
            format!("{plan_wall:.2?}"),
        ]);
    }

    table.note(format!(
        "{} registered rules across {} phases ({} ablatable); \
         match compares order-normalized rows against the full planner; \
         plan wall is wall-clock over the whole corpus (benchdiff-neutral)",
        phases::REGISTRY.len(),
        PHASE_ORDER.len(),
        phases::ablatable_rules().count(),
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CI smoke: every ablation (rule-level and phase-level) must
    /// return exactly the full planner's results on the whole corpus,
    /// and the sweep must cover every ablatable rule plus the
    /// phase-group and endpoint modes.
    #[test]
    fn every_ablation_matches_full_results() {
        let t = run(RunConfig { quick: true });
        let phase_groups = PHASE_ORDER
            .iter()
            .filter(|&&p| phases::rules_in(p).filter(|r| r.ablatable()).count() >= 2)
            .count();
        assert_eq!(
            t.rows.len(),
            phases::ablatable_rules().count() + phase_groups + 2,
            "sweep should cover full, per-phase, per-rule, naive\n{t:?}"
        );
        for row in &t.rows {
            let (matched, total) = row[2].split_once('/').expect("match column is n/m");
            assert_eq!(
                matched, total,
                "mode {} diverged from the full planner\n{t:?}",
                row[0]
            );
        }
    }

    #[test]
    fn phase_groups_exist_for_optimize_and_lower() {
        let labels: Vec<String> = sweep_modes().into_iter().map(|m| m.label).collect();
        // `no-canonicalize` is the one canonicalize rule's own row,
        // printed once, not again as a phase group.
        for needed in ["no-canonicalize", "no-optimize", "no-lower"] {
            assert_eq!(
                labels.iter().filter(|l| *l == needed).count(),
                1,
                "{needed}: {labels:?}"
            );
        }
        assert!(
            !labels.iter().any(|l| l == "no-analyze"),
            "analyze has no ablatable rules: {labels:?}"
        );
    }

    /// `RewritePhase` is re-exported where the sweep needs it.
    #[test]
    fn phase_order_is_complete() {
        use drugtree_query::phases::RewritePhase;
        assert_eq!(PHASE_ORDER.len(), 4);
        assert_eq!(PHASE_ORDER[0], RewritePhase::Analyze);
        assert_eq!(PHASE_ORDER[3], RewritePhase::Lower);
    }
}
