//! End-to-end pipeline test: sources → tree construction → integration
//! → optimized federated queries → mobile session.

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree::prelude::*;
use drugtree_query::dataset::test_fixtures::activity;
use drugtree_sources::assay_db::assay_source;
use drugtree_sources::latency::LatencyModel;
use drugtree_sources::ligand_db::{ligand_source, LigandRecord};
use drugtree_sources::protein_db::{protein_source, ProteinRecord};
use drugtree_sources::source::SourceCapabilities;
use std::sync::Arc;
use support::system;

mod support;

fn protein(acc: &str, seq: &str) -> ProteinRecord {
    ProteinRecord {
        accession: acc.into(),
        name: format!("protein {acc}"),
        organism: "test".into(),
        sequence: seq.into(),
        gene: None,
    }
}

/// Full pipeline from raw sources, checking every stage's product.
#[test]
fn pipeline_from_sequences_to_queries() {
    let caps = SourceCapabilities::full();
    let proteins = vec![
        protein("A1", "MKVLATWQDEAAAAAAAAAA"),
        protein("A2", "MKVLATWQDEAAAAAAAAAC"),
        protein("B1", "GGGPPPYYYWLLLLLLLLLL"),
        protein("B2", "GGGPPPYYYWLLLLLLLLLK"),
    ];
    let ligands = vec![
        LigandRecord::from_smiles("L1", "aspirin", "CC(=O)Oc1ccccc1C(=O)O").unwrap(),
        LigandRecord::from_smiles("L2", "ethanol", "CCO").unwrap(),
    ];
    let activities = vec![
        activity("A1", "L1", 10.0, 2012),
        activity("A2", "L1", 30.0, 2012),
        activity("B1", "L2", 5000.0, 2012),
    ];

    let system = DrugTree::builder()
        .register_source(Arc::new(
            protein_source("p", &proteins, caps, LatencyModel::intranet(1)).unwrap(),
        ))
        .register_source(Arc::new(
            ligand_source("l", &ligands, caps, LatencyModel::intranet(2)).unwrap(),
        ))
        .register_source(Arc::new(
            assay_source("a", &activities, caps, LatencyModel::web_api(3)).unwrap(),
        ))
        .build()
        .unwrap();

    // Stage 1: the tree clusters by sequence.
    let d = system.dataset();
    assert_eq!(d.leaf_count(), 4);
    let r = |acc: &str| d.rank_of_accession(acc).unwrap();
    assert_eq!(r("A1").abs_diff(r("A2")), 1, "A-family adjacent");
    assert_eq!(r("B1").abs_diff(r("B2")), 1, "B-family adjacent");
    // Recorded before the builder's tree-method, distance-model and
    // re-rooting knobs were deleted (neighbor joining, Poisson, root
    // where the last join left it), for this federation and for the
    // six kinases of `examples/kinase_analysis`.
    assert_eq!(
        to_newick(&d.tree),
        "((A1:0.025647,A2:0.025647):9.948707,B1:0.025647,B2:0.025647);"
    );
    let kinases: Vec<_> = [
        ("KINA1", "MGSNKSKPKDASQRRRSLEPAENVHGAGGGAF"),
        ("KINA2", "MGSNKSKPKDASQRRRSLEPSENVHGAGGGAF"),
        ("KINA3", "MGSNKSKPKDPSQRRRSLEPAENVHGAGGAAF"),
        ("KINB1", "MGLLSSKRQVSEKGKYWWFNEELLTTTHHPVQ"),
        ("KINB2", "MGLLSSKRQVSEKGKYWWFNEELLSTTHHPVQ"),
        ("KINB3", "MGLLSSKRQVTEKGKYWWFNEELLTTAHHPVQ"),
    ]
    .iter()
    .map(|(acc, seq)| protein(acc, seq))
    .collect();
    let kinase_system = DrugTree::builder()
        .register_source(Arc::new(
            protein_source("p", &kinases, caps, LatencyModel::intranet(1)).unwrap(),
        ))
        .build()
        .unwrap();
    assert_eq!(
        to_newick(&kinase_system.dataset().tree),
        "((KINA1:0.007399,KINA2:0.02435):0.02487,KINA3:0.040745,\
         ((KINB1:0.011637,KINB2:0.020112):0.065615,KINB3:0):1.683648);"
    );

    // Stage 2: the overlay materialized proteins and ligands locally.
    assert_eq!(system.report().ligands, 2);
    assert!(d.overlay.fingerprint("L1").is_some());

    // Stage 3: federated queries return integrated rows.
    let all = system.query("activities in tree").unwrap();
    assert_eq!(all.rows.len(), 3);
    let potent = system.query("activities where p_activity >= 7.0").unwrap();
    assert_eq!(potent.rows.len(), 2);

    // Stage 4: ranked output joins ligand metadata.
    let top = system.query("activities top 1 by p_activity desc").unwrap();
    assert_eq!(top.rows[0][2], Value::from("L1"));
    assert_eq!(top.rows[0][8], Value::from("aspirin"));

    // Stage 5: the mobile layer drives the same engine.
    let mut session = system.mobile_session(NetworkProfile::CELL_4G);
    let res = session.apply(&Gesture::InspectViewport).unwrap();
    assert_eq!(res.rows, 3);
}

/// A refresh re-collects statistics and nothing else: with no source
/// change, the cached answer keeps serving.
#[test]
fn refresh_cycle_keeps_results_correct() {
    let bundle = SyntheticBundle::generate(&WorkloadSpec::default().leaves(64).ligands(16));
    let mut system = system(bundle.build_dataset(), OptimizerConfig::full(), None);

    let before = system.query("activities in tree").unwrap();
    let cached = system.query("activities in tree").unwrap();
    assert_eq!(cached.metrics.cache_hit, Some(true));
    assert_eq!(before.rows, cached.rows);

    system.refresh().unwrap();
    let after = system.query("activities in tree").unwrap();
    assert_eq!(after.metrics.cache_hit, Some(true));
    assert_eq!(after.rows, before.rows);
}

/// Text-language queries agree with structurally built queries.
#[test]
fn parser_and_builder_queries_agree() {
    let bundle = SyntheticBundle::generate(&WorkloadSpec::default().leaves(64).ligands(16));
    let system = system(bundle.build_dataset(), OptimizerConfig::full(), None);

    let text = system
        .query("activities in subtree('clade1') where p_activity >= 6 top 10 by p_activity desc")
        .unwrap();
    let built = system
        .execute(
            &Query::activities(Scope::Subtree("clade1".into()))
                .filter(Predicate::cmp("p_activity", CompareOp::Ge, 6.0))
                .top_k("p_activity", 10, true),
        )
        .unwrap();
    assert_eq!(text.rows, built.rows);
    assert_eq!(text.columns, built.columns);
}

/// The virtual clock totals the latency of everything charged to it.
#[test]
fn virtual_clock_accounts_for_all_work() {
    let bundle = SyntheticBundle::generate(&WorkloadSpec::default().leaves(32).ligands(8));
    let system = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .optimizer(OptimizerConfig::naive())
        .with_stats(false)
        .build()
        .unwrap();
    let t0 = system.dataset().clock.now();
    let a = system.query("activities in tree").unwrap();
    let b = system.query("activities in subtree('clade1')").unwrap();
    let t1 = system.dataset().clock.now();
    assert_eq!(
        t1.since(t0),
        a.metrics.virtual_cost + b.metrics.virtual_cost,
        "clock advances exactly by the metrics' virtual costs"
    );
}
