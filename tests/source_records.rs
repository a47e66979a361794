//! Generated source records through the integration path: protein,
//! ligand and activity records with hostile fields go through
//! `OverlayBuilder::build`, `assay_source`, `Dataset::new` and the
//! widening rule (`AssayRows::unify`), which must answer with a value or
//! an error, never a panic, and in bounded time.
//!
//! The generator is structure-aware: identifiers are mostly ones the
//! 8-leaf tree or the ligand catalogue knows (so records join and
//! duplicate), and otherwise unknown, empty or 1 MiB long; `value_nm`
//! is mostly an ordinary concentration, and otherwise NaN, ±∞, ±0, a
//! negative, a subnormal or a value near `f64::MAX`. Where the records
//! build a system, a fixed query set is fed to the differential
//! harness (`support`): the naive planner against `full()` and `full()`
//! with the materialized view and the columnar mirror, each warm and
//! cold, which must return equal normalised rows.
//!
//! The records are deployed over one to three assay sources: as one
//! source, as partitions, or as declared replicas holding every record.
//! On top, some records are measured again in another year — into
//! another lab (two labs sharing a fact) or into their own source (a
//! repeat inside one source). With more than one source, each fact is
//! one row, its most recent measurement, on every plan. A second
//! generator deploys well-formed records only, so that every case builds
//! and repeated facts are common.
//!
//! After the query set, a few late measurements are ingested into
//! every system's own sources (into every replica of a replicated
//! deployment), and the query set runs again with nothing invalidated
//! and no statistics re-collected.

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree::prelude::*;
use drugtree_chem::affinity::{ActivityRecord, ActivityType};
use drugtree_integrate::overlay::OverlayBuilder;
use drugtree_query::dataset::AssayRows;
use drugtree_sources::assay_db::{assay_row, assay_schema, assay_source};
use drugtree_sources::clock::{wall_now, VirtualClock};
use drugtree_sources::ligand_db::LigandRecord;
use drugtree_sources::protein_db::ProteinRecord;
use drugtree_sources::source::SourceCapabilities;
use drugtree_sources::{LatencyModel, SourceRegistry};
use drugtree_store::table::Table;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;
use support::{Matrix, Step, Systems};

mod support;
use std::time::Duration;

const NEWICK: &str =
    "(((P1:1,P2:1)c1:1,(P3:1,P4:1)c2:1)c12:1,((P5:1,P6:1)c3:1,(P7:1,P8:1)c4:1)c34:1)root;";
/// The longest identifier or name the generator emits, in bytes.
const MAX_TEXT_BYTES: usize = 1 << 20;
/// Wall time one case (three builds, the query set twice on five
/// runners) may take, unoptimised.
const CASE_BUDGET: Duration = Duration::from_secs(20);

/// Run on every system a case builds.
const QUERIES: &[&str] = &[
    "activities",
    "activities in subtree('c1')",
    "activities where p_activity >= 7",
    "activities where value_nm < 100 and year >= 2000",
    "activities where mw < 300 or ligand_id = 'L2'",
    "activities top 3 by p_activity desc",
    "activities similar to 'CCO' >= 0.3",
    "activities containing 'c1ccccc1'",
    "aggregate count",
    "aggregate count in subtree('c12')",
    "aggregate distinct_ligands",
    "aggregate max_p_activity",
    "aggregate mean_p_activity in subtree('c34')",
    "aggregate mean_p_activity where p_activity >= 6",
    "count per leaf",
];

/// Text of up to [`MAX_TEXT_BYTES`] bytes: empty, short, or a megabyte.
fn arb_text() -> impl Strategy<Value = String> {
    prop_oneof![
        6 => Just("text".to_string()),
        1 => Just(String::new()),
        1 => Just("é".repeat(MAX_TEXT_BYTES / 2)),
    ]
}

/// A protein accession: usually a leaf label (also in the framed and
/// versioned forms the resolver normalises), rarely one that resolves
/// to nothing.
fn arb_accession() -> impl Strategy<Value = String> {
    prop_oneof![
        40 => (1..=8u32).prop_map(|i| format!("P{i}")),
        2 => (1..=8u32).prop_map(|i| format!("P{i}.2")),
        2 => (1..=8u32).prop_map(|i| format!("sp|P{i}|X")),
        1 => Just("Q99".to_string()),
        1 => Just(String::new()),
        1 => Just("P".repeat(MAX_TEXT_BYTES)),
    ]
}

/// A ligand id: usually one of six, else unknown, empty or a megabyte.
fn arb_ligand_id() -> impl Strategy<Value = String> {
    prop_oneof![
        12 => (1..=6u32).prop_map(|i| format!("L{i}")),
        1 => Just("L99".to_string()),
        1 => Just(String::new()),
        1 => Just("L".repeat(MAX_TEXT_BYTES)),
    ]
}

/// A concentration in nM: ordinary, at the edges of what an `f64`
/// holds, or one no measurement can be.
fn arb_value_nm() -> impl Strategy<Value = f64> {
    const EXTREME: &[f64] = &[5e-324, f64::MIN_POSITIVE, 1e-300, 1e300, f64::MAX];
    const INVALID: &[f64] = &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -5.0];
    prop_oneof![
        40 => 1.0f64..100_000.0,
        3 => (0..EXTREME.len()).prop_map(|i| EXTREME[i]),
        2 => (0..INVALID.len()).prop_map(|i| INVALID[i]),
    ]
}

fn arb_protein() -> impl Strategy<Value = ProteinRecord> {
    (arb_accession(), arb_text()).prop_map(|(accession, name)| ProteinRecord {
        accession,
        name,
        organism: "synthetic".into(),
        sequence: "MKVLAT".into(),
        gene: None,
    })
}

fn arb_ligand() -> impl Strategy<Value = LigandRecord> {
    const SMILES: &[&str] = &[
        "CCO",
        "c1ccccc1",
        "CC(=O)Oc1ccccc1C(=O)O",
        "CCN",
        "((((",
        "",
    ];
    const MW: &[f64] = &[46.07, 180.2, 0.0, -1.0, f64::NAN, f64::INFINITY];
    (
        arb_ligand_id(),
        arb_text(),
        (0..SMILES.len() + 1),
        (0..MW.len()),
        (0..u32::MAX, 0..u32::MAX, 0..u32::MAX),
    )
        .prop_map(
            |(ligand_id, name, smiles, mw, (hbd, hba, rings))| LigandRecord {
                ligand_id,
                name,
                // One past the table: a chain past the SMILES atom bound.
                smiles: SMILES
                    .get(smiles)
                    .map_or_else(|| "C".repeat(2_000), |s| (*s).to_string()),
                molecular_weight: MW[mw],
                hbd,
                hba,
                rings,
            },
        )
}

const TYPES: [ActivityType; 4] = [
    ActivityType::Ki,
    ActivityType::Kd,
    ActivityType::Ic50,
    ActivityType::Ec50,
];

fn arb_activity() -> impl Strategy<Value = ActivityRecord> {
    (
        arb_accession(),
        arb_ligand_id(),
        (0..TYPES.len()),
        arb_value_nm(),
        arb_text(),
        0..=u16::MAX,
    )
        .prop_map(
            |(protein_accession, ligand_id, t, value_nm, source, year)| ActivityRecord {
                protein_accession,
                ligand_id,
                activity_type: TYPES[t],
                value_nm,
                source,
                year,
            },
        )
}

/// A well-formed measurement on one of the eight leaves: pActivity
/// spread over the range the queries filter on, and years from a short
/// span, so one fact is often measured twice and years tie.
fn arb_measurement() -> impl Strategy<Value = ActivityRecord> {
    (1..=8u32, 1..=3u32, 0..2usize, 4.0f64..9.0, 2010..=2013u16).prop_map(
        |(leaf, ligand, t, p_activity, year)| ActivityRecord {
            protein_accession: format!("P{leaf}"),
            ligand_id: format!("L{ligand}"),
            activity_type: TYPES[t],
            value_nm: 10f64.powf(9.0 - p_activity),
            source: "lab".into(),
            year,
        },
    )
}

/// How activity records are spread over assay sources.
#[derive(Debug, Clone)]
struct Deployment {
    /// One to three sources.
    sources: usize,
    /// Every source holds every record, and they are declared replicas;
    /// otherwise record `i` sits in source `home[i] % sources`.
    replicated: bool,
    home: Vec<usize>,
    /// Another measurement of a record (index modulo the records): the
    /// source it goes to (modulo the sources), its year and its
    /// pActivity, spread evenly over the range the queries filter on.
    remeasured: Vec<(usize, usize, u16, f64)>,
    /// Measurements deposited after the first pass over the queries,
    /// each with the source it goes to (modulo the sources).
    late: Vec<(ActivityRecord, usize)>,
}

fn arb_deployment() -> impl Strategy<Value = Deployment> {
    (
        1..=3usize,
        0..10u32,
        proptest::collection::vec(0..3usize, 40),
        proptest::collection::vec((0..40usize, 0..3usize, 0..=u16::MAX, 4.0f64..9.0), 0..8),
        proptest::collection::vec((arb_measurement(), 0..3usize), 1..4),
    )
        .prop_map(|(sources, replicated, home, remeasured, late)| Deployment {
            sources,
            replicated: replicated < 3,
            home,
            remeasured,
            late,
        })
}

impl Deployment {
    /// The records each source holds.
    fn shards(&self, activities: &[ActivityRecord]) -> Vec<Vec<ActivityRecord>> {
        // Replicas: every record goes to the first copy, then is copied.
        let shard = |i: usize| if self.replicated { 0 } else { i % self.sources };
        let mut shards = vec![Vec::new(); self.sources];
        for (record, &home) in activities.iter().zip(&self.home) {
            shards[shard(home)].push(record.clone());
        }
        for &(i, to, year, p_activity) in &self.remeasured {
            if let Some(record) = activities.get(i % activities.len().max(1)) {
                shards[shard(to)].push(ActivityRecord {
                    year,
                    value_nm: 10f64.powf(9.0 - p_activity),
                    ..record.clone()
                });
            }
        }
        if self.replicated {
            let copy = shards[0].clone();
            shards.fill(copy);
        }
        shards
    }
}

/// The records as a dataset over [`NEWICK`], or the first refusal.
fn build_dataset(
    proteins: &[ProteinRecord],
    ligands: &[LigandRecord],
    activities: &[ActivityRecord],
    deployment: &Deployment,
) -> Result<Dataset, String> {
    let tree = parse_newick(NEWICK).unwrap();
    let index = TreeIndex::build(&tree);
    let overlay = OverlayBuilder::new(&tree, &index)
        .build(proteins, ligands)
        .map_err(|e| e.to_string())?;
    let mut registry = SourceRegistry::new();
    let mut names = Vec::new();
    for (i, shard) in deployment.shards(activities).iter().enumerate() {
        let name = format!("assay-{i}");
        let source = assay_source(
            name.as_str(),
            shard,
            SourceCapabilities::full(),
            LatencyModel::free(),
        )
        .map_err(|e| e.to_string())?;
        registry.register(Arc::new(source)).unwrap();
        names.push(name);
    }
    if deployment.replicated && names.len() > 1 {
        registry.declare_replicas(names).unwrap();
    }
    Dataset::new(tree, index, overlay, registry, VirtualClock::new()).map_err(|e| e.to_string())
}

/// Feed the records to the harness: `Ok` when they are refused, or
/// when every query got one answer (or one refusal) from every system,
/// before and after the late measurements.
fn run_case(
    proteins: &[ProteinRecord],
    ligands: &[LigandRecord],
    activities: &[ActivityRecord],
    deployment: &Deployment,
) -> Result<(), String> {
    let build = || build_dataset(proteins, ligands, activities, deployment);
    let Ok(first) = build() else {
        return Ok(());
    };
    let mut first = Some(first);
    let dataset = || first.take().unwrap_or_else(|| build().unwrap());
    let systems = Systems::new(&Matrix::fixed(), dataset);

    // Widening a shipped row keeps exactly the rows whose accession is
    // on the tree and whose value is a concentration.
    let naive = systems.naive().dataset();
    let rows = activities.iter().map(assay_row);
    let shipped = Table::from_rows("assays", assay_schema(), rows).map_err(|e| e.to_string())?;
    let widened = AssayRows::new(naive, &shipped);
    for (i, record) in activities.iter().enumerate() {
        let mapped = naive.rank_of_accession(&record.protein_accession).is_some();
        let valid = record.value_nm.is_finite() && record.value_nm > 0.0;
        let unified = widened.unify(i);
        if unified.is_some() != (mapped && valid) {
            return Err(format!("AssayRows::unify kept {unified:?} for {record:?}"));
        }
    }

    let queries = QUERIES.iter().map(|text| Step::Text((*text).to_string()));
    let late = deployment.late.iter().cloned();
    let late = late.map(|(record, to)| Step::Ingest(record, to));
    let steps: Vec<Step> = queries.clone().chain(late).chain(queries).collect();
    systems.run(&steps).map(drop)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_source_records_build_or_are_refused_and_agree(
        proteins in proptest::collection::vec(arb_protein(), 0..10),
        ligands in proptest::collection::vec(arb_ligand(), 0..8),
        activities in proptest::collection::vec(arb_activity(), 0..40),
        deployment in arb_deployment(),
    ) {
        let started = wall_now();
        run_case(&proteins, &ligands, &activities, &deployment).map_err(TestCaseError::Fail)?;
        let elapsed = wall_now().duration_since(started);
        prop_assert!(elapsed < CASE_BUDGET, "one case took {:?}", elapsed);
    }

    /// Well-formed records, so every case builds: what varies is how
    /// they are deployed and which facts are measured more than once.
    #[test]
    fn generated_federations_agree(
        activities in proptest::collection::vec(arb_measurement(), 0..40),
        deployment in arb_deployment(),
    ) {
        let proteins: Vec<ProteinRecord> = (1..=8)
            .map(|i| ProteinRecord {
                accession: format!("P{i}"),
                name: String::new(),
                organism: "synthetic".into(),
                sequence: "MKVLAT".into(),
                gene: None,
            })
            .collect();
        let ligands = [("L1", "CCO"), ("L2", "c1ccccc1"), ("L3", "CCN")]
            .map(|(id, smiles)| LigandRecord::from_smiles(id, id, smiles).unwrap());
        run_case(&proteins, &ligands, &activities, &deployment).map_err(TestCaseError::Fail)?;
    }
}
