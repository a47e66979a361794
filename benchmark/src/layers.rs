//! Direct calls into single layers, made once by the traced run on the
//! workload's own kind of system: what a building block costs with
//! nothing around it. A layer the system does not have (no columnar
//! mirror outside `query_local`) reports nothing, which prints as 0.

use crate::stats::median;
use crate::workloads::{build_system, nanos, RepOptions, TraceSink, Workload};
use drugtree::prelude::*;
use drugtree_chem::fingerprint::Fingerprint;
use drugtree_chem::similarity::tanimoto;
use drugtree_mobile::layout::TreeLayout;
use drugtree_query::matview::MaterializedAggregates;
use drugtree_sources::clock::wall_now;
use drugtree_sources::source::{FetchRequest, SourceKind};
use drugtree_store::expr::BoundPredicate;
use drugtree_store::kernel;
use std::hint::black_box;

/// Times a call is repeated when the median of a few runs is reported.
const REPEATS: usize = 5;

/// Leaves whose accessions make up one direct source fetch.
const FETCH_BATCH: u32 = 64;

/// Ligands the chemistry probes look at.
const CHEM_SAMPLE: usize = 256;

/// Median wall time of `REPEATS` calls, in nanoseconds.
fn median_ns<T>(mut f: impl FnMut() -> T) -> f64 {
    let runs: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = wall_now();
            black_box(f());
            nanos(wall_now() - t) as f64
        })
        .collect();
    median(&runs).expect("REPEATS > 0")
}

pub fn probe(workload: Workload, opts: &RepOptions, sink: &mut TraceSink) {
    let (system, _) = build_system(&workload.system_spec(opts.smoke), None);
    let dataset = system.dataset();

    sink.scalar(
        "phylo.index_build_us",
        median_ns(|| TreeIndex::build(&dataset.tree)) / 1e3,
    );
    sink.scalar(
        "mobile.layout_compute_us",
        median_ns(|| TreeLayout::compute(&dataset.tree, &dataset.index)) / 1e3,
    );

    // chem: pairwise Tanimoto over stored fingerprints, and
    // fingerprinting stored molecules from scratch.
    let mut ligands: Vec<(&str, &Fingerprint)> = dataset.overlay.fingerprints().collect();
    ligands.sort_by_key(|(id, _)| *id);
    ligands.truncate(CHEM_SAMPLE);
    let pairs = (ligands.len() * ligands.len()) as f64;
    sink.scalar(
        "chem.tanimoto_ns_per_pair",
        median_ns(|| {
            ligands
                .iter()
                .flat_map(|(_, a)| ligands.iter().map(move |(_, b)| tanimoto(a, b)))
                .sum::<f64>()
        }) / pairs,
    );
    let molecules: Vec<_> = ligands
        .iter()
        .filter_map(|(id, _)| dataset.overlay.molecule(id))
        .collect();
    sink.scalar(
        "chem.fingerprint_us_per_mol",
        median_ns(|| {
            molecules
                .iter()
                .map(|m| Fingerprint::of_molecule(m).popcount())
                .sum::<u32>()
        }) / 1e3
            / molecules.len().max(1) as f64,
    );

    // sources: one batched key lookup per window of adjacent leaves,
    // straight at the first assay source.
    if let Some(source) = dataset.registry.by_kind(SourceKind::Assay).first() {
        let leaves = dataset.leaf_count() as u32;
        for lo in (0..leaves).step_by(FETCH_BATCH as usize) {
            let keys = (lo..(lo + FETCH_BATCH).min(leaves))
                .filter_map(|rank| dataset.accession_of_rank(rank))
                .map(Value::from)
                .collect();
            let request = FetchRequest::lookup(keys);
            let t = wall_now();
            black_box(source.fetch(&request)).expect("assay source answers a key lookup");
            sink.sample("sources.fetch_call_us", nanos(wall_now() - t) as f64 / 1e3);
        }
    }

    // store: the filter and sum kernels over the whole activity mirror.
    if let Some(columns) = system.executor().columnar() {
        let table = columns.table();
        let rows = table.len();
        let filter = Predicate::cmp("p_activity", CompareOp::Ge, 6.5)
            .bind(table.schema())
            .expect("p_activity is an activity column");
        let p_activity = table.column(
            table
                .schema()
                .column_index("p_activity")
                .expect("p_activity is an activity column"),
        );
        let everything = table.eval(&BoundPredicate::True, 0..rows);
        sink.scalar(
            "store.kernel_filter_ns_per_row",
            median_ns(|| table.eval(&filter, 0..rows)) / rows.max(1) as f64,
        );
        sink.scalar(
            "store.kernel_sum_ns_per_row",
            median_ns(|| kernel::sum_f64(p_activity, &everything)) / rows.max(1) as f64,
        );
        sink.scalar(
            "store.columnar_bytes_per_record",
            columns.memory_bytes() as f64 / rows.max(1) as f64,
        );

        // query::matview: the executor keeps its view private, so the
        // probe builds the same view over the same dataset.
        let view = MaterializedAggregates::build(dataset).expect("matview builds");
        let nodes: Vec<NodeId> = dataset.tree.node_ids().collect();
        sink.scalar(
            "query.matview_lookup_ns",
            median_ns(|| {
                nodes
                    .iter()
                    .filter(|n| !view.value(**n, Metric::MeanPActivity).is_null())
                    .count()
            }) / nodes.len() as f64,
        );
    }
}
