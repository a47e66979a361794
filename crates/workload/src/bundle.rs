//! One-call assembly of a complete synthetic DrugTree deployment.

use crate::assays::{random_assays, AssaySpec};
use crate::ligands::random_ligands;
use crate::phylogeny::random_tree;
use drugtree_chem::affinity::ActivityRecord;
use drugtree_integrate::overlay::OverlayBuilder;
use drugtree_phylo::index::TreeIndex;
use drugtree_phylo::tree::Tree;
use drugtree_query::Dataset;
use drugtree_sources::assay_db::assay_source;
use drugtree_sources::clock::VirtualClock;
use drugtree_sources::federation::SourceRegistry;
use drugtree_sources::latency::LatencyModel;
use drugtree_sources::ligand_db::{ligand_source, LigandRecord};
use drugtree_sources::protein_db::{protein_source, ProteinRecord};
use drugtree_sources::source::SourceCapabilities;
use std::sync::Arc;

/// Parameters of a synthetic deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Number of tree leaves (proteins).
    pub leaves: usize,
    /// Number of ligands.
    pub ligands: usize,
    /// Assay generation parameters.
    pub assay: AssaySpec,
    /// Number of assay sources the records are partitioned across.
    pub assay_sources: usize,
    /// When true, every assay source holds the *full* record set
    /// (replicas with increasingly slow latency, declared to the
    /// registry) instead of a disjoint partition.
    pub replicated: bool,
    /// Capabilities every source advertises.
    pub capabilities: SourceCapabilities,
    /// Latency model applied to every source (seed is perturbed per
    /// source).
    pub latency: LatencyModel,
    /// Master seed.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> WorkloadSpec {
        WorkloadSpec {
            leaves: 128,
            ligands: 32,
            assay: AssaySpec::default(),
            assay_sources: 1,
            replicated: false,
            capabilities: SourceCapabilities::full(),
            latency: LatencyModel::web_api(1),
            seed: 42,
        }
    }
}

impl WorkloadSpec {
    /// Override the leaf count.
    pub fn leaves(mut self, n: usize) -> Self {
        self.leaves = n;
        self
    }

    /// Override the ligand count.
    pub fn ligands(mut self, n: usize) -> Self {
        self.ligands = n;
        self
    }

    /// Override the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the number of assay sources.
    pub fn assay_sources(mut self, n: usize) -> Self {
        self.assay_sources = n.max(1);
        self
    }

    /// Make the assay sources full replicas (see [`WorkloadSpec::replicated`]).
    pub fn replicated(mut self, replicated: bool) -> Self {
        self.replicated = replicated;
        self
    }

    /// Override the per-source latency model.
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }
}

/// The generated raw materials of a deployment.
pub struct SyntheticBundle {
    /// Generation parameters.
    pub spec: WorkloadSpec,
    /// The ground-truth tree.
    pub tree: Tree,
    /// Its index.
    pub index: TreeIndex,
    /// Protein records (one per leaf).
    pub proteins: Vec<ProteinRecord>,
    /// Ligand records.
    pub ligands: Vec<LigandRecord>,
    /// Activity records.
    pub activities: Vec<ActivityRecord>,
}

impl SyntheticBundle {
    /// Generate everything from a spec.
    pub fn generate(spec: &WorkloadSpec) -> SyntheticBundle {
        let tree = random_tree(spec.leaves, spec.seed);
        let index = TreeIndex::build(&tree);
        let proteins: Vec<ProteinRecord> = tree
            .leaves()
            .into_iter()
            .map(|leaf| {
                let label = tree.node_unchecked(leaf).label.clone().expect("labeled");
                ProteinRecord {
                    accession: label.clone(),
                    name: format!("synthetic protein {label}"),
                    organism: "Synthetica exemplaris".into(),
                    sequence: "MKVLATQDE".into(),
                    gene: None,
                }
            })
            .collect();
        let ligands = random_ligands(spec.ligands, spec.seed);
        let mut assay_spec = spec.assay;
        assay_spec.seed ^= spec.seed;
        let activities = random_assays(&tree, &index, &ligands, &assay_spec);
        SyntheticBundle {
            spec: spec.clone(),
            tree,
            index,
            proteins,
            ligands,
            activities,
        }
    }

    /// Build the federated dataset: proteins + ligands materialized
    /// locally, activity records partitioned across `assay_sources`
    /// simulated remote sources.
    pub fn build_dataset(&self) -> Dataset {
        self.build_dataset_with_clock(VirtualClock::new())
    }

    /// Like [`SyntheticBundle::build_dataset`] with an external clock.
    pub fn build_dataset_with_clock(&self, clock: Arc<VirtualClock>) -> Dataset {
        let overlay = OverlayBuilder::new(&self.tree, &self.index)
            .build(&self.proteins, &self.ligands)
            .expect("synthetic inputs are resolvable");

        let mut registry = SourceRegistry::new();
        let k = self.spec.assay_sources.max(1);
        let shards: Vec<Vec<ActivityRecord>> = if self.spec.replicated {
            vec![self.activities.clone(); k]
        } else {
            partition(&self.activities, k)
        };
        for (i, chunk) in shards.into_iter().enumerate() {
            let mut latency = self.spec.latency.clone();
            latency.seed ^= i as u64;
            if self.spec.replicated {
                // Replicas degrade: each copy is slower than the last,
                // so replica selection has a meaningful choice.
                latency.base_rtt *= (i + 1) as u32;
            }
            registry
                .register(Arc::new(
                    assay_source(
                        format!("assay-{i}"),
                        &chunk,
                        self.spec.capabilities,
                        latency,
                    )
                    .expect("synthetic records are valid"),
                ))
                .expect("unique source names");
        }
        if self.spec.replicated && k > 1 {
            registry
                .declare_replicas((0..k).map(|i| format!("assay-{i}")).collect())
                .expect("members just registered");
        }
        // Protein and ligand sources are registered too: the builder
        // above already materialized them, but downstream consumers can
        // still inspect capabilities/metrics.
        registry
            .register(Arc::new(
                protein_source(
                    "protein-0",
                    &self.proteins,
                    self.spec.capabilities,
                    self.spec.latency.clone(),
                )
                .expect("valid proteins"),
            ))
            .expect("unique");
        registry
            .register(Arc::new(
                ligand_source(
                    "ligand-0",
                    &self.ligands,
                    self.spec.capabilities,
                    self.spec.latency.clone(),
                )
                .expect("valid ligands"),
            ))
            .expect("unique");

        Dataset::new(
            self.tree.clone(),
            self.index.clone(),
            overlay,
            registry,
            clock,
        )
        .expect("bundle is internally consistent")
    }
}

/// Partition records round-robin into `k` chunks (every source sees a
/// representative slice, as when federating BindingDB + ChEMBL + a lab
/// database).
fn partition(records: &[ActivityRecord], k: usize) -> Vec<Vec<ActivityRecord>> {
    let mut out = vec![Vec::with_capacity(records.len() / k + 1); k];
    for (i, r) in records.iter().enumerate() {
        out[i % k].push(r.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_query::ast::{Query, Scope};
    use drugtree_query::optimizer::{Optimizer, OptimizerConfig};
    use drugtree_query::Executor;
    use drugtree_sources::source::SourceKind;

    #[test]
    fn generate_is_deterministic() {
        let spec = WorkloadSpec::default().leaves(32).ligands(8);
        let a = SyntheticBundle::generate(&spec);
        let b = SyntheticBundle::generate(&spec);
        assert_eq!(a.tree, b.tree);
        assert_eq!(a.activities, b.activities);
        assert_eq!(a.proteins.len(), 32);
        assert_eq!(a.ligands.len(), 8);
    }

    #[test]
    fn dataset_builds_and_answers_queries() {
        let bundle = SyntheticBundle::generate(&WorkloadSpec::default().leaves(32).ligands(8));
        let d = bundle.build_dataset();
        assert_eq!(d.leaf_count(), 32);
        let e = Executor::new(Optimizer::new(OptimizerConfig::full()));
        let r = e.execute(&d, &Query::activities(Scope::Tree)).unwrap();
        assert!(!r.rows.is_empty());
    }

    #[test]
    fn partitioned_sources_union_to_all_records() {
        let spec = WorkloadSpec::default()
            .leaves(32)
            .ligands(8)
            .assay_sources(3);
        let bundle = SyntheticBundle::generate(&spec);
        let d = bundle.build_dataset();
        let assay = d.registry.by_kind(SourceKind::Assay);
        assert_eq!(assay.len(), 3);
        let total: usize = assay.iter().map(|s| s.record_count()).sum();
        assert_eq!(total, bundle.activities.len());
        // Partitions are disjoint, so no dedupe losses: a full query
        // returns every record.
        let e = Executor::new(Optimizer::new(OptimizerConfig::naive()));
        let r = e.execute(&d, &Query::activities(Scope::Tree)).unwrap();
        assert_eq!(r.rows.len(), bundle.activities.len());
    }

    #[test]
    fn replicated_sources_declared_and_equal() {
        let spec = WorkloadSpec::default()
            .leaves(32)
            .ligands(8)
            .assay_sources(3)
            .replicated(true);
        let bundle = SyntheticBundle::generate(&spec);
        let d = bundle.build_dataset();
        let assay = d.registry.by_kind(SourceKind::Assay);
        assert_eq!(assay.len(), 3);
        for s in &assay {
            assert_eq!(s.record_count(), bundle.activities.len(), "full copies");
        }
        assert!(d.registry.replica_group_of("assay-0").is_some());
        assert!(d.registry.replica_group_of("assay-2").is_some());
        // Later replicas are slower.
        assert!(assay[2].latency_model().base_rtt > assay[0].latency_model().base_rtt);
    }

    #[test]
    fn spec_builder_methods() {
        let spec = WorkloadSpec::default()
            .leaves(10)
            .ligands(3)
            .seed(9)
            .assay_sources(0)
            .latency(LatencyModel::free());
        assert_eq!(spec.leaves, 10);
        assert_eq!(spec.assay_sources, 1, "clamped to >= 1");
        assert_eq!(spec.latency.base_rtt, std::time::Duration::ZERO);
    }
}
