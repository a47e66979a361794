//! Assembling a DrugTree system.
//!
//! Two entry points:
//!
//! * [`DrugTreeBuilder::dataset`] — bring a pre-built
//!   [`Dataset`] (the workload generator's path, and the path a real
//!   deployment with custom `DataSource` impls takes after running the
//!   integration crate itself).
//! * [`DrugTreeBuilder::register_source`] — the full paper pipeline:
//!   fetch protein records, **build the tree from their sequences**
//!   (alignment → distances → neighbor joining), fetch ligands,
//!   integrate, and stand up the federated dataset.

use crate::system::{DrugTree, DrugTreeError};
use drugtree_integrate::overlay::OverlayBuilder;
use drugtree_phylo::align::GapPenalty;
use drugtree_phylo::distance::{pairwise_distances, DistanceModel};
use drugtree_phylo::index::TreeIndex;
use drugtree_phylo::matrices::ScoringMatrix;
use drugtree_phylo::nj::neighbor_joining;
use drugtree_phylo::seq::ProteinSequence;
use drugtree_query::cache::CacheConfig;
use drugtree_query::local::Keep;
use drugtree_query::optimizer::{Optimizer, OptimizerConfig};
use drugtree_query::{AdaptiveRuntime, Dataset, Executor, Observer};
use drugtree_sources::clock::VirtualClock;
use drugtree_sources::federation::SourceRegistry;
use drugtree_sources::ligand_db::ligand_records;
use drugtree_sources::protein_db::protein_records;
use drugtree_sources::source::{DataSource, FetchRequest, SourceKind};
use std::sync::Arc;

/// Builder for [`DrugTree`].
pub struct DrugTreeBuilder {
    dataset: Option<Dataset>,
    registry: SourceRegistry,
    optimizer: OptimizerConfig,
    cache: CacheConfig,
    collect_stats: bool,
    local: Option<Keep>,
    observer: Option<Arc<dyn Observer>>,
    adaptive: Option<Arc<AdaptiveRuntime>>,
}

impl Default for DrugTreeBuilder {
    fn default() -> Self {
        DrugTreeBuilder::new()
    }
}

impl DrugTreeBuilder {
    /// A builder with the full optimizer and default cache sizing.
    pub fn new() -> DrugTreeBuilder {
        DrugTreeBuilder {
            dataset: None,
            registry: SourceRegistry::new(),
            optimizer: OptimizerConfig::full(),
            cache: CacheConfig::default(),
            collect_stats: true,
            local: None,
            observer: None,
            adaptive: None,
        }
    }

    /// Use a pre-built dataset (skips the integration pipeline).
    pub fn dataset(mut self, dataset: Dataset) -> Self {
        self.dataset = Some(dataset);
        self
    }

    /// Register a source for the from-sources pipeline.
    pub fn register_source(mut self, source: Arc<dyn DataSource>) -> Self {
        // Duplicate names surface at build() so the builder keeps its
        // fluent shape.
        let _ = self.registry.register(source);
        self
    }

    /// Choose the optimizer configuration.
    pub fn optimizer(mut self, config: OptimizerConfig) -> Self {
        self.optimizer = config;
        self
    }

    /// Choose the semantic-cache sizing.
    pub fn cache(mut self, config: CacheConfig) -> Self {
        self.cache = config;
        self
    }

    /// Enable or disable startup statistics collection (on by
    /// default; disabling turns off the pruning/selectivity rules).
    pub fn with_stats(mut self, collect: bool) -> Self {
        self.collect_stats = collect;
        self
    }

    /// Also build the materialized aggregate view at startup.
    pub fn with_matview(mut self) -> Self {
        self.local = Some(Keep::View.with(self.local));
        self
    }

    /// Also build the columnar activity mirror at startup: interval
    /// scopes are then answered by local vectorized kernels over
    /// rank-sorted typed segments instead of source round-trips
    /// (design decision D12).
    pub fn with_columnar(mut self) -> Self {
        self.local = Some(Keep::Mirror.with(self.local));
        self
    }

    /// Install an [`Observer`] on the executor: it receives a
    /// completed query trace after every executed query and a
    /// per-gesture breakdown from mobile sessions (design decision
    /// D9). Pass an `Arc<drugtree_query::MetricsRegistry>` to get
    /// lock-free aggregate counters, or any custom `Observer`.
    pub fn with_observer(mut self, observer: Arc<dyn Observer>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Install the self-driving runtime (design decision D15): the
    /// advisor auto-builds the aggregate view past break-even and drops
    /// it when a source change makes it stale. Build the runtime with
    /// `AdaptiveRuntime::new` (optionally `.with_export(sink)` to
    /// stream `adapt` events for `drugtree advisor`).
    pub fn with_adaptive(mut self, runtime: Arc<AdaptiveRuntime>) -> Self {
        self.adaptive = Some(runtime);
        self
    }

    /// Assemble the system.
    pub fn build(self) -> Result<DrugTree, DrugTreeError> {
        let dataset = match self.dataset {
            Some(d) => d,
            None => build_from_sources(self.registry)?,
        };
        let mut executor = Executor::with_cache_config(Optimizer::new(self.optimizer), self.cache);
        if let Some(observer) = self.observer {
            executor.set_observer(observer);
        }
        if let Some(adaptive) = self.adaptive {
            executor.enable_adaptive(adaptive);
        }
        if self.collect_stats {
            executor.collect_stats(&dataset)?;
        }
        if let Some(keep) = self.local {
            executor.build_local(&dataset, keep)?;
        }
        Ok(DrugTree::from_parts(dataset, executor))
    }
}

/// The full pipeline: fetch proteins, build the tree from sequences
/// (neighbor joining over Poisson-corrected distances, rooted where the
/// last join leaves it), fetch ligands, integrate, assemble.
fn build_from_sources(registry: SourceRegistry) -> Result<Dataset, DrugTreeError> {
    let clock = VirtualClock::new();

    // 1. Protein records (the integration pass pays real virtual time).
    let protein_src = registry
        .single(SourceKind::Protein)
        .map_err(|e| DrugTreeError::Builder(e.to_string()))?;
    let resp = protein_src
        .fetch(&FetchRequest::scan())
        .map_err(|e| DrugTreeError::Builder(e.to_string()))?;
    clock.advance(resp.cost);
    let proteins = protein_records(&resp.table)
        .ok_or_else(|| DrugTreeError::Integrate("malformed protein row".into()))?;
    if proteins.is_empty() {
        return Err(DrugTreeError::Builder("protein source is empty".into()));
    }

    // 2. The protein-motivated tree: align, estimate distances, join.
    let sequences: Vec<ProteinSequence> = proteins
        .iter()
        .map(|p: &drugtree_sources::protein_db::ProteinRecord| {
            ProteinSequence::parse(p.accession.clone(), &p.sequence).map_err(DrugTreeError::Phylo)
        })
        .collect::<Result<_, _>>()?;
    let dm = pairwise_distances(
        &sequences,
        &ScoringMatrix::blosum62(),
        GapPenalty::BLOSUM62_DEFAULT,
        DistanceModel::Poisson,
    )
    .map_err(DrugTreeError::Phylo)?;
    let tree = neighbor_joining(&dm).map_err(DrugTreeError::Phylo)?;
    let index = TreeIndex::build(&tree);

    // 3. Ligand records.
    let ligands = match registry.single(SourceKind::Ligand) {
        Ok(src) => {
            let resp = src
                .fetch(&FetchRequest::scan())
                .map_err(|e| DrugTreeError::Builder(e.to_string()))?;
            clock.advance(resp.cost);
            ligand_records(&resp.table)
                .ok_or_else(|| DrugTreeError::Integrate("malformed ligand row".into()))?
        }
        Err(_) => Vec::new(),
    };

    // 4. Integrate (activities stay federated; see drugtree-query).
    let overlay = OverlayBuilder::new(&tree, &index)
        .build(&proteins, &ligands)
        .map_err(|e| DrugTreeError::Integrate(e.to_string()))?;

    Dataset::new(tree, index, overlay, registry, clock).map_err(DrugTreeError::Query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_chem::affinity::{ActivityRecord, ActivityType};
    use drugtree_phylo::index::LeafInterval;
    use drugtree_phylo::newick::to_newick;
    use drugtree_query::ast::{Query, Scope};
    use drugtree_sources::assay_db::assay_source;
    use drugtree_sources::latency::LatencyModel;
    use drugtree_sources::ligand_db::{ligand_source, LigandRecord};
    use drugtree_sources::protein_db::{protein_source, ProteinRecord};
    use drugtree_sources::source::SourceCapabilities;

    fn protein(acc: &str, seq: &str) -> ProteinRecord {
        ProteinRecord {
            accession: acc.into(),
            name: format!("protein {acc}"),
            organism: "test".into(),
            sequence: seq.into(),
            gene: None,
        }
    }

    fn sources() -> (
        Arc<dyn DataSource>,
        Arc<dyn DataSource>,
        Arc<dyn DataSource>,
    ) {
        // Two close pairs: (P1, P2) and (P3, P4).
        let proteins = vec![
            protein("P1", "MKVLATWQDEMKVLATWQDE"),
            protein("P2", "MKVLATWQDEMKVLATWQDK"),
            protein("P3", "GGGPPPYYYWGGGPPPYYYW"),
            protein("P4", "GGGPPPYYYWGGGPPPYYYA"),
        ];
        let ligands =
            vec![LigandRecord::from_smiles("L1", "aspirin", "CC(=O)Oc1ccccc1C(=O)O").unwrap()];
        let activities = vec![ActivityRecord {
            protein_accession: "P1".into(),
            ligand_id: "L1".into(),
            activity_type: ActivityType::Ki,
            value_nm: 50.0,
            source: "lab".into(),
            year: 2012,
        }];
        (
            Arc::new(
                protein_source(
                    "uniprot-sim",
                    &proteins,
                    SourceCapabilities::full(),
                    LatencyModel::intranet(1),
                )
                .unwrap(),
            ),
            Arc::new(
                ligand_source(
                    "chembl-sim",
                    &ligands,
                    SourceCapabilities::full(),
                    LatencyModel::intranet(2),
                )
                .unwrap(),
            ),
            Arc::new(
                assay_source(
                    "bindingdb-sim",
                    &activities,
                    SourceCapabilities::full(),
                    LatencyModel::intranet(3),
                )
                .unwrap(),
            ),
        )
    }

    #[test]
    fn from_sources_builds_tree_from_sequences() {
        let (p, l, a) = sources();
        let system = DrugTree::builder()
            .register_source(p)
            .register_source(l)
            .register_source(a)
            .build()
            .unwrap();
        let d = system.dataset();
        assert_eq!(d.leaf_count(), 4);
        // Recorded before the tree-method, distance-model and re-rooting
        // knobs were deleted: neighbor joining over Poisson distances,
        // rooted where the last join left it, is what always ran.
        assert_eq!(
            to_newick(&d.tree),
            "((P1:0.025647,P2:0.025647):6.01874,P3:0,P4:3.955614);"
        );
        let order: Vec<_> = (0..4).map(|r| d.accession_of_rank(r).unwrap()).collect();
        assert_eq!(order, ["P1", "P2", "P3", "P4"]);
        // Sequence similarity must group P1 with P2: their ranks are
        // adjacent under some internal node of size exactly 2.
        let r1 = d.rank_of_accession("P1").unwrap();
        let r2 = d.rank_of_accession("P2").unwrap();
        assert_eq!(r1.abs_diff(r2), 1, "P1/P2 should be siblings");
        let iv = LeafInterval {
            lo: r1.min(r2),
            hi: r1.max(r2) + 1,
        };
        let clade = d.index.tightest_clade(&d.tree, iv);
        assert_eq!(d.index.interval(clade), iv);

        // And the federated activity is queryable.
        let r = system.execute(&Query::activities(Scope::Tree)).unwrap();
        assert_eq!(r.rows.len(), 1);
        // Integration charged the clock.
        assert!(d.clock.now().0 > 0);
    }

    #[test]
    fn missing_protein_source_is_an_error() {
        let (_, _, a) = sources();
        let Err(err) = DrugTree::builder().register_source(a).build() else {
            panic!("build without a protein source must fail")
        };
        assert!(matches!(err, DrugTreeError::Builder(_)));
    }

    #[test]
    fn without_stats_disables_pruning() {
        let (p, l, a) = sources();
        let system = DrugTree::builder()
            .register_source(p)
            .register_source(l)
            .register_source(a)
            .with_stats(false)
            .build()
            .unwrap();
        assert!(system.executor().stats().is_none());
        // Queries still work.
        assert!(system.query("activities in tree").is_ok());
    }

    #[test]
    fn with_matview_answers_aggregates_locally() {
        let (p, l, a) = sources();
        let system = DrugTree::builder()
            .register_source(p)
            .register_source(l)
            .register_source(a)
            .with_matview()
            .build()
            .unwrap();
        let r = system.query("aggregate count in tree").unwrap();
        assert_eq!(r.metrics.source_requests, 0);
    }

    #[test]
    fn with_adaptive_auto_materializes_past_break_even() {
        use drugtree_query::obs::{Sink, VecSink};
        use drugtree_query::AdaptiveRuntime;

        let (p, l, a) = sources();
        let sink = Arc::new(VecSink::new());
        let rt = Arc::new(AdaptiveRuntime::new().with_export(Arc::clone(&sink) as Arc<dyn Sink>));
        let system = DrugTree::builder()
            .register_source(p)
            .register_source(l)
            .register_source(a)
            .with_adaptive(Arc::clone(&rt))
            .build()
            .unwrap();
        assert!(!rt.snapshot().view_built);
        // Repeated whole-tree aggregates (with cache invalidation in
        // between, as a refreshing deployment would see) accumulate
        // foregone cost until the advisor crosses break-even and
        // builds the view on its own.
        for _ in 0..50 {
            if rt.snapshot().view_built {
                break;
            }
            system.executor().invalidate();
            system.query("aggregate count in tree").unwrap();
        }
        assert!(rt.snapshot().view_built, "advisor built the view");
        assert!(sink
            .lines()
            .iter()
            .any(|l| l.contains("\"loop_name\":\"matview\"") && l.contains("break-even crossed")));
        // The next aggregate is served from the adaptive view: no
        // source work at all.
        system.executor().invalidate();
        let served = system.query("aggregate count in tree").unwrap();
        assert_eq!(served.metrics.source_requests, 0);
        assert!(rt.snapshot().advisor.hits > 0, "amortization is tracked");
    }

    #[test]
    fn an_explicit_mirror_leaves_the_adaptive_view_in_service() {
        use drugtree_query::AdaptiveRuntime;
        use drugtree_sources::assay_db::assay_row;

        let (p, l, a) = sources();
        let rt = Arc::new(AdaptiveRuntime::new());
        let system = DrugTree::builder()
            .register_source(p)
            .register_source(l)
            .register_source(Arc::clone(&a))
            .with_columnar()
            .with_adaptive(Arc::clone(&rt))
            .build()
            .unwrap();
        // A deposition makes the mirror stale: aggregates are fetched
        // (and charged) until the advisor builds its view.
        a.ingest(assay_row(&ActivityRecord {
            protein_accession: "P3".into(),
            ligand_id: "L1".into(),
            activity_type: ActivityType::Ki,
            value_nm: 20.0,
            source: "lab".into(),
            year: 2013,
        }))
        .unwrap();
        for _ in 0..50 {
            if rt.snapshot().view_built {
                break;
            }
            system.executor().invalidate();
            system.query("aggregate count in tree").unwrap();
        }
        assert!(rt.snapshot().view_built, "advisor built the view");
        let plan = system.explain("aggregate count in tree").unwrap();
        assert!(plan.contains("MaterializedView"), "{plan}");
        system.executor().invalidate();
        let served = system.query("aggregate count in tree").unwrap();
        assert_eq!(served.metrics.source_requests, 0);
        let counted: i64 = served.rows.iter().filter_map(|r| r[3].as_int()).sum();
        assert_eq!(counted, 2, "the deposition is counted");
        assert_eq!(rt.snapshot().advisor.hits, 1, "the view served");
    }

    #[test]
    fn with_columnar_serves_scans_locally() {
        let (p, l, a) = sources();
        let system = DrugTree::builder()
            .register_source(p)
            .register_source(l)
            .register_source(a)
            .with_columnar()
            .build()
            .unwrap();
        assert!(system.executor().columnar().is_some());
        let r = system.query("activities in tree").unwrap();
        assert_eq!(r.metrics.source_requests, 0, "mirror answers locally");
        assert!(!r.rows.is_empty());
    }
}
