//! The assembled DrugTree system.

use drugtree_mobile::{MobileSession, NetworkProfile};
use drugtree_query::ast::Query;
use drugtree_query::cache::CacheStats;
use drugtree_query::{Dataset, Executor, QueryResult};
use drugtree_sources::clock::VirtualInstant;
use drugtree_sources::source::SourceKind;
use std::fmt;

/// Top-level error of the façade crate.
///
/// Marked `#[non_exhaustive]`: downstream matches must keep a
/// wildcard arm so new failure kinds can be added without a breaking
/// release. Wrapped lower-layer errors are reachable through
/// [`std::error::Error::source`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DrugTreeError {
    /// Builder was misconfigured.
    Builder(String),
    /// Query parsing/planning/execution failed.
    Query(drugtree_query::QueryError),
    /// Tree construction failed.
    Phylo(drugtree_phylo::error::PhyloError),
    /// Integration failed.
    Integrate(String),
    /// A concurrent serving session failed.
    Serve(String),
}

impl fmt::Display for DrugTreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrugTreeError::Builder(msg) => write!(f, "builder error: {msg}"),
            DrugTreeError::Query(e) => write!(f, "query error: {e}"),
            DrugTreeError::Phylo(e) => write!(f, "tree error: {e}"),
            DrugTreeError::Integrate(msg) => write!(f, "integration error: {msg}"),
            DrugTreeError::Serve(msg) => write!(f, "serving error: {msg}"),
        }
    }
}

impl std::error::Error for DrugTreeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DrugTreeError::Query(e) => Some(e),
            DrugTreeError::Phylo(e) => Some(e),
            DrugTreeError::Builder(_) | DrugTreeError::Integrate(_) | DrugTreeError::Serve(_) => {
                None
            }
        }
    }
}

impl From<drugtree_query::QueryError> for DrugTreeError {
    fn from(e: drugtree_query::QueryError) -> Self {
        DrugTreeError::Query(e)
    }
}

/// A deployment-level summary (printed by `DrugTree::report`).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemReport {
    /// Tree leaves.
    pub leaves: usize,
    /// Total tree nodes.
    pub nodes: usize,
    /// Locally materialized ligands.
    pub ligands: usize,
    /// Registered sources by kind (protein, ligand, assay).
    pub sources: (usize, usize, usize),
    /// Activity records known to statistics (0 if stats not collected).
    pub activity_records: u64,
    /// Cumulative semantic-cache counters.
    pub cache: CacheStats,
    /// Current virtual time.
    pub virtual_now: VirtualInstant,
}

impl fmt::Display for SystemReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "DrugTree: {} leaves / {} nodes, {} ligands, {} activity records",
            self.leaves, self.nodes, self.ligands, self.activity_records
        )?;
        writeln!(
            f,
            "sources: {} protein, {} ligand, {} assay",
            self.sources.0, self.sources.1, self.sources.2
        )?;
        writeln!(
            f,
            "cache: {} hits / {} misses / {} evictions",
            self.cache.hits, self.cache.misses, self.cache.evictions
        )?;
        write!(f, "virtual clock: {}", self.virtual_now)
    }
}

/// The assembled system: an integrated dataset plus its executor.
pub struct DrugTree {
    dataset: Dataset,
    executor: Executor,
}

impl DrugTree {
    /// Start building a system.
    ///
    /// # Examples
    ///
    /// ```
    /// use drugtree::prelude::*;
    ///
    /// let bundle = SyntheticBundle::generate(&WorkloadSpec::default().leaves(16).ligands(4));
    /// let system = DrugTree::builder()
    ///     .dataset(bundle.build_dataset())
    ///     .optimizer(OptimizerConfig::full())
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(system.report().leaves, 16);
    /// ```
    pub fn builder() -> crate::builder::DrugTreeBuilder {
        crate::builder::DrugTreeBuilder::new()
    }

    /// Assemble from pre-built parts (the builder calls this).
    pub(crate) fn from_parts(dataset: Dataset, executor: Executor) -> DrugTree {
        DrugTree { dataset, executor }
    }

    /// Decompose into the dataset/executor pair (the server harness
    /// calls this to move both behind `Arc`s).
    pub(crate) fn into_parts(self) -> (Dataset, Executor) {
        (self.dataset, self.executor)
    }

    /// Execute a structured query.
    pub fn execute(&self, query: &Query) -> Result<QueryResult, DrugTreeError> {
        Ok(self.executor.execute(&self.dataset, query)?)
    }

    /// Parse and execute a text query.
    ///
    /// # Examples
    ///
    /// ```
    /// use drugtree::prelude::*;
    ///
    /// # let bundle = SyntheticBundle::generate(&WorkloadSpec::default().leaves(16).ligands(4));
    /// # let system = DrugTree::builder().dataset(bundle.build_dataset()).build().unwrap();
    /// let result = system
    ///     .query("activities where p_activity >= 6 top 5 by p_activity desc")
    ///     .unwrap();
    /// assert!(result.rows.len() <= 5);
    /// println!("virtual latency: {:?}", result.metrics.virtual_cost);
    /// ```
    pub fn query(&self, text: &str) -> Result<QueryResult, DrugTreeError> {
        let query = Query::parse(text)?;
        self.execute(&query)
    }

    /// EXPLAIN a text query without running it.
    ///
    /// # Examples
    ///
    /// ```
    /// use drugtree::prelude::*;
    ///
    /// # let bundle = SyntheticBundle::generate(&WorkloadSpec::default().leaves(16).ligands(4));
    /// # let system = DrugTree::builder().dataset(bundle.build_dataset()).build().unwrap();
    /// let plan = system.explain("activities in tree").unwrap();
    /// assert!(plan.contains("est_cost="));
    /// ```
    pub fn explain(&self, text: &str) -> Result<String, DrugTreeError> {
        let query = Query::parse(text)?;
        Ok(self.executor.explain(&self.dataset, &query)?)
    }

    /// `EXPLAIN ANALYZE`: parse a text query, execute it with tracing,
    /// and return the plan, the per-stage span tree (on the virtual
    /// clock, so re-running is deterministic), and the result. Render
    /// with [`drugtree_query::AnalyzedResult::render`] to see
    /// estimate-vs-actual columns next to each plan node.
    ///
    /// # Examples
    ///
    /// ```
    /// use drugtree::prelude::*;
    ///
    /// # let bundle = SyntheticBundle::generate(&WorkloadSpec::default().leaves(16).ligands(4));
    /// # let system = DrugTree::builder().dataset(bundle.build_dataset()).build().unwrap();
    /// let analyzed = system.analyze("activities in tree").unwrap();
    /// assert!(analyzed.render().contains("| actual:"));
    /// assert_eq!(analyzed.trace.cache_hit, Some(false));
    /// ```
    pub fn analyze(&self, text: &str) -> Result<drugtree_query::AnalyzedResult, DrugTreeError> {
        let query = Query::parse(text)?;
        let mut analyzed = self.executor.analyze(&self.dataset, &query)?;
        let parse = drugtree_query::QuerySpan::new(
            drugtree_query::Stage::Parse,
            text,
            analyzed.trace.root.started,
        );
        analyzed.trace.root.children.insert(0, parse);
        Ok(analyzed)
    }

    /// Open an interactive mobile session over this system.
    ///
    /// # Examples
    ///
    /// ```
    /// use drugtree::prelude::*;
    ///
    /// # let bundle = SyntheticBundle::generate(&WorkloadSpec::default().leaves(16).ligands(4));
    /// # let system = DrugTree::builder().dataset(bundle.build_dataset()).build().unwrap();
    /// let mut session = system.mobile_session(NetworkProfile::CELL_4G);
    /// let frame = session.apply(&Gesture::InspectViewport).unwrap();
    /// assert!(frame.rows > 0);
    /// ```
    pub fn mobile_session(&self, network: NetworkProfile) -> MobileSession<'_> {
        MobileSession::new(&self.dataset, &self.executor, network)
    }

    /// The underlying dataset (tree, index, overlay, sources, clock).
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The query executor (cache statistics, EXPLAIN, …).
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Re-collect statistics after the sources changed, so they prune
    /// again. No answer needs it: every derived structure checks the
    /// source epoch before it answers.
    pub fn refresh(&mut self) -> Result<(), DrugTreeError> {
        self.executor.collect_stats(&self.dataset)?;
        Ok(())
    }

    /// Serialize the local state (tree + overlay) to a JSON snapshot;
    /// restore with [`crate::snapshot::load_system`] plus a live
    /// source registry.
    pub fn snapshot(&self) -> Result<String, DrugTreeError> {
        crate::snapshot::save_system(&self.dataset)
    }

    /// Deployment summary.
    pub fn report(&self) -> SystemReport {
        let kind_count = |k: SourceKind| self.dataset.registry.by_kind(k).len();
        SystemReport {
            leaves: self.dataset.leaf_count(),
            nodes: self.dataset.tree.len(),
            ligands: self
                .dataset
                .overlay
                .catalog()
                .table(drugtree_integrate::overlay::tables::LIGAND)
                .map_or(0, drugtree_store::Table::len),
            sources: (
                kind_count(SourceKind::Protein),
                kind_count(SourceKind::Ligand),
                kind_count(SourceKind::Assay),
            ),
            activity_records: self
                .executor
                .stats()
                .map_or(0, drugtree_query::stats::OverlayStats::total_count),
            cache: self.executor.cache_stats(),
            virtual_now: self.dataset.clock.now(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_query::optimizer::OptimizerConfig;
    use drugtree_workload::{SyntheticBundle, WorkloadSpec};

    fn system() -> DrugTree {
        let bundle = SyntheticBundle::generate(&WorkloadSpec::default().leaves(32).ligands(8));
        DrugTree::builder()
            .dataset(bundle.build_dataset())
            .optimizer(OptimizerConfig::full())
            .build()
            .unwrap()
    }

    #[test]
    fn text_queries_run_end_to_end() {
        let s = system();
        let r = s.query("activities in tree").unwrap();
        assert!(!r.rows.is_empty());
        let r2 = s.query("activities where p_activity >= 6 top 5").unwrap();
        assert!(r2.rows.len() <= 5);
        assert!(s.query("frobnicate").is_err());
    }

    #[test]
    fn explain_describes_plan() {
        let s = system();
        let text = s.explain("activities in subtree('clade0')").unwrap();
        assert!(text.contains("interval"));
    }

    #[test]
    fn report_summarizes() {
        let s = system();
        s.query("activities in tree").unwrap();
        let report = s.report();
        assert_eq!(report.leaves, 32);
        assert_eq!(report.nodes, 63);
        assert_eq!(report.ligands, 8);
        assert_eq!(report.sources, (1, 1, 1));
        assert!(report.activity_records > 0, "builder collects stats");
        let text = report.to_string();
        assert!(text.contains("32 leaves"));
        assert!(text.contains("cache:"));
    }

    #[test]
    fn an_ingest_needs_no_refresh() {
        use drugtree_chem::affinity::{ActivityRecord, ActivityType};
        use drugtree_query::optimizer::Optimizer;
        use drugtree_sources::assay_db::assay_row;

        let s = system();
        s.query("activities in tree").unwrap();
        let hit = s.query("activities in tree").unwrap();
        assert_eq!(hit.metrics.cache_hit, Some(true));
        s.dataset().registry.by_kind(SourceKind::Assay)[0]
            .ingest(assay_row(&ActivityRecord {
                protein_accession: "P0000".into(),
                ligand_id: "L0000".into(),
                activity_type: ActivityType::Ki,
                value_nm: 3.0,
                source: "late-deposition".into(),
                year: 2013,
            }))
            .unwrap();
        let r = s.query("activities in tree").unwrap();
        assert_eq!(r.metrics.cache_hit, Some(false));
        let naive = Executor::new(Optimizer::new(OptimizerConfig::naive()));
        let query = drugtree_query::parser::parse_query("activities in tree").unwrap();
        let want = naive.execute(s.dataset(), &query).unwrap();
        assert_eq!(r.rows.len(), hit.rows.len() + 1);
        assert_eq!(r.rows, want.rows);
    }

    #[test]
    fn mobile_session_opens() {
        let s = system();
        let mut session = s.mobile_session(NetworkProfile::CELL_4G);
        let r = session
            .apply(&drugtree_mobile::Gesture::InspectViewport)
            .unwrap();
        assert!(r.rows > 0);
    }
}
