//! The queryable bundle: tree + index + overlay + federated sources.

use crate::ast::Scope;
use crate::plan::LeafSet;
use crate::{QueryError, Result};
use drugtree_integrate::overlay::{tables, Overlay};
use drugtree_phylo::index::{LeafInterval, TreeIndex};
use drugtree_phylo::tree::{NodeId, Tree};
use drugtree_sources::batcher::SortedKeys;
use drugtree_sources::clock::VirtualClock;
use drugtree_sources::federation::SourceRegistry;
use drugtree_sources::source::SourceKind;
use drugtree_store::bitmap::Bitmap;
use drugtree_store::dict::Dictionary;
use drugtree_store::schema::{Column, Schema};
use drugtree_store::segment::{ColumnData, ColumnSlice};
use drugtree_store::table::Table;
use drugtree_store::value::{Value, ValueType};
use rustc_hash::FxHashMap;
use std::sync::{Arc, OnceLock};

/// Everything a query executes against.
///
/// Protein and ligand metadata are materialized locally (they are
/// small and stable); *activity* data stays behind the federated assay
/// sources and is fetched on demand — the access pattern whose latency
/// the paper's optimizations target.
pub struct Dataset {
    /// The phylogenetic tree.
    pub tree: Tree,
    /// Its index (intervals, ranks, LCA).
    pub index: TreeIndex,
    /// Locally materialized protein/ligand tables + fingerprints.
    pub overlay: Overlay,
    /// Federated sources (assay sources are queried per tree
    /// interaction).
    pub registry: SourceRegistry,
    /// The session's virtual clock; all simulated latency is charged
    /// here.
    pub clock: Arc<VirtualClock>,
    /// Leaf rank -> protein accession, as the text cell a fetch keys
    /// on: a fetch clones handles, not strings.
    accession_by_rank: Vec<Option<Value>>,
    /// Protein accession -> leaf rank.
    rank_by_accession: FxHashMap<Arc<str>, u32>,
}

impl Dataset {
    /// Assemble a dataset. The overlay's protein table provides the
    /// rank ↔ accession correspondence; two different accessions on
    /// one leaf, or one accession on two leaves, are refused.
    pub fn new(
        tree: Tree,
        index: TreeIndex,
        overlay: Overlay,
        registry: SourceRegistry,
        clock: Arc<VirtualClock>,
    ) -> Result<Dataset> {
        let mut accession_by_rank = vec![None; index.leaf_count()];
        let mut rank_by_accession = FxHashMap::default();
        let proteins = overlay.catalog().table(tables::PROTEIN)?;
        let acc_col = proteins.schema().column_index("accession")?;
        let rank_col = proteins.schema().column_index("leaf_rank")?;
        for i in 0..proteins.len() {
            let accession = proteins.cell(i, acc_col);
            let Value::Text(acc) = &accession else {
                return Err(QueryError::Plan("non-text accession".into()));
            };
            let rank = proteins
                .cell(i, rank_col)
                .as_int()
                .ok_or_else(|| QueryError::Plan("non-int leaf_rank".into()))?
                as u32;
            // A fetch ships one key per leaf of its leaf set.
            let held = rank_by_accession.insert(Arc::clone(acc), rank);
            if held.is_some_and(|held| held != rank) {
                return Err(QueryError::Plan(format!("{accession} is on two leaves")));
            }
            if let Some(slot) = accession_by_rank.get_mut(rank as usize) {
                // A fetch asks for a leaf by its one accession, so rows
                // under a second one would reach only the local scans.
                if let Some(held) = slot.as_ref().filter(|held| **held != accession) {
                    return Err(QueryError::Plan(format!(
                        "leaf {rank} holds two proteins, {held} and {accession}"
                    )));
                }
                *slot = Some(accession);
            }
        }
        Ok(Dataset {
            tree,
            index,
            overlay,
            registry,
            clock,
            accession_by_rank,
            rank_by_accession,
        })
    }

    /// Resolve a scope to (root node, leaf interval). The interval is
    /// always inside the tree, `lo ≤ hi ≤ leaf_count`: an interval scope
    /// is clamped to the leaves, and one with `lo > hi` is refused.
    pub fn resolve_scope(&self, scope: &Scope) -> Result<(NodeId, LeafInterval)> {
        match scope {
            Scope::Tree => {
                let root = self.tree.root();
                Ok((root, self.index.interval(root)))
            }
            Scope::Subtree(label) => {
                let node = self
                    .index
                    .by_label(label)
                    .map_err(|_| QueryError::UnknownNode(label.clone()))?;
                Ok((node, self.index.interval(node)))
            }
            Scope::Interval(iv) => {
                if iv.lo > iv.hi {
                    return Err(QueryError::Plan(format!(
                        "interval [{}, {}) has lo above hi",
                        iv.lo, iv.hi
                    )));
                }
                let clamped = LeafInterval {
                    lo: iv.lo.min(self.index.leaf_count() as u32),
                    hi: iv.hi.min(self.index.leaf_count() as u32),
                };
                Ok((self.index.tightest_clade(&self.tree, clamped), clamped))
            }
            Scope::Leaves(labels) => {
                if labels.is_empty() {
                    return Err(QueryError::Plan("empty leaf set".into()));
                }
                let mut lo = u32::MAX;
                let mut hi = 0u32;
                for label in labels {
                    let node = self
                        .index
                        .by_label(label)
                        .map_err(|_| QueryError::UnknownNode(label.clone()))?;
                    let iv = self.index.interval(node);
                    lo = lo.min(iv.lo);
                    hi = hi.max(iv.hi);
                }
                let iv = LeafInterval { lo, hi };
                Ok((self.index.tightest_clade(&self.tree, iv), iv))
            }
        }
    }

    /// Accession of the leaf at `rank`, when one is assigned.
    pub fn accession_of_rank(&self, rank: u32) -> Option<&str> {
        self.accession_cell(rank)?.as_text()
    }

    /// The accession of the leaf at `rank` as a shared text cell.
    fn accession_cell(&self, rank: u32) -> Option<&Value> {
        self.accession_by_rank.get(rank as usize)?.as_ref()
    }

    /// Leaf rank of an accession.
    pub fn rank_of_accession(&self, accession: &str) -> Option<u32> {
        self.rank_by_accession.get(accession).copied()
    }

    /// (rank, accession cell) pairs for every protein-bearing leaf in
    /// an interval, in rank order.
    pub fn accessions_in(
        &self,
        interval: LeafInterval,
    ) -> impl Iterator<Item = (u32, &Value)> + '_ {
        (interval.lo..interval.hi.min(self.accession_by_rank.len() as u32))
            .filter_map(|r| self.accession_cell(r).map(|a| (r, a)))
    }

    /// The accession keys of `leaves`, sorted and deduplicated: what a
    /// fetch of them ships, built when the fetch runs.
    pub fn fetch_keys(&self, leaves: &LeafSet) -> SortedKeys {
        let keys = leaves
            .ranks()
            .iter()
            .filter_map(|&r| self.accession_cell(r));
        SortedKeys::new(keys.cloned().collect())
    }

    /// Number of leaves in the tree.
    pub fn leaf_count(&self) -> usize {
        self.index.leaf_count()
    }

    /// True when the registry holds more than one assay source, replicas
    /// counted: the deployment then treats a (leaf, ligand, activity
    /// type) as one fact, and the batch constructor
    /// ([`ActivityColumns::widen`](crate::columnar::ActivityColumns))
    /// keeps its most recent measurement, whichever sources a plan reads. A one-source
    /// deployment's rows are the source's, as it holds them. Allocates
    /// nothing: the fetch path asks on every miss.
    pub(crate) fn resolves_conflicts(&self) -> bool {
        let mut assays = self
            .registry
            .all()
            .iter()
            .filter(|s| s.kind() == SourceKind::Assay);
        assays.nth(1).is_some()
    }

    /// The sum, over every assay source (replicas included), of its
    /// record count plus one: every ingest and registration raises it
    /// (DESIGN.md §4g). Derived, not counted, so an ingest through a
    /// source's own handle is seen too. Allocates nothing.
    pub fn source_epoch(&self) -> SourceEpoch {
        SourceEpoch(
            self.registry
                .all()
                .iter()
                .filter(|s| s.kind() == SourceKind::Assay)
                .map(|s| s.record_count() as u64 + 1)
                .sum(),
        )
    }
}

/// The one freshness rule: a derived structure (the local build, the
/// statistics, the semantic cache) stamps the epoch it was built at and
/// answers a query only at an epoch it still holds at. A query reads
/// [`Dataset::source_epoch`] once, before it plans or fetches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct SourceEpoch(pub(crate) u64);

impl SourceEpoch {
    /// True when what was derived at `self` still holds for a query at
    /// `now`: no assay source has changed in between.
    pub fn holds_at(self, now: SourceEpoch) -> bool {
        self >= now
    }
}

/// Schema of the unified (activity ⋈ ligand) rows query predicates and
/// results range over. Ligand columns are nullable: an activity may
/// reference a ligand absent from the ligand catalog. Built once;
/// every query binds its residual and names its columns against it.
pub fn unified_schema() -> &'static Schema {
    static SCHEMA: OnceLock<Schema> = OnceLock::new();
    SCHEMA.get_or_init(|| {
        let mut columns = activity_half_schema().columns().to_vec();
        columns.extend([
            Column::nullable("name", ValueType::Text),
            Column::nullable("smiles", ValueType::Text),
            Column::nullable("mw", ValueType::Float),
            Column::nullable("hbd", ValueType::Int),
            Column::nullable("hba", ValueType::Int),
            Column::nullable("rings", ValueType::Int),
        ]);
        Schema::new(columns)
    })
}

/// Schema of the activity-only half (what sources ship, plus the
/// locally derived leaf_rank and p_activity columns). Built once and
/// shared by every activity batch.
pub fn activity_half_schema() -> &'static Arc<Schema> {
    static SCHEMA: OnceLock<Arc<Schema>> = OnceLock::new();
    SCHEMA.get_or_init(|| {
        Arc::new(Schema::new(vec![
            Column::required("leaf_rank", ValueType::Int),
            Column::required("protein_accession", ValueType::Text),
            Column::required("ligand_id", ValueType::Text),
            Column::required("activity_type", ValueType::Text),
            Column::required("value_nm", ValueType::Float),
            Column::required("p_activity", ValueType::Float),
            Column::required("source", ValueType::Text),
            Column::required("year", ValueType::Int),
        ]))
    })
}

/// An assay source's shipped rows (protein_accession, ligand_id,
/// activity_type, value_nm, source, year), read through the one
/// widening rule ([`AssayRows::unify`]). The batch constructor
/// ([`ActivityColumns::widen`](crate::columnar::ActivityColumns)) and
/// the statistics read shipped rows through it alone. The leaf rank is
/// resolved once per distinct accession the batch holds, not per row.
pub struct AssayRows<'t> {
    len: usize,
    /// The cells, when the batch has the assay schema's shape.
    cells: Option<AssayCells<'t>>,
    /// The leaf rank of each accession code; `None` off the tree.
    ranks: Vec<Option<u32>>,
}

/// The typed cells of a shipped assay batch.
pub(crate) struct AssayCells<'t> {
    /// Codes and dictionary of the four text columns, indexed by
    /// [`AssayCells::ACCESSION`], [`AssayCells::LIGAND`],
    /// [`AssayCells::KIND`] and [`AssayCells::SOURCE`].
    pub(crate) text: [(&'t [u32], &'t Dictionary); 4],
    pub(crate) value_nm: ColumnSlice<'t>,
    pub(crate) year: &'t [i64],
    /// Validity of the six columns; `None` for a required column, which
    /// holds no NULL.
    valid: [Option<&'t Bitmap>; 6],
}

impl<'t> AssayCells<'t> {
    pub(crate) const ACCESSION: usize = 0;
    pub(crate) const LIGAND: usize = 1;
    pub(crate) const KIND: usize = 2;
    pub(crate) const SOURCE: usize = 3;

    /// The cells of `shipped`, when it has the assay schema's shape:
    /// six columns or more, the four text columns text, the year column
    /// Int.
    fn of(shipped: &'t Table) -> Option<AssayCells<'t>> {
        if shipped.schema().arity() < 6 {
            return None;
        }
        let columns: [ColumnSlice<'t>; 6] = std::array::from_fn(|c| shipped.column(c));
        let valid = std::array::from_fn(|c| {
            let nullable = shipped.schema().columns()[c].nullable;
            nullable.then_some(columns[c].validity)
        });
        let [accession, ligand, kind, value_nm, source, year] = columns;
        let text = |c: ColumnSlice<'t>| match c.data {
            ColumnData::Str { codes, dict } => Some((codes, dict)),
            _ => None,
        };
        let ColumnData::Int(year) = year.data else {
            return None;
        };
        Some(AssayCells {
            text: [text(accession)?, text(ligand)?, text(kind)?, text(source)?],
            value_nm,
            year,
            valid,
        })
    }

    /// The text of row `i` in text column `column`. Panics on a NULL
    /// cell, which no unified row holds.
    pub(crate) fn text(&self, column: usize, i: usize) -> &'t Arc<str> {
        let (codes, dict) = self.text[column];
        &dict.values()[codes[i] as usize]
    }
}

impl<'t> AssayRows<'t> {
    /// Read `shipped` as assay rows. A batch that is not of the assay
    /// schema's shape (fewer than six columns, or a text, the value or
    /// the year column of another type) unifies no row.
    pub fn new(dataset: &Dataset, shipped: &'t Table) -> AssayRows<'t> {
        let cells = AssayCells::of(shipped);
        let ranks = cells.as_ref().map_or_else(Vec::new, |cells| {
            let accessions = cells.text[AssayCells::ACCESSION].1.values();
            accessions
                .iter()
                .map(|a| dataset.rank_of_accession(a))
                .collect()
        });
        AssayRows {
            len: shipped.len(),
            cells,
            ranks,
        }
    }

    /// Rows shipped.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing was shipped.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The one widening rule: the leaf rank and pActivity of row `i`,
    /// or `None` when it is no activity record: its accession is not
    /// on the tree, its `value_nm` is not finite and positive, or a
    /// cell is NULL.
    pub fn unify(&self, i: usize) -> Option<(u32, f64)> {
        let cells = self.cells.as_ref()?;
        if !cells.valid.iter().flatten().all(|v| v.get(i)) {
            return None;
        }
        let code = cells.text[AssayCells::ACCESSION].0[i];
        let rank = (*self.ranks.get(code as usize)?)?;
        let value_nm = cells.value_nm.f64_at(i)?;
        (value_nm.is_finite() && value_nm > 0.0).then(|| (rank, -(value_nm * 1e-9).log10()))
    }

    /// The typed cells, when the batch has the assay schema's shape.
    pub(crate) fn cells(&self) -> Option<&AssayCells<'t>> {
        self.cells.as_ref()
    }
}

/// Small deterministic fixtures shared by this crate's tests, the
/// downstream crates' tests, and the benchmark harness.
// Test-support code: panicking on malformed fixtures is the point.
#[allow(clippy::unwrap_used, clippy::expect_used)]
pub mod test_fixtures {
    use super::*;
    use drugtree_chem::affinity::{ActivityRecord, ActivityType};
    use drugtree_integrate::overlay::OverlayBuilder;
    use drugtree_phylo::newick::parse_newick;
    use drugtree_sources::assay_db::assay_source;
    use drugtree_sources::latency::LatencyModel;
    use drugtree_sources::ligand_db::LigandRecord;
    use drugtree_sources::protein_db::ProteinRecord;
    use drugtree_sources::source::SourceCapabilities;
    use std::time::Duration;

    /// Deterministic small latency for tests: 10 ms RTT, 1 ms/row.
    pub fn test_latency() -> LatencyModel {
        LatencyModel {
            base_rtt: Duration::from_millis(10),
            per_row: Duration::from_millis(1),
            per_row_scanned: Duration::ZERO,
            jitter: 0.0,
            seed: 0,
        }
    }

    /// A Ki activity record against `acc` for tests.
    pub fn activity(acc: &str, ligand: &str, value_nm: f64, year: u16) -> ActivityRecord {
        ActivityRecord {
            protein_accession: acc.into(),
            ligand_id: ligand.into(),
            activity_type: ActivityType::Ki,
            value_nm,
            source: "sim".into(),
            year,
        }
    }

    /// A fixed 4-leaf dataset:
    ///
    /// ```text
    ///          root
    ///         /    \
    ///    cladeA    cladeB
    ///     /  \      /  \
    ///    P1  P2    P3  P4
    /// ```
    ///
    /// Activities (Ki, nM): P1-L1 10, P1-L2 2000, P2-L1 100, P3-L3 1.
    /// P4 has none. Ligands: L1 aspirin, L2 ethanol, L3 caffeine.
    pub fn small_dataset(caps: SourceCapabilities) -> Dataset {
        let tree = parse_newick("((P1:1,P2:1)cladeA:1,(P3:1,P4:1)cladeB:1)root;").unwrap();
        let index = TreeIndex::build(&tree);
        let proteins: Vec<ProteinRecord> = ["P1", "P2", "P3", "P4"]
            .iter()
            .map(|acc| ProteinRecord {
                accession: (*acc).into(),
                name: format!("protein {acc}"),
                organism: "synthetic".into(),
                sequence: "MKVLAT".into(),
                gene: None,
            })
            .collect();
        let ligands = vec![
            LigandRecord::from_smiles("L1", "aspirin", "CC(=O)Oc1ccccc1C(=O)O").unwrap(),
            LigandRecord::from_smiles("L2", "ethanol", "CCO").unwrap(),
            LigandRecord::from_smiles("L3", "caffeine", "Cn1cnc2c1c(=O)n(C)c(=O)n2C").unwrap(),
        ];
        let acts = vec![
            activity("P1", "L1", 10.0, 2012),
            activity("P1", "L2", 2000.0, 2011),
            activity("P2", "L1", 100.0, 2012),
            activity("P3", "L3", 1.0, 2013),
        ];
        // Overlay materializes proteins + ligands locally; activities
        // live only in the simulated remote source.
        let overlay = OverlayBuilder::new(&tree, &index)
            .build(&proteins, &ligands)
            .unwrap();
        let mut registry = SourceRegistry::new();
        registry
            .register(Arc::new(
                assay_source("assay-sim", &acts, caps, test_latency()).unwrap(),
            ))
            .unwrap();
        Dataset::new(tree, index, overlay, registry, VirtualClock::new()).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::test_fixtures::small_dataset;
    use super::*;
    use drugtree_sources::source::SourceCapabilities;

    #[test]
    fn scope_resolution() {
        let d = small_dataset(SourceCapabilities::full());
        let (root, iv) = d.resolve_scope(&Scope::Tree).unwrap();
        assert_eq!(root, d.tree.root());
        assert_eq!(iv, LeafInterval { lo: 0, hi: 4 });

        let (node, iv) = d.resolve_scope(&Scope::Subtree("cladeB".into())).unwrap();
        assert_eq!(iv, LeafInterval { lo: 2, hi: 4 });
        assert_eq!(d.index.by_label("cladeB").unwrap(), node);

        assert!(matches!(
            d.resolve_scope(&Scope::Subtree("nope".into())),
            Err(QueryError::UnknownNode(_))
        ));
    }

    #[test]
    fn interval_scope_clamped() {
        let d = small_dataset(SourceCapabilities::full());
        let (_, iv) = d
            .resolve_scope(&Scope::Interval(LeafInterval { lo: 1, hi: 99 }))
            .unwrap();
        assert_eq!(iv, LeafInterval { lo: 1, hi: 4 });
        // Wholly past the leaves: clamped to the empty interval at the end.
        let (_, iv) = d
            .resolve_scope(&Scope::Interval(LeafInterval { lo: 7, hi: 99 }))
            .unwrap();
        assert_eq!(iv, LeafInterval { lo: 4, hi: 4 });
    }

    #[test]
    fn inverted_interval_scope_is_refused() {
        let d = small_dataset(SourceCapabilities::full());
        for (lo, hi) in [(2, 1), (99, 7)] {
            let scope = Scope::Interval(LeafInterval { lo, hi });
            assert!(
                matches!(d.resolve_scope(&scope), Err(QueryError::Plan(_))),
                "[{lo}, {hi})"
            );
        }
    }

    #[test]
    fn two_proteins_on_one_leaf_are_refused() {
        use drugtree_integrate::overlay::OverlayBuilder;
        use drugtree_sources::protein_db::ProteinRecord;
        let build = |accessions: &[&str]| {
            let d = small_dataset(SourceCapabilities::full());
            let proteins: Vec<ProteinRecord> = accessions
                .iter()
                .map(|&accession| ProteinRecord {
                    accession: accession.into(),
                    name: String::new(),
                    organism: String::new(),
                    sequence: String::new(),
                    gene: None,
                })
                .collect();
            // "P1.2" resolves to leaf P1, as a versioned accession.
            let overlay = OverlayBuilder::new(&d.tree, &d.index)
                .build(&proteins, &[])
                .unwrap();
            Dataset::new(d.tree, d.index, overlay, d.registry, d.clock)
        };
        assert!(build(&["P1", "P2", "P1"]).is_ok(), "one accession twice");
        assert!(matches!(
            build(&["P1", "P2", "P1.2"]),
            Err(QueryError::Plan(_))
        ));
    }

    #[test]
    fn one_protein_on_two_leaves_is_refused() {
        use drugtree_integrate::overlay::{ligand_schema, protein_schema};
        use drugtree_store::table::Table;
        use drugtree_store::Catalog;
        // A restored protein table may place an accession anywhere.
        let build = |ranks: &[i64]| {
            let d = small_dataset(SourceCapabilities::full());
            let mut proteins = Table::new(tables::PROTEIN, protein_schema()).unwrap();
            for &rank in ranks {
                let name = Value::from("");
                let row = [Value::from("P1"), name.clone(), name, Value::Int(rank)];
                proteins.append_row(&row).unwrap();
            }
            let ligands = Table::new(tables::LIGAND, ligand_schema()).unwrap();
            let mut catalog = Catalog::new();
            catalog.create_table(proteins).unwrap();
            catalog
                .create_table(ligands.with_key("ligand_id").unwrap())
                .unwrap();
            let overlay = Overlay::from_catalog(catalog).unwrap();
            Dataset::new(d.tree, d.index, overlay, d.registry, d.clock)
        };
        assert!(build(&[0, 0]).is_ok(), "one leaf twice");
        assert!(matches!(build(&[0, 2]), Err(QueryError::Plan(_))));
    }

    #[test]
    fn leaves_scope_spans_min_interval() {
        let d = small_dataset(SourceCapabilities::full());
        let (node, iv) = d
            .resolve_scope(&Scope::Leaves(vec!["P1".into(), "P2".into()]))
            .unwrap();
        assert_eq!(iv, LeafInterval { lo: 0, hi: 2 });
        assert_eq!(node, d.index.by_label("cladeA").unwrap());
        // Spanning both clades widens to the root.
        let (node, _) = d
            .resolve_scope(&Scope::Leaves(vec!["P1".into(), "P4".into()]))
            .unwrap();
        assert_eq!(node, d.tree.root());
        assert!(d.resolve_scope(&Scope::Leaves(vec![])).is_err());
    }

    #[test]
    fn accession_maps() {
        let d = small_dataset(SourceCapabilities::full());
        assert_eq!(d.accession_of_rank(0), Some("P1"));
        assert_eq!(d.rank_of_accession("P3"), Some(2));
        assert_eq!(d.rank_of_accession("ZZ"), None);
        let accs: Vec<_> = d.accessions_in(LeafInterval { lo: 1, hi: 3 }).collect();
        assert_eq!(accs, vec![(1, &Value::from("P2")), (2, &Value::from("P3"))]);
        assert_eq!(d.leaf_count(), 4);
    }

    #[test]
    fn unify_assay_rows() {
        let d = small_dataset(SourceCapabilities::full());
        let raw = vec![
            Value::from("P2"),
            Value::from("L1"),
            Value::from("Ki"),
            Value::Float(1000.0),
            Value::from("sim"),
            Value::Int(2012),
        ];
        let loose = |row: &[Value]| {
            let columns = row
                .iter()
                .enumerate()
                .map(|(c, cell)| {
                    let ty = if cell.is_null() {
                        ValueType::Int
                    } else {
                        cell.value_type()
                    };
                    Column::nullable(format!("c{c}"), ty)
                })
                .collect();
            Table::from_rows("shipped", Schema::new(columns), [row]).unwrap()
        };
        let shipped = loose(&raw);
        let rows = AssayRows::new(&d, &shipped);
        assert_eq!(rows.len(), 1);
        let (rank, p) = rows.unify(0).unwrap();
        assert_eq!(rank, 1); // P2's rank
        assert!((p - 6.0).abs() < 1e-9);
        // An Int value_nm reads as its number.
        let mut int_value = raw.clone();
        int_value[3] = Value::Int(1000);
        assert_eq!(
            AssayRows::new(&d, &loose(&int_value)).unify(0),
            Some((1, p))
        );
        // Unknown accession, a non-positive value, a NULL, a short row,
        // a cell of another type -> dropped.
        for (at, cell) in [
            (0, Value::from("QX")),
            (3, Value::Float(0.0)),
            (3, Value::Null),
            (3, Value::from("1000")),
            (5, Value::Float(2012.0)),
            (1, Value::Int(1)),
        ] {
            let mut bad = raw.clone();
            bad[at] = cell;
            let shipped = loose(&bad);
            assert!(AssayRows::new(&d, &shipped).unify(0).is_none(), "{bad:?}");
        }
        let short = loose(&raw[..5]);
        assert!(AssayRows::new(&d, &short).unify(0).is_none());
    }

    #[test]
    fn unified_schema_covers_declared_columns() {
        let s = unified_schema();
        for c in crate::ast::columns::ACTIVITY
            .iter()
            .chain(crate::ast::columns::LIGAND)
        {
            assert!(s.column_index(c).is_ok(), "missing column {c}");
        }
        assert_eq!(s.arity(), 14);
        assert_eq!(activity_half_schema().arity(), 8);
    }
}
