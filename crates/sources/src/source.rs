//! The data-source abstraction and the generic simulated source.
//!
//! A fetch answers with typed columns: a [`FetchResponse`] carries a
//! store [`Table`] of the shipped rows, gathered by position from the
//! source's own segments ([`Table::gather`]). Numbers are copied from
//! the typed buffers and text travels as codes into a dictionary that
//! holds the source's allocations, so no fetch builds a `Value` row.
//! What a request costs is still computed from the rows it scanned and
//! the rows it shipped.

use crate::latency::{LatencyModel, RequestCounter};
use crate::{Result, SourceError};
use drugtree_store::expr::{CompareOp, Predicate};
use drugtree_store::schema::Schema;
use drugtree_store::table::Table;
use drugtree_store::value::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What a source holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceKind {
    /// Protein/sequence records (UniProt-like).
    Protein,
    /// Ligand/compound records (ChEMBL-like).
    Ligand,
    /// Assay/activity records (BindingDB-like).
    Assay,
}

/// What query shapes a source can evaluate remotely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceCapabilities {
    /// Equality predicates (`col = v`, `col IN (…)`).
    pub eq_pushdown: bool,
    /// Range predicates (`col < v`, `BETWEEN`).
    pub range_pushdown: bool,
    /// Maximum number of keys per batched lookup request.
    pub max_batch: usize,
}

impl SourceCapabilities {
    /// A fully capable source.
    pub fn full() -> SourceCapabilities {
        SourceCapabilities {
            eq_pushdown: true,
            range_pushdown: true,
            max_batch: 100,
        }
    }

    /// A dump-only source: no remote filtering, singleton lookups.
    pub fn minimal() -> SourceCapabilities {
        SourceCapabilities {
            eq_pushdown: false,
            range_pushdown: false,
            max_batch: 1,
        }
    }

    /// Whether the whole predicate can be evaluated remotely.
    pub fn supports_predicate(&self, pred: &Predicate) -> bool {
        match pred {
            Predicate::True => true,
            Predicate::Compare { op, .. } => match op {
                CompareOp::Eq => self.eq_pushdown,
                CompareOp::Ne => self.eq_pushdown,
                _ => self.range_pushdown,
            },
            Predicate::Between { .. } => self.range_pushdown,
            Predicate::InSet { .. } => self.eq_pushdown,
            // Conservative: NULL tests and arbitrary boolean structure
            // stay client-side except conjunctions of supported parts.
            Predicate::IsNull { .. } => false,
            Predicate::And(ps) => ps.iter().all(|p| self.supports_predicate(p)),
            Predicate::Or(_) | Predicate::Not(_) => false,
        }
    }
}

/// A fetch request sent to one source.
#[derive(Debug, Clone, Default)]
pub struct FetchRequest {
    /// Key-column lookups (batched). `None` means scan.
    pub keys: Option<Vec<Value>>,
    /// Predicate evaluated *at the source* (must be supported).
    pub predicate: Option<Predicate>,
    /// Columns to return; `None` = all.
    pub projection: Option<Vec<String>>,
}

impl FetchRequest {
    /// A full-scan request.
    pub fn scan() -> FetchRequest {
        FetchRequest::default()
    }

    /// A batched key lookup.
    pub fn lookup(keys: Vec<Value>) -> FetchRequest {
        FetchRequest {
            keys: Some(keys),
            ..FetchRequest::default()
        }
    }

    /// Attach a pushdown predicate.
    pub fn with_predicate(mut self, pred: Predicate) -> FetchRequest {
        self.predicate = Some(pred);
        self
    }

    /// Attach a projection.
    pub fn with_projection(mut self, columns: Vec<String>) -> FetchRequest {
        self.projection = Some(columns);
        self
    }
}

/// The rows and simulated cost of one fetch.
#[derive(Debug, Clone)]
pub struct FetchResponse {
    /// The shipped rows, typed: the requested columns, in request
    /// order (every column of the source's schema without a
    /// projection), one row per shipped record.
    pub table: Table,
    /// Rows the source had to examine server-side.
    pub rows_scanned: usize,
    /// Simulated wall time of the request (charge to a clock).
    pub cost: Duration,
}

/// Cumulative per-source counters.
#[derive(Debug, Default)]
pub struct SourceMetrics {
    requests: AtomicU64,
    rows_returned: AtomicU64,
    busy_nanos: AtomicU64,
}

/// A snapshot of [`SourceMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests served.
    pub requests: u64,
    /// Total rows shipped.
    pub rows_returned: u64,
    /// Total simulated busy time.
    pub busy: Duration,
}

impl SourceMetrics {
    fn record(&self, rows: usize, cost: Duration) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.rows_returned.fetch_add(rows as u64, Ordering::Relaxed);
        self.busy_nanos
            .fetch_add(cost.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Read the counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            rows_returned: self.rows_returned.load(Ordering::Relaxed),
            busy: Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed)),
        }
    }
}

/// A remote data source.
pub trait DataSource: Send + Sync {
    /// Unique source name.
    fn name(&self) -> &str;
    /// What the source holds.
    fn kind(&self) -> SourceKind;
    /// Record schema.
    fn schema(&self) -> &Schema;
    /// Name of the key column batched lookups address.
    fn key_column(&self) -> &str;
    /// Remote evaluation capabilities.
    fn capabilities(&self) -> SourceCapabilities;
    /// Execute one request.
    fn fetch(&self, request: &FetchRequest) -> Result<FetchResponse>;
    /// Cumulative counters.
    fn metrics(&self) -> MetricsSnapshot;
    /// Number of records currently held. Never decreases: sources are
    /// append-only, and the query layer's source epoch relies on it.
    fn record_count(&self) -> usize;
    /// The latency profile the mediator assumes for this source (a real
    /// deployment measures this; the simulation reports its model).
    fn latency_model(&self) -> LatencyModel;
    /// Append a record at the source (simulating the remote database
    /// receiving new depositions). Sources that cannot accept writes
    /// return an error; the default does.
    fn ingest(&self, _row: Vec<Value>) -> Result<()> {
        Err(SourceError::IngestRejected(self.name().to_string()))
    }
}

/// A table-backed simulated source with a latency model.
pub struct SimulatedSource {
    name: String,
    kind: SourceKind,
    table: parking_lot::RwLock<Table>,
    /// Copy of the table schema (immutable after construction), so
    /// `schema()` can hand out a reference without holding the lock.
    schema: Schema,
    key_column: String,
    capabilities: SourceCapabilities,
    latency: LatencyModel,
    counter: RequestCounter,
    metrics: SourceMetrics,
}

impl SimulatedSource {
    /// Build a source around a table, keyed on `key_column`: keyed
    /// lookups cost `O(matches)` server-side, mirroring a real
    /// service's primary-key access path.
    pub fn new(
        name: impl Into<String>,
        kind: SourceKind,
        table: Table,
        key_column: impl Into<String>,
        capabilities: SourceCapabilities,
        latency: LatencyModel,
    ) -> Result<SimulatedSource> {
        let key_column = key_column.into();
        let table = table.with_key(&key_column)?;
        let schema = table.schema().clone();
        Ok(SimulatedSource {
            name: name.into(),
            kind,
            table: parking_lot::RwLock::new(table),
            schema,
            key_column,
            capabilities,
            latency,
            counter: RequestCounter::default(),
            metrics: SourceMetrics::default(),
        })
    }
}

impl DataSource for SimulatedSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> SourceKind {
        self.kind
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn key_column(&self) -> &str {
        &self.key_column
    }

    fn capabilities(&self) -> SourceCapabilities {
        self.capabilities
    }

    fn fetch(&self, request: &FetchRequest) -> Result<FetchResponse> {
        let table = self.table.read();
        let schema = table.schema();

        // Capability enforcement: a real service rejects filters it
        // cannot evaluate.
        if let Some(pred) = &request.predicate {
            if !self.capabilities.supports_predicate(pred) {
                return Err(SourceError::UnsupportedPushdown {
                    source: self.name.clone(),
                    reason: format!("{pred:?}"),
                });
            }
        }

        let filter = match &request.predicate {
            Some(p) => Some(p.bind(schema)?),
            None => None,
        };
        let columns: Vec<usize> = match &request.projection {
            Some(cols) => cols
                .iter()
                .map(|c| schema.column_index(c))
                .collect::<std::result::Result<_, _>>()?,
            None => (0..schema.arity()).collect(),
        };

        let (mut rows, rows_scanned) = match &request.keys {
            Some(keys) => {
                if keys.len() > self.capabilities.max_batch {
                    return Err(SourceError::BatchTooLarge {
                        source: self.name.clone(),
                        max: self.capabilities.max_batch,
                        got: keys.len(),
                    });
                }
                let mut rows = Vec::new();
                for key in keys {
                    rows.extend_from_slice(table.key_rows(key));
                }
                let matched = rows.len();
                (rows, matched.max(keys.len()))
            }
            // `Table::append_row` keeps every ordinal within `u32`.
            None => ((0..table.len() as u32).collect(), table.len()),
        };
        if let Some(filter) = &filter {
            let cells = table.columns();
            rows.retain(|&i| filter.matches_with(&|c| cells[c].value_at(i as usize)));
        }
        let shipped = table.gather(&rows, &columns);

        let cost = self
            .latency
            .request_cost(rows_scanned, shipped.len(), self.counter.next());
        self.metrics.record(shipped.len(), cost);
        Ok(FetchResponse {
            table: shipped,
            rows_scanned,
            cost,
        })
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    fn record_count(&self) -> usize {
        self.table.read().len()
    }

    fn latency_model(&self) -> LatencyModel {
        self.latency.clone()
    }

    /// Appends a record (simulating a new remote deposition): the record
    /// count rises, and with it the query layer's source epoch.
    fn ingest(&self, row: Vec<Value>) -> Result<()> {
        self.table.write().append_row(&row)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_store::schema::Column;
    use drugtree_store::value::ValueType;

    fn sample_source(caps: SourceCapabilities) -> SimulatedSource {
        let schema = Schema::new(vec![
            Column::required("acc", ValueType::Text),
            Column::required("len", ValueType::Int),
            Column::nullable("gene", ValueType::Text),
        ]);
        let mut t = Table::new("proteins", schema).unwrap();
        for (acc, len, gene) in [("P1", 100i64, "G1"), ("P2", 200, ""), ("P3", 300, "G3")] {
            let gene = if gene.is_empty() {
                Value::Null
            } else {
                Value::from(gene)
            };
            t.append_row(&[Value::from(acc), Value::Int(len), gene])
                .unwrap();
        }
        SimulatedSource::new(
            "uniprot-sim",
            SourceKind::Protein,
            t,
            "acc",
            caps,
            LatencyModel::free(),
        )
        .unwrap()
    }

    /// The shipped rows, read back cell by cell.
    fn rows(resp: &FetchResponse) -> Vec<Vec<Value>> {
        (0..resp.table.len()).map(|i| resp.table.row(i)).collect()
    }

    /// The shipped column names, in order.
    fn names(resp: &FetchResponse) -> Vec<&str> {
        let columns = resp.table.schema().columns();
        columns.iter().map(|c| c.name.as_str()).collect()
    }

    #[test]
    fn scan_returns_everything() {
        let s = sample_source(SourceCapabilities::full());
        let resp = s.fetch(&FetchRequest::scan()).unwrap();
        assert_eq!(resp.table.len(), 3);
        assert_eq!(resp.rows_scanned, 3);
        assert_eq!(names(&resp), ["acc", "len", "gene"]);
        assert_eq!(
            rows(&resp)[2],
            [Value::from("P3"), Value::Int(300), Value::from("G3")]
        );
        assert_eq!(s.record_count(), 3);
    }

    #[test]
    fn keyed_lookup() {
        let s = sample_source(SourceCapabilities::full());
        let resp = s
            .fetch(&FetchRequest::lookup(vec![
                Value::from("P3"),
                Value::from("P2"),
            ]))
            .unwrap();
        // Rows ship in key order.
        let accessions: Vec<Value> = rows(&resp).into_iter().map(|r| r[0].clone()).collect();
        assert_eq!(accessions, [Value::from("P3"), Value::from("P2")]);
        // Keyed access examines only matches, not the whole table.
        assert_eq!(resp.rows_scanned, 2);
        // Missing keys return nothing but still count as probes.
        let resp = s
            .fetch(&FetchRequest::lookup(vec![Value::from("P9")]))
            .unwrap();
        assert!(resp.table.is_empty());
        assert_eq!(resp.rows_scanned, 1);
    }

    /// A shipped text cell is the source's own allocation of it.
    #[test]
    fn shipped_text_shares_the_source_allocation() {
        let s = sample_source(SourceCapabilities::full());
        let a = s
            .fetch(&FetchRequest::lookup(vec![Value::from("P1")]))
            .unwrap();
        let b = s.fetch(&FetchRequest::scan()).unwrap();
        let text = |resp: &FetchResponse, i| resp.table.column(0).text_at(i).unwrap().as_ptr();
        assert_eq!(text(&a, 0), text(&b, 0));
    }

    #[test]
    fn pushdown_filters_remotely() {
        let s = sample_source(SourceCapabilities::full());
        let req = FetchRequest::scan().with_predicate(Predicate::cmp("len", CompareOp::Gt, 150i64));
        let resp = s.fetch(&req).unwrap();
        assert_eq!(
            rows(&resp).iter().map(|r| r[1].clone()).collect::<Vec<_>>(),
            [Value::Int(200), Value::Int(300)]
        );
        assert_eq!(resp.rows_scanned, 3, "server still scanned everything");
        // On a keyed lookup the filter drops rows after the probe: the
        // scan count is the matches, the shipped rows what passed.
        let req = FetchRequest::lookup(vec![Value::from("P1"), Value::from("P3")])
            .with_predicate(Predicate::cmp("len", CompareOp::Gt, 150i64));
        let resp = s.fetch(&req).unwrap();
        assert_eq!(
            rows(&resp),
            [[Value::from("P3"), Value::Int(300), Value::from("G3")]]
        );
        assert_eq!(resp.rows_scanned, 2);
        let bad = FetchRequest::scan().with_predicate(Predicate::eq("bogus", 1i64));
        assert!(s.fetch(&bad).is_err());
    }

    #[test]
    fn pushdown_rejected_without_capability() {
        let s = sample_source(SourceCapabilities::minimal());
        let req = FetchRequest::scan().with_predicate(Predicate::eq("acc", "P1"));
        assert!(matches!(
            s.fetch(&req),
            Err(SourceError::UnsupportedPushdown { .. })
        ));
    }

    #[test]
    fn batch_limit_enforced() {
        let s = sample_source(SourceCapabilities {
            max_batch: 1,
            ..SourceCapabilities::full()
        });
        let err = s
            .fetch(&FetchRequest::lookup(vec![
                Value::from("P1"),
                Value::from("P2"),
            ]))
            .unwrap_err();
        assert!(matches!(
            err,
            SourceError::BatchTooLarge { max: 1, got: 2, .. }
        ));
        assert_eq!(s.metrics().requests, 0, "a refused batch is no request");
    }

    #[test]
    fn projection() {
        let s = sample_source(SourceCapabilities::full());
        let resp = s
            .fetch(&FetchRequest::scan().with_projection(vec!["len".into(), "acc".into()]))
            .unwrap();
        assert_eq!(names(&resp), ["len", "acc"]);
        assert_eq!(rows(&resp)[0], [Value::Int(100), Value::from("P1")]);
        let bad = s.fetch(&FetchRequest::scan().with_projection(vec!["bogus".into()]));
        assert!(bad.is_err());
    }

    /// A nullable column ships its NULLs as NULLs, on a scan and on a
    /// projected lookup alike.
    #[test]
    fn nulls_survive_the_gather() {
        let s = sample_source(SourceCapabilities::full());
        let resp = s.fetch(&FetchRequest::scan()).unwrap();
        let genes: Vec<Value> = rows(&resp).into_iter().map(|r| r[2].clone()).collect();
        assert_eq!(genes, [Value::from("G1"), Value::Null, Value::from("G3")]);
        let resp = s
            .fetch(
                &FetchRequest::lookup(vec![Value::from("P2"), Value::from("P3")])
                    .with_projection(vec!["gene".into()]),
            )
            .unwrap();
        assert_eq!(rows(&resp), [[Value::Null], [Value::from("G3")]]);
        assert_eq!(resp.table.column(0).text_at(0), None);
    }

    #[test]
    fn metrics_accumulate() {
        let s = sample_source(SourceCapabilities::full());
        s.fetch(&FetchRequest::scan()).unwrap();
        s.fetch(&FetchRequest::lookup(vec![Value::from("P1")]))
            .unwrap();
        let m = s.metrics();
        assert_eq!(m.requests, 2);
        assert_eq!(m.rows_returned, 4);
    }

    #[test]
    fn capability_predicate_analysis() {
        let full = SourceCapabilities::full();
        let eq_only = SourceCapabilities {
            range_pushdown: false,
            ..SourceCapabilities::full()
        };
        let eq = Predicate::eq("a", 1i64);
        let range = Predicate::cmp("a", CompareOp::Lt, 1i64);
        let both = eq.clone().and(range.clone());
        assert!(full.supports_predicate(&both));
        assert!(eq_only.supports_predicate(&eq));
        assert!(!eq_only.supports_predicate(&range));
        assert!(!eq_only.supports_predicate(&both));
        assert!(!full.supports_predicate(&Predicate::Or(vec![eq])));
        assert!(!full.supports_predicate(&Predicate::IsNull { column: "a".into() }));
        assert!(full.supports_predicate(&Predicate::True));
    }

    #[test]
    fn ingest_visible_to_next_fetch() {
        let s = sample_source(SourceCapabilities::full());
        s.ingest(vec![Value::from("P4"), Value::Int(400), Value::Null])
            .unwrap();
        let resp = s
            .fetch(&FetchRequest::lookup(vec![Value::from("P4")]))
            .unwrap();
        assert_eq!(resp.table.len(), 1);
    }

    #[test]
    fn cost_charged_per_request() {
        let schema = Schema::new(vec![Column::required("k", ValueType::Int)]);
        let mut t = Table::new("t", schema).unwrap();
        for i in 0..10i64 {
            t.append_row(&[Value::Int(i)]).unwrap();
        }
        let s = SimulatedSource::new(
            "slow",
            SourceKind::Assay,
            t,
            "k",
            SourceCapabilities::full(),
            LatencyModel {
                base_rtt: Duration::from_millis(10),
                per_row: Duration::from_millis(1),
                per_row_scanned: Duration::ZERO,
                jitter: 0.0,
                seed: 0,
            },
        )
        .unwrap();
        let resp = s.fetch(&FetchRequest::scan()).unwrap();
        assert_eq!(resp.cost, Duration::from_millis(20));
        assert_eq!(s.metrics().busy, Duration::from_millis(20));
    }

    /// The charge of a fixed request sequence on a jittered model, to
    /// the nanosecond: the rows scanned and shipped that the cost is
    /// computed from are the ones rows-shipping sources counted.
    #[test]
    fn the_charge_of_a_fixed_request_sequence_is_pinned() {
        let schema = Schema::new(vec![
            Column::required("k", ValueType::Text),
            Column::required("v", ValueType::Int),
        ]);
        let mut t = Table::new("t", schema).unwrap();
        for i in 0..40i64 {
            t.append_row(&[Value::from(format!("K{}", i % 7).as_str()), Value::Int(i)])
                .unwrap();
        }
        let s = SimulatedSource::new(
            "pinned",
            SourceKind::Assay,
            t,
            "k",
            SourceCapabilities::full(),
            LatencyModel {
                base_rtt: Duration::from_millis(40),
                per_row: Duration::from_micros(300),
                per_row_scanned: Duration::from_micros(20),
                jitter: 0.25,
                seed: 9,
            },
        )
        .unwrap();
        let keys = ["K1", "K3", "K9"].map(Value::from).to_vec();
        let requests = [
            FetchRequest::lookup(keys.clone()),
            FetchRequest::lookup(keys).with_predicate(Predicate::cmp("v", CompareOp::Ge, 20i64)),
            FetchRequest::scan().with_predicate(Predicate::cmp("v", CompareOp::Lt, 5i64)),
            FetchRequest::scan(),
        ];
        let got: Vec<(usize, usize, u128)> = requests
            .iter()
            .map(|r| {
                let resp = s.fetch(r).unwrap();
                (resp.rows_scanned, resp.table.len(), resp.cost.as_nanos())
            })
            .collect();
        assert_eq!(got, PINNED_CHARGES);
        assert_eq!(
            s.metrics(),
            MetricsSnapshot {
                requests: 4,
                rows_returned: 63,
                busy: Duration::from_nanos(178_080_760),
            }
        );
    }

    /// (rows scanned, rows shipped, cost in ns) of each request above,
    /// as the sources that shipped `Value` rows charged them; together
    /// 63 rows and 178.08076 ms busy.
    const PINNED_CHARGES: [(usize, usize, u128); 4] = [
        (12, 12, 47_837_391),
        (12, 6, 31_882_890),
        (40, 5, 50_908_081),
        (40, 40, 47_452_398),
    ];
}
