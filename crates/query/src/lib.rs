#![warn(missing_docs)]

//! The DrugTree query layer — the paper's primary contribution.
//!
//! Queries address the *overlay*: activity records attached to the
//! leaves of the protein tree, joined with ligand metadata, scoped to a
//! subtree. In the unoptimized system every tree interaction issued one
//! sequential round-trip per visible leaf against every assay source —
//! the "lags concerning querying the tree" the paper opens with.
//!
//! The optimizer applies *standards* (predicate pushdown, interval
//! rewriting of subtree scopes, cost-ordered residual filters,
//! materialized aggregate views) and the poster's *novel mechanisms*
//! for an interactive tree UI (semantic caching of subtree results
//! with containment-based reuse, statistics-based subtree/source
//! pruning, batched concurrent fetch):
//!
//! * [`ast`] — the query model.
//! * [`parser`] — a small text query language.
//! * [`dataset`] — the queryable bundle (tree + overlay + sources).
//! * [`stats`] — overlay statistics driving pruning and selectivity.
//! * [`plan`] — physical plans and EXPLAIN rendering.
//! * [`optimizer`] — the phased rewrite engine (Analyze →
//!   Canonicalize → Optimize → Lower), rule-by-rule switchable so
//!   experiment E4 can ablate each one.
//! * [`phases`] — the rewrite phases and the per-phase rule registry
//!   (name, description, toggle) driving ablation, the `drugtree
//!   rules` listing, and the EXPLAIN rule trace (design decision D13).
//! * [`cost`] — the columnar-scan cost model (the local-compute term
//!   a columnar access is priced and charged at).
//! * [`cache`] — the semantic result cache (design decision D2); the
//!   executor holds one, behind one lock.
//! * [`exec`] — the executor and its metrics.
//! * [`columnar`] — the columnar activity mirror: rank-sorted typed
//!   segments answering interval scopes with vectorized kernels
//!   instead of source round-trips (design decision D12).
//! * [`matview`] — materialized per-subtree aggregate views.
//! * [`local`] — the one scan both are built from, and its freshness
//!   record.
//! * [`trace`] — the observability layer: per-query span trees on the
//!   virtual clock, the [`Observer`] hook, lock-free metrics, and the
//!   `EXPLAIN ANALYZE` rendering (design decision D9).
//! * [`obs`] — continuous fleet observability: rolling SLO windows,
//!   the slow-query log, and deterministic JSONL trace export
//!   (design decision D10).
//! * [`adaptive`] — the self-driving layer: the auto-materialization
//!   advisor and the `adapt` event stream closing the telemetry →
//!   optimizer feedback loop (design decision D15).

pub mod adaptive;
pub mod ast;
pub mod cache;
pub mod columnar;
pub mod cost;
pub mod dataset;
pub mod error;
pub mod exec;
pub mod local;
pub mod matview;
pub mod obs;
pub mod optimizer;
pub mod parser;
pub mod phases;
pub mod plan;
pub mod stats;
pub mod trace;

pub use adaptive::{AdaptiveRuntime, AdaptiveSnapshot};
pub use ast::{Query, QueryKind, Scope};
pub use columnar::ActivityColumns;
pub use dataset::Dataset;
pub use error::QueryError;
pub use exec::{ExecMetrics, Executor, PlanEstimate, QueryResult};
pub use obs::{
    AdaptEvent, FleetObserver, QueryClass, RollingWindows, ServeClassCounters, Sink, SloPolicy,
    SlowQueryLog, TraceExport, VecSink, WindowSummary,
};
pub use optimizer::{Optimizer, OptimizerConfig, PlanInputs};
pub use phases::{PassTrace, RewritePhase, RuleDef, RuleFiring, RuleOutcome};
pub use trace::{
    AnalyzedResult, GestureObservation, MetricsRegistry, Observer, QuerySpan, QueryTrace, Stage,
};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, QueryError>;
