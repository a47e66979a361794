#![warn(missing_docs)]

//! Embedded in-memory relational store for the DrugTree reproduction.
//!
//! The wrapper/mediator integration layer materializes unified records
//! into this store; the query engine then evaluates residual predicates
//! and index scans against it. Deliberately small but real:
//!
//! * [`value`] — dynamically-typed cell values with a total order.
//! * [`schema`] — column/table schemas.
//! * [`expr`] — predicate expressions evaluated against rows.
//! * [`table`] — row tables with secondary indexes (hash + B-tree).
//! * [`catalog`] — a named collection of tables.
//! * [`snapshot`] — JSON snapshot persistence for catalogs.
//!
//! The columnar engine lives alongside the row path (same schema and
//! predicate language, byte-identical selection semantics):
//!
//! * [`bitmap`] — packed selection/validity bitmaps.
//! * [`dict`] — dictionary encoding for low-cardinality strings.
//! * [`segment`] — typed column buffers with zero-copy slices.
//! * [`kernel`] — vectorized filter/aggregate kernels.
//! * [`columnar`] — columnar tables with sort-aware range slicing.

pub mod bitmap;
pub mod catalog;
pub mod columnar;
pub mod dict;
pub mod error;
pub mod expr;
pub mod kernel;
pub mod schema;
pub mod segment;
pub mod snapshot;
pub mod table;
pub mod value;

pub use bitmap::Bitmap;
pub use catalog::Catalog;
pub use columnar::ColumnarTable;
pub use dict::Dictionary;
pub use error::StoreError;
pub use expr::{CompareOp, Predicate};
pub use schema::{Column, Schema};
pub use segment::{ColumnData, ColumnSlice, Segment, SegmentData};
pub use table::{RowId, Table};
pub use value::{Value, ValueType};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StoreError>;
