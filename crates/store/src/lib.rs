#![warn(missing_docs)]

//! Embedded in-memory column store for the DrugTree reproduction.
//!
//! The wrapper/mediator integration layer materializes unified records
//! into this store, the simulated sources serve theirs from it, and the
//! query engine runs its kernels over it. One table type holds every
//! row: typed column segments, at most one hash key index, rows built
//! on demand.
//!
//! * [`value`] — dynamically-typed cell values with a total order.
//! * [`schema`] — column/table schemas.
//! * [`expr`] — predicate expressions evaluated against rows.
//! * [`table`] — tables: segments and a key index.
//! * [`catalog`] — a named collection of tables.
//! * [`snapshot`] — JSON snapshot persistence for catalogs.
//! * [`bitmap`] — packed selection/validity bitmaps.
//! * [`dict`] — dictionary encoding for low-cardinality strings.
//! * [`segment`] — typed column buffers with zero-copy slices.
//! * [`kernel`] — vectorized filter/aggregate kernels.

pub mod bitmap;
pub mod catalog;
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
pub use dict::Dictionary;
pub use error::StoreError;
pub use expr::{CompareOp, Predicate};
pub use schema::{Column, Schema};
pub use segment::{ColumnData, ColumnSlice, Segment, SegmentData};
pub use table::Table;
pub use value::{Value, ValueType};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StoreError>;
