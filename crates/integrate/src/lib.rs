#![warn(missing_docs)]

//! Mediator data integration for the DrugTree reproduction.
//!
//! The paper: *"the data is being obtained from multiple sources,
//! integrated and then presented to the user with the [ligand data]
//! imposed upon the phylogenetic analysis layer."* This crate is the
//! build-time half of that step (activities are unified at fetch time,
//! by `drugtree_query::dataset`):
//!
//! * [`entity`] — entity resolution: accession normalization and fuzzy
//!   string matching of protein records onto tree leaves.
//! * [`ligand_identity`] — structure-level ligand unification: records
//!   whose canonical SMILES match collapse to one id.
//! * [`overlay`] — the overlay join: proteins placed on tree leaves and
//!   ligands unified, materialized into the local store, keyed by leaf
//!   rank (the coordinate the query layer uses).

pub mod entity;
pub mod error;
pub mod ligand_identity;
pub mod overlay;

pub use entity::EntityResolver;
pub use error::IntegrateError;
pub use overlay::{Overlay, OverlayBuilder};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, IntegrateError>;
