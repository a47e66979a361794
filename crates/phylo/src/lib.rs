#![warn(missing_docs)]

//! Phylogenetics substrate for the DrugTree reproduction.
//!
//! This crate provides everything needed to go from a set of protein
//! sequences to an indexed, queryable phylogenetic tree:
//!
//! * [`seq`] — amino-acid alphabets and protein sequences.
//! * [`matrices`] — substitution scoring matrices (BLOSUM62).
//! * [`align`] — Needleman–Wunsch global alignment with affine gaps.
//! * [`distance`] — evolutionary distance estimators and the
//!   [`distance::DistanceMatrix`] type.
//! * [`tree`] — the arena-allocated [`tree::Tree`] structure.
//! * [`newick`] — Newick serialization and parsing.
//! * [`nj`] — neighbor-joining tree construction.
//! * [`index`] — the [`index::TreeIndex`]: Euler-tour intervals, leaf
//!   ranks, depths and binary-lifting LCA. This is the structure the
//!   DrugTree query optimizer rewrites subtree predicates against
//!   (design decision D1 in DESIGN.md).
//! * [`compare`] — Robinson–Foulds distances for validating
//!   reconstructions against ground truth.

pub mod align;
pub mod compare;
pub mod distance;
pub mod error;
pub mod index;
pub mod matrices;
pub mod newick;
pub mod nj;
pub mod seq;
pub mod tree;

pub use error::PhyloError;
pub use index::TreeIndex;
pub use tree::{NodeId, Tree};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, PhyloError>;
