#![warn(missing_docs)]

//! Ligand (small-molecule) data model for the DrugTree reproduction.
//!
//! DrugTree overlays *ligand data* on the protein tree; this crate is
//! that data's home:
//!
//! * [`element`] — the elements SMILES' organic subset covers, with
//!   atomic masses.
//! * [`mol`] — molecule graphs (atoms, bonds, rings).
//! * [`smiles`] — a SMILES parser/writer for the organic subset,
//!   brackets, branches, ring closures and charges.
//! * [`descriptors`] — physicochemical descriptors (MW, H-bond
//!   donors/acceptors, rings, rotatable bonds).
//! * [`fingerprint`] — hashed linear-path fingerprints over a compact
//!   bitset, the classic similarity-search representation.
//! * [`similarity`] — Tanimoto and Dice coefficients.
//! * [`canonical`] — Morgan-style canonical ranking and canonical
//!   SMILES (ligand identity across sources).
//! * [`substructure`] — VF2-style subgraph-isomorphism matching with
//!   a fingerprint prescreen ("ligands containing this scaffold").
//! * [`affinity`] — binding/assay activity records (Ki, Kd, IC50, …)
//!   and the `pActivity` scale queries filter on.

pub mod affinity;
pub mod canonical;
pub mod descriptors;
pub mod element;
pub mod error;
pub mod fingerprint;
pub mod mol;
pub mod similarity;
pub mod smiles;
pub mod substructure;

pub use affinity::{ActivityRecord, ActivityType};
pub use error::ChemError;
pub use fingerprint::Fingerprint;
pub use mol::Molecule;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ChemError>;
