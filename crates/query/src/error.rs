//! Error type for the query layer.

use std::fmt;

/// Errors from parsing, planning, or executing queries.
///
/// Marked `#[non_exhaustive]`: downstream matches must keep a
/// wildcard arm so new failure kinds can be added without a breaking
/// release. Wrapped lower-layer errors are reachable through
/// [`std::error::Error::source`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QueryError {
    /// Query text could not be parsed.
    Parse {
        /// Byte offset of the error.
        offset: usize,
        /// What was expected.
        message: String,
    },
    /// The query references an unknown tree node.
    UnknownNode(String),
    /// The query references an unknown column.
    UnknownColumn(String),
    /// The query references an unknown ligand.
    UnknownLigand(String),
    /// A similarity reference's SMILES failed to parse.
    BadSimilarityReference(String),
    /// A substructure pattern is neither a known ligand nor valid SMILES.
    BadSubstructurePattern(String),
    /// Plan construction or execution failed internally.
    Plan(String),
    /// An unknown optimizer rule name was passed to
    /// [`crate::optimizer::OptimizerConfig::ablate`].
    UnknownRule(String),
    /// Underlying store failure.
    Store(drugtree_store::StoreError),
    /// Underlying source failure.
    Source(drugtree_sources::SourceError),
    /// Underlying tree failure.
    Phylo(drugtree_phylo::PhyloError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            QueryError::UnknownNode(n) => write!(f, "unknown tree node {n:?}"),
            QueryError::UnknownColumn(c) => write!(f, "unknown column {c:?}"),
            QueryError::UnknownLigand(l) => write!(f, "unknown ligand {l:?}"),
            QueryError::BadSimilarityReference(s) => {
                write!(
                    f,
                    "similarity reference is not valid SMILES or ligand id: {s:?}"
                )
            }
            QueryError::BadSubstructurePattern(s) => {
                write!(
                    f,
                    "substructure pattern is not valid SMILES or ligand id: {s:?}"
                )
            }
            QueryError::Plan(msg) => write!(f, "planning error: {msg}"),
            QueryError::UnknownRule(rule) => write!(f, "unknown optimizer rule {rule:?}"),
            QueryError::Store(e) => write!(f, "store error: {e}"),
            QueryError::Source(e) => write!(f, "source error: {e}"),
            QueryError::Phylo(e) => write!(f, "tree error: {e}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Store(e) => Some(e),
            QueryError::Source(e) => Some(e),
            QueryError::Phylo(e) => Some(e),
            _ => None,
        }
    }
}

impl From<drugtree_store::StoreError> for QueryError {
    fn from(e: drugtree_store::StoreError) -> Self {
        QueryError::Store(e)
    }
}

impl From<drugtree_sources::SourceError> for QueryError {
    fn from(e: drugtree_sources::SourceError) -> Self {
        QueryError::Source(e)
    }
}

impl From<drugtree_phylo::PhyloError> for QueryError {
    fn from(e: drugtree_phylo::PhyloError) -> Self {
        QueryError::Phylo(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = QueryError::Parse {
            offset: 5,
            message: "expected scope".into(),
        };
        assert!(e.to_string().contains("byte 5"));
        assert!(QueryError::UnknownNode("x".into())
            .to_string()
            .contains('x'));
    }
}
