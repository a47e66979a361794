//! Error type for the integration layer.

use std::fmt;

/// Errors from entity resolution or overlay construction.
///
/// Marked `#[non_exhaustive]`: downstream matches must keep a
/// wildcard arm so new failure kinds can be added without a breaking
/// release. Wrapped lower-layer errors are reachable through
/// [`std::error::Error::source`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IntegrateError {
    /// No acceptable match for an entity reference.
    Unresolved {
        /// The unresolvable reference.
        reference: String,
        /// The nearest rejected candidate, if any.
        best_candidate: Option<String>,
    },
    /// Underlying store failure.
    Store(drugtree_store::StoreError),
    /// Underlying tree failure.
    Phylo(drugtree_phylo::PhyloError),
    /// Tree/overlay inconsistency.
    Overlay(String),
}

impl fmt::Display for IntegrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegrateError::Unresolved {
                reference,
                best_candidate,
            } => match best_candidate {
                Some(c) => write!(
                    f,
                    "could not resolve {reference:?} (closest candidate: {c:?})"
                ),
                None => write!(f, "could not resolve {reference:?} (no candidates)"),
            },
            IntegrateError::Store(e) => write!(f, "store error: {e}"),
            IntegrateError::Phylo(e) => write!(f, "tree error: {e}"),
            IntegrateError::Overlay(msg) => write!(f, "overlay error: {msg}"),
        }
    }
}

impl std::error::Error for IntegrateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IntegrateError::Store(e) => Some(e),
            IntegrateError::Phylo(e) => Some(e),
            _ => None,
        }
    }
}

impl From<drugtree_store::StoreError> for IntegrateError {
    fn from(e: drugtree_store::StoreError) -> Self {
        IntegrateError::Store(e)
    }
}

impl From<drugtree_phylo::PhyloError> for IntegrateError {
    fn from(e: drugtree_phylo::PhyloError) -> Self {
        IntegrateError::Phylo(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = IntegrateError::Unresolved {
            reference: "kinaze A".into(),
            best_candidate: Some("kinase A".into()),
        };
        assert!(e.to_string().contains("kinase A"));
        let e = IntegrateError::Unresolved {
            reference: "x".into(),
            best_candidate: None,
        };
        assert!(e.to_string().contains("no candidates"));
    }
}
