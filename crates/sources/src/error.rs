//! Error type for the source layer.

use std::fmt;

/// Errors from source fetches and federation.
///
/// Marked `#[non_exhaustive]`: downstream matches must keep a
/// wildcard arm so new failure kinds can be added without a breaking
/// release. Wrapped lower-layer errors are reachable through
/// [`std::error::Error::source`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SourceError {
    /// The source cannot evaluate the requested pushdown.
    UnsupportedPushdown {
        /// Source name.
        source: String,
        /// Rejected predicate rendering.
        reason: String,
    },
    /// A batch exceeded the source's maximum batch size.
    BatchTooLarge {
        /// Source name.
        source: String,
        /// Maximum accepted keys per request.
        max: usize,
        /// Keys supplied.
        got: usize,
    },
    /// No source with that name/kind is registered.
    UnknownSource(String),
    /// A source with the same name is already registered.
    DuplicateSource(String),
    /// Underlying store failure surfaced through the source.
    Store(drugtree_store::StoreError),
    /// A record offered to a source failed chemistry-level validation.
    Record(drugtree_chem::ChemError),
    /// The source does not accept ingests (named source).
    IngestRejected(String),
    /// A transient failure (timeout/503): safe to retry. Carries the
    /// virtual cost the failed attempt burned.
    Transient {
        /// Source name.
        source: String,
        /// Virtual time the failed attempt cost.
        cost: std::time::Duration,
    },
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::UnsupportedPushdown { source, reason } => {
                write!(f, "source {source:?} cannot push down predicate: {reason}")
            }
            SourceError::BatchTooLarge { source, max, got } => {
                write!(f, "source {source:?} accepts batches of {max}, got {got}")
            }
            SourceError::UnknownSource(name) => write!(f, "unknown source {name:?}"),
            SourceError::DuplicateSource(name) => {
                write!(f, "source {name:?} already registered")
            }
            SourceError::Store(e) => write!(f, "store error: {e}"),
            SourceError::Record(e) => write!(f, "invalid record: {e}"),
            SourceError::IngestRejected(name) => {
                write!(f, "source {name:?} does not accept ingests")
            }
            SourceError::Transient { source, cost } => {
                write!(f, "transient failure at {source:?} after {cost:?}")
            }
        }
    }
}

impl std::error::Error for SourceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SourceError::Store(e) => Some(e),
            SourceError::Record(e) => Some(e),
            _ => None,
        }
    }
}

impl From<drugtree_store::StoreError> for SourceError {
    fn from(e: drugtree_store::StoreError) -> SourceError {
        SourceError::Store(e)
    }
}

impl From<drugtree_chem::ChemError> for SourceError {
    fn from(e: drugtree_chem::ChemError) -> SourceError {
        SourceError::Record(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = SourceError::BatchTooLarge {
            source: "chembl".into(),
            max: 50,
            got: 80,
        };
        assert!(e.to_string().contains("50"));
        assert!(e.to_string().contains("80"));
    }
}
