//! Error type shared across the phylogenetics substrate.

use std::fmt;

/// Errors produced while parsing sequences, building trees, or indexing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhyloError {
    /// A residue character outside the accepted amino-acid alphabet.
    InvalidResidue {
        /// Byte offset of the residue.
        position: usize,
        /// The offending byte.
        byte: u8,
    },
    /// Newick input could not be parsed.
    MalformedNewick {
        /// Byte offset of the error.
        offset: usize,
        /// What was expected.
        message: String,
    },
    /// Sequences of unequal length were given to an aligned-input routine.
    LengthMismatch {
        /// Left length.
        left: usize,
        /// Right length.
        right: usize,
    },
    /// A distance matrix was queried or built with inconsistent dimensions.
    BadDimensions(String),
    /// Tree construction needs at least two taxa.
    TooFewTaxa(usize),
    /// A node id that does not belong to the tree was used.
    UnknownNode(u32),
    /// A label lookup failed.
    UnknownLabel(String),
    /// The operation requires a strictly positive / finite value.
    InvalidValue(String),
}

impl fmt::Display for PhyloError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhyloError::InvalidResidue { position, byte } => write!(
                f,
                "invalid residue byte 0x{byte:02x} at position {position}"
            ),
            PhyloError::MalformedNewick { offset, message } => {
                write!(f, "malformed Newick at byte {offset}: {message}")
            }
            PhyloError::LengthMismatch { left, right } => {
                write!(f, "sequence length mismatch: {left} vs {right}")
            }
            PhyloError::BadDimensions(msg) => write!(f, "bad matrix dimensions: {msg}"),
            PhyloError::TooFewTaxa(n) => {
                write!(f, "tree construction requires at least 2 taxa, got {n}")
            }
            PhyloError::UnknownNode(id) => write!(f, "unknown node id {id}"),
            PhyloError::UnknownLabel(l) => write!(f, "unknown node label {l:?}"),
            PhyloError::InvalidValue(msg) => write!(f, "invalid value: {msg}"),
        }
    }
}

impl std::error::Error for PhyloError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = PhyloError::InvalidResidue {
            position: 3,
            byte: b'@',
        };
        assert!(e.to_string().contains("0x40"));
        assert!(e.to_string().contains("position 3"));
        let e = PhyloError::LengthMismatch { left: 4, right: 9 };
        assert!(e.to_string().contains("4 vs 9"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PhyloError>();
    }
}
