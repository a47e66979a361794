//! Amino-acid alphabet and protein sequences.

use crate::{PhyloError, Result};
use std::fmt;

/// The 20 canonical amino acids plus `X` (unknown/any).
///
/// The discriminant doubles as the row/column index into scoring
/// matrices (see [`crate::matrices`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
#[allow(missing_docs)] // the three-letter variant names are the documentation
pub enum AminoAcid {
    Ala = 0,
    Arg = 1,
    Asn = 2,
    Asp = 3,
    Cys = 4,
    Gln = 5,
    Glu = 6,
    Gly = 7,
    His = 8,
    Ile = 9,
    Leu = 10,
    Lys = 11,
    Met = 12,
    Phe = 13,
    Pro = 14,
    Ser = 15,
    Thr = 16,
    Trp = 17,
    Tyr = 18,
    Val = 19,
    /// Unknown or ambiguous residue.
    Xaa = 20,
}

/// Number of distinct residue codes (including `Xaa`).
pub const ALPHABET_SIZE: usize = 21;

/// All canonical residues (excluding `Xaa`), in index order.
pub const CANONICAL: [AminoAcid; 20] = [
    AminoAcid::Ala,
    AminoAcid::Arg,
    AminoAcid::Asn,
    AminoAcid::Asp,
    AminoAcid::Cys,
    AminoAcid::Gln,
    AminoAcid::Glu,
    AminoAcid::Gly,
    AminoAcid::His,
    AminoAcid::Ile,
    AminoAcid::Leu,
    AminoAcid::Lys,
    AminoAcid::Met,
    AminoAcid::Phe,
    AminoAcid::Pro,
    AminoAcid::Ser,
    AminoAcid::Thr,
    AminoAcid::Trp,
    AminoAcid::Tyr,
    AminoAcid::Val,
];

impl AminoAcid {
    /// Parse a one-letter IUPAC code (case-insensitive).
    pub fn from_byte(b: u8) -> Option<AminoAcid> {
        Some(match b.to_ascii_uppercase() {
            b'A' => AminoAcid::Ala,
            b'R' => AminoAcid::Arg,
            b'N' => AminoAcid::Asn,
            b'D' => AminoAcid::Asp,
            b'C' => AminoAcid::Cys,
            b'Q' => AminoAcid::Gln,
            b'E' => AminoAcid::Glu,
            b'G' => AminoAcid::Gly,
            b'H' => AminoAcid::His,
            b'I' => AminoAcid::Ile,
            b'L' => AminoAcid::Leu,
            b'K' => AminoAcid::Lys,
            b'M' => AminoAcid::Met,
            b'F' => AminoAcid::Phe,
            b'P' => AminoAcid::Pro,
            b'S' => AminoAcid::Ser,
            b'T' => AminoAcid::Thr,
            b'W' => AminoAcid::Trp,
            b'Y' => AminoAcid::Tyr,
            b'V' => AminoAcid::Val,
            b'X' | b'B' | b'Z' | b'J' | b'U' | b'O' => AminoAcid::Xaa,
            _ => return None,
        })
    }

    /// One-letter IUPAC code.
    pub fn to_char(self) -> char {
        b"ARNDCQEGHILKMFPSTWYVX"[self as usize] as char
    }

    /// Index into scoring matrices.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for AminoAcid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

/// An immutable protein sequence with an identifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProteinSequence {
    id: String,
    residues: Vec<AminoAcid>,
}

impl ProteinSequence {
    /// Build from residues directly.
    pub fn new(id: impl Into<String>, residues: Vec<AminoAcid>) -> Self {
        ProteinSequence {
            id: id.into(),
            residues,
        }
    }

    /// Parse from a one-letter-code string; whitespace is ignored.
    pub fn parse(id: impl Into<String>, text: &str) -> Result<Self> {
        let mut residues = Vec::with_capacity(text.len());
        for (pos, b) in text.bytes().enumerate() {
            if b.is_ascii_whitespace() {
                continue;
            }
            let aa = AminoAcid::from_byte(b).ok_or(PhyloError::InvalidResidue {
                position: pos,
                byte: b,
            })?;
            residues.push(aa);
        }
        Ok(ProteinSequence {
            id: id.into(),
            residues,
        })
    }

    /// Sequence identifier.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Residues, in order.
    pub fn residues(&self) -> &[AminoAcid] {
        &self.residues
    }

    /// Number of residues.
    pub fn len(&self) -> usize {
        self.residues.len()
    }

    /// True when the sequence has no residues.
    pub fn is_empty(&self) -> bool {
        self.residues.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residue_roundtrip_through_char() {
        for aa in CANONICAL {
            let parsed = AminoAcid::from_byte(aa.to_char() as u8).unwrap();
            assert_eq!(parsed, aa);
        }
        assert_eq!(AminoAcid::from_byte(b'x'), Some(AminoAcid::Xaa));
        assert_eq!(AminoAcid::from_byte(b'1'), None);
        assert_eq!(AminoAcid::from_byte(b'*'), None);
    }

    #[test]
    fn parse_rejects_bad_residue() {
        let err = ProteinSequence::parse("s", "AC*DE").unwrap_err();
        assert_eq!(
            err,
            PhyloError::InvalidResidue {
                position: 2,
                byte: b'*'
            }
        );
    }

    #[test]
    fn parse_skips_whitespace() {
        let s = ProteinSequence::parse("s", "ACD\n EFg").unwrap();
        let letters: String = s.residues().iter().map(|r| r.to_char()).collect();
        assert_eq!(letters, "ACDEFG");
        assert_eq!(s.len(), 6);
    }
}
