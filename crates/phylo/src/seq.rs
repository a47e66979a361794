//! Amino-acid alphabet, protein sequences, and FASTA I/O.

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

/// An immutable protein sequence with an identifier and optional
/// free-text description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProteinSequence {
    id: String,
    description: Option<String>,
    residues: Vec<AminoAcid>,
}

impl ProteinSequence {
    /// Build from residues directly.
    pub fn new(id: impl Into<String>, residues: Vec<AminoAcid>) -> Self {
        ProteinSequence {
            id: id.into(),
            description: None,
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
            description: None,
            residues,
        })
    }

    /// Attach a description (FASTA header text after the id).
    pub fn with_description(mut self, description: impl Into<String>) -> Self {
        self.description = Some(description.into());
        self
    }

    /// Sequence identifier (FASTA id token).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Optional description.
    pub fn description(&self) -> Option<&str> {
        self.description.as_deref()
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

    /// One-letter-code rendering of the residues.
    pub fn to_letters(&self) -> String {
        self.residues.iter().map(|r| r.to_char()).collect()
    }
}

/// Parse a multi-record FASTA document.
///
/// Headers are `>` lines; the first whitespace-delimited token is the id,
/// the remainder (if any) the description. Sequence data may span
/// multiple lines. Blank lines are permitted between records.
pub fn parse_fasta(input: &str) -> Result<Vec<ProteinSequence>> {
    let mut records = Vec::new();
    let mut current: Option<(String, Option<String>, String)> = None;

    for line in input.lines() {
        let line = line.trim_end();
        if let Some(header) = line.strip_prefix('>') {
            if let Some((id, desc, body)) = current.take() {
                let seq = ProteinSequence::parse(id, &body)?;
                records.push(match desc {
                    Some(d) => seq.with_description(d),
                    None => seq,
                });
            }
            let header = header.trim();
            if header.is_empty() {
                return Err(PhyloError::MalformedFasta("empty header line".into()));
            }
            let mut parts = header.splitn(2, char::is_whitespace);
            let id = parts.next().unwrap_or_default().to_string();
            let desc = parts
                .next()
                .map(|d| d.trim().to_string())
                .filter(|d| !d.is_empty());
            current = Some((id, desc, String::new()));
        } else if !line.trim().is_empty() {
            match current.as_mut() {
                Some((_, _, body)) => body.push_str(line.trim()),
                None => {
                    return Err(PhyloError::MalformedFasta(
                        "sequence data before first header".into(),
                    ))
                }
            }
        }
    }
    if let Some((id, desc, body)) = current {
        let seq = ProteinSequence::parse(id, &body)?;
        records.push(match desc {
            Some(d) => seq.with_description(d),
            None => seq,
        });
    }
    Ok(records)
}

/// Serialize sequences to FASTA with 60-column wrapping.
pub fn write_fasta(seqs: &[ProteinSequence]) -> String {
    let mut out = String::new();
    for seq in seqs {
        out.push('>');
        out.push_str(seq.id());
        if let Some(desc) = seq.description() {
            out.push(' ');
            out.push_str(desc);
        }
        out.push('\n');
        let letters = seq.to_letters();
        for chunk in letters.as_bytes().chunks(60) {
            // Residue letters are ASCII by construction.
            out.push_str(&String::from_utf8_lossy(chunk));
            out.push('\n');
        }
    }
    out
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
        assert_eq!(s.to_letters(), "ACDEFG");
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn fasta_roundtrip() {
        let input = ">sp|P1 first protein\nACDEFGHIKLMNPQRSTVWY\nACDE\n\n>P2\nMMMM\n";
        let seqs = parse_fasta(input).unwrap();
        assert_eq!(seqs.len(), 2);
        assert_eq!(seqs[0].id(), "sp|P1");
        assert_eq!(seqs[0].description(), Some("first protein"));
        assert_eq!(seqs[0].len(), 24);
        assert_eq!(seqs[1].id(), "P2");
        assert_eq!(seqs[1].description(), None);

        let rendered = write_fasta(&seqs);
        let reparsed = parse_fasta(&rendered).unwrap();
        assert_eq!(reparsed, seqs);
    }

    #[test]
    fn fasta_wraps_long_sequences() {
        let seq = ProteinSequence::parse("long", &"A".repeat(150)).unwrap();
        let text = write_fasta(std::slice::from_ref(&seq));
        let body_lines: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(body_lines.len(), 3);
        assert_eq!(body_lines[0].len(), 60);
        assert_eq!(body_lines[2].len(), 30);
    }

    #[test]
    fn fasta_rejects_dataless_prefix() {
        assert!(matches!(
            parse_fasta("ACDE\n>x\nAA"),
            Err(PhyloError::MalformedFasta(_))
        ));
    }

    #[test]
    fn fasta_rejects_empty_header() {
        assert!(matches!(
            parse_fasta(">\nACDE"),
            Err(PhyloError::MalformedFasta(_))
        ));
    }

    #[test]
    fn fasta_empty_input_is_empty() {
        assert!(parse_fasta("").unwrap().is_empty());
        assert!(parse_fasta("\n\n").unwrap().is_empty());
    }
}
