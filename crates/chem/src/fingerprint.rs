//! Hashed linear-path molecular fingerprints.
//!
//! The classic Daylight-style scheme: enumerate all linear atom-bond
//! paths up to a maximum length, hash each path string into a fixed-
//! width bitset, and compare bitsets with Tanimoto similarity. This is
//! the representation DrugTree's "ligands similar to X" queries run on.

use crate::mol::{BondOrder, Molecule};

/// Default fingerprint width in bits.
pub const DEFAULT_BITS: usize = 1024;

/// Default maximum path length (in bonds).
pub const DEFAULT_MAX_PATH: usize = 5;

/// A fixed-width bitset fingerprint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    bits: Vec<u64>,
    nbits: u32,
}

impl Fingerprint {
    /// An empty fingerprint of `nbits` width (rounded up to 64).
    pub fn empty(nbits: usize) -> Fingerprint {
        assert!(nbits > 0, "fingerprint width must be positive");
        Fingerprint {
            bits: vec![0; nbits.div_ceil(64)],
            nbits: nbits as u32,
        }
    }

    /// Width in bits.
    pub fn nbits(&self) -> usize {
        self.nbits as usize
    }

    /// Set one bit (modulo the width).
    #[inline]
    pub fn set(&mut self, bit: u64) {
        let b = (bit % self.nbits as u64) as usize;
        self.bits[b / 64] |= 1u64 << (b % 64);
    }

    /// Test one bit (modulo the width).
    #[inline]
    pub fn get(&self, bit: u64) -> bool {
        let b = (bit % self.nbits as u64) as usize;
        self.bits[b / 64] & (1u64 << (b % 64)) != 0
    }

    /// Number of set bits.
    pub fn popcount(&self) -> u32 {
        self.bits.iter().map(|w| w.count_ones()).sum()
    }

    /// Popcount of the intersection with `other`.
    pub fn and_popcount(&self, other: &Fingerprint) -> u32 {
        self.bits
            .iter()
            .zip(&other.bits)
            .map(|(a, b)| (a & b).count_ones())
            .sum()
    }

    /// Popcount of the union with `other`.
    pub fn or_popcount(&self, other: &Fingerprint) -> u32 {
        self.bits
            .iter()
            .zip(&other.bits)
            .map(|(a, b)| (a | b).count_ones())
            .sum()
    }

    /// Compute the path fingerprint of a molecule with default
    /// parameters.
    pub fn of_molecule(mol: &Molecule) -> Fingerprint {
        Fingerprint::of_molecule_with(mol, DEFAULT_BITS, DEFAULT_MAX_PATH)
    }

    /// Compute the path fingerprint with explicit width and path length.
    pub fn of_molecule_with(mol: &Molecule, nbits: usize, max_path: usize) -> Fingerprint {
        let mut fp = Fingerprint::empty(nbits);
        let n = mol.atom_count();
        // DFS path enumeration from every atom. Paths are encoded as a
        // rolling FNV-1a hash over (atom code, bond code) tokens; both
        // directions of a path hash differently, so we also hash the
        // reverse and set the min — making the bit direction-invariant.
        let mut path: Vec<u64> = Vec::with_capacity(2 * max_path + 1);
        for start in 0..n as u32 {
            let mut visited = vec![false; n];
            visited[start as usize] = true;
            path.push(atom_code(mol, start));
            enumerate_paths(mol, start, max_path, &mut visited, &mut path, &mut fp);
            path.clear();
        }
        fp
    }
}

fn enumerate_paths(
    mol: &Molecule,
    at: u32,
    remaining: usize,
    visited: &mut [bool],
    path: &mut Vec<u64>,
    fp: &mut Fingerprint,
) {
    // Every prefix path (length >= 1 atom) contributes a bit.
    fp.set(direction_invariant_hash(path));
    if remaining == 0 {
        return;
    }
    for &(to, bond) in mol.neighbors(at) {
        if visited[to as usize] {
            continue;
        }
        visited[to as usize] = true;
        path.push(bond_code(mol, bond));
        path.push(atom_code(mol, to));
        enumerate_paths(mol, to, remaining - 1, visited, path, fp);
        path.pop();
        path.pop();
        visited[to as usize] = false;
    }
}

fn atom_code(mol: &Molecule, idx: u32) -> u64 {
    let a = &mol.atoms()[idx as usize];
    (a.element as u64) << 3 | (a.aromatic as u64) << 2 | ((a.charge != 0) as u64)
}

fn bond_code(mol: &Molecule, bond: u32) -> u64 {
    match mol.bonds()[bond as usize].order {
        BondOrder::Single => 101,
        BondOrder::Double => 102,
        BondOrder::Triple => 103,
        BondOrder::Aromatic => 104,
    }
}

fn fnv1a(tokens: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for t in tokens {
        for byte in t.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn direction_invariant_hash(path: &[u64]) -> u64 {
    let fwd = fnv1a(path.iter().copied());
    let rev = fnv1a(path.iter().rev().copied());
    fwd.min(rev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smiles::parse_smiles;

    #[test]
    fn bitset_basics() {
        let mut fp = Fingerprint::empty(128);
        assert_eq!(fp.popcount(), 0);
        fp.set(5);
        fp.set(127);
        fp.set(128 + 5); // wraps onto bit 5
        assert!(fp.get(5));
        assert!(fp.get(127));
        assert!(!fp.get(6));
        assert_eq!(fp.popcount(), 2);
    }

    #[test]
    fn and_or_popcounts() {
        let mut a = Fingerprint::empty(128);
        let mut b = Fingerprint::empty(128);
        a.set(1);
        a.set(2);
        b.set(2);
        b.set(3);
        assert_eq!(a.and_popcount(&b), 1);
        assert_eq!(a.or_popcount(&b), 3);
    }

    #[test]
    fn identical_molecules_identical_fingerprints() {
        let a = Fingerprint::of_molecule(&parse_smiles("CCO").unwrap());
        let b = Fingerprint::of_molecule(&parse_smiles("CCO").unwrap());
        assert_eq!(a, b);
        assert!(a.popcount() > 0);
    }

    #[test]
    fn direction_invariance() {
        // OCC written from the other end is the same molecule with a
        // different atom order; path fingerprints must agree.
        let a = Fingerprint::of_molecule(&parse_smiles("CCO").unwrap());
        let b = Fingerprint::of_molecule(&parse_smiles("OCC").unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn different_molecules_differ() {
        let a = Fingerprint::of_molecule(&parse_smiles("CCO").unwrap());
        let b = Fingerprint::of_molecule(&parse_smiles("CCN").unwrap());
        assert_ne!(a, b);
    }

    #[test]
    fn substructure_paths_are_subset() {
        // Ethane's paths are a subset of propane's.
        let eth = Fingerprint::of_molecule(&parse_smiles("CC").unwrap());
        let prop = Fingerprint::of_molecule(&parse_smiles("CCC").unwrap());
        assert_eq!(eth.and_popcount(&prop), eth.popcount());
    }

    #[test]
    fn larger_molecules_set_more_bits() {
        let small = Fingerprint::of_molecule(&parse_smiles("CC").unwrap());
        let large = Fingerprint::of_molecule(&parse_smiles("Cn1cnc2c1c(=O)n(C)c(=O)n2C").unwrap());
        assert!(large.popcount() > small.popcount());
    }

    #[test]
    fn custom_width() {
        let fp = Fingerprint::of_molecule_with(&parse_smiles("CCO").unwrap(), 256, 3);
        assert_eq!(fp.nbits(), 256);
        assert!(fp.popcount() > 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_panics() {
        let _ = Fingerprint::empty(0);
    }
}
