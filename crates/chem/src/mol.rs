//! Molecule graphs: atoms, bonds, rings, implicit hydrogens.

use crate::element::Element;
use crate::{ChemError, Result};

/// Bond order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BondOrder {
    /// Single bond.
    Single,
    /// Double bond.
    Double,
    /// Triple bond.
    Triple,
    /// Delocalized aromatic bond (order 1.5).
    Aromatic,
}

impl BondOrder {
    /// Bond order in half-units (single = 2), so aromatic bonds can be
    /// represented exactly as 3 (= 1.5).
    #[inline]
    pub fn half_units(self) -> u32 {
        match self {
            BondOrder::Single => 2,
            BondOrder::Double => 4,
            BondOrder::Triple => 6,
            BondOrder::Aromatic => 3,
        }
    }
}

/// One atom of a molecule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Atom {
    /// Chemical element.
    pub element: Element,
    /// Participates in an aromatic system (lowercase in SMILES).
    pub aromatic: bool,
    /// Formal charge.
    pub charge: i8,
    /// Explicit hydrogen count from a bracket expression; `None` means
    /// hydrogens are implicit (computed from valence).
    pub explicit_h: Option<u8>,
}

impl Atom {
    /// A neutral, non-aromatic atom with implicit hydrogens.
    pub fn new(element: Element) -> Atom {
        Atom {
            element,
            aromatic: false,
            charge: 0,
            explicit_h: None,
        }
    }

    /// Aromatic version of the atom.
    pub fn aromatic(element: Element) -> Atom {
        Atom {
            element,
            aromatic: true,
            charge: 0,
            explicit_h: None,
        }
    }
}

/// One bond of a molecule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bond {
    /// First endpoint (atom index).
    pub a: u32,
    /// Second endpoint (atom index).
    pub b: u32,
    /// Bond order.
    pub order: BondOrder,
}

/// A small-molecule graph.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Molecule {
    atoms: Vec<Atom>,
    bonds: Vec<Bond>,
    /// Adjacency: per atom, (neighbor atom index, bond index).
    adjacency: Vec<Vec<(u32, u32)>>,
}

impl Molecule {
    /// An empty molecule.
    pub fn new() -> Molecule {
        Molecule::default()
    }

    /// Add an atom, returning its index.
    pub fn add_atom(&mut self, atom: Atom) -> u32 {
        let idx = self.atoms.len() as u32;
        self.atoms.push(atom);
        self.adjacency.push(Vec::new());
        idx
    }

    /// Add a bond between two distinct existing atoms.
    pub fn add_bond(&mut self, a: u32, b: u32, order: BondOrder) -> Result<u32> {
        if a as usize >= self.atoms.len() {
            return Err(ChemError::UnknownAtom(a as usize));
        }
        if b as usize >= self.atoms.len() {
            return Err(ChemError::UnknownAtom(b as usize));
        }
        if a == b {
            return Err(ChemError::InvalidBond(format!("self-bond on atom {a}")));
        }
        if self.bond_between(a, b).is_some() {
            return Err(ChemError::InvalidBond(format!("duplicate bond {a}-{b}")));
        }
        let idx = self.bonds.len() as u32;
        self.bonds.push(Bond { a, b, order });
        self.adjacency[a as usize].push((b, idx));
        self.adjacency[b as usize].push((a, idx));
        Ok(idx)
    }

    /// Number of atoms (heavy atoms; explicit H atoms count if added).
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// Number of bonds.
    pub fn bond_count(&self) -> usize {
        self.bonds.len()
    }

    /// All atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// All bonds.
    pub fn bonds(&self) -> &[Bond] {
        &self.bonds
    }

    /// Borrow one atom.
    pub fn atom(&self, idx: u32) -> Result<&Atom> {
        self.atoms
            .get(idx as usize)
            .ok_or(ChemError::UnknownAtom(idx as usize))
    }

    /// Neighbors of an atom as (atom index, bond index) pairs.
    pub fn neighbors(&self, idx: u32) -> &[(u32, u32)] {
        &self.adjacency[idx as usize]
    }

    /// Degree (number of explicit bonds) of an atom.
    pub fn degree(&self, idx: u32) -> usize {
        self.adjacency[idx as usize].len()
    }

    /// Bond index between two atoms, if any.
    pub fn bond_between(&self, a: u32, b: u32) -> Option<u32> {
        self.adjacency
            .get(a as usize)?
            .iter()
            .find(|&&(n, _)| n == b)
            .map(|&(_, bond)| bond)
    }

    /// Implicit hydrogen count of an atom under the SMILES normal-
    /// valence model. Explicit bracket hydrogens override the estimate.
    pub fn hydrogens(&self, idx: u32) -> u32 {
        let atom = &self.atoms[idx as usize];
        if let Some(h) = atom.explicit_h {
            return h as u32;
        }
        let bond_half_units: u32 = self.adjacency[idx as usize]
            .iter()
            .map(|&(_, b)| self.bonds[b as usize].order.half_units())
            .sum();
        let valence_half = atom.element.default_valence() as u32 * 2;
        // Charge adjusts the available valence (e.g. N+ carries 4 bonds).
        let valence_half = (valence_half as i64 + 2 * atom.charge as i64).max(0) as u32;
        valence_half.saturating_sub(bond_half_units) / 2
    }

    /// Total hydrogen count over all atoms.
    pub fn total_hydrogens(&self) -> u32 {
        (0..self.atoms.len() as u32)
            .map(|i| self.hydrogens(i))
            .sum()
    }

    /// Number of connected components.
    pub fn component_count(&self) -> usize {
        let n = self.atoms.len();
        let mut seen = vec![false; n];
        let mut components = 0;
        for start in 0..n {
            if seen[start] {
                continue;
            }
            components += 1;
            let mut stack = vec![start as u32];
            seen[start] = true;
            while let Some(v) = stack.pop() {
                for &(nb, _) in &self.adjacency[v as usize] {
                    if !seen[nb as usize] {
                        seen[nb as usize] = true;
                        stack.push(nb);
                    }
                }
            }
        }
        components
    }

    /// Smallest-set-of-smallest-rings *count* via the cyclomatic number:
    /// `bonds - atoms + components`.
    pub fn ring_count(&self) -> usize {
        (self.bonds.len() + self.component_count()).saturating_sub(self.atoms.len())
    }

    /// Per-bond flag: true when the bond lies on a cycle (is not a
    /// bridge). Computed with a DFS low-link bridge search.
    pub fn ring_bonds(&self) -> Vec<bool> {
        let n = self.atoms.len();
        let m = self.bonds.len();
        let mut in_ring = vec![true; m];
        let mut disc = vec![u32::MAX; n];
        let mut low = vec![0u32; n];
        let mut timer = 0u32;

        // Iterative DFS to avoid recursion on large molecules.
        for root in 0..n {
            if disc[root] != u32::MAX {
                continue;
            }
            // Stack entries: (vertex, incoming bond, next neighbor slot).
            let mut stack: Vec<(u32, Option<u32>, usize)> = vec![(root as u32, None, 0)];
            disc[root] = timer;
            low[root] = timer;
            timer += 1;
            while let Some(top) = stack.last().copied() {
                let (v, in_bond, slot) = top;
                if slot < self.adjacency[v as usize].len() {
                    if let Some(entry) = stack.last_mut() {
                        entry.2 += 1;
                    }
                    let (to, bond) = self.adjacency[v as usize][slot];
                    if Some(bond) == in_bond {
                        continue;
                    }
                    if disc[to as usize] == u32::MAX {
                        disc[to as usize] = timer;
                        low[to as usize] = timer;
                        timer += 1;
                        stack.push((to, Some(bond), 0));
                    } else {
                        low[v as usize] = low[v as usize].min(disc[to as usize]);
                    }
                } else {
                    stack.pop();
                    if let Some(&(parent, _, _)) = stack.last() {
                        low[parent as usize] = low[parent as usize].min(low[v as usize]);
                        if let Some(bond) = in_bond {
                            if low[v as usize] > disc[parent as usize] {
                                in_ring[bond as usize] = false; // bridge
                            }
                        }
                    }
                }
            }
        }
        // Bonds whose removal disconnects (bridges) are not in rings;
        // everything else is.
        in_ring
    }

    /// Per-atom flag: true when the atom lies on at least one ring bond.
    pub fn ring_atoms(&self) -> Vec<bool> {
        let ring_bonds = self.ring_bonds();
        let mut flags = vec![false; self.atoms.len()];
        for (i, bond) in self.bonds.iter().enumerate() {
            if ring_bonds[i] {
                flags[bond.a as usize] = true;
                flags[bond.b as usize] = true;
            }
        }
        flags
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linear propane: C-C-C.
    fn propane() -> Molecule {
        let mut m = Molecule::new();
        let c0 = m.add_atom(Atom::new(Element::C));
        let c1 = m.add_atom(Atom::new(Element::C));
        let c2 = m.add_atom(Atom::new(Element::C));
        m.add_bond(c0, c1, BondOrder::Single).unwrap();
        m.add_bond(c1, c2, BondOrder::Single).unwrap();
        m
    }

    /// Benzene ring of aromatic carbons.
    fn benzene() -> Molecule {
        let mut m = Molecule::new();
        let atoms: Vec<u32> = (0..6)
            .map(|_| m.add_atom(Atom::aromatic(Element::C)))
            .collect();
        for i in 0..6 {
            m.add_bond(atoms[i], atoms[(i + 1) % 6], BondOrder::Aromatic)
                .unwrap();
        }
        m
    }

    #[test]
    fn construction_and_validation() {
        let mut m = propane();
        assert_eq!(m.atom_count(), 3);
        assert_eq!(m.bond_count(), 2);
        assert_eq!(m.degree(1), 2);
        assert!(m.bond_between(0, 1).is_some());
        assert!(m.bond_between(0, 2).is_none());
        assert!(matches!(
            m.add_bond(0, 0, BondOrder::Single),
            Err(ChemError::InvalidBond(_))
        ));
        assert!(matches!(
            m.add_bond(0, 9, BondOrder::Single),
            Err(ChemError::UnknownAtom(9))
        ));
        assert!(matches!(
            m.add_bond(0, 1, BondOrder::Double),
            Err(ChemError::InvalidBond(_))
        ));
    }

    #[test]
    fn implicit_hydrogens_propane() {
        let m = propane();
        assert_eq!(m.hydrogens(0), 3);
        assert_eq!(m.hydrogens(1), 2);
        assert_eq!(m.hydrogens(2), 3);
        assert_eq!(m.total_hydrogens(), 8);
    }

    #[test]
    fn implicit_hydrogens_benzene() {
        let m = benzene();
        for i in 0..6 {
            assert_eq!(m.hydrogens(i), 1, "atom {i}");
        }
    }

    #[test]
    fn explicit_h_overrides() {
        let mut m = Molecule::new();
        let n = m.add_atom(Atom {
            element: Element::N,
            aromatic: false,
            charge: 1,
            explicit_h: Some(4),
        });
        assert_eq!(m.hydrogens(n), 4);
    }

    #[test]
    fn charge_adjusts_valence() {
        let mut m = Molecule::new();
        // N+ has effective valence 4 -> NH4+ without explicit H.
        let n = m.add_atom(Atom {
            element: Element::N,
            aromatic: false,
            charge: 1,
            explicit_h: None,
        });
        assert_eq!(m.hydrogens(n), 4);
        // O- has effective valence 1.
        let o = m.add_atom(Atom {
            element: Element::O,
            aromatic: false,
            charge: -1,
            explicit_h: None,
        });
        assert_eq!(m.hydrogens(o), 1);
    }

    #[test]
    fn ring_detection() {
        let m = benzene();
        assert_eq!(m.ring_count(), 1);
        assert!(m.ring_bonds().iter().all(|&b| b));
        assert!(m.ring_atoms().iter().all(|&a| a));

        let m = propane();
        assert_eq!(m.ring_count(), 0);
        assert!(m.ring_bonds().iter().all(|&b| !b));
    }

    #[test]
    fn toluene_has_one_non_ring_bond() {
        let mut m = benzene();
        let methyl = m.add_atom(Atom::new(Element::C));
        m.add_bond(0, methyl, BondOrder::Single).unwrap();
        let ring = m.ring_bonds();
        assert_eq!(ring.iter().filter(|&&b| b).count(), 6);
        assert_eq!(ring.iter().filter(|&&b| !b).count(), 1);
        assert_eq!(m.ring_count(), 1);
        let atoms = m.ring_atoms();
        assert!(!atoms[methyl as usize]);
    }

    #[test]
    fn fused_rings_counted_by_cyclomatic_number() {
        // Naphthalene skeleton: two fused 6-rings, 10 atoms, 11 bonds.
        let mut m = Molecule::new();
        let a: Vec<u32> = (0..10)
            .map(|_| m.add_atom(Atom::aromatic(Element::C)))
            .collect();
        let edges = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 0),
            (0, 6),
            (6, 7),
            (7, 8),
            (8, 9),
            (9, 5),
        ];
        for (x, y) in edges {
            m.add_bond(a[x], a[y], BondOrder::Aromatic).unwrap();
        }
        assert_eq!(m.ring_count(), 2);
        assert!(m.ring_bonds().iter().all(|&b| b));
    }

    #[test]
    fn components() {
        let mut m = propane();
        m.add_atom(Atom::new(Element::O)); // disconnected water oxygen
        assert_eq!(m.component_count(), 2);
        assert_eq!(m.ring_count(), 0);
        assert_eq!(benzene().component_count(), 1);
    }
}
