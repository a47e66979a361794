//! Physicochemical descriptors for drug-likeness filtering.
//!
//! DrugTree query predicates filter ligands on exactly these properties
//! ("MW < 500", "hbd <= 5", …), so the descriptor set mirrors what a
//! 2013-era medicinal-chemistry database exposes.

use crate::element::Element;
use crate::mol::{BondOrder, Molecule};

/// Computed descriptor block for one molecule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Descriptors {
    /// Molecular weight, including implicit hydrogens (g/mol).
    pub molecular_weight: f64,
    /// Heavy (non-hydrogen) atom count.
    pub heavy_atoms: u32,
    /// Ring count (cyclomatic number).
    pub rings: u32,
    /// Aromatic atom count.
    pub aromatic_atoms: u32,
    /// Hydrogen-bond donors (N/O bearing at least one H).
    pub hbd: u32,
    /// Hydrogen-bond acceptors (N/O atoms).
    pub hba: u32,
    /// Rotatable bonds (non-ring single bonds between non-terminal
    /// heavy atoms).
    pub rotatable_bonds: u32,
    /// Net formal charge.
    pub net_charge: i32,
}

impl Descriptors {
    /// Compute all descriptors in one pass over the molecule.
    pub fn compute(mol: &Molecule) -> Descriptors {
        let mut mw = 0.0;
        let mut hbd = 0;
        let mut hba = 0;
        let mut aromatic_atoms = 0;
        let mut net_charge = 0i32;

        for (i, atom) in mol.atoms().iter().enumerate() {
            let h = mol.hydrogens(i as u32);
            mw += atom.element.atomic_mass() + h as f64 * Element::H.atomic_mass();
            net_charge += atom.charge as i32;
            if atom.aromatic {
                aromatic_atoms += 1;
            }
            if matches!(atom.element, Element::N | Element::O) {
                hba += 1;
                if h > 0 {
                    hbd += 1;
                }
            }
        }

        let ring_bonds = mol.ring_bonds();
        let mut rotatable = 0;
        for (bi, bond) in mol.bonds().iter().enumerate() {
            if bond.order == BondOrder::Single
                && !ring_bonds[bi]
                && mol.degree(bond.a) > 1
                && mol.degree(bond.b) > 1
            {
                rotatable += 1;
            }
        }

        Descriptors {
            molecular_weight: mw,
            heavy_atoms: mol.atom_count() as u32,
            rings: mol.ring_count() as u32,
            aromatic_atoms,
            hbd,
            hba,
            rotatable_bonds: rotatable,
            net_charge,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smiles::parse_smiles;

    #[test]
    fn water_free_methane() {
        let d = Descriptors::compute(&parse_smiles("C").unwrap());
        assert!((d.molecular_weight - 16.043).abs() < 0.01);
        assert_eq!(d.heavy_atoms, 1);
        assert_eq!(d.hbd, 0);
        assert_eq!(d.hba, 0);
        assert_eq!(d.rotatable_bonds, 0);
    }

    #[test]
    fn ethanol() {
        let d = Descriptors::compute(&parse_smiles("CCO").unwrap());
        assert!((d.molecular_weight - 46.07).abs() < 0.05);
        assert_eq!(d.hbd, 1);
        assert_eq!(d.hba, 1);
        // C-C and C-O both touch a terminal heavy atom.
        assert_eq!(d.rotatable_bonds, 0);
    }

    #[test]
    fn butane_rotatable() {
        let d = Descriptors::compute(&parse_smiles("CCCC").unwrap());
        assert_eq!(d.rotatable_bonds, 1);
        let d = Descriptors::compute(&parse_smiles("CCCCC").unwrap());
        assert_eq!(d.rotatable_bonds, 2);
    }

    #[test]
    fn benzene_descriptors() {
        let d = Descriptors::compute(&parse_smiles("c1ccccc1").unwrap());
        assert!((d.molecular_weight - 78.11).abs() < 0.05);
        assert_eq!(d.rings, 1);
        assert_eq!(d.aromatic_atoms, 6);
        assert_eq!(d.rotatable_bonds, 0);
    }

    #[test]
    fn aspirin_descriptors() {
        let d = Descriptors::compute(&parse_smiles("CC(=O)Oc1ccccc1C(=O)O").unwrap());
        assert!(
            (d.molecular_weight - 180.16).abs() < 0.2,
            "mw = {}",
            d.molecular_weight
        );
        assert_eq!(d.hbd, 1); // carboxylic OH
        assert_eq!(d.hba, 4); // four oxygens
        assert_eq!(d.rings, 1);
    }

    #[test]
    fn charged_species() {
        let d = Descriptors::compute(&parse_smiles("[NH4+].[O-]C=O").unwrap());
        assert_eq!(d.net_charge, 0);
        assert!(d.hbd >= 1);
    }

    #[test]
    fn polyol_descriptors() {
        // A long polyol: lots of donors/acceptors and high weight.
        let polyol = "OCC(O)C(O)C(O)C(O)C(O)C(O)C(O)C(O)C(O)C(O)C(O)C(O)C(O)C(O)C(O)CO";
        let d = Descriptors::compute(&parse_smiles(polyol).unwrap());
        assert!(d.molecular_weight > 500.0);
        assert!(d.hbd > 5);
        assert!(d.hba > 10);
    }
}
