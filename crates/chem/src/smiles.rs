//! SMILES parsing and writing for a drug-like subset.
//!
//! Supported dialect: the organic subset (`B C N O P S F Cl Br I`),
//! aromatic lowercase atoms (`b c n o p s`), bracket atoms with
//! isotope (ignored), chirality markers (ignored), explicit hydrogen
//! counts and formal charges, bond symbols `- = # :`, branches,
//! two-digit `%nn` ring closures, and `.`-separated components. This
//! covers the ChEMBL-style ligand strings a DrugTree deployment would
//! ingest.

use crate::element::Element;
use crate::mol::{Atom, BondOrder, Molecule};
use crate::{ChemError, Result};

/// The most atoms a parsed molecule may hold. Ligand records are
/// external input; the canonical ranking is quadratic in the atom count
/// and the writer's depth-first walk recurses once per chain atom, so an
/// unbounded molecule could stall or abort ingest. Drug-like ligands
/// hold tens of heavy atoms.
pub const MAX_ATOMS: usize = 1_024;

/// Parse a SMILES string into a [`Molecule`] of at most [`MAX_ATOMS`]
/// atoms.
pub fn parse_smiles(input: &str) -> Result<Molecule> {
    Parser {
        bytes: input.as_bytes(),
        pos: 0,
    }
    .parse()
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

#[derive(Clone, Copy)]
struct PendingBond {
    order: Option<BondOrder>,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ChemError {
        ChemError::MalformedSmiles {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn parse(mut self) -> Result<Molecule> {
        let mut mol = Molecule::new();
        // Stack of "previous atom" indices for branch handling.
        let mut stack: Vec<u32> = Vec::new();
        let mut prev: Option<u32> = None;
        let mut pending = PendingBond { order: None };
        // Open ring closures: number -> (atom, bond order at open site).
        let mut rings: std::collections::HashMap<u16, (u32, Option<BondOrder>)> =
            std::collections::HashMap::new();

        while let Some(b) = self.peek() {
            match b {
                b'(' => {
                    self.bump();
                    let cur = prev.ok_or_else(|| self.err("branch before any atom"))?;
                    stack.push(cur);
                }
                b')' => {
                    self.bump();
                    prev = Some(stack.pop().ok_or_else(|| self.err("unmatched ')'"))?);
                    pending = PendingBond { order: None };
                }
                b'-' => {
                    self.bump();
                    pending.order = Some(BondOrder::Single);
                }
                b'=' => {
                    self.bump();
                    pending.order = Some(BondOrder::Double);
                }
                b'#' => {
                    self.bump();
                    pending.order = Some(BondOrder::Triple);
                }
                b':' => {
                    self.bump();
                    pending.order = Some(BondOrder::Aromatic);
                }
                b'/' | b'\\' => {
                    // Cis/trans markers act as single bonds; geometry is
                    // out of scope for the ligand model.
                    self.bump();
                    pending.order = Some(BondOrder::Single);
                }
                b'.' => {
                    if pending.order.is_some() {
                        return Err(self.err("bond symbol before '.'"));
                    }
                    if prev.is_none() {
                        return Err(self.err("'.' must follow an atom"));
                    }
                    self.bump();
                    prev = None;
                }
                b'0'..=b'9' | b'%' => {
                    let num = self.parse_ring_number()?;
                    let cur = prev.ok_or_else(|| self.err("ring closure before any atom"))?;
                    match rings.remove(&num) {
                        None => {
                            rings.insert(num, (cur, pending.order));
                            pending.order = None;
                        }
                        Some((other, open_order)) => {
                            let order = match (open_order, pending.order) {
                                (Some(a), Some(b)) if a != b => {
                                    return Err(self.err("conflicting bond orders at ring closure"))
                                }
                                (Some(a), _) => Some(a),
                                (None, b) => b,
                            };
                            let order = order.unwrap_or_else(|| default_bond(&mol, other, cur));
                            pending.order = None;
                            mol.add_bond(other, cur, order)
                                .map_err(|e| self.err(e.to_string()))?;
                        }
                    }
                }
                _ => {
                    if mol.atom_count() == MAX_ATOMS {
                        return Err(self.err(format!("more than MAX_ATOMS = {MAX_ATOMS} atoms")));
                    }
                    let atom = self.parse_atom()?;
                    let idx = mol.add_atom(atom);
                    if let Some(p) = prev {
                        let order = pending.order.unwrap_or_else(|| default_bond(&mol, p, idx));
                        mol.add_bond(p, idx, order)
                            .map_err(|e| self.err(e.to_string()))?;
                    }
                    pending = PendingBond { order: None };
                    prev = Some(idx);
                }
            }
        }
        if !stack.is_empty() {
            return Err(self.err("unmatched '('"));
        }
        if !rings.is_empty() {
            let nums: Vec<u16> = rings.keys().copied().collect();
            return Err(self.err(format!("unclosed ring bond(s): {nums:?}")));
        }
        if pending.order.is_some() {
            return Err(self.err("dangling bond symbol at end of input"));
        }
        Ok(mol)
    }

    fn parse_ring_number(&mut self) -> Result<u16> {
        match self.bump() {
            Some(b'%') => {
                let d1 = self.bump().filter(u8::is_ascii_digit);
                let d2 = self.bump().filter(u8::is_ascii_digit);
                match (d1, d2) {
                    (Some(a), Some(b)) => Ok(((a - b'0') as u16) * 10 + (b - b'0') as u16),
                    _ => Err(self.err("'%' must be followed by two digits")),
                }
            }
            Some(d) if d.is_ascii_digit() => Ok((d - b'0') as u16),
            _ => Err(self.err("expected ring closure digit")),
        }
    }

    fn parse_atom(&mut self) -> Result<Atom> {
        match self.peek() {
            Some(b'[') => self.parse_bracket_atom(),
            Some(_) => self.parse_organic_atom(),
            None => Err(self.err("expected atom")),
        }
    }

    fn parse_organic_atom(&mut self) -> Result<Atom> {
        let b = self.bump().ok_or_else(|| self.err("expected atom"))?;
        let two = |p: &Self, next: u8| p.peek() == Some(next);
        let atom = match b {
            b'C' if two(self, b'l') => {
                self.bump();
                Atom::new(Element::Cl)
            }
            b'B' if two(self, b'r') => {
                self.bump();
                Atom::new(Element::Br)
            }
            b'B' => Atom::new(Element::B),
            b'C' => Atom::new(Element::C),
            b'N' => Atom::new(Element::N),
            b'O' => Atom::new(Element::O),
            b'P' => Atom::new(Element::P),
            b'S' => Atom::new(Element::S),
            b'F' => Atom::new(Element::F),
            b'I' => Atom::new(Element::I),
            b'b' => Atom::aromatic(Element::B),
            b'c' => Atom::aromatic(Element::C),
            b'n' => Atom::aromatic(Element::N),
            b'o' => Atom::aromatic(Element::O),
            b'p' => Atom::aromatic(Element::P),
            b's' => Atom::aromatic(Element::S),
            other => {
                self.pos -= 1;
                return Err(self.err(format!("unexpected character {:?}", other as char)));
            }
        };
        Ok(atom)
    }

    fn parse_bracket_atom(&mut self) -> Result<Atom> {
        debug_assert_eq!(self.peek(), Some(b'['));
        self.bump();

        // Optional isotope (ignored).
        while matches!(self.peek(), Some(d) if d.is_ascii_digit()) {
            self.bump();
        }

        // Element symbol: uppercase + optional lowercase, or a bare
        // aromatic lowercase.
        let aromatic;
        let element = match self.peek() {
            Some(c @ b'a'..=b'z') => {
                self.bump();
                aromatic = true;
                let sym = (c.to_ascii_uppercase() as char).to_string();
                Element::from_symbol(&sym)
                    .filter(|e| e.supports_aromatic())
                    .ok_or_else(|| self.err(format!("unknown aromatic atom {:?}", c as char)))?
            }
            Some(c @ b'A'..=b'Z') => {
                self.bump();
                aromatic = false;
                let mut sym = (c as char).to_string();
                if let Some(l @ b'a'..=b'z') = self.peek() {
                    // Only consume the lowercase letter if it completes a
                    // known two-letter symbol (e.g. Cl, Br) — otherwise it
                    // belongs to a following token such as H-count.
                    let mut two = sym.clone();
                    two.push(l as char);
                    if Element::from_symbol(&two).is_some() && two != "CH" {
                        sym = two;
                        self.bump();
                    }
                }
                Element::from_symbol(&sym)
                    .ok_or_else(|| self.err(format!("unknown element {sym:?}")))?
            }
            _ => return Err(self.err("expected element symbol in brackets")),
        };

        // Optional chirality (ignored).
        while self.peek() == Some(b'@') {
            self.bump();
        }

        // Optional explicit hydrogen count.
        let mut explicit_h = Some(0u8);
        if self.peek() == Some(b'H') {
            self.bump();
            let mut count = 1u8;
            if let Some(d) = self.peek().filter(u8::is_ascii_digit) {
                self.bump();
                count = d - b'0';
            }
            explicit_h = Some(count);
        }

        // Optional charge: +, -, ++, --, +2, -3.
        let mut charge: i8 = 0;
        if let Some(sign @ (b'+' | b'-')) = self.peek() {
            self.bump();
            let unit: i8 = if sign == b'+' { 1 } else { -1 };
            charge = unit;
            if let Some(d) = self.peek().filter(u8::is_ascii_digit) {
                self.bump();
                charge = unit * (d - b'0') as i8;
            } else {
                while self.peek() == Some(sign) {
                    self.bump();
                    charge += unit;
                }
            }
        }

        if self.bump() != Some(b']') {
            return Err(self.err("expected ']'"));
        }
        Ok(Atom {
            element,
            aromatic,
            charge,
            explicit_h,
        })
    }
}

/// Default bond between two atoms when no symbol is written: aromatic
/// if both ends are aromatic, otherwise single.
fn default_bond(mol: &Molecule, a: u32, b: u32) -> BondOrder {
    let atoms = mol.atoms();
    if atoms[a as usize].aromatic && atoms[b as usize].aromatic {
        BondOrder::Aromatic
    } else {
        BondOrder::Single
    }
}

/// Serialize a molecule to SMILES.
///
/// Output is deterministic (DFS from the lowest atom index of each
/// component) but not canonical across different atom orderings of the
/// same molecule — for that, see
/// [`crate::canonical::canonical_smiles`].
pub fn write_smiles(mol: &Molecule) -> String {
    let identity: Vec<u32> = (0..mol.atom_count() as u32).collect();
    write_smiles_ordered(mol, &identity)
}

/// Serialize with an explicit atom priority: the DFS starts at the
/// lowest-priority atom of each component and visits neighbors in
/// priority order, so equal molecules with equal priorities produce
/// identical text. Ring-closure numbers are assigned in traversal
/// order. `priority.len()` must equal the atom count.
pub fn write_smiles_ordered(mol: &Molecule, priority: &[u32]) -> String {
    let n = mol.atom_count();
    assert_eq!(priority.len(), n, "priority arity mismatch");
    let mut out = String::with_capacity(n * 2);
    let mut visited = vec![false; n];

    // Spanning tree chosen by the same priority-driven DFS that will
    // write the text; non-tree bonds become ring closures, numbered in
    // traversal order.
    let mut tree_bond = vec![false; mol.bond_count()];
    let mut closure_of_bond: std::collections::HashMap<u32, u16> = std::collections::HashMap::new();
    {
        // Recursive DFS mirroring the writer's order.
        fn span(
            mol: &Molecule,
            v: u32,
            priority: &[u32],
            seen: &mut [bool],
            tree_bond: &mut [bool],
            closures: &mut std::collections::HashMap<u32, u16>,
            next_num: &mut u16,
        ) {
            seen[v as usize] = true;
            let mut neigh: Vec<(u32, u32)> = mol.neighbors(v).to_vec();
            neigh.sort_by_key(|&(to, _)| priority[to as usize]);
            for (to, bond) in neigh {
                if seen[to as usize] {
                    // Every non-tree edge to a seen vertex is a
                    // back edge in an undirected DFS: a ring bond.
                    if !tree_bond[bond as usize] && !closures.contains_key(&bond) {
                        closures.insert(bond, *next_num);
                        *next_num += 1;
                    }
                    continue;
                }
                tree_bond[bond as usize] = true;
                span(mol, to, priority, seen, tree_bond, closures, next_num);
            }
        }

        let mut seen = vec![false; n];
        let mut next_num = 1u16;
        let mut roots: Vec<u32> = (0..n as u32).collect();
        roots.sort_by_key(|&a| priority[a as usize]);
        for &start in &roots {
            if seen[start as usize] {
                continue;
            }
            span(
                mol,
                start,
                priority,
                &mut seen,
                &mut tree_bond,
                &mut closure_of_bond,
                &mut next_num,
            );
        }
    }

    let mut first_component = true;
    let mut roots: Vec<u32> = (0..n as u32).collect();
    roots.sort_by_key(|&a| priority[a as usize]);
    for &start in &roots {
        if visited[start as usize] {
            continue;
        }
        if !first_component {
            out.push('.');
        }
        first_component = false;
        write_atom_dfs(
            mol,
            start,
            None,
            priority,
            &mut visited,
            &closure_of_bond,
            &mut out,
        );
    }
    out
}

fn write_atom_dfs(
    mol: &Molecule,
    v: u32,
    in_bond: Option<u32>,
    priority: &[u32],
    visited: &mut [bool],
    closures: &std::collections::HashMap<u32, u16>,
    out: &mut String,
) {
    visited[v as usize] = true;
    write_atom_token(mol, v, out);

    // Ring closure digits attach directly after the atom, in numeric
    // order so both endpoints print them identically.
    let mut ring_bonds: Vec<(u16, u32)> = mol
        .neighbors(v)
        .iter()
        .filter_map(|&(_, bond)| closures.get(&bond).map(|&num| (num, bond)))
        .collect();
    ring_bonds.sort_unstable();
    for (num, bond) in ring_bonds {
        write_bond_symbol_if_needed(mol, bond, out);
        if num >= 10 {
            out.push('%');
        }
        out.push_str(&num.to_string());
    }

    // Recurse into unvisited tree neighbors in priority order; all but
    // the last go in branches.
    let mut next: Vec<(u32, u32)> = mol
        .neighbors(v)
        .iter()
        .copied()
        .filter(|&(to, bond)| {
            Some(bond) != in_bond && !visited[to as usize] && !closures.contains_key(&bond)
        })
        .collect();
    next.sort_by_key(|&(to, _)| priority[to as usize]);
    for (i, &(to, bond)) in next.iter().enumerate() {
        if visited[to as usize] {
            continue; // may have been reached through an earlier branch
        }
        let is_last = i + 1 == next.len();
        if !is_last {
            out.push('(');
        }
        write_bond_symbol_if_needed(mol, bond, out);
        write_atom_dfs(mol, to, Some(bond), priority, visited, closures, out);
        if !is_last {
            out.push(')');
        }
    }
}

fn write_bond_symbol_if_needed(mol: &Molecule, bond: u32, out: &mut String) {
    let b = mol.bonds()[bond as usize];
    let implied = default_bond(mol, b.a, b.b);
    if b.order == implied {
        return;
    }
    out.push(match b.order {
        BondOrder::Single => '-',
        BondOrder::Double => '=',
        BondOrder::Triple => '#',
        BondOrder::Aromatic => ':',
    });
}

fn write_atom_token(mol: &Molecule, v: u32, out: &mut String) {
    let atom = &mol.atoms()[v as usize];
    let needs_bracket = atom.charge != 0
        || atom.explicit_h.is_some()
        || atom.element == Element::H
        || (atom.aromatic && !atom.element.supports_aromatic())
        || !atom.element.in_organic_subset();
    let symbol = if atom.aromatic {
        atom.element.symbol().to_ascii_lowercase()
    } else {
        atom.element.symbol().to_string()
    };
    if !needs_bracket {
        out.push_str(&symbol);
        return;
    }
    out.push('[');
    out.push_str(&symbol);
    if let Some(h) = atom.explicit_h {
        if h > 0 {
            out.push('H');
            if h > 1 {
                out.push_str(&h.to_string());
            }
        }
    }
    match atom.charge {
        0 => {}
        1 => out.push('+'),
        -1 => out.push('-'),
        c if c > 0 => out.push_str(&format!("+{c}")),
        c => out.push_str(&format!("-{}", -c)),
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_linear_alkane() {
        let m = parse_smiles("CCC").unwrap();
        assert_eq!(m.atom_count(), 3);
        assert_eq!(m.bond_count(), 2);
        assert_eq!(m.total_hydrogens(), 8);
    }

    #[test]
    fn parse_branches() {
        // Isobutane: central carbon with three methyls.
        let m = parse_smiles("CC(C)C").unwrap();
        assert_eq!(m.atom_count(), 4);
        assert_eq!(m.degree(1), 3);
        assert_eq!(m.total_hydrogens(), 10);
    }

    #[test]
    fn parse_benzene_ring() {
        let m = parse_smiles("c1ccccc1").unwrap();
        assert_eq!(m.atom_count(), 6);
        assert_eq!(m.bond_count(), 6);
        assert_eq!(m.ring_count(), 1);
        assert!(m.atoms().iter().all(|a| a.aromatic));
        assert_eq!(m.total_hydrogens(), 6);
        assert!(m.bonds().iter().all(|b| b.order == BondOrder::Aromatic));
    }

    #[test]
    fn parse_double_and_triple_bonds() {
        let m = parse_smiles("C=C").unwrap();
        assert_eq!(m.bonds()[0].order, BondOrder::Double);
        assert_eq!(m.total_hydrogens(), 4);
        let m = parse_smiles("C#N").unwrap();
        assert_eq!(m.bonds()[0].order, BondOrder::Triple);
        assert_eq!(m.total_hydrogens(), 1);
    }

    #[test]
    fn parse_brackets() {
        let m = parse_smiles("[NH4+]").unwrap();
        let a = &m.atoms()[0];
        assert_eq!(a.element, Element::N);
        assert_eq!(a.charge, 1);
        assert_eq!(a.explicit_h, Some(4));

        let m = parse_smiles("[O-]").unwrap();
        assert_eq!(m.atoms()[0].charge, -1);
        assert_eq!(m.hydrogens(0), 0);

        let m = parse_smiles("[13CH4]").unwrap();
        assert_eq!(m.atoms()[0].element, Element::C);
        assert_eq!(m.hydrogens(0), 4);

        let m = parse_smiles("[Fe]");
        assert!(m.is_err(), "unsupported element must be rejected");
    }

    #[test]
    fn parse_aromatic_nitrogen_with_h() {
        // Pyrrole nitrogen.
        let m = parse_smiles("c1cc[nH]c1").unwrap();
        assert_eq!(m.atom_count(), 5);
        let n = m
            .atoms()
            .iter()
            .position(|a| a.element == Element::N)
            .unwrap();
        assert_eq!(m.hydrogens(n as u32), 1);
        assert!(m.atoms()[n].aromatic);
    }

    #[test]
    fn parse_two_letter_organic() {
        let m = parse_smiles("ClCBr").unwrap();
        assert_eq!(m.atoms()[0].element, Element::Cl);
        assert_eq!(m.atoms()[2].element, Element::Br);
        assert_eq!(m.total_hydrogens(), 2);
    }

    #[test]
    fn parse_components() {
        let m = parse_smiles("C.C").unwrap();
        assert_eq!(m.component_count(), 2);
        assert_eq!(m.bond_count(), 0);
    }

    #[test]
    fn parse_percent_ring_closure() {
        let a = parse_smiles("C%12CCCCC%12").unwrap();
        let b = parse_smiles("C1CCCCC1").unwrap();
        assert_eq!(a.ring_count(), b.ring_count());
        assert_eq!(a.bond_count(), b.bond_count());
    }

    #[test]
    fn parse_double_bond_ring_closure() {
        // Cyclohexene written with the double bond at the closure.
        let m = parse_smiles("C=1CCCCC=1").unwrap();
        assert_eq!(
            m.bonds()
                .iter()
                .filter(|b| b.order == BondOrder::Double)
                .count(),
            1
        );
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "C(",
            "C)",
            "C1CC",
            "(C)",
            "C=",
            "[C",
            "[]",
            "C..C",
            "1CC",
            "%C",
            "C%1C",
            "C=1CCCCC#1",
        ] {
            assert!(parse_smiles(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn a_chain_at_the_atom_bound_parses_canonicalises_and_writes() {
        let m = parse_smiles(&"C".repeat(MAX_ATOMS)).unwrap();
        assert_eq!(m.atom_count(), MAX_ATOMS);
        let canonical = crate::canonical::canonical_smiles(&m);
        assert_eq!(parse_smiles(&canonical).unwrap().atom_count(), MAX_ATOMS);
        assert_eq!(write_smiles(&m), "C".repeat(MAX_ATOMS));
    }

    #[test]
    fn a_chain_past_the_atom_bound_is_an_error_naming_it() {
        let err = parse_smiles(&"C".repeat(MAX_ATOMS + 1)).unwrap_err();
        assert!(err.to_string().contains("1024"), "{err}");
        let ChemError::MalformedSmiles { offset, .. } = err else {
            panic!("{err:?}");
        };
        assert_eq!(offset, MAX_ATOMS, "refused at the first atom past it");
    }

    #[test]
    fn caffeine_parses() {
        let m = parse_smiles("Cn1cnc2c1c(=O)n(C)c(=O)n2C").unwrap();
        assert_eq!(m.atom_count(), 14);
        assert_eq!(m.ring_count(), 2);
        let n_count = m.atoms().iter().filter(|a| a.element == Element::N).count();
        assert_eq!(n_count, 4);
        let o_count = m.atoms().iter().filter(|a| a.element == Element::O).count();
        assert_eq!(o_count, 2);
    }

    #[test]
    fn aspirin_parses() {
        let m = parse_smiles("CC(=O)Oc1ccccc1C(=O)O").unwrap();
        assert_eq!(m.atom_count(), 13);
        assert_eq!(m.ring_count(), 1);
    }

    fn assert_roundtrip(smiles: &str) {
        let m1 = parse_smiles(smiles).unwrap();
        let rendered = write_smiles(&m1);
        let m2 = parse_smiles(&rendered)
            .unwrap_or_else(|e| panic!("re-parse of {rendered:?} (from {smiles:?}): {e}"));
        assert_eq!(m1.atom_count(), m2.atom_count(), "{smiles} -> {rendered}");
        assert_eq!(m1.bond_count(), m2.bond_count(), "{smiles} -> {rendered}");
        assert_eq!(m1.ring_count(), m2.ring_count(), "{smiles} -> {rendered}");
        assert_eq!(
            m1.total_hydrogens(),
            m2.total_hydrogens(),
            "{smiles} -> {rendered}"
        );
        // Writer output must be a fixed point.
        assert_eq!(write_smiles(&m2), rendered);
    }

    #[test]
    fn write_roundtrips() {
        for s in [
            "CCC",
            "CC(C)C",
            "c1ccccc1",
            "Cn1cnc2c1c(=O)n(C)c(=O)n2C",
            "CC(=O)Oc1ccccc1C(=O)O",
            "[NH4+].[O-]C=O",
            "C#N",
            "C1CC1C2CC2",
            "ClC(Br)I",
            "c1ccc2ccccc2c1",
        ] {
            assert_roundtrip(s);
        }
    }

    #[test]
    fn biphenyl_single_bond_between_aromatic_rings() {
        let m = parse_smiles("c1ccccc1-c1ccccc1").unwrap();
        let singles = m
            .bonds()
            .iter()
            .filter(|b| b.order == BondOrder::Single)
            .count();
        assert_eq!(singles, 1);
        // The writer must re-emit the explicit single bond.
        assert_roundtrip("c1ccccc1-c1ccccc1");
    }
}
