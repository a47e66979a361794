//! Chemical elements covered by the SMILES organic subset (plus the
//! halogens and a few common hetero-atoms appearing in drug-like
//! molecules).

use std::fmt;

/// Elements supported by the ligand model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // element symbols are self-describing
pub enum Element {
    H,
    B,
    C,
    N,
    O,
    F,
    P,
    S,
    Cl,
    Br,
    I,
}

impl Element {
    /// Standard atomic weight (g/mol), rounded to 3 decimals.
    pub fn atomic_mass(self) -> f64 {
        match self {
            Element::H => 1.008,
            Element::B => 10.811,
            Element::C => 12.011,
            Element::N => 14.007,
            Element::O => 15.999,
            Element::F => 18.998,
            Element::P => 30.974,
            Element::S => 32.06,
            Element::Cl => 35.45,
            Element::Br => 79.904,
            Element::I => 126.904,
        }
    }

    /// Default valence used for implicit-hydrogen computation
    /// (the SMILES "normal valence" of the organic subset).
    pub fn default_valence(self) -> u8 {
        match self {
            Element::H => 1,
            Element::B => 3,
            Element::C => 4,
            Element::N => 3,
            Element::O => 2,
            Element::F => 1,
            Element::P => 3,
            Element::S => 2,
            Element::Cl => 1,
            Element::Br => 1,
            Element::I => 1,
        }
    }

    /// True when the element may be written bare (outside brackets) in
    /// SMILES — the "organic subset".
    pub fn in_organic_subset(self) -> bool {
        !matches!(self, Element::H)
    }

    /// True when the element can be aromatic in the supported dialect.
    pub fn supports_aromatic(self) -> bool {
        matches!(
            self,
            Element::B | Element::C | Element::N | Element::O | Element::P | Element::S
        )
    }

    /// Element symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            Element::H => "H",
            Element::B => "B",
            Element::C => "C",
            Element::N => "N",
            Element::O => "O",
            Element::F => "F",
            Element::P => "P",
            Element::S => "S",
            Element::Cl => "Cl",
            Element::Br => "Br",
            Element::I => "I",
        }
    }

    /// Parse a symbol (case-sensitive, as in SMILES brackets).
    pub fn from_symbol(s: &str) -> Option<Element> {
        Some(match s {
            "H" => Element::H,
            "B" => Element::B,
            "C" => Element::C,
            "N" => Element::N,
            "O" => Element::O,
            "F" => Element::F,
            "P" => Element::P,
            "S" => Element::S,
            "Cl" => Element::Cl,
            "Br" => Element::Br,
            "I" => Element::I,
            _ => return None,
        })
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Element; 11] = [
        Element::H,
        Element::B,
        Element::C,
        Element::N,
        Element::O,
        Element::F,
        Element::P,
        Element::S,
        Element::Cl,
        Element::Br,
        Element::I,
    ];

    #[test]
    fn symbol_roundtrip() {
        for e in ALL {
            assert_eq!(Element::from_symbol(e.symbol()), Some(e));
        }
        assert_eq!(Element::from_symbol("Xx"), None);
        assert_eq!(Element::from_symbol("c"), None); // aromatic handled by parser
    }

    #[test]
    fn masses_are_positive_and_ordered_sanely() {
        for e in ALL {
            assert!(e.atomic_mass() > 0.0);
        }
        assert!(Element::I.atomic_mass() > Element::C.atomic_mass());
        assert!((Element::C.atomic_mass() - 12.011).abs() < 1e-9);
    }

    #[test]
    fn valences() {
        assert_eq!(Element::C.default_valence(), 4);
        assert_eq!(Element::N.default_valence(), 3);
        assert_eq!(Element::O.default_valence(), 2);
        assert_eq!(Element::Cl.default_valence(), 1);
    }

    #[test]
    fn aromatic_support() {
        assert!(Element::C.supports_aromatic());
        assert!(Element::N.supports_aromatic());
        assert!(!Element::Cl.supports_aromatic());
        assert!(!Element::H.supports_aromatic());
    }
}
