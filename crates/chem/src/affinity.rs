//! Binding/assay activity records.
//!
//! DrugTree's overlay attaches per-(protein, ligand) activity
//! measurements to tree leaves; these are the records users filter and
//! rank ("Ki < 100 nM", "pActivity >= 6.5", "top 10 by potency").

use crate::{ChemError, Result};
use std::fmt;

/// Measured activity type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ActivityType {
    /// Inhibition constant.
    Ki,
    /// Dissociation constant.
    Kd,
    /// Half-maximal inhibitory concentration.
    Ic50,
    /// Half-maximal effective concentration.
    Ec50,
}

impl ActivityType {
    /// All variants.
    pub const ALL: [ActivityType; 4] = [
        ActivityType::Ki,
        ActivityType::Kd,
        ActivityType::Ic50,
        ActivityType::Ec50,
    ];

    /// Short label as printed in result tables.
    pub fn label(self) -> &'static str {
        match self {
            ActivityType::Ki => "Ki",
            ActivityType::Kd => "Kd",
            ActivityType::Ic50 => "IC50",
            ActivityType::Ec50 => "EC50",
        }
    }

    /// Parse a label (case-insensitive).
    pub fn parse(s: &str) -> Option<ActivityType> {
        match s.to_ascii_uppercase().as_str() {
            "KI" => Some(ActivityType::Ki),
            "KD" => Some(ActivityType::Kd),
            "IC50" => Some(ActivityType::Ic50),
            "EC50" => Some(ActivityType::Ec50),
            _ => None,
        }
    }
}

impl fmt::Display for ActivityType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One activity measurement of a ligand against a protein target.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityRecord {
    /// Protein accession the assay targeted.
    pub protein_accession: String,
    /// Ligand identifier in the originating database.
    pub ligand_id: String,
    /// Measurement type.
    pub activity_type: ActivityType,
    /// Measured value in nanomolar.
    pub value_nm: f64,
    /// Originating source name (for provenance/conflict resolution).
    pub source: String,
    /// Publication/deposition year (for recency-based conflict
    /// resolution).
    pub year: u16,
}

impl ActivityRecord {
    /// Validate the measured value.
    pub fn validate(&self) -> Result<()> {
        if !(self.value_nm.is_finite() && self.value_nm > 0.0) {
            return Err(ChemError::InvalidActivity(format!(
                "activity value must be positive and finite, got {}",
                self.value_nm
            )));
        }
        Ok(())
    }

    /// Negative log10 of the molar activity — the `pActivity`
    /// (pKi/pIC50/…) scale where *larger means more potent*.
    pub fn p_activity(&self) -> f64 {
        // value_nm nanomolar -> molar is value * 1e-9.
        -(self.value_nm * 1e-9).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(value_nm: f64) -> ActivityRecord {
        ActivityRecord {
            protein_accession: "P00001".into(),
            ligand_id: "L1".into(),
            activity_type: ActivityType::Ki,
            value_nm,
            source: "assaydb".into(),
            year: 2012,
        }
    }

    #[test]
    fn p_activity_scale() {
        // 1 µM = 1000 nM -> pActivity 6; 1 nM -> 9.
        assert!((record(1000.0).p_activity() - 6.0).abs() < 1e-9);
        assert!((record(1.0).p_activity() - 9.0).abs() < 1e-9);
        // More potent (smaller Ki) -> larger pActivity.
        assert!(record(1.0).p_activity() > record(1000.0).p_activity());
    }

    #[test]
    fn validation() {
        assert!(record(5.0).validate().is_ok());
        assert!(record(0.0).validate().is_err());
        assert!(record(-1.0).validate().is_err());
        assert!(record(f64::NAN).validate().is_err());
        assert!(record(f64::INFINITY).validate().is_err());
    }

    #[test]
    fn activity_type_roundtrip() {
        for t in ActivityType::ALL {
            assert_eq!(ActivityType::parse(t.label()), Some(t));
        }
        assert_eq!(ActivityType::parse("ki"), Some(ActivityType::Ki));
        assert_eq!(ActivityType::parse("bogus"), None);
    }
}
