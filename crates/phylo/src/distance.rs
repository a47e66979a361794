//! Evolutionary distance estimation and the symmetric distance matrix.

use crate::align::{global_align, GapPenalty};
use crate::matrices::ScoringMatrix;
use crate::seq::ProteinSequence;
use crate::{PhyloError, Result};

/// How to convert an observed proportion of differing sites (p-distance)
/// into an evolutionary distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistanceModel {
    /// Raw proportion of differing sites.
    PDistance,
    /// Poisson correction: `d = -ln(1 - p)`.
    Poisson,
    /// Kimura's (1983) empirical protein correction:
    /// `d = -ln(1 - p - p²/5)`.
    Kimura,
}

impl DistanceModel {
    /// Apply the model to a p-distance in `[0, 1]`.
    ///
    /// Saturated distances (where the corrected formula is undefined)
    /// are clamped to a large finite value so downstream matrix
    /// algorithms keep working.
    pub fn correct(self, p: f64) -> f64 {
        const SATURATED: f64 = 10.0;
        let p = p.clamp(0.0, 1.0);
        match self {
            DistanceModel::PDistance => p,
            DistanceModel::Poisson => {
                let arg = 1.0 - p;
                if arg <= f64::EPSILON {
                    SATURATED
                } else {
                    (-arg.ln()).min(SATURATED)
                }
            }
            DistanceModel::Kimura => {
                let arg = 1.0 - p - p * p / 5.0;
                if arg <= f64::EPSILON {
                    SATURATED
                } else {
                    (-arg.ln()).min(SATURATED)
                }
            }
        }
    }
}

/// A symmetric `n × n` distance matrix with zero diagonal, stored in
/// condensed upper-triangular form.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    labels: Vec<String>,
    /// Condensed upper triangle, row-major: entry for `(i, j)` with
    /// `i < j` lives at `i*n - i*(i+1)/2 + (j - i - 1)`.
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// An all-zero matrix over the given labels.
    pub fn zeros(labels: Vec<String>) -> Self {
        let n = labels.len();
        DistanceMatrix {
            n,
            labels,
            data: vec![0.0; n * (n.saturating_sub(1)) / 2],
        }
    }

    /// Build from a full square matrix. The input must be symmetric with
    /// a zero diagonal (within `1e-9`).
    pub fn from_square(labels: Vec<String>, square: &[Vec<f64>]) -> Result<Self> {
        let n = labels.len();
        if square.len() != n || square.iter().any(|r| r.len() != n) {
            return Err(PhyloError::BadDimensions(format!(
                "expected {n}x{n} square matrix"
            )));
        }
        let mut m = DistanceMatrix::zeros(labels);
        for (i, row) in square.iter().enumerate() {
            if row[i].abs() > 1e-9 {
                return Err(PhyloError::BadDimensions(format!(
                    "diagonal entry ({i},{i}) is {}, expected 0",
                    row[i]
                )));
            }
            for (j, &cell) in row.iter().enumerate().skip(i + 1) {
                if (cell - square[j][i]).abs() > 1e-9 {
                    return Err(PhyloError::BadDimensions(format!(
                        "asymmetric at ({i},{j}): {cell} vs {}",
                        square[j][i]
                    )));
                }
                m.set(i, j, cell);
            }
        }
        Ok(m)
    }

    /// Number of taxa.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the matrix has no taxa.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Taxon labels, in index order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    #[inline]
    fn offset(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Distance between taxa `i` and `j` (order-insensitive).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        if i == j {
            0.0
        } else if i < j {
            self.data[self.offset(i, j)]
        } else {
            self.data[self.offset(j, i)]
        }
    }

    /// Set the distance between taxa `i` and `j` (order-insensitive).
    /// Setting a diagonal entry is a no-op.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        if i == j {
            return;
        }
        let off = if i < j {
            self.offset(i, j)
        } else {
            self.offset(j, i)
        };
        self.data[off] = value;
    }
}

/// Compute all pairwise distances by global alignment.
///
/// Runs `n(n-1)/2` alignments; for family sizes in the hundreds this is
/// the dominant tree-construction cost (measured by experiment E9).
pub fn pairwise_distances(
    seqs: &[ProteinSequence],
    matrix: &ScoringMatrix,
    gap: GapPenalty,
    model: DistanceModel,
) -> Result<DistanceMatrix> {
    let labels: Vec<String> = seqs.iter().map(|s| s.id().to_string()).collect();
    let mut dm = DistanceMatrix::zeros(labels);
    for i in 0..seqs.len() {
        for j in (i + 1)..seqs.len() {
            let aln = global_align(seqs[i].residues(), seqs[j].residues(), matrix, gap)?;
            dm.set(i, j, model.correct(aln.p_distance()));
        }
    }
    Ok(dm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_agree_at_zero() {
        for m in [
            DistanceModel::PDistance,
            DistanceModel::Poisson,
            DistanceModel::Kimura,
        ] {
            assert_eq!(m.correct(0.0), 0.0);
        }
    }

    #[test]
    fn corrections_expand_distances() {
        // Corrected distances account for multiple hits, so they always
        // exceed the raw p-distance for 0 < p < saturation.
        for p in [0.05, 0.2, 0.5, 0.7] {
            assert!(DistanceModel::Poisson.correct(p) > p);
            assert!(DistanceModel::Kimura.correct(p) > p);
            // Kimura's correction is the more aggressive of the two.
            assert!(DistanceModel::Kimura.correct(p) >= DistanceModel::Poisson.correct(p));
        }
    }

    #[test]
    fn saturation_is_finite() {
        assert!(DistanceModel::Poisson.correct(1.0).is_finite());
        assert!(DistanceModel::Kimura.correct(0.99).is_finite());
        assert!(DistanceModel::Kimura.correct(1.0).is_finite());
    }

    #[test]
    fn correct_clamps_out_of_range_input() {
        assert_eq!(DistanceModel::PDistance.correct(-0.5), 0.0);
        assert_eq!(DistanceModel::PDistance.correct(1.5), 1.0);
    }

    #[test]
    fn condensed_storage_roundtrip() {
        let n = 7;
        let labels: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
        let mut m = DistanceMatrix::zeros(labels);
        for i in 0..n {
            for j in (i + 1)..n {
                m.set(i, j, (i * 10 + j) as f64);
            }
        }
        for i in 0..n {
            assert_eq!(m.get(i, i), 0.0);
            for j in (i + 1)..n {
                assert_eq!(m.get(i, j), (i * 10 + j) as f64);
                assert_eq!(m.get(j, i), (i * 10 + j) as f64);
            }
        }
    }

    #[test]
    fn set_is_order_insensitive_and_diagonal_noop() {
        let mut m = DistanceMatrix::zeros(vec!["a".into(), "b".into()]);
        m.set(1, 0, 3.5);
        assert_eq!(m.get(0, 1), 3.5);
        m.set(0, 0, 99.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn from_square_validates() {
        let labels = vec!["a".to_string(), "b".to_string()];
        let ok =
            DistanceMatrix::from_square(labels.clone(), &[vec![0.0, 2.0], vec![2.0, 0.0]]).unwrap();
        assert_eq!(ok.get(0, 1), 2.0);

        let bad_dim = DistanceMatrix::from_square(labels.clone(), &[vec![0.0]]);
        assert!(bad_dim.is_err());
        let asym = DistanceMatrix::from_square(labels.clone(), &[vec![0.0, 1.0], vec![2.0, 0.0]]);
        assert!(asym.is_err());
        let diag = DistanceMatrix::from_square(labels, &[vec![1.0, 2.0], vec![2.0, 0.0]]);
        assert!(diag.is_err());
    }

    #[test]
    fn pairwise_distances_from_sequences() {
        let seqs = vec![
            ProteinSequence::parse("a", "ACDEFGHIKL").unwrap(),
            ProteinSequence::parse("b", "ACDEFGHIKL").unwrap(),
            ProteinSequence::parse("c", "ACDEWWHIKL").unwrap(),
        ];
        let dm = pairwise_distances(
            &seqs,
            &ScoringMatrix::blosum62(),
            GapPenalty::BLOSUM62_DEFAULT,
            DistanceModel::PDistance,
        )
        .unwrap();
        assert_eq!(dm.get(0, 1), 0.0);
        assert!((dm.get(0, 2) - 0.2).abs() < 1e-9);
        assert_eq!(dm.labels(), &["a", "b", "c"]);
    }
}
