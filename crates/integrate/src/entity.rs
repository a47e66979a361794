//! Entity resolution: matching protein references across sources.
//!
//! Source A keys assays by `sp|P00533|EGFR_HUMAN`, source B labels tree
//! leaves `P00533.2`. Resolution proceeds in two stages, cheapest
//! first:
//!
//! 1. **Normalization** — strip database prefixes/version suffixes,
//!    case-fold.
//! 2. **Fuzzy match** — Jaro–Winkler over the candidate set, accepted
//!    at [`FUZZY_THRESHOLD`] or above.

use crate::{IntegrateError, Result};
use rustc_hash::FxHashMap;

/// Normalize an accession-like reference: strip `db|…|name` framing,
/// version suffixes (`P00533.2` → `P00533`), and whitespace; uppercase.
pub fn normalize_accession(raw: &str) -> String {
    let raw = raw.trim();
    // "sp|P00533|EGFR_HUMAN" -> middle field.
    let core = if raw.contains('|') {
        raw.split('|')
            .nth(1)
            .filter(|s| !s.is_empty())
            .unwrap_or(raw)
    } else {
        raw
    };
    // Version suffix: a trailing ".<digits>".
    let core = match core.rsplit_once('.') {
        Some((head, tail)) if !head.is_empty() && tail.bytes().all(|b| b.is_ascii_digit()) => head,
        _ => core,
    };
    core.to_ascii_uppercase()
}

/// Minimum Jaro–Winkler similarity for a fuzzy accept.
pub const FUZZY_THRESHOLD: f64 = 0.90;

/// Jaro similarity in `[0, 1]`.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    let mut matches_a: Vec<char> = Vec::new();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == ca {
                b_used[j] = true;
                matches_a.push(ca);
                break;
            }
        }
    }
    let m = matches_a.len();
    if m == 0 {
        return 0.0;
    }
    let matches_b: Vec<char> = b
        .iter()
        .zip(&b_used)
        .filter(|(_, &u)| u)
        .map(|(&c, _)| c)
        .collect();
    let transpositions = matches_a
        .iter()
        .zip(&matches_b)
        .filter(|(x, y)| x != y)
        .count()
        / 2;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Jaro–Winkler similarity: Jaro boosted for common prefixes.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    j + prefix * 0.1 * (1.0 - j)
}

/// How a reference was resolved (for provenance/explain output).
#[derive(Debug, Clone, PartialEq)]
pub enum Resolution {
    /// Exact match after normalization.
    Exact(String),
    /// Fuzzy match with the achieved similarity.
    Fuzzy {
        /// The canonical id matched.
        canonical: String,
        /// Jaro–Winkler similarity achieved.
        similarity: f64,
    },
}

impl Resolution {
    /// The canonical identifier the reference resolved to.
    pub fn canonical(&self) -> &str {
        match self {
            Resolution::Exact(c) => c,
            Resolution::Fuzzy { canonical, .. } => canonical,
        }
    }
}

/// Resolves free-form protein references against a canonical id set.
#[derive(Debug, Clone)]
pub struct EntityResolver {
    /// Canonical ids, normalized -> original form.
    canonical: FxHashMap<String, String>,
}

impl EntityResolver {
    /// Build a resolver over the canonical id universe.
    pub fn new(canonical_ids: impl IntoIterator<Item = String>) -> EntityResolver {
        let canonical = canonical_ids
            .into_iter()
            .map(|id| (normalize_accession(&id), id))
            .collect();
        EntityResolver { canonical }
    }

    /// Resolve a reference, trying exact, then fuzzy.
    pub fn resolve(&self, reference: &str) -> Result<Resolution> {
        let norm = normalize_accession(reference);
        if let Some(orig) = self.canonical.get(&norm) {
            return Ok(Resolution::Exact(orig.clone()));
        }
        let mut best: Option<(&String, f64)> = None;
        for (cand_norm, cand_orig) in &self.canonical {
            let sim = jaro_winkler(&norm, cand_norm);
            if best.is_none_or(|(_, b)| sim > b) {
                best = Some((cand_orig, sim));
            }
        }
        match best {
            Some((orig, sim)) if sim >= FUZZY_THRESHOLD => Ok(Resolution::Fuzzy {
                canonical: orig.clone(),
                similarity: sim,
            }),
            best => Err(IntegrateError::Unresolved {
                reference: reference.to_string(),
                best_candidate: best.map(|(orig, _)| orig.clone()),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(normalize_accession("sp|P00533|EGFR_HUMAN"), "P00533");
        assert_eq!(normalize_accession("P00533.2"), "P00533");
        assert_eq!(normalize_accession("  p00533 "), "P00533");
        assert_eq!(normalize_accession("tr|Q12345|X.3"), "Q12345");
        // A dot followed by non-digits is part of the id.
        assert_eq!(normalize_accession("NAME.X"), "NAME.X");
        assert_eq!(normalize_accession("plain"), "PLAIN");
    }

    #[test]
    fn jaro_winkler_basics() {
        assert_eq!(jaro_winkler("x", "x"), 1.0);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        // Known value: MARTHA/MARHTA ≈ 0.9611 under Jaro-Winkler.
        let jw = jaro_winkler("MARTHA", "MARHTA");
        assert!((jw - 0.9611).abs() < 0.001, "got {jw}");
        // Similar strings beat dissimilar ones.
        assert!(jaro_winkler("KINASE1", "KINASE2") > jaro_winkler("KINASE1", "PHOSPHATASE"));
    }

    #[test]
    fn exact_resolution_after_normalization() {
        let r = EntityResolver::new(vec!["P00533".into(), "Q12345".into()]);
        let res = r.resolve("sp|P00533|EGFR_HUMAN").unwrap();
        assert_eq!(res, Resolution::Exact("P00533".into()));
        assert_eq!(res.canonical(), "P00533");
        assert_eq!(r.resolve("q12345.9").unwrap().canonical(), "Q12345");
    }

    #[test]
    fn fuzzy_resolution_with_threshold() {
        let r = EntityResolver::new(vec!["KINASE_ALPHA".into(), "PHOSPHATASE_B".into()]);
        // One-character typo: accepted at default threshold.
        let res = r.resolve("KINASE_ALPHS").unwrap();
        match res {
            Resolution::Fuzzy {
                canonical,
                similarity,
            } => {
                assert_eq!(canonical, "KINASE_ALPHA");
                assert!(similarity >= 0.9);
            }
            other => panic!("expected fuzzy, got {other:?}"),
        }
        // Garbage: rejected, with the best candidate reported.
        let err = r.resolve("ZZZZZZ").unwrap_err();
        assert!(matches!(err, IntegrateError::Unresolved { .. }));
    }

    #[test]
    fn empty_universe_reports_no_candidates() {
        let r = EntityResolver::new(Vec::new());
        match r.resolve("X").unwrap_err() {
            IntegrateError::Unresolved { best_candidate, .. } => {
                assert_eq!(best_candidate, None);
            }
            other => panic!("{other:?}"),
        }
    }
}
