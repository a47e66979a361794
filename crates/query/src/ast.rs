//! The query model.
//!
//! A DrugTree query scopes a region of the tree, filters the activity
//! overlay (optionally joined with ligand metadata and a structural
//! similarity constraint), and finishes by listing, ranking, counting,
//! or aggregating per child clade.

use drugtree_phylo::index::LeafInterval;
use drugtree_store::expr::Predicate;
use std::fmt;

/// Which part of the tree a query addresses.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Scope {
    /// The whole tree.
    Tree,
    /// The subtree rooted at the node with this label.
    Subtree(String),
    /// An explicit leaf-rank interval (produced by the mobile layer's
    /// viewport queries; users normally write labels).
    Interval(LeafInterval),
    /// An explicit set of leaf labels.
    Leaves(Vec<String>),
}

/// Aggregation metric for per-clade summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Number of activity records.
    Count,
    /// Number of distinct ligands.
    DistinctLigands,
    /// Maximum pActivity (best potency).
    MaxPActivity,
    /// Mean pActivity.
    MeanPActivity,
}

impl Metric {
    /// Human-readable label used in result columns.
    pub fn label(self) -> &'static str {
        match self {
            Metric::Count => "count",
            Metric::DistinctLigands => "distinct_ligands",
            Metric::MaxPActivity => "max_p_activity",
            Metric::MeanPActivity => "mean_p_activity",
        }
    }
}

/// Structural similarity constraint ("ligands similar to X").
#[derive(Debug, Clone, PartialEq)]
pub struct SimilaritySpec {
    /// A SMILES string or a known ligand id.
    pub reference: String,
    /// Minimum Tanimoto similarity in `[0, 1]`.
    pub min_tanimoto: f64,
}

/// How the query finishes.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryKind {
    /// List matching activity rows (joined with ligand metadata).
    Activities,
    /// The `k` best rows by a column.
    TopK {
        /// Ranking column.
        by: String,
        /// Result size.
        k: usize,
        /// Sort direction.
        descending: bool,
    },
    /// One aggregate row per child of the scope's root clade — what a
    /// collapsed tree view displays on each branch.
    AggregateChildren {
        /// The aggregation metric.
        metric: Metric,
    },
    /// Count matching records per leaf (drives heat-strip rendering).
    CountPerLeaf,
}

/// A complete query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Tree region.
    pub scope: Scope,
    /// Row filter over the unified activity+ligand columns.
    pub predicate: Predicate,
    /// Optional structural similarity constraint.
    pub similarity: Option<SimilaritySpec>,
    /// Optional substructure constraint: only ligands *containing*
    /// this SMILES pattern (or a known ligand id's structure).
    pub substructure: Option<String>,
    /// Finishing operator.
    pub kind: QueryKind,
}

impl Query {
    /// A bare "all activities in this scope" query.
    pub fn activities(scope: Scope) -> Query {
        Query {
            scope,
            predicate: Predicate::True,
            similarity: None,
            substructure: None,
            kind: QueryKind::Activities,
        }
    }

    /// Attach a predicate (conjoined with any existing one).
    pub fn filter(mut self, pred: Predicate) -> Query {
        self.predicate = std::mem::replace(&mut self.predicate, Predicate::True).and(pred);
        self
    }

    /// Attach a similarity constraint.
    pub fn similar_to(mut self, reference: impl Into<String>, min_tanimoto: f64) -> Query {
        self.similarity = Some(SimilaritySpec {
            reference: reference.into(),
            min_tanimoto,
        });
        self
    }

    /// Attach a substructure constraint (a SMILES pattern or a known
    /// ligand id whose structure becomes the pattern).
    pub fn containing(mut self, pattern: impl Into<String>) -> Query {
        self.substructure = Some(pattern.into());
        self
    }

    /// Finish as a top-k ranking.
    pub fn top_k(mut self, by: impl Into<String>, k: usize, descending: bool) -> Query {
        self.kind = QueryKind::TopK {
            by: by.into(),
            k,
            descending,
        };
        self
    }

    /// Finish as a per-child aggregate.
    pub fn aggregate(mut self, metric: Metric) -> Query {
        self.kind = QueryKind::AggregateChildren { metric };
        self
    }

    /// Parse from the text query language (see [`crate::parser`]).
    pub fn parse(text: &str) -> crate::Result<Query> {
        crate::parser::parse_query(text)
    }
}

impl fmt::Display for Query {
    /// Render back into the text query language. Every query built
    /// through the public API parses back to an equal value
    /// (`Query::parse(&q.to_string()) == Ok(q)`), except
    /// `Scope::Interval`, which the language cannot express (it
    /// renders as a comment-like `in tree` fallback is wrong — so it
    /// renders its interval explicitly and will not re-parse; the
    /// mobile layer constructs those queries structurally).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            QueryKind::Activities | QueryKind::TopK { .. } => write!(f, "activities")?,
            QueryKind::AggregateChildren { metric } => write!(f, "aggregate {}", metric.label())?,
            QueryKind::CountPerLeaf => write!(f, "count per leaf")?,
        }
        match &self.scope {
            Scope::Tree => write!(f, " in tree")?,
            Scope::Subtree(label) => write!(f, " in subtree({})", quote(label))?,
            Scope::Leaves(labels) => {
                let quoted: Vec<String> = labels.iter().map(|l| quote(l)).collect();
                write!(f, " in leaves({})", quoted.join(", "))?;
            }
            Scope::Interval(iv) => write!(f, " in interval[{}, {})", iv.lo, iv.hi)?,
        }
        if self.predicate != drugtree_store::expr::Predicate::True {
            write!(f, " where {}", crate::plan::fmt_pred(&self.predicate))?;
        }
        if let Some(pattern) = &self.substructure {
            write!(f, " containing {}", quote(pattern))?;
        }
        if let Some(sim) = &self.similarity {
            write!(
                f,
                " similar to {} >= {}",
                quote(&sim.reference),
                sim.min_tanimoto
            )?;
        }
        if let QueryKind::TopK { by, k, descending } = &self.kind {
            write!(
                f,
                " top {k} by {by} {}",
                if *descending { "desc" } else { "asc" }
            )?;
        }
        Ok(())
    }
}

fn quote(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

/// Deepest predicate nesting accepted: `(` / `not` levels around an
/// atom in query text ([`crate::parser`]), `not` / `and` / `or` levels
/// above a leaf in a built [`Query`] (the planner's validation).
/// Parsing, canonicalization, column collection, rendering and `Drop`
/// all recurse on that nesting, so unbounded input would overflow the
/// stack.
pub const MAX_PREDICATE_DEPTH: usize = 128;

/// Whether `p` stacks more than `levels` connectives above some leaf.
/// Recurses `levels + 1` frames at most, whatever the predicate's depth.
pub(crate) fn nests_deeper_than(p: &Predicate, levels: usize) -> bool {
    let members = match p {
        Predicate::Not(inner) => std::slice::from_ref(&**inner),
        Predicate::And(ps) | Predicate::Or(ps) => ps.as_slice(),
        _ => return false,
    };
    levels == 0 || members.iter().any(|m| nests_deeper_than(m, levels - 1))
}

/// The unified column names a query predicate may reference.
pub mod columns {
    /// Columns served directly by assay sources (pushdown candidates).
    pub const ACTIVITY: &[&str] = &[
        "leaf_rank",
        "protein_accession",
        "ligand_id",
        "activity_type",
        "value_nm",
        "p_activity",
        "source",
        "year",
    ];
    /// Columns contributed by the ligand join (always client-side).
    pub const LIGAND: &[&str] = &["name", "smiles", "mw", "hbd", "hba", "rings"];

    /// True when the column exists at all.
    pub fn is_known(name: &str) -> bool {
        ACTIVITY.contains(&name) || LIGAND.contains(&name)
    }
}

/// Canonical (normalized) predicate form — the Canonicalize phase's
/// rewrite (design decision D13).
///
/// [`canonicalize`](canon::canonicalize) runs five steps — negation-
/// normal form, flattening, constant folding, `between` merging,
/// deduplication — in that order, repeated until a pass changes
/// nothing, so what it returns is stable by construction.
/// Every step is **exact** under the engine's two-valued
/// `BoundPredicate::matches` semantics (a comparison against — or of —
/// a NULL is `false`, and `not` is plain boolean negation):
///
/// * NNF only eliminates double negation and applies De Morgan; it
///   never rewrites `not (c op v)` into the flipped comparison,
///   because on a NULL cell `not (c = v)` is *true* while `c != v` is
///   *false*.
/// * `false` is spelled `Not(True)` (exactly as the parser produces
///   it), so folding needs no extra variant.
/// * `between` merging only fires when both bound literals are
///   non-null: `c >= lo and c <= hi` then matches exactly the rows of
///   `c between lo and hi`, including the empty `lo > hi` case.
pub mod canon {
    use crate::phases::MAX_PASSES_PER_PHASE;
    use crate::{QueryError, Result};
    use drugtree_store::expr::{CompareOp, Predicate};

    /// Normalize a predicate: every step once per pass, repeated until
    /// a pass changes nothing. Returns the canonical form and whether
    /// it differs from the input; a predicate still changing after
    /// [`MAX_PASSES_PER_PHASE`] passes is a planning error.
    pub fn canonicalize(mut p: Predicate) -> Result<(Predicate, bool)> {
        let mut changed = false;
        for _ in 0..MAX_PASSES_PER_PHASE {
            let mut pass_changed = false;
            for step in [nnf, flatten, fold, between_merge, dedup] {
                let (next, c) = step(p);
                p = next;
                pass_changed |= c;
            }
            if !pass_changed {
                return Ok((p, changed));
            }
            changed = true;
        }
        Err(QueryError::Plan(format!(
            "phase canonicalize did not reach a fixpoint within {MAX_PASSES_PER_PHASE} passes"
        )))
    }

    /// Negation-normal form: push `not` to the leaves via double-
    /// negation elimination and De Morgan. Leaf negations (including
    /// the `Not(True)` spelling of `false`) are left alone.
    fn nnf(p: Predicate) -> (Predicate, bool) {
        match p {
            Predicate::Not(inner) => match *inner {
                Predicate::Not(x) => {
                    let (x, _) = nnf(*x);
                    (x, true)
                }
                Predicate::And(ps) => {
                    let members = ps
                        .into_iter()
                        .map(|m| nnf(Predicate::Not(Box::new(m))).0)
                        .collect();
                    (Predicate::Or(members), true)
                }
                Predicate::Or(ps) => {
                    let members = ps
                        .into_iter()
                        .map(|m| nnf(Predicate::Not(Box::new(m))).0)
                        .collect();
                    (Predicate::And(members), true)
                }
                leaf => (Predicate::Not(Box::new(leaf)), false),
            },
            Predicate::And(ps) => rebuild(ps, Predicate::And, nnf),
            Predicate::Or(ps) => rebuild(ps, Predicate::Or, nnf),
            leaf => (leaf, false),
        }
    }

    /// Flatten `and`-in-`and` / `or`-in-`or`, unwrap single-member
    /// connectives, and normalize the empty cases (`and()` is `true`,
    /// `or()` is `false`).
    fn flatten(p: Predicate) -> (Predicate, bool) {
        match p {
            Predicate::And(ps) => flatten_connective(ps, true),
            Predicate::Or(ps) => flatten_connective(ps, false),
            Predicate::Not(inner) => {
                let (inner, changed) = flatten(*inner);
                (Predicate::Not(Box::new(inner)), changed)
            }
            leaf => (leaf, false),
        }
    }

    fn flatten_connective(ps: Vec<Predicate>, is_and: bool) -> (Predicate, bool) {
        let mut changed = false;
        let mut members = Vec::with_capacity(ps.len());
        for member in ps {
            let (member, c) = flatten(member);
            changed |= c;
            match member {
                Predicate::And(inner) if is_and => {
                    changed = true;
                    members.extend(inner);
                }
                Predicate::Or(inner) if !is_and => {
                    changed = true;
                    members.extend(inner);
                }
                other => members.push(other),
            }
        }
        match members.len() {
            0 => (
                if is_and {
                    Predicate::True
                } else {
                    fold_false()
                },
                true,
            ),
            1 => (members.remove(0), true),
            _ => (
                if is_and {
                    Predicate::And(members)
                } else {
                    Predicate::Or(members)
                },
                changed,
            ),
        }
    }

    /// The canonical spelling of `false` (what the parser produces).
    fn fold_false() -> Predicate {
        Predicate::Not(Box::new(Predicate::True))
    }

    fn is_false(p: &Predicate) -> bool {
        matches!(p, Predicate::Not(inner) if **inner == Predicate::True)
    }

    /// Constant folding: drop `true` from conjunctions and `false`
    /// from disjunctions; collapse a conjunction containing `false`
    /// (or a disjunction containing `true`) to the constant.
    fn fold(p: Predicate) -> (Predicate, bool) {
        match p {
            Predicate::And(ps) => fold_connective(ps, true),
            Predicate::Or(ps) => fold_connective(ps, false),
            Predicate::Not(inner) => {
                let (inner, changed) = fold(*inner);
                (Predicate::Not(Box::new(inner)), changed)
            }
            leaf => (leaf, false),
        }
    }

    fn fold_connective(ps: Vec<Predicate>, is_and: bool) -> (Predicate, bool) {
        let mut changed = false;
        let mut members = Vec::with_capacity(ps.len());
        for member in ps {
            let (member, c) = fold(member);
            changed |= c;
            // The absorbing element collapses the whole connective...
            if (is_and && is_false(&member)) || (!is_and && member == Predicate::True) {
                return (member, true);
            }
            // ...and the neutral element drops out.
            if (is_and && member == Predicate::True) || (!is_and && is_false(&member)) {
                changed = true;
                continue;
            }
            members.push(member);
        }
        match members.len() {
            0 => (
                if is_and {
                    Predicate::True
                } else {
                    fold_false()
                },
                true,
            ),
            1 => (members.remove(0), true),
            _ => (
                if is_and {
                    Predicate::And(members)
                } else {
                    Predicate::Or(members)
                },
                changed,
            ),
        }
    }

    /// Merge a conjunction's `c >= lo` / `c <= hi` pair (same column,
    /// both literals non-null) into `c between lo and hi`. Exact even
    /// when `lo > hi`: both forms match no row.
    fn between_merge(p: Predicate) -> (Predicate, bool) {
        match p {
            Predicate::And(ps) => {
                let mut changed = false;
                let mut members: Vec<Predicate> = Vec::with_capacity(ps.len());
                for member in ps {
                    let (member, c) = between_merge(member);
                    changed |= c;
                    members.push(member);
                }
                'merge: loop {
                    for i in 0..members.len() {
                        for j in 0..members.len() {
                            if i == j {
                                continue;
                            }
                            let Some(merged) = merge_pair(&members[i], &members[j]) else {
                                continue;
                            };
                            members[i] = merged;
                            members.remove(j);
                            changed = true;
                            continue 'merge;
                        }
                    }
                    break;
                }
                (Predicate::And(members), changed)
            }
            Predicate::Or(ps) => rebuild(ps, Predicate::Or, between_merge),
            Predicate::Not(inner) => {
                let (inner, changed) = between_merge(*inner);
                (Predicate::Not(Box::new(inner)), changed)
            }
            leaf => (leaf, false),
        }
    }

    /// `lower >= lo` + `upper <= hi` over the same column, both
    /// literals non-null, merged as `between lo and hi`.
    fn merge_pair(lower: &Predicate, upper: &Predicate) -> Option<Predicate> {
        let Predicate::Compare {
            column: lc,
            op: CompareOp::Ge,
            value: lo,
        } = lower
        else {
            return None;
        };
        let Predicate::Compare {
            column: uc,
            op: CompareOp::Le,
            value: hi,
        } = upper
        else {
            return None;
        };
        if lc != uc || lo.is_null() || hi.is_null() {
            return None;
        }
        Some(Predicate::Between {
            column: lc.clone(),
            lo: lo.clone(),
            hi: hi.clone(),
        })
    }

    /// Drop exact duplicate members from conjunctions and
    /// disjunctions, preserving first-occurrence order.
    fn dedup(p: Predicate) -> (Predicate, bool) {
        match p {
            Predicate::And(ps) => dedup_connective(ps, Predicate::And),
            Predicate::Or(ps) => dedup_connective(ps, Predicate::Or),
            Predicate::Not(inner) => {
                let (inner, changed) = dedup(*inner);
                (Predicate::Not(Box::new(inner)), changed)
            }
            leaf => (leaf, false),
        }
    }

    fn dedup_connective(
        ps: Vec<Predicate>,
        make: fn(Vec<Predicate>) -> Predicate,
    ) -> (Predicate, bool) {
        let mut changed = false;
        let mut members: Vec<Predicate> = Vec::with_capacity(ps.len());
        for member in ps {
            let (member, c) = dedup(member);
            changed |= c;
            if members.contains(&member) {
                changed = true;
            } else {
                members.push(member);
            }
        }
        (make(members), changed)
    }

    fn rebuild(
        ps: Vec<Predicate>,
        make: fn(Vec<Predicate>) -> Predicate,
        step: fn(Predicate) -> (Predicate, bool),
    ) -> (Predicate, bool) {
        let mut changed = false;
        let members = ps
            .into_iter()
            .map(|m| {
                let (m, c) = step(m);
                changed |= c;
                m
            })
            .collect();
        (make(members), changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_store::expr::CompareOp;

    #[test]
    fn builder_chains() {
        let q = Query::activities(Scope::Subtree("cladeA".into()))
            .filter(Predicate::cmp("p_activity", CompareOp::Ge, 6.5))
            .filter(Predicate::cmp("mw", CompareOp::Lt, 500.0))
            .top_k("p_activity", 10, true);
        assert_eq!(q.scope, Scope::Subtree("cladeA".into()));
        match &q.predicate {
            Predicate::And(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected And, got {other:?}"),
        }
        assert!(matches!(
            q.kind,
            QueryKind::TopK {
                k: 10,
                descending: true,
                ..
            }
        ));
    }

    #[test]
    fn similarity_attach() {
        let q = Query::activities(Scope::Tree).similar_to("CCO", 0.7);
        let s = q.similarity.unwrap();
        assert_eq!(s.reference, "CCO");
        assert_eq!(s.min_tanimoto, 0.7);
    }

    #[test]
    fn column_classification() {
        assert!(columns::is_known("mw"));
        assert!(!columns::is_known("bogus"));
    }

    #[test]
    fn display_round_trips() {
        let queries = vec![
            Query::activities(Scope::Tree),
            Query::activities(Scope::Subtree("clade A".into()))
                .filter(Predicate::cmp("p_activity", CompareOp::Ge, 6.5))
                .filter(Predicate::cmp("mw", CompareOp::Lt, 500.0)),
            Query::activities(Scope::Leaves(vec!["P1".into(), "it's".into()]))
                .similar_to("CCO", 0.6),
            Query::activities(Scope::Tree)
                .containing("c1ccccc1")
                .top_k("p_activity", 7, false),
            Query::activities(Scope::Tree).aggregate(Metric::DistinctLigands),
            Query {
                scope: Scope::Tree,
                predicate: Predicate::between("year", 2005i64, 2013i64),
                similarity: None,
                substructure: None,
                kind: QueryKind::CountPerLeaf,
            },
        ];
        for q in queries {
            let text = q.to_string();
            let back = Query::parse(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
            assert_eq!(back, q, "{text}");
        }
    }

    #[test]
    fn metric_labels() {
        assert_eq!(Metric::Count.label(), "count");
        assert_eq!(Metric::MaxPActivity.label(), "max_p_activity");
    }
}
