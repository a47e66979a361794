//! Predicate expressions over rows.
//!
//! Predicates reference columns by name, are compiled ("bound") to
//! column indexes against a schema once, and then evaluated per row.
//! The query optimizer also inspects predicate structure for pushdown
//! and index-selection decisions, so the AST is deliberately
//! transparent.

use crate::schema::Schema;
use crate::value::Value;
use crate::Result;
use std::borrow::Borrow;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CompareOp {
    /// Evaluate the operator on an ordering result.
    pub fn matches(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CompareOp::Eq => ord == Equal,
            CompareOp::Ne => ord != Equal,
            CompareOp::Lt => ord == Less,
            CompareOp::Le => ord != Greater,
            CompareOp::Gt => ord == Greater,
            CompareOp::Ge => ord != Less,
        }
    }

    /// SQL-ish symbol, for EXPLAIN output.
    pub fn symbol(self) -> &'static str {
        match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "!=",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        }
    }
}

/// A predicate over named columns.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// Always true.
    True,
    /// `column <op> literal`. NULL cells never match (SQL semantics).
    Compare {
        /// Column name.
        column: String,
        /// Comparison operator.
        op: CompareOp,
        /// Literal to compare against.
        value: Value,
    },
    /// `column BETWEEN lo AND hi` (inclusive).
    Between {
        /// Column name.
        column: String,
        /// Inclusive lower bound.
        lo: Value,
        /// Inclusive upper bound.
        hi: Value,
    },
    /// `column IN (v1, v2, …)`.
    InSet {
        /// Column name.
        column: String,
        /// Accepted values.
        values: Vec<Value>,
    },
    /// `column IS NULL`.
    IsNull {
        /// Column name.
        column: String,
    },
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Shorthand for an equality comparison.
    pub fn eq(column: impl Into<String>, value: impl Into<Value>) -> Predicate {
        Predicate::Compare {
            column: column.into(),
            op: CompareOp::Eq,
            value: value.into(),
        }
    }

    /// Shorthand for a comparison.
    pub fn cmp(column: impl Into<String>, op: CompareOp, value: impl Into<Value>) -> Predicate {
        Predicate::Compare {
            column: column.into(),
            op,
            value: value.into(),
        }
    }

    /// Shorthand for a between-range.
    pub fn between(
        column: impl Into<String>,
        lo: impl Into<Value>,
        hi: impl Into<Value>,
    ) -> Predicate {
        Predicate::Between {
            column: column.into(),
            lo: lo.into(),
            hi: hi.into(),
        }
    }

    /// Conjunction of two predicates, flattening nested `And`s and
    /// dropping `True`s.
    pub fn and(self, other: Predicate) -> Predicate {
        let mut parts = Vec::new();
        for p in [self, other] {
            match p {
                Predicate::True => {}
                Predicate::And(mut inner) => parts.append(&mut inner),
                p => parts.push(p),
            }
        }
        match (parts.pop(), parts.is_empty()) {
            (None, _) => Predicate::True,
            (Some(only), true) => only,
            (Some(last), false) => {
                parts.push(last);
                Predicate::And(parts)
            }
        }
    }

    /// All column names referenced by the predicate.
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Predicate::True => {}
            Predicate::Compare { column, .. }
            | Predicate::Between { column, .. }
            | Predicate::InSet { column, .. }
            | Predicate::IsNull { column } => out.push(column),
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.collect_columns(out);
                }
            }
            Predicate::Not(p) => p.collect_columns(out),
        }
    }

    /// Bind column names to indexes against a schema.
    pub fn bind(&self, schema: &Schema) -> Result<BoundPredicate> {
        Ok(match self {
            Predicate::True => BoundPredicate::True,
            Predicate::Compare { column, op, value } => BoundPredicate::Compare {
                column: schema.column_index(column)?,
                op: *op,
                value: value.clone(),
            },
            Predicate::Between { column, lo, hi } => BoundPredicate::Between {
                column: schema.column_index(column)?,
                lo: lo.clone(),
                hi: hi.clone(),
            },
            Predicate::InSet { column, values } => BoundPredicate::InSet {
                column: schema.column_index(column)?,
                values: values.iter().cloned().collect(),
            },
            Predicate::IsNull { column } => BoundPredicate::IsNull {
                column: schema.column_index(column)?,
            },
            Predicate::And(ps) => BoundPredicate::And(
                ps.iter()
                    .map(|p| p.bind(schema))
                    .collect::<Result<Vec<_>>>()?,
            ),
            Predicate::Or(ps) => BoundPredicate::Or(
                ps.iter()
                    .map(|p| p.bind(schema))
                    .collect::<Result<Vec<_>>>()?,
            ),
            Predicate::Not(p) => BoundPredicate::Not(Box::new(p.bind(schema)?)),
        })
    }
}

/// A predicate with column references resolved to indexes (the bound
/// mirror of [`Predicate`]; variants correspond one-to-one).
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum BoundPredicate {
    True,
    Compare {
        column: usize,
        op: CompareOp,
        value: Value,
    },
    Between {
        column: usize,
        lo: Value,
        hi: Value,
    },
    InSet {
        column: usize,
        values: std::collections::BTreeSet<Value>,
    },
    IsNull {
        column: usize,
    },
    And(Vec<BoundPredicate>),
    Or(Vec<BoundPredicate>),
    Not(Box<BoundPredicate>),
}

impl BoundPredicate {
    /// Evaluate against a row. NULL cells fail every comparison except
    /// `IsNull` (two-valued simplification of SQL's three-valued logic:
    /// unknown collapses to false).
    pub fn matches(&self, row: &[Value]) -> bool {
        self.matches_with(&|column| &row[column])
    }

    /// Evaluate against a row that is not stored contiguously: `cell`
    /// hands out the value at a bound column index, borrowed or built
    /// on demand. The executor filters a borrowed activity row, the
    /// ligand cells it joins to and NULL padding through this without
    /// first building the row.
    pub fn matches_with<V: Borrow<Value>>(&self, cell: &dyn Fn(usize) -> V) -> bool {
        match self {
            BoundPredicate::True => true,
            BoundPredicate::Compare { column, op, value } => {
                let cell = cell(*column);
                let cell = cell.borrow();
                !cell.is_null() && !value.is_null() && op.matches(cell.cmp(value))
            }
            BoundPredicate::Between { column, lo, hi } => {
                let cell = cell(*column);
                let cell = cell.borrow();
                !cell.is_null() && cell >= lo && cell <= hi
            }
            BoundPredicate::InSet { column, values } => {
                let cell = cell(*column);
                let cell = cell.borrow();
                !cell.is_null() && values.contains(cell)
            }
            BoundPredicate::IsNull { column } => cell(*column).borrow().is_null(),
            BoundPredicate::And(ps) => ps.iter().all(|p| p.matches_with(cell)),
            BoundPredicate::Or(ps) => ps.iter().any(|p| p.matches_with(cell)),
            BoundPredicate::Not(p) => !p.matches_with(cell),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::value::ValueType;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::required("id", ValueType::Int),
            Column::required("name", ValueType::Text),
            Column::nullable("mw", ValueType::Float),
        ])
    }

    /// Bind against [`schema`] and evaluate against one row.
    fn holds(p: Predicate, row: &[Value]) -> bool {
        p.bind(&schema()).unwrap().matches(row)
    }

    fn row(id: i64, name: &str, mw: Option<f64>) -> Vec<Value> {
        vec![
            Value::Int(id),
            Value::from(name),
            mw.map_or(Value::Null, Value::Float),
        ]
    }

    #[test]
    fn comparisons() {
        let r = row(5, "abc", Some(150.0));
        assert!(holds(Predicate::eq("id", 5i64), &r));
        assert!(!holds(Predicate::eq("id", 6i64), &r));
        assert!(holds(Predicate::cmp("mw", CompareOp::Lt, 200.0), &r));
        assert!(holds(Predicate::cmp("mw", CompareOp::Ge, 150.0), &r));
        assert!(holds(Predicate::cmp("name", CompareOp::Gt, "aaa"), &r));
    }

    #[test]
    fn null_semantics() {
        let r = row(1, "x", None);
        // NULL fails all comparisons...
        assert!(!holds(Predicate::cmp("mw", CompareOp::Lt, 1e9), &r));
        assert!(!holds(Predicate::eq("mw", 0.0), &r));
        assert!(!holds(Predicate::cmp("mw", CompareOp::Ne, 0.0), &r));
        // ...but IS NULL matches.
        assert!(holds(
            Predicate::IsNull {
                column: "mw".into()
            },
            &r
        ));
        // NOT(compare on NULL) is true under two-valued collapse.
        let p = Predicate::Not(Box::new(Predicate::eq("mw", 0.0)));
        assert!(holds(p, &r));
    }

    #[test]
    fn between_and_in() {
        let r = row(5, "abc", Some(150.0));
        assert!(holds(Predicate::between("mw", 100.0, 200.0), &r));
        assert!(!holds(Predicate::between("mw", 160.0, 200.0), &r));
        // Inclusive bounds.
        assert!(holds(Predicate::between("mw", 150.0, 150.0), &r));
        let p = Predicate::InSet {
            column: "id".into(),
            values: vec![Value::Int(3), Value::Int(5)],
        };
        assert!(holds(p, &r));
    }

    #[test]
    fn boolean_composition() {
        let r = row(5, "abc", Some(150.0));
        let p = Predicate::And(vec![
            Predicate::eq("id", 5i64),
            Predicate::cmp("mw", CompareOp::Lt, 200.0),
        ]);
        assert!(holds(p, &r));
        let p = Predicate::Or(vec![
            Predicate::eq("id", 9i64),
            Predicate::eq("name", "abc"),
        ]);
        assert!(holds(p, &r));
        assert!(holds(Predicate::True, &r));
    }

    #[test]
    fn and_flattens() {
        let p = Predicate::eq("a", 1i64)
            .and(Predicate::True)
            .and(Predicate::eq("b", 2i64).and(Predicate::eq("c", 3i64)));
        match &p {
            Predicate::And(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected flat And, got {other:?}"),
        }
        assert_eq!(Predicate::True.and(Predicate::True), Predicate::True);
        let single = Predicate::True.and(Predicate::eq("x", 1i64));
        assert!(matches!(single, Predicate::Compare { .. }));
    }

    #[test]
    fn columns_collected() {
        let p = Predicate::And(vec![
            Predicate::eq("b", 1i64),
            Predicate::Or(vec![
                Predicate::eq("a", 2i64),
                Predicate::Not(Box::new(Predicate::IsNull { column: "b".into() })),
            ]),
        ]);
        assert_eq!(p.columns(), vec!["a", "b"]);
    }

    #[test]
    fn bind_rejects_unknown_column() {
        let s = schema();
        assert!(Predicate::eq("bogus", 1i64).bind(&s).is_err());
    }

    #[test]
    fn int_float_compare_across_types() {
        let r = row(5, "abc", Some(150.0));
        // Int literal against Float column.
        assert!(holds(Predicate::eq("mw", 150i64), &r));
        // Float literal against Int column.
        assert!(holds(Predicate::cmp("id", CompareOp::Lt, 5.5), &r));
    }
}
