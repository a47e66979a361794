//! Property-based tests for the query language and the optimizer's
//! Canonicalize phase: `Display` ∘ `parse` is the identity on
//! expressible queries; canonicalization reaches a fixpoint that a
//! second run leaves unchanged and never alters what a predicate
//! matches.

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree_query::ast::{Metric, Query, QueryKind, Scope};
use drugtree_store::expr::{CompareOp, Predicate};
use drugtree_store::value::Value;
use proptest::prelude::*;

fn arb_label() -> impl Strategy<Value = String> {
    // Labels exercise quoting, spaces, and embedded quotes.
    prop_oneof![
        "[A-Za-z][A-Za-z0-9_]{0,8}",
        Just("clade A".to_string()),
        Just("it's".to_string()),
    ]
}

fn arb_scope() -> impl Strategy<Value = Scope> {
    prop_oneof![
        Just(Scope::Tree),
        arb_label().prop_map(Scope::Subtree),
        proptest::collection::vec(arb_label(), 1..4).prop_map(Scope::Leaves),
    ]
}

fn arb_atom() -> impl Strategy<Value = Predicate> {
    let column = prop_oneof![
        Just("p_activity".to_string()),
        Just("mw".to_string()),
        Just("year".to_string()),
        Just("ligand_id".to_string()),
    ];
    let op = prop_oneof![
        Just(CompareOp::Eq),
        Just(CompareOp::Ne),
        Just(CompareOp::Lt),
        Just(CompareOp::Le),
        Just(CompareOp::Gt),
        Just(CompareOp::Ge),
    ];
    let literal = prop_oneof![
        (-100i64..100).prop_map(Value::Int),
        (0.25f64..100.0).prop_map(Value::Float),
        "[a-z]{1,6}".prop_map(Value::from),
    ];
    prop_oneof![
        (column.clone(), op, literal.clone()).prop_map(|(column, op, value)| Predicate::Compare {
            column,
            op,
            value
        }),
        (column.clone(), 0i64..50, 1i64..50).prop_map(|(column, lo, span)| {
            Predicate::Between {
                column,
                lo: Value::Int(lo),
                hi: Value::Int(lo + span),
            }
        }),
        (column.clone(), proptest::collection::vec(literal, 1..4))
            .prop_map(|(column, values)| Predicate::InSet { column, values }),
        column.prop_map(|column| Predicate::IsNull { column }),
    ]
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    let leaf = prop_oneof![Just(Predicate::True), arb_atom()];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Predicate::And),
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Predicate::Or),
            inner.prop_map(|p| Predicate::Not(Box::new(p))),
        ]
    })
}

fn arb_kind() -> impl Strategy<Value = QueryKind> {
    prop_oneof![
        Just(QueryKind::Activities),
        ("[a-z_]{2,10}", 1usize..50, any::<bool>()).prop_map(|(_, k, descending)| {
            QueryKind::TopK {
                by: "p_activity".into(),
                k,
                descending,
            }
        }),
        prop_oneof![
            Just(Metric::Count),
            Just(Metric::DistinctLigands),
            Just(Metric::MaxPActivity),
            Just(Metric::MeanPActivity),
        ]
        .prop_map(|metric| QueryKind::AggregateChildren { metric }),
        Just(QueryKind::CountPerLeaf),
    ]
}

fn arb_query() -> impl Strategy<Value = Query> {
    (
        arb_scope(),
        arb_predicate(),
        proptest::option::of(("[A-Za-z0-9]{1,8}", 0.0f64..1.0)),
        proptest::option::of("[A-Za-z0-9=#]{1,8}"),
        arb_kind(),
    )
        .prop_map(|(scope, predicate, similarity, substructure, kind)| {
            let mut q = Query::activities(scope).filter(predicate);
            if let Some((reference, min)) = similarity {
                q = q.similar_to(reference, min);
            }
            if let Some(pattern) = substructure {
                q = q.containing(pattern);
            }
            q.kind = kind;
            q
        })
}

/// Canonicalize as the optimizer's Canonicalize phase does.
fn normalize(p: Predicate) -> Predicate {
    let (canonical, _) = drugtree_query::ast::canon::canonicalize(p).expect("converges");
    canonical
}

/// A row over the unified schema; choice 0 is NULL (the case negation
/// rewrites must not get wrong), others a type-correct value.
fn row_from_seed(seed: &[(u8, i64, f64)]) -> Vec<Value> {
    use drugtree_query::dataset::unified_schema;
    use drugtree_store::value::ValueType;
    unified_schema()
        .columns()
        .iter()
        .zip(seed.iter().cycle())
        .map(|(c, (choice, i, f))| {
            if *choice == 0 {
                return Value::Null;
            }
            match c.ty {
                ValueType::Int => Value::Int(*i),
                ValueType::Float => Value::Float(*f),
                ValueType::Text => Value::from(format!("t{}", i.rem_euclid(5))),
                _ => Value::Null,
            }
        })
        .collect()
}

proptest! {
    #[test]
    fn display_parse_roundtrip(q in arb_query()) {
        let text = q.to_string();
        let parsed = Query::parse(&text);
        let parsed = parsed.unwrap_or_else(|e| panic!("{text:?}: {e}"));
        // Float literals may lose nothing (Display uses full precision),
        // so exact equality is expected.
        prop_assert_eq!(parsed, q, "{}", text);
    }

    #[test]
    fn parse_never_panics(text in "\\PC{0,60}") {
        let _ = Query::parse(&text);
    }

    #[test]
    fn predicate_and_flattening_preserves_semantics(
        preds in proptest::collection::vec(arb_atom(), 1..5)
    ) {
        // Folding with `and` then evaluating equals evaluating each
        // conjunct — over a row universe built from the unified schema.
        use drugtree_query::dataset::unified_schema;
        let schema = unified_schema();
        let row: Vec<Value> = schema
            .columns()
            .iter()
            .map(|c| match c.ty {
                drugtree_store::value::ValueType::Int => Value::Int(7),
                drugtree_store::value::ValueType::Float => Value::Float(6.5),
                drugtree_store::value::ValueType::Text => Value::from("abc"),
                _ => Value::Null,
            })
            .collect();
        let folded = preds
            .iter()
            .cloned()
            .fold(Predicate::True, Predicate::and);
        let each: bool = preds
            .iter()
            .all(|p| p.bind(schema).unwrap().matches(&row));
        prop_assert_eq!(folded.bind(schema).unwrap().matches(&row), each);
    }

    /// The Canonicalize phase's fixpoint contract (the rule returns
    /// only after a pass changes nothing): canonicalizing a canonical
    /// predicate reports no change and returns it as is.
    #[test]
    fn canonicalization_is_idempotent(p in arb_predicate()) {
        let n = normalize(p);
        let (next, changed) = drugtree_query::ast::canon::canonicalize(n.clone()).unwrap();
        prop_assert!(!changed, "a normalized predicate changed: {n:?} -> {next:?}");
        prop_assert_eq!(&next, &n);
    }

    /// Canonicalization is exact under the evaluator's two-valued
    /// `matches` semantics: the normalized predicate accepts exactly
    /// the rows the original accepts — including rows with NULL cells,
    /// where a careless `not (c = v)` → `c != v` rewrite would differ.
    #[test]
    fn canonicalization_preserves_semantics(
        p in arb_predicate(),
        seed in proptest::collection::vec((0u8..4, -50i64..50, 0.0f64..10.0), 40),
    ) {
        use drugtree_query::dataset::unified_schema;
        let schema = unified_schema();
        let row = row_from_seed(&seed);
        let n = normalize(p.clone());
        let original = p.bind(schema).unwrap().matches(&row);
        let canonical = n.bind(schema).unwrap().matches(&row);
        prop_assert_eq!(original, canonical, "original {:?} vs canonical {:?}", p, n);
    }
}
