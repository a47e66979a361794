//! Property-based tests for the embedded store.

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree_store::expr::{CompareOp, Predicate};
use drugtree_store::schema::{Column, Schema};
use drugtree_store::snapshot::{load_catalog, save_catalog};
use drugtree_store::table::Table;
use drugtree_store::value::{Value, ValueType};
use drugtree_store::{Catalog, Dictionary};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-50i64..50).prop_map(Value::Int),
        (-50.0f64..50.0).prop_map(Value::Float),
        "[a-e]{0,3}".prop_map(Value::from),
        any::<bool>().prop_map(Value::Bool),
        Just(Value::Null),
    ]
}

fn test_schema() -> Schema {
    Schema::new(vec![
        Column::required("k", ValueType::Int),
        Column::nullable("v", ValueType::Float),
    ])
}

/// Four-typed schema exercising every segment kind.
fn wide_schema() -> Schema {
    Schema::new(vec![
        Column::required("k", ValueType::Int),
        Column::nullable("v", ValueType::Float),
        Column::nullable("s", ValueType::Text),
        Column::nullable("b", ValueType::Bool),
    ])
}

/// One row for [`wide_schema`]. The float column mixes `Int` cells in
/// (the schema's numeric widening) so kernels must replicate the row
/// path's exact `Int`/`Float` comparison semantics.
fn arb_wide_row() -> impl Strategy<Value = Vec<Value>> {
    (
        -20i64..20,
        prop_oneof![
            Just(Value::Null),
            (-6i64..6).prop_map(Value::Int),
            (-5.0f64..5.0).prop_map(Value::Float),
        ],
        proptest::option::of("[a-c]{0,2}"),
        proptest::option::of(any::<bool>()),
    )
        .prop_map(|(k, v, s, b)| {
            vec![
                Value::Int(k),
                v,
                s.map_or(Value::Null, Value::from),
                b.map_or(Value::Null, Value::Bool),
            ]
        })
}

fn arb_column_name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("k".to_string()),
        Just("v".to_string()),
        Just("s".to_string()),
        Just("b".to_string()),
    ]
}

fn arb_compare_op() -> impl Strategy<Value = CompareOp> {
    prop_oneof![
        Just(CompareOp::Eq),
        Just(CompareOp::Ne),
        Just(CompareOp::Lt),
        Just(CompareOp::Le),
        Just(CompareOp::Gt),
        Just(CompareOp::Ge),
    ]
}

/// One predicate leaf — literals deliberately cross types (an Int
/// probe against the Text column, NULL literals, …) so the kernels'
/// type-rank and NULL handling get exercised, not just the happy path.
fn arb_predicate_leaf() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        (arb_column_name(), arb_compare_op(), arb_value())
            .prop_map(|(column, op, value)| { Predicate::Compare { column, op, value } }),
        (arb_column_name(), arb_value(), arb_value())
            .prop_map(|(column, lo, hi)| { Predicate::Between { column, lo, hi } }),
        (
            arb_column_name(),
            proptest::collection::vec(arb_value(), 0..4)
        )
            .prop_map(|(column, values)| Predicate::InSet { column, values }),
        arb_column_name().prop_map(|column| Predicate::IsNull { column }),
        Just(Predicate::True),
    ]
}

/// Bounded-depth predicate tree over the leaves.
fn arb_predicate() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        arb_predicate_leaf(),
        proptest::collection::vec(arb_predicate_leaf(), 0..4).prop_map(Predicate::And),
        proptest::collection::vec(arb_predicate_leaf(), 0..4).prop_map(Predicate::Or),
        arb_predicate_leaf().prop_map(|p| Predicate::Not(Box::new(p))),
    ]
}

proptest! {
    #[test]
    fn value_ordering_is_total_and_consistent(
        a in arb_value(), b in arb_value(), c in arb_value()
    ) {
        use std::cmp::Ordering;
        // Antisymmetry.
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // Transitivity (spot check through sort stability).
        let mut v = [a.clone(), b.clone(), c.clone()];
        v.sort();
        prop_assert!(v.windows(2).all(|w| w[0] <= w[1]));
        // Reflexivity.
        prop_assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn equal_values_hash_equal(a in arb_value(), b in arb_value()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        if a == b {
            let mut ha = DefaultHasher::new();
            let mut hb = DefaultHasher::new();
            a.hash(&mut ha);
            b.hash(&mut hb);
            prop_assert_eq!(ha.finish(), hb.finish(), "{:?} vs {:?}", a, b);
        }
    }

    /// A text cell is its text, however it was made: borrowed, owned,
    /// or handed out by a pool that has seen the string before.
    #[test]
    fn text_cells_agree_however_they_were_made(
        a in "[a-e]{0,3}", b in "[a-e]{0,3}", noise in proptest::collection::vec("[a-e]{0,3}", 0..6)
    ) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |v: &Value| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        let mut pool = Dictionary::new();
        for s in &noise {
            pool.intern(&s.as_str().into());
        }
        let made = |s: &String, pool: &mut Dictionary| {
            let code = pool.intern(&s.as_str().into());
            let pooled = pool.cell_of(code).unwrap();
            [Value::from(s.as_str()), Value::from(s.clone()), pooled.clone(), pooled]
        };
        let (xs, ys) = (made(&a, &mut pool), made(&b, &mut pool));
        for x in &xs {
            prop_assert_eq!(x.as_text(), Some(a.as_str()));
            prop_assert_eq!(x.to_string(), format!("{a:?}"));
            prop_assert_eq!(hash(x), hash(&xs[0]));
            for y in &ys {
                prop_assert_eq!(x.cmp(y), a.cmp(&b));
                prop_assert_eq!(x == y, a == b);
            }
        }
    }

    /// The key index against a linear scan of a `Vec` model, for a
    /// key declared before the appends and for one declared after.
    #[test]
    fn index_agrees_with_scan(
        rows in proptest::collection::vec((-20i64..20, proptest::option::of(-5.0f64..5.0)), 0..60),
        probe in -20i64..20,
        cut in 0usize..60,
    ) {
        let model: Vec<Vec<Value>> = rows
            .iter()
            .map(|(k, v)| vec![Value::Int(*k), v.map_or(Value::Null, Value::Float)])
            .collect();
        let key = Value::Int(probe);
        let scan = |upto: usize| -> Vec<u32> {
            (0..upto).filter(|&i| model[i][0] == key).map(|i| i as u32).collect()
        };
        let cut = cut.min(model.len());
        let mut keyed = Table::new("t", test_schema()).unwrap().with_key("k").unwrap();
        for row in &model[..cut] {
            keyed.append_row(row).unwrap();
        }
        let head = scan(cut);
        prop_assert_eq!(keyed.key_rows(&key), head.as_slice());
        for row in &model[cut..] {
            keyed.append_row(row).unwrap();
        }
        let all = scan(model.len());
        prop_assert_eq!(keyed.key_rows(&key), all.as_slice());
        let late = Table::from_rows("t", test_schema(), &model).unwrap().with_key("k").unwrap();
        prop_assert_eq!(late.key_rows(&key), all.as_slice());
    }

    #[test]
    fn snapshot_roundtrip(
        rows in proptest::collection::vec((-20i64..20, proptest::option::of(-5.0f64..5.0)), 0..40)
    ) {
        let mut c = Catalog::new();
        let mut t = Table::new("t", test_schema()).unwrap().with_key("k").unwrap();
        for (k, v) in &rows {
            t.append_row(&[Value::Int(*k), v.map_or(Value::Null, Value::Float)]).unwrap();
        }
        c.create_table(t).unwrap();

        let json = save_catalog(&c).unwrap();
        let back = load_catalog(&json).unwrap();
        let t1 = c.table("t").unwrap();
        let t2 = back.table("t").unwrap();
        prop_assert_eq!(t1.len(), t2.len());
        let rows1: Vec<Vec<Value>> = (0..t1.len()).map(|i| t1.row(i)).collect();
        let rows2: Vec<Vec<Value>> = (0..t2.len()).map(|i| t2.row(i)).collect();
        prop_assert_eq!(rows1, rows2);
        // Double round-trip is byte-identical.
        prop_assert_eq!(save_catalog(&back).unwrap(), json);
    }

    /// A row built from the columns is the row appended, NULLs and
    /// `Int` cells of the Float column included.
    #[test]
    fn rows_read_back_as_appended(rows in proptest::collection::vec(arb_wide_row(), 0..60)) {
        let t = Table::from_rows("t", wide_schema(), &rows).unwrap();
        prop_assert_eq!(t.len(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(&t.row(i), row);
            for (c, cell) in row.iter().enumerate() {
                prop_assert_eq!(&t.cell(i, c), cell);
            }
        }
    }

    #[test]
    fn columnar_kernels_match_row_scan(
        rows in proptest::collection::vec(arb_wide_row(), 0..60),
        pred in arb_predicate(),
        cut in 0usize..60,
    ) {
        // Kernel evaluation over the table must select exactly the rows
        // `BoundPredicate::matches` selects over the `Vec` model.
        let schema = wide_schema();
        let t = Table::from_rows("t", schema.clone(), &rows).unwrap();
        let bound = pred.bind(&schema).unwrap();

        let via_rows: Vec<usize> = (0..rows.len()).filter(|&i| bound.matches(&rows[i])).collect();
        let via_kernels: Vec<usize> = t.eval(&bound, 0..t.len()).iter_ones().collect();
        prop_assert_eq!(&via_kernels, &via_rows, "pred {:?}", pred);

        // The cell-accessor form over a row held in two pieces (the
        // executor's activity cells ‖ joined cells) selects the same.
        let split = cut % schema.arity();
        let via_cells: Vec<usize> = (0..rows.len())
            .filter(|&i| {
                let (head, tail) = rows[i].split_at(split);
                bound.matches_with(&|c| if c < split { &head[c] } else { &tail[c - split] })
            })
            .collect();
        prop_assert_eq!(&via_cells, &via_rows, "pred {:?} split {}", pred, split);

        // A restricted row range must agree with filtering the same
        // window of the row scan.
        let cut = cut.min(rows.len());
        let windowed: Vec<usize> = via_rows.iter().copied().filter(|&i| i < cut).collect();
        let via_range: Vec<usize> = t.eval(&bound, 0..cut).iter_ones().collect();
        prop_assert_eq!(via_range, windowed, "pred {:?} cut {}", pred, cut);
    }
}
