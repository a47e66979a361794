//! Property-based tests for the embedded store.

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree_store::columnar::ColumnarTable;
use drugtree_store::expr::{CompareOp, Predicate};
use drugtree_store::schema::{Column, Schema};
use drugtree_store::snapshot::{load_catalog, save_catalog};
use drugtree_store::table::{IndexKind, RowId, Table};
use drugtree_store::value::{Value, ValueType};
use drugtree_store::{Catalog, Dictionary};
use proptest::prelude::*;
use std::ops::Bound;

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
            pool.cell(s);
        }
        let made = |s: &String, pool: &mut Dictionary| {
            [Value::from(s.as_str()), Value::from(s.clone()), pool.cell(s), pool.cell(s)]
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

    #[test]
    fn index_agrees_with_scan(
        rows in proptest::collection::vec((-20i64..20, proptest::option::of(-5.0f64..5.0)), 0..60),
        probe in -20i64..20,
        lo in -5.0f64..5.0,
        span in 0.0f64..5.0,
    ) {
        let mut indexed = Table::new("t", test_schema());
        indexed.create_index("k", IndexKind::BTree).unwrap();
        indexed.create_index("v", IndexKind::BTree).unwrap();
        let mut plain = Table::new("t", test_schema());
        for (k, v) in &rows {
            let row = vec![Value::Int(*k), v.map_or(Value::Null, Value::Float)];
            indexed.insert(row.clone()).unwrap();
            plain.insert(row).unwrap();
        }

        // Equality.
        let key = Value::Int(probe);
        let mut a: Vec<_> = indexed.eq_lookup("k").unwrap().rows(&key).collect();
        let mut b: Vec<_> = plain.eq_lookup("k").unwrap().rows(&key).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);

        // Range over the float column. NULLs must be excluded by both
        // paths; the B-tree never stores a NULL match for a float range
        // because Null sorts below every float we probe with.
        let lo_v = Value::Float(lo);
        let hi_v = Value::Float(lo + span);
        let mut a: Vec<RowId> = indexed
            .lookup_range("v", Bound::Included(&lo_v), Bound::Included(&hi_v))
            .unwrap()
            .collect();
        let mut b: Vec<RowId> = plain
            .lookup_range("v", Bound::Included(&lo_v), Bound::Included(&hi_v))
            .unwrap()
            .collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn predicate_push_equivalence(
        rows in proptest::collection::vec((-20i64..20, proptest::option::of(-5.0f64..5.0)), 0..50),
        threshold in -5.0f64..5.0,
    ) {
        // select(pred) must equal filtering a full scan by hand.
        let mut t = Table::new("t", test_schema());
        for (k, v) in &rows {
            t.insert(vec![Value::Int(*k), v.map_or(Value::Null, Value::Float)]).unwrap();
        }
        let pred = Predicate::cmp("v", CompareOp::Ge, threshold).bind(t.schema()).unwrap();
        let selected: Vec<RowId> = t.select(&pred).collect();
        let manual: Vec<RowId> = t
            .scan()
            .filter(|(_, r)| r[1].as_f64().is_some_and(|v| v >= threshold))
            .map(|(id, _)| id)
            .collect();
        prop_assert_eq!(selected, manual);
    }

    #[test]
    fn snapshot_roundtrip(
        rows in proptest::collection::vec((-20i64..20, proptest::option::of(-5.0f64..5.0)), 0..40)
    ) {
        let mut c = Catalog::new();
        let mut t = Table::new("t", test_schema());
        t.create_index("k", IndexKind::Hash).unwrap();
        for (k, v) in &rows {
            t.insert(vec![Value::Int(*k), v.map_or(Value::Null, Value::Float)]).unwrap();
        }
        c.create_table(t).unwrap();

        let json = save_catalog(&c).unwrap();
        let back = load_catalog(&json).unwrap();
        let t1 = c.table("t").unwrap();
        let t2 = back.table("t").unwrap();
        prop_assert_eq!(t1.len(), t2.len());
        let rows1: Vec<Vec<Value>> = t1.scan().map(|(_, r)| r.to_vec()).collect();
        let rows2: Vec<Vec<Value>> = t2.scan().map(|(_, r)| r.to_vec()).collect();
        prop_assert_eq!(rows1, rows2);
        // Double round-trip is byte-identical.
        prop_assert_eq!(save_catalog(&back).unwrap(), json);
    }

    #[test]
    fn columnar_kernels_match_row_scan(
        rows in proptest::collection::vec(arb_wide_row(), 0..60),
        pred in arb_predicate(),
        cut in 0usize..60,
    ) {
        // The same rows in a row table and a columnar table; kernel
        // evaluation must select exactly the ids the row path selects.
        let schema = wide_schema();
        let mut t = Table::new("t", schema.clone());
        let mut ct = ColumnarTable::new("t", schema.clone()).unwrap();
        for row in &rows {
            t.insert(row.clone()).unwrap();
            ct.append_row(row).unwrap();
        }
        let bound = pred.bind(&schema).unwrap();

        let via_rows: Vec<usize> = t.select(&bound).map(|id| id.0 as usize).collect();
        let via_kernels: Vec<usize> = ct.eval(&bound, 0..ct.len()).iter_ones().collect();
        prop_assert_eq!(&via_kernels, &via_rows, "pred {:?}", pred);

        // The cell-accessor form over a row held in two pieces (the
        // executor's activity cells ‖ joined cells) selects the same.
        let split = cut % schema.arity();
        let via_cells: Vec<usize> = (0..rows.len())
            .filter(|&i| {
                let (head, tail) = t.get(RowId(i as u64)).unwrap().split_at(split);
                bound.matches_with(&|c| if c < split { &head[c] } else { &tail[c - split] })
            })
            .collect();
        prop_assert_eq!(&via_cells, &via_rows, "pred {:?} split {}", pred, split);

        // A restricted row range must agree with filtering the same
        // window of the row scan.
        let cut = cut.min(rows.len());
        let windowed: Vec<usize> = via_rows.iter().copied().filter(|&i| i < cut).collect();
        let via_range: Vec<usize> = ct.eval(&bound, 0..cut).iter_ones().collect();
        prop_assert_eq!(via_range, windowed, "pred {:?} cut {}", pred, cut);
    }

    #[test]
    fn deletes_never_resurface(
        rows in proptest::collection::vec(-20i64..20, 1..40),
        delete_mask in proptest::collection::vec(any::<bool>(), 1..40),
    ) {
        let mut t = Table::new("t", test_schema());
        t.create_index("k", IndexKind::BTree).unwrap();
        let mut ids = Vec::new();
        for k in &rows {
            ids.push(t.insert(vec![Value::Int(*k), Value::Null]).unwrap());
        }
        let mut live = rows.len();
        for (i, (&id, del)) in ids.iter().zip(&delete_mask).enumerate() {
            if *del {
                t.delete(id).unwrap();
                live -= 1;
                // Deleted row gone from index and scan.
                let key = Value::Int(rows[i]);
                prop_assert!(t.eq_lookup("k").unwrap().rows(&key).all(|live| live != id));
                prop_assert!(t.get(id).is_err());
            }
        }
        prop_assert_eq!(t.len(), live);
        prop_assert_eq!(t.scan().count(), live);
    }
}
