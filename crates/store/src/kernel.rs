//! Vectorized filter and aggregate kernels over column slices.
//!
//! Each predicate leaf becomes one tight loop over a typed buffer that
//! produces a selection [`Bitmap`]; `AND`/`OR`/`NOT` combine bitmaps
//! wordwise. The literal's type and the comparison operator are
//! resolved once before the loop, verdict bits are packed a 64-row
//! word at a time, and validity is applied as one word-AND per block —
//! the per-row work is a bare typed comparison the compiler can
//! vectorize. The loops replicate [`crate::Value`]'s comparison
//! semantics exactly — including `Int`/`Float` widening via
//! `f64::total_cmp`, cross-type ordering by type rank, and NULL
//! failing every comparison — so a kernel evaluation over a columnar
//! table selects byte-identical row sets to the row path's
//! `BoundPredicate::matches` scan.
//!
//! String columns are dictionary-encoded, so string kernels first
//! compute one verdict per distinct dictionary code and then loop over
//! the `u32` code buffer; per-row work never touches string bytes.

use crate::bitmap::Bitmap;
use crate::expr::{BoundPredicate, CompareOp};
use crate::segment::{ColumnData, ColumnSlice};
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;

/// `Value::Int(v).cmp(lit)` without materializing the cell.
#[inline]
fn cmp_int(v: i64, lit: &Value) -> Ordering {
    match lit {
        Value::Int(b) => v.cmp(b),
        Value::Float(f) => (v as f64).total_cmp(f),
        Value::Text(_) => Ordering::Less,
        Value::Null | Value::Bool(_) => Ordering::Greater,
    }
}

/// `Value::Float(v).cmp(lit)` without materializing the cell.
#[inline]
fn cmp_float(v: f64, lit: &Value) -> Ordering {
    match lit {
        Value::Int(b) => v.total_cmp(&(*b as f64)),
        Value::Float(f) => v.total_cmp(f),
        Value::Text(_) => Ordering::Less,
        Value::Null | Value::Bool(_) => Ordering::Greater,
    }
}

/// `Value::Bool(v).cmp(lit)` without materializing the cell.
#[inline]
fn cmp_bool(v: bool, lit: &Value) -> Ordering {
    match lit {
        Value::Bool(b) => v.cmp(b),
        Value::Null => Ordering::Greater,
        Value::Int(_) | Value::Float(_) | Value::Text(_) => Ordering::Less,
    }
}

/// `Value::Text(v).cmp(lit)` without materializing the cell.
#[inline]
fn cmp_str(v: &str, lit: &Value) -> Ordering {
    match lit {
        Value::Text(s) => v.cmp(&**s),
        Value::Null | Value::Bool(_) | Value::Int(_) | Value::Float(_) => Ordering::Greater,
    }
}

/// Apply `pred` to every cell of `data` in `rows`, restricting matches
/// to valid (non-NULL) rows. Works a 64-row word at a time: per-row
/// verdicts are packed into one register word, ANDed with the validity
/// word, and ORed into the output with a single store. The word-aligned
/// body iterates 64-element `chunks_exact` slices, so the packing loop
/// carries no bounds checks and the compiler can vectorize the bare
/// typed comparison. `pred` runs on NULL rows too (their buffer cells
/// hold type defaults, see [`crate::segment`]), so it must be pure;
/// validity masking discards whatever it says there.
#[inline]
fn fill_map<T, F: Fn(&T) -> bool>(
    out: &mut Bitmap,
    col: ColumnSlice<'_>,
    rows: Range<usize>,
    data: &[T],
    pred: F,
) {
    if rows.start >= rows.end {
        return;
    }
    debug_assert!(rows.end <= col.validity.len() && rows.end <= out.len());
    debug_assert!(rows.end <= data.len());
    let vwords = col.validity.words();
    let owords = out.words_mut();
    // Partial head word (up to the first 64-row boundary), bit by bit.
    let head_end = rows.start.next_multiple_of(64).min(rows.end);
    if rows.start < head_end {
        let w = rows.start >> 6;
        let base = rows.start & 63;
        let mut bits = 0u64;
        for (j, v) in data[rows.start..head_end].iter().enumerate() {
            bits |= u64::from(pred(v)) << (base + j);
        }
        owords[w] |= bits & vwords[w];
    }
    // Aligned body: whole 64-row words from 64-element chunks.
    let body_end = head_end + ((rows.end - head_end) & !63);
    for (k, chunk) in data[head_end..body_end].chunks_exact(64).enumerate() {
        let w = (head_end >> 6) + k;
        let mut bits = 0u64;
        for (j, v) in chunk.iter().enumerate() {
            bits |= u64::from(pred(v)) << j;
        }
        owords[w] |= bits & vwords[w];
    }
    // Partial tail word, bit by bit.
    if body_end < rows.end {
        let w = body_end >> 6;
        let mut bits = 0u64;
        for (j, v) in data[body_end..rows.end].iter().enumerate() {
            bits |= u64::from(pred(v)) << j;
        }
        owords[w] |= bits & vwords[w];
    }
}

/// Row-independent verdict: `true` selects every valid row in the
/// range (validity words masked to `rows`, no data pass at all),
/// `false` selects nothing. Cross-type comparisons (a numeric column
/// against a Text/Bool/NULL literal) constant-fold to this.
#[inline]
fn fill_const(out: &mut Bitmap, col: ColumnSlice<'_>, rows: Range<usize>, verdict: bool) {
    if !verdict || rows.start >= rows.end {
        return;
    }
    debug_assert!(rows.end <= col.validity.len() && rows.end <= out.len());
    let vwords = col.validity.words();
    let owords = out.words_mut();
    let (first, last) = (rows.start >> 6, (rows.end - 1) >> 6);
    for w in first..=last {
        let mut mask = u64::MAX;
        if w == first {
            mask &= u64::MAX << (rows.start & 63);
        }
        if w == last {
            mask &= u64::MAX >> (63 - ((rows.end - 1) & 63));
        }
        owords[w] |= vwords[w] & mask;
    }
}

/// [`fill_map`] over a dictionary-code column with one precomputed
/// verdict per code. NULL rows may carry placeholder codes outside the
/// dictionary (snapshot loads only validate codes at valid rows), so
/// the lookup is bounds-tolerant; validity masking drops those rows
/// regardless.
#[inline]
fn fill_verdict(
    out: &mut Bitmap,
    col: ColumnSlice<'_>,
    codes: &[u32],
    verdict: &[bool],
    rows: Range<usize>,
) {
    fill_map(out, col, rows, codes, |&c| {
        verdict.get(c as usize).copied().unwrap_or(false)
    });
}

/// [`fill_map`] for `op` applied to a per-cell [`Ordering`]: the
/// operator dispatch is hoisted out of the loop so each arm is one
/// tight, branch-free comparison loop the compiler can vectorize.
#[inline]
fn fill_ord<T, F: Fn(&T) -> Ordering>(
    out: &mut Bitmap,
    col: ColumnSlice<'_>,
    rows: Range<usize>,
    data: &[T],
    op: CompareOp,
    ord: F,
) {
    use Ordering::*;
    match op {
        CompareOp::Eq => fill_map(out, col, rows, data, |v| ord(v) == Equal),
        CompareOp::Ne => fill_map(out, col, rows, data, |v| ord(v) != Equal),
        CompareOp::Lt => fill_map(out, col, rows, data, |v| ord(v) == Less),
        CompareOp::Le => fill_map(out, col, rows, data, |v| ord(v) != Greater),
        CompareOp::Gt => fill_map(out, col, rows, data, |v| ord(v) == Greater),
        CompareOp::Ge => fill_map(out, col, rows, data, |v| ord(v) != Less),
    }
}

/// `column <op> literal` with the literal's type resolved once, before
/// the loop. Does NOT special-case a NULL literal — [`filter_compare`]
/// rejects it up front, while BETWEEN bounds flow through [`cmp_int`]/
/// [`cmp_float`]'s NULL rank exactly like the row path's `Value`
/// ordering.
fn filter_compare_inner(
    out: &mut Bitmap,
    col: ColumnSlice<'_>,
    op: CompareOp,
    value: &Value,
    rows: Range<usize>,
) {
    match col.data {
        ColumnData::Int(d) => match *value {
            Value::Int(b) => fill_ord(out, col, rows, d, op, |v| v.cmp(&b)),
            Value::Float(f) => fill_ord(out, col, rows, d, op, |&v| (v as f64).total_cmp(&f)),
            ref lit => fill_const(out, col, rows, op.matches(cmp_int(0, lit))),
        },
        ColumnData::Float(d) => match *value {
            Value::Int(b) => {
                let b = b as f64;
                fill_ord(out, col, rows, d, op, move |v| v.total_cmp(&b));
            }
            Value::Float(f) => fill_ord(out, col, rows, d, op, |v| v.total_cmp(&f)),
            ref lit => fill_const(out, col, rows, op.matches(cmp_float(0.0, lit))),
        },
        ColumnData::Bool(d) => fill_map(out, col, rows, d, |&v| op.matches(cmp_bool(v, value))),
        ColumnData::Str { codes, dict } => {
            let verdict: Vec<bool> = dict
                .values()
                .iter()
                .map(|s| op.matches(cmp_str(s, value)))
                .collect();
            fill_verdict(out, col, codes, &verdict, rows);
        }
    }
}

/// Filter kernel for `column <op> literal` over `rows`, producing a
/// selection bitmap of length `len` (bits only inside `rows`).
pub fn filter_compare(
    col: ColumnSlice<'_>,
    op: CompareOp,
    value: &Value,
    rows: Range<usize>,
    len: usize,
) -> Bitmap {
    let mut out = Bitmap::new(len);
    if value.is_null() {
        return out; // comparisons against NULL never match
    }
    filter_compare_inner(&mut out, col, op, value, rows);
    out
}

/// Filter kernel for `column BETWEEN lo AND hi` (inclusive) over
/// `rows`. Numeric columns with numeric bounds fuse both edge tests
/// into one pass over the buffer; anything else (cross-type or NULL
/// bounds) falls back to two specialized compare passes (`>= lo`,
/// `<= hi`) combined wordwise. A NULL bound ranks below every non-null
/// cell in `Value`'s ordering (a NULL `lo` unbounds the range, a NULL
/// `hi` empties it) — identical to the row path's
/// `cell >= lo && cell <= hi`.
pub fn filter_between(
    col: ColumnSlice<'_>,
    lo: &Value,
    hi: &Value,
    rows: Range<usize>,
    len: usize,
) -> Bitmap {
    use Ordering::{Greater, Less};
    let mut out = Bitmap::new(len);
    match col.data {
        ColumnData::Int(d) => match (lo, hi) {
            (&Value::Int(l), &Value::Int(h)) => {
                fill_map(&mut out, col, rows, d, |&v| v >= l && v <= h);
            }
            (&Value::Int(l), &Value::Float(h)) => {
                fill_map(&mut out, col, rows, d, |&v| {
                    v >= l && (v as f64).total_cmp(&h) != Greater
                });
            }
            (&Value::Float(l), &Value::Int(h)) => {
                fill_map(&mut out, col, rows, d, |&v| {
                    (v as f64).total_cmp(&l) != Less && v <= h
                });
            }
            (&Value::Float(l), &Value::Float(h)) => {
                fill_map(&mut out, col, rows, d, |&v| {
                    let v = v as f64;
                    v.total_cmp(&l) != Less && v.total_cmp(&h) != Greater
                });
            }
            _ => between_fallback(&mut out, col, lo, hi, rows, len),
        },
        ColumnData::Float(d) => {
            let as_f64 = |v: &Value| match *v {
                Value::Int(b) => Some(b as f64),
                Value::Float(f) => Some(f),
                _ => None,
            };
            match (as_f64(lo), as_f64(hi)) {
                (Some(l), Some(h)) => {
                    fill_map(&mut out, col, rows, d, |v| {
                        v.total_cmp(&l) != Less && v.total_cmp(&h) != Greater
                    });
                }
                _ => between_fallback(&mut out, col, lo, hi, rows, len),
            }
        }
        ColumnData::Bool(d) => {
            fill_map(&mut out, col, rows, d, |&v| {
                cmp_bool(v, lo) != Less && cmp_bool(v, hi) != Greater
            });
        }
        ColumnData::Str { codes, dict } => {
            let verdict: Vec<bool> = dict
                .values()
                .iter()
                .map(|s| cmp_str(s, lo) != Less && cmp_str(s, hi) != Greater)
                .collect();
            fill_verdict(&mut out, col, codes, &verdict, rows);
        }
    }
    out
}

/// The general BETWEEN path: `>= lo` and `<= hi` as two compare
/// passes, ANDed wordwise.
fn between_fallback(
    out: &mut Bitmap,
    col: ColumnSlice<'_>,
    lo: &Value,
    hi: &Value,
    rows: Range<usize>,
    len: usize,
) {
    filter_compare_inner(out, col, CompareOp::Ge, lo, rows.clone());
    let mut upper = Bitmap::new(len);
    filter_compare_inner(&mut upper, col, CompareOp::Le, hi, rows);
    out.and_assign(&upper);
}

/// Filter kernel for `column IN (set)` over `rows`. String columns get
/// a per-dictionary-code membership verdict; numeric columns probe the
/// set with a stack-allocated `Value` (cross-type `Int == Float`
/// equality comes from `Value`'s own ordering).
pub fn filter_in_set(
    col: ColumnSlice<'_>,
    values: &BTreeSet<Value>,
    rows: Range<usize>,
    len: usize,
) -> Bitmap {
    let mut out = Bitmap::new(len);
    match col.data {
        ColumnData::Int(d) => {
            fill_map(&mut out, col, rows, d, |&v| values.contains(&Value::Int(v)));
        }
        ColumnData::Float(d) => fill_map(&mut out, col, rows, d, |&v| {
            values.contains(&Value::Float(v))
        }),
        ColumnData::Bool(d) => fill_map(&mut out, col, rows, d, |&v| {
            values.contains(&Value::Bool(v))
        }),
        ColumnData::Str { codes, dict } => {
            let verdict: Vec<bool> = dict
                .values()
                .iter()
                .map(|s| values.contains(&Value::Text(Arc::clone(s))))
                .collect();
            fill_verdict(&mut out, col, codes, &verdict, rows);
        }
    }
    out
}

/// Filter kernel for `column IS NULL` over `rows`: the complemented
/// validity words, masked to the row range.
pub fn filter_is_null(col: ColumnSlice<'_>, rows: Range<usize>, len: usize) -> Bitmap {
    let mut out = Bitmap::new(len);
    if rows.start >= rows.end {
        return out;
    }
    debug_assert!(rows.end <= col.validity.len() && rows.end <= len);
    let vwords = col.validity.words();
    let owords = out.words_mut();
    let (first, last) = (rows.start >> 6, (rows.end - 1) >> 6);
    for w in first..=last {
        let mut mask = u64::MAX;
        if w == first {
            mask &= u64::MAX << (rows.start & 63);
        }
        if w == last {
            mask &= u64::MAX >> (63 - ((rows.end - 1) & 63));
        }
        owords[w] |= !vwords[w] & mask;
    }
    out
}

/// Evaluate a bound predicate over `rows`, returning a selection
/// bitmap of length `len`. `columns[i]` must be the slice for bound
/// column index `i`. Selection semantics are identical to filtering
/// rows through [`BoundPredicate::matches`].
pub fn eval_predicate(
    pred: &BoundPredicate,
    columns: &[ColumnSlice<'_>],
    rows: Range<usize>,
    len: usize,
) -> Bitmap {
    match pred {
        BoundPredicate::True => {
            let mut out = Bitmap::new(len);
            out.set_range(rows.start, rows.end);
            out
        }
        BoundPredicate::Compare { column, op, value } => {
            filter_compare(columns[*column], *op, value, rows, len)
        }
        BoundPredicate::Between { column, lo, hi } => {
            filter_between(columns[*column], lo, hi, rows, len)
        }
        BoundPredicate::InSet { column, values } => {
            filter_in_set(columns[*column], values, rows, len)
        }
        BoundPredicate::IsNull { column } => filter_is_null(columns[*column], rows, len),
        BoundPredicate::And(ps) => {
            let mut out = Bitmap::new(len);
            out.set_range(rows.start, rows.end);
            for p in ps {
                let part = eval_predicate(p, columns, rows.clone(), len);
                out.and_assign(&part);
            }
            out
        }
        BoundPredicate::Or(ps) => {
            let mut out = Bitmap::new(len);
            for p in ps {
                let part = eval_predicate(p, columns, rows.clone(), len);
                out.or_assign(&part);
            }
            out
        }
        BoundPredicate::Not(p) => {
            let mut out = eval_predicate(p, columns, rows.clone(), len);
            let mut domain = Bitmap::new(len);
            domain.set_range(rows.start, rows.end);
            out.complement_within(&domain);
            out
        }
    }
}

/// Count of selected rows.
pub fn count(selection: &Bitmap) -> usize {
    selection.count_ones()
}

/// Visit every selected AND valid row index in ascending order,
/// merging the two bitmaps a word at a time.
#[inline]
fn for_each_selected_valid<F: FnMut(usize)>(selection: &Bitmap, validity: &Bitmap, mut f: F) {
    debug_assert_eq!(selection.len(), validity.len());
    for (wi, (&s, &v)) in selection.words().iter().zip(validity.words()).enumerate() {
        let mut w = s & v;
        while w != 0 {
            f((wi << 6) + w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

/// Sum of the numeric view (`Int` widened to `f64`) over selected,
/// valid rows, accumulated in ascending row order so float rounding
/// matches a row-order scan. Non-numeric columns contribute nothing.
pub fn sum_f64(col: ColumnSlice<'_>, selection: &Bitmap) -> f64 {
    let mut sum = 0.0;
    match col.data {
        ColumnData::Int(d) => {
            for_each_selected_valid(selection, col.validity, |i| sum += d[i] as f64);
        }
        ColumnData::Float(d) => for_each_selected_valid(selection, col.validity, |i| sum += d[i]),
        ColumnData::Bool(_) | ColumnData::Str { .. } => {}
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::Segment;
    use crate::value::ValueType;

    fn int_col(vals: &[Option<i64>]) -> Segment {
        let mut s = Segment::new(ValueType::Int).unwrap();
        for v in vals {
            s.push_value(&v.map_or(Value::Null, Value::Int)).unwrap();
        }
        s
    }

    #[test]
    fn compare_matches_row_semantics() {
        let seg = int_col(&[Some(1), None, Some(5), Some(-2), Some(5)]);
        let sel = filter_compare(seg.slice(), CompareOp::Ge, &Value::Int(1), 0..5, 5);
        assert_eq!(sel.iter_ones().collect::<Vec<_>>(), vec![0, 2, 4]);
        // NULL literal matches nothing, even with Ne.
        let sel = filter_compare(seg.slice(), CompareOp::Ne, &Value::Null, 0..5, 5);
        assert_eq!(sel.count_ones(), 0);
        // Cross-type: Int cells vs Float literal widen.
        let sel = filter_compare(seg.slice(), CompareOp::Lt, &Value::Float(1.5), 0..5, 5);
        assert_eq!(sel.iter_ones().collect::<Vec<_>>(), vec![0, 3]);
        // Cross-type-rank: every Int sorts below any Text.
        let sel = filter_compare(seg.slice(), CompareOp::Lt, &Value::from("z"), 0..5, 5);
        assert_eq!(sel.count_ones(), 4); // all non-null rows
    }

    #[test]
    fn range_restricts_rows() {
        let seg = int_col(&[Some(1), Some(2), Some(3), Some(4)]);
        let sel = filter_compare(seg.slice(), CompareOp::Ge, &Value::Int(0), 1..3, 4);
        assert_eq!(sel.iter_ones().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn between_and_in_set() {
        let seg = int_col(&[Some(1), Some(5), None, Some(9)]);
        let sel = filter_between(seg.slice(), &Value::Int(2), &Value::Float(9.0), 0..4, 4);
        assert_eq!(sel.iter_ones().collect::<Vec<_>>(), vec![1, 3]);
        let set: BTreeSet<Value> = [Value::Float(5.0), Value::Int(9)].into_iter().collect();
        let sel = filter_in_set(seg.slice(), &set, 0..4, 4);
        assert_eq!(sel.iter_ones().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn string_kernels_use_dictionary_verdicts() {
        let mut seg = Segment::new(ValueType::Text).unwrap();
        for v in [Some("b"), Some("a"), None, Some("c"), Some("a")] {
            seg.push_value(&v.map_or(Value::Null, Value::from)).unwrap();
        }
        let sel = filter_compare(seg.slice(), CompareOp::Le, &Value::from("b"), 0..5, 5);
        assert_eq!(sel.iter_ones().collect::<Vec<_>>(), vec![0, 1, 4]);
        let set: BTreeSet<Value> = [Value::from("a"), Value::from("z")].into_iter().collect();
        let sel = filter_in_set(seg.slice(), &set, 0..5, 5);
        assert_eq!(sel.iter_ones().collect::<Vec<_>>(), vec![1, 4]);
        let sel = filter_is_null(seg.slice(), 0..5, 5);
        assert_eq!(sel.iter_ones().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn boolean_composition_and_not_domain() {
        let seg = int_col(&[Some(1), Some(2), Some(3), None, Some(5)]);
        let cols = [seg.slice()];
        let pred = BoundPredicate::Not(Box::new(BoundPredicate::Compare {
            column: 0,
            op: CompareOp::Lt,
            value: Value::Int(3),
        }));
        // NOT over rows 0..5: NULL row fails the comparison, so NOT
        // matches it — exactly the row path's two-valued collapse.
        let sel = eval_predicate(&pred, &cols, 0..5, 5);
        assert_eq!(sel.iter_ones().collect::<Vec<_>>(), vec![2, 3, 4]);
        // ...but never outside the evaluated range.
        let sel = eval_predicate(&pred, &cols, 1..4, 5);
        assert_eq!(sel.iter_ones().collect::<Vec<_>>(), vec![2, 3]);
        let both = BoundPredicate::And(vec![
            BoundPredicate::Compare {
                column: 0,
                op: CompareOp::Gt,
                value: Value::Int(1),
            },
            BoundPredicate::Or(vec![BoundPredicate::IsNull { column: 0 }]),
        ]);
        assert_eq!(eval_predicate(&both, &cols, 0..5, 5).count_ones(), 0);
    }

    #[test]
    fn aggregates() {
        let seg = int_col(&[Some(1), Some(2), None, Some(4)]);
        let mut sel = Bitmap::new(4);
        sel.set_range(0, 4);
        assert_eq!(count(&sel), 4);
        assert_eq!(sum_f64(seg.slice(), &sel), 7.0);
        assert_eq!(sum_f64(seg.slice(), &Bitmap::new(4)), 0.0);
        let mut only_null = Bitmap::new(4);
        only_null.set(2);
        assert_eq!(sum_f64(seg.slice(), &only_null), 0.0);
    }
}
