//! Generated query text, fed to the differential harness
//! (`support`) over one 64-leaf bundle: the naive planner against
//! `full()` and `full()` with the materialized view and the columnar
//! mirror, each warm and cold.
//!
//! The generator is structure-aware: it emits sentences of the text
//! language (kind, scope, `where`, `containing`, `similar to`, `top`)
//! whose literals are hostile — string literals up to 1 MiB, `in (…)`
//! lists of up to 10,000 values, and numeric edge cases (±2^53 ± 1,
//! `i64::MIN`/`MAX`, `±1e999`, 400-digit integers and fractions,
//! inverted `between`, similarity thresholds outside [0, 1]). For every
//! query either every system returns an error, or every system returns
//! the same normalised rows; none may panic.

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use support::{Matrix, Step, Systems};

mod support;

/// Leaves of the bundle every query runs against.
const LEAVES: usize = 64;
/// The longest string literal the generator emits, in bytes.
const MAX_LITERAL_BYTES: usize = 1 << 20;
/// The longest `in (…)` list the generator emits.
const MAX_IN_LIST: usize = 10_000;

/// Each numeric column with the span its values fall in, so ordinary
/// literals land among (and on) the data rather than past it.
const NUMERIC_COLUMNS: &[(&str, f64, f64)] = &[
    ("leaf_rank", 0.0, 64.0),
    ("value_nm", 1.0, 100_000.0),
    ("p_activity", 4.0, 10.0),
    ("year", 1995.0, 2014.0),
    ("mw", 40.0, 700.0),
    ("hbd", 0.0, 6.0),
    ("hba", 0.0, 10.0),
    ("rings", 0.0, 5.0),
];
const TEXT_COLUMNS: &[&str] = &[
    "protein_accession",
    "ligand_id",
    "activity_type",
    "source",
    "name",
    "smiles",
];
const OPS: &[&str] = &["=", "!=", "<", "<=", ">", ">="];

thread_local! {
    /// The harness's systems over one bundle, one set per test thread,
    /// so no other test touches their caches.
    static SYSTEMS: Systems = {
        let bundle = SyntheticBundle::generate(&WorkloadSpec::default().leaves(LEAVES));
        Systems::new(&Matrix::fixed(), || bundle.build_dataset())
    };
}

/// Run `text` on every system: `Ok(true)` when all answered alike,
/// `Ok(false)` when all refused it.
fn agree(text: &str) -> Result<bool, String> {
    let answered = SYSTEMS.with(|systems| systems.run(&[Step::Text(text.to_string())]))?;
    Ok(answered == 1)
}

/// Numeric literals at the edges of the tokenizer, of the `i64` and
/// `f64` parsers, and of the planner's float arithmetic.
fn edge_numbers() -> Vec<String> {
    let two_53 = 1i64 << 53;
    let mut edges: Vec<String> = [
        two_53 - 1,
        two_53 + 1,
        -two_53 - 1,
        -two_53 + 1,
        i64::MIN,
        i64::MAX,
    ]
    .iter()
    .map(i64::to_string)
    .collect();
    edges.extend(["1e999", "-1e999", "1e-999", "-0", "0"].map(String::from));
    // 400-digit integers and fractions: past i64, and past (or below)
    // what an f64 holds.
    edges.push("9".repeat(400));
    edges.push(format!("-1{}", "0".repeat(399)));
    edges.push(format!("0.{}1", "0".repeat(398)));
    edges.push(format!("{}.{}", "7".repeat(200), "3".repeat(199)));
    edges
}

/// What a numeric literal is drawn from: its kind, an edge case, and a
/// position inside the column's span.
fn arb_number_seed() -> impl Strategy<Value = (usize, usize, f64)> {
    (0..4usize, 0..edge_numbers().len(), 0.0f64..1.0)
}

/// A literal for numeric column `c`: an edge case one time in four,
/// else an integer or a float inside the column's span.
fn number_for(c: usize, (kind, edge, at): (usize, usize, f64)) -> String {
    let (_, lo, hi) = NUMERIC_COLUMNS[c];
    let x = lo + at * (hi - lo);
    match kind {
        0 => edge_numbers().swap_remove(edge),
        1 | 2 => format!("{}", x.round() as i64),
        _ => format!("{x}"),
    }
}

/// A quoted string literal: a value the bundle holds, or a fill
/// character repeated up to [`MAX_LITERAL_BYTES`] bytes (a quote is
/// written doubled, as the language escapes it).
fn arb_text_literal() -> impl Strategy<Value = String> {
    const VALUES: &[&str] = &["P0007", "L0003", "Ki", "IC50", "", "clade1"];
    const FILLS: &[char] = &['a', '\'', 'é', ' '];
    const LENGTHS: &[usize] = &[1, 64, 4096, 65_536, MAX_LITERAL_BYTES];
    prop_oneof![
        (0..VALUES.len()).prop_map(|i| quote(VALUES[i])),
        (0..FILLS.len(), 0..LENGTHS.len()).prop_map(|(f, l)| {
            let fill = FILLS[f];
            quote(&fill.to_string().repeat(LENGTHS[l] / fill.len_utf8()))
        }),
    ]
}

fn quote(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

/// `column in (…)` with up to [`MAX_IN_LIST`] values of the column's
/// type; accessions and ligand ids run past the ones the bundle holds.
fn arb_in_list() -> impl Strategy<Value = String> {
    const SIZES: &[usize] = &[1, 3, 100, MAX_IN_LIST];
    (0..4usize, 0..SIZES.len(), 0..1000u32).prop_map(|(kind, size, offset)| {
        let n = SIZES[size];
        let (column, values): (&str, Vec<String>) = match kind {
            0 => (
                "protein_accession",
                (0..n)
                    .map(|i| quote(&format!("P{:04}", (i + offset as usize) % 10_000)))
                    .collect(),
            ),
            1 => (
                "ligand_id",
                (0..n)
                    .map(|i| quote(&format!("L{:04}", i % 10_000)))
                    .collect(),
            ),
            2 => (
                "year",
                (0..n)
                    .map(|i| (1990 + (i + offset as usize) % 30).to_string())
                    .collect(),
            ),
            _ => (
                "p_activity",
                (0..n)
                    .map(|i| format!("{}", 4.0 + (i % 60) as f64 / 10.0))
                    .collect(),
            ),
        };
        format!("{column} in ({})", values.join(", "))
    })
}

fn arb_atom() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => (0..NUMERIC_COLUMNS.len(), 0..OPS.len(), arb_number_seed()).prop_map(|(c, op, n)| {
            format!("{} {} {}", NUMERIC_COLUMNS[c].0, OPS[op], number_for(c, n))
        }),
        // Either order: an inverted `between` selects nothing.
        2 => (0..NUMERIC_COLUMNS.len(), arb_number_seed(), arb_number_seed()).prop_map(
            |(c, lo, hi)| {
                let (lo, hi) = (number_for(c, lo), number_for(c, hi));
                format!("{} between {lo} and {hi}", NUMERIC_COLUMNS[c].0)
            }
        ),
        2 => (0..TEXT_COLUMNS.len(), 0..OPS.len(), arb_text_literal())
            .prop_map(|(c, op, s)| format!("{} {} {s}", TEXT_COLUMNS[c], OPS[op])),
        1 => arb_in_list(),
        1 => (0..TEXT_COLUMNS.len()).prop_map(|c| format!("{} is null", TEXT_COLUMNS[c])),
    ]
}

/// A `where` clause: one to three conjuncts, since top-level conjuncts
/// are what the planner pushes down, prunes by and keys the cache on;
/// each an atom or a nested `and` / `or` / `not` of atoms.
fn arb_predicate() -> impl Strategy<Value = String> {
    let nested = arb_atom().prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} and {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} or {b})")),
            inner.prop_map(|a| format!("not {a}")),
        ]
    });
    let conjunct = prop_oneof![2 => arb_atom(), 1 => nested];
    proptest::collection::vec(conjunct, 1..4).prop_map(|conjuncts| conjuncts.join(" and "))
}

/// `Some` one time in eight.
fn rarely<S>(strategy: S) -> impl Strategy<Value = Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: Clone + 'static,
{
    prop_oneof![3 => Just(None), 1 => proptest::option::of(strategy)]
}

fn arb_query() -> impl Strategy<Value = String> {
    const KINDS: &[&str] = &[
        "activities",
        "activities",
        "aggregate count",
        "aggregate distinct_ligands",
        "aggregate max_p_activity",
        "aggregate mean_p_activity",
        "count per leaf",
    ];
    // The last entry of each list is refused by every system.
    const SCOPES: &[&str] = &[
        "",
        " in tree",
        " in subtree('clade1')",
        " in subtree('clade6')",
        " in leaves('P0003', 'P0004', 'P0040')",
        " in subtree('no-such-clade')",
    ];
    const PATTERNS: &[&str] = &["c1ccccc1", "C=O", "L0002", "(((("];
    const REFERENCES: &[&str] = &["CCO", "L0001", "c1ccccc1", "(((("];
    // Thresholds outside [0, 1] are refused too.
    const THRESHOLDS: &[&str] = &[
        "",
        " >= 0",
        " >= 0.3",
        " >= 1",
        " >= 1.5",
        " >= -0.5",
        " >= 1e999",
        " >= -1e999",
    ];
    let top_k = prop_oneof![
        (1u32..50).prop_map(|k| k.to_string()),
        Just(i64::MAX.to_string()),
    ];
    (
        (0..KINDS.len(), 0..SCOPES.len()),
        prop_oneof![1 => Just(None), 3 => arb_predicate().prop_map(Some)],
        rarely(0..PATTERNS.len()),
        rarely((0..REFERENCES.len(), 0..THRESHOLDS.len())),
        proptest::option::of((top_k, 0..3usize)),
    )
        .prop_map(|((kind, scope), predicate, containing, similar, top)| {
            let mut text = format!("{}{}", KINDS[kind], SCOPES[scope]);
            if let Some(p) = predicate {
                text.push_str(&format!(" where {p}"));
            }
            if let Some(p) = containing {
                text.push_str(&format!(" containing '{}'", PATTERNS[p]));
            }
            if let Some((r, t)) = similar {
                text.push_str(&format!(" similar to '{}'{}", REFERENCES[r], THRESHOLDS[t]));
            }
            // `top` only follows `activities`; elsewhere it is a parse
            // error every system agrees on, so emit it where it parses.
            if let (Some((k, order)), "activities") = (top, KINDS[kind]) {
                let order = ["", " by mw asc", " by year desc"][order];
                text.push_str(&format!(" top {k}{order}"));
            }
            text
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generated_query_text_gets_one_answer_or_one_refusal(text in arb_query()) {
        agree(&text).map_err(TestCaseError::Fail)?;
    }
}

/// Every comparison operator and both orders of `between`, on every
/// numeric column, at every edge literal the generator draws from and
/// at five points across the column's span: the deterministic floor
/// under the generated cases.
#[test]
fn every_operator_on_every_numeric_column_agrees() {
    let mut queries = 0;
    let mut answered = 0;
    for (column, lo, hi) in NUMERIC_COLUMNS {
        let mid = ((lo + hi) / 2.0).round();
        let span = [0.0, 0.25, 0.5, 0.75, 1.0].map(|f| format!("{}", (lo + f * (hi - lo)).round()));
        for literal in edge_numbers().into_iter().chain(span) {
            let comparisons = OPS.iter().map(|op| format!("{column} {op} {literal}"));
            let betweens = [
                format!("{column} between {literal} and {mid}"),
                format!("{column} between {mid} and {literal}"),
            ];
            for predicate in comparisons.chain(betweens) {
                for kind in ["activities", "aggregate mean_p_activity"] {
                    let text = format!("{kind} where {predicate}");
                    queries += 1;
                    answered += usize::from(agree(&text).unwrap_or_else(|e| panic!("{e}")));
                }
            }
        }
    }
    // Numeric literals of any size parse: every one of these queries
    // is answered, none refused.
    assert_eq!(answered, queries);
}

/// The two size bounds, each at its maximum.
#[test]
fn a_megabyte_literal_and_a_ten_thousand_value_list_agree() {
    let huge = quote(&"a".repeat(MAX_LITERAL_BYTES));
    let list: Vec<String> = (0..MAX_IN_LIST)
        .map(|i| quote(&format!("P{i:04}")))
        .collect();
    for text in [
        format!("activities where ligand_id = {huge}"),
        format!("activities where smiles != {huge} top 3"),
        format!("activities in subtree({huge})"),
        format!("activities similar to {huge}"),
        format!(
            "count per leaf where protein_accession in ({})",
            list.join(", ")
        ),
        format!(
            "aggregate count where protein_accession in ({}) and p_activity >= 6",
            list.join(", ")
        ),
    ] {
        agree(&text).unwrap_or_else(|e| panic!("{e}"));
    }
}
