//! The six-class query stream, generated as text so that the parser is
//! on the measured path.
//!
//! The benchmark keeps its own generator instead of calling
//! `drugtree_workload::queries`: that one covers four classes, hands
//! out parsed `Query` values, and picks similarity references the
//! overlay cannot always resolve (see README, "Findings").
//!
//! What a query costs is set by the rows under its scope, and the
//! hottest scope is the whole tree. Drawing scopes at random would let
//! the seed decide how many whole-tree queries a stream holds, and
//! with them a fifth of its running time. So scope ranks are allotted
//! by systematic sampling: every seed gets the Zipf mix of scope sizes
//! as exactly as whole numbers allow, and spends its randomness on
//! which query meets which scope, on thresholds, on similarity
//! references and on order.

use drugtree_query::ast::Query;
use drugtree_query::{Dataset, QueryClass};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Zipf exponent over candidate scopes, hottest = largest clade.
const SCOPE_THETA: f64 = 0.8;

/// One generated query: the text handed to the system, and its parse
/// for the answer checks (which must not pay for parsing twice).
pub struct StreamQuery {
    pub class: QueryClass,
    pub text: String,
    pub parsed: Query,
}

/// `count` (rank, parameter) pairs in random order. Rank `r` of `0..n`
/// comes up about `count * p(r)` times for `p(r)` proportional to
/// `1 / (r + 1)^theta`; the parameter, in `0.0..1.0`, is what the
/// query's threshold or choice of metric is derived from.
///
/// Ranks come from systematic sampling: one random offset, then
/// `count` evenly spaced points through the cumulative distribution,
/// so that a rank's share is off by less than one draw whatever the
/// seed. Parameters follow the golden-ratio sequence along the ranks
/// in ascending order, so that the few queries of one hot rank get
/// thresholds spread over the whole range and not, in one seed, three
/// selective ones and, in the next, three that return everything.
fn zipf_allotment(n: usize, theta: f64, count: usize, rng: &mut SmallRng) -> Vec<(usize, f64)> {
    const GOLDEN: f64 = 0.618_033_988_749_894_9;
    let mut total = 0.0;
    let cumulative: Vec<f64> = (0..n)
        .map(|r| {
            total += 1.0 / ((r + 1) as f64).powf(theta);
            total
        })
        .collect();
    let rank_offset: f64 = rng.gen();
    let parameter_offset: f64 = rng.gen();
    let mut allotment: Vec<(usize, f64)> = (0..count)
        .map(|k| {
            let target = (k as f64 + rank_offset) / count as f64 * total;
            let rank = cumulative.partition_point(|&c| c <= target).min(n - 1);
            (rank, (parameter_offset + k as f64 * GOLDEN).fract())
        })
        .collect();
    // Fisher-Yates.
    for i in (1..allotment.len()).rev() {
        allotment.swap(i, rng.gen_range(0..=i));
    }
    allotment
}

/// Labelled internal clades with at least two leaves, largest first.
fn candidate_scopes(dataset: &Dataset) -> Vec<String> {
    let mut scopes: Vec<(u32, u32, String)> = dataset
        .tree
        .node_ids()
        .filter_map(|id| {
            let node = dataset.tree.node_unchecked(id);
            let iv = dataset.index.interval(id);
            match &node.label {
                Some(label) if !node.is_leaf() && iv.len() >= 2 => {
                    Some((iv.len(), iv.lo, label.clone()))
                }
                _ => None,
            }
        })
        .collect();
    scopes.sort_by_key(|(len, lo, _)| (std::cmp::Reverse(*len), *lo));
    scopes.into_iter().map(|(_, _, label)| label).collect()
}

/// Ligands whose fingerprint the overlay resolves, in id order: the
/// only references a similarity query may name without failing.
fn similarity_references(dataset: &Dataset) -> Vec<String> {
    let mut ids: Vec<String> = dataset
        .overlay
        .fingerprints()
        .map(|(id, _)| id.to_string())
        .collect();
    ids.sort();
    ids
}

/// The text of one query. `parameter`, in `0.0..1.0`, places its
/// threshold in the class's range (or picks its metric).
fn query_text(
    class: QueryClass,
    scope: &str,
    parameter: f64,
    references: &[String],
    rng: &mut SmallRng,
) -> String {
    let scope = format!("in subtree('{scope}')");
    let within = |lo: f64, hi: f64| lo + parameter * (hi - lo);
    match class {
        QueryClass::Listing => format!("activities {scope}"),
        QueryClass::Filtered => format!(
            "activities {scope} where p_activity >= {:.2}",
            within(5.0, 8.0)
        ),
        QueryClass::Similarity => format!(
            "activities {scope} similar to '{}' >= {:.2}",
            references[rng.gen_range(0..references.len())],
            within(0.2, 0.6)
        ),
        QueryClass::TopK => format!(
            "activities {scope} where year >= {} top 10 by p_activity desc",
            within(1995.0, 2010.0) as u32
        ),
        // No `mean_p_activity`: the materialized view sums in another
        // order than the naive plan, and their means differ in the
        // last digit (see README, "Findings").
        QueryClass::Aggregate => format!(
            "aggregate {} {scope}",
            ["count", "max_p_activity", "distinct_ligands"][within(0.0, 3.0) as usize]
        ),
        QueryClass::CountPerLeaf => format!(
            "count per leaf {scope} where p_activity >= {:.2}",
            within(5.0, 8.0)
        ),
    }
}

/// `per_class` queries of each class, interleaved class by class so
/// that every stretch of the stream carries the full mix.
///
/// Panics if a generated text does not parse to its intended class:
/// that is a bug in this generator, not a measurement.
pub fn class_stream(dataset: &Dataset, per_class: usize, seed: u64) -> Vec<StreamQuery> {
    let scopes = candidate_scopes(dataset);
    let references = similarity_references(dataset);
    assert!(!scopes.is_empty(), "the tree has labelled clades");
    assert!(!references.is_empty(), "the overlay has fingerprints");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5712_EA11);
    let allotments =
        QueryClass::ALL.map(|_| zipf_allotment(scopes.len(), SCOPE_THETA, per_class, &mut rng));
    let mut out = Vec::with_capacity(per_class * QueryClass::ALL.len());
    for round in 0..per_class {
        for (class, allotment) in QueryClass::ALL.into_iter().zip(&allotments) {
            let (rank, parameter) = allotment[round];
            let text = query_text(class, &scopes[rank], parameter, &references, &mut rng);
            let parsed = Query::parse(&text)
                .unwrap_or_else(|e| panic!("generated query `{text}` does not parse: {e}"));
            assert_eq!(
                QueryClass::of(&parsed),
                class,
                "generated query `{text}` is not of its intended class"
            );
            out.push(StreamQuery {
                class,
                text,
                parsed,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_workload::{SyntheticBundle, WorkloadSpec};

    fn dataset(seed: u64) -> Dataset {
        SyntheticBundle::generate(&WorkloadSpec::default().leaves(64).ligands(16).seed(seed))
            .build_dataset()
    }

    #[test]
    fn stream_is_keyed_by_seed_and_covers_every_class() {
        let d = dataset(3);
        let texts = |seed| -> Vec<String> {
            class_stream(&d, 5, seed)
                .into_iter()
                .map(|q| q.text)
                .collect()
        };
        assert_eq!(texts(1), texts(1));
        assert_ne!(texts(1), texts(2));
        let stream = class_stream(&d, 5, 1);
        assert_eq!(stream.len(), 30);
        for class in QueryClass::ALL {
            assert_eq!(stream.iter().filter(|q| q.class == class).count(), 5);
        }
    }

    #[test]
    fn similarity_references_resolve() {
        let d = dataset(5);
        for q in class_stream(&d, 20, 9) {
            if let Some(sim) = &q.parsed.similarity {
                assert!(d.overlay.fingerprint(&sim.reference).is_some());
            }
        }
    }

    #[test]
    fn every_seed_gets_the_same_mix_of_ranks() {
        let counts = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut counts = [0usize; 50];
            for (rank, parameter) in zipf_allotment(50, 1.0, 2_000, &mut rng) {
                assert!((0.0..1.0).contains(&parameter));
                counts[rank] += 1;
            }
            counts
        };
        let (a, b) = (counts(1), counts(2));
        assert!(a[0] > a[9] && a[9] > a[49] && a[49] > 0);
        // Expected share of rank 0 is 2000 / H(50) = 444.5.
        assert!((444..=445).contains(&a[0]), "{}", a[0]);
        for (x, y) in a.iter().zip(&b) {
            assert!(x.abs_diff(*y) <= 1, "allotments differ by more than a draw");
        }
        let order = |seed: u64| zipf_allotment(50, 1.0, 200, &mut SmallRng::seed_from_u64(seed));
        assert_ne!(order(1), order(2));
        // The 44 draws of the hottest rank spread their parameters
        // evenly: about a quarter of them in every quarter of the range.
        let hottest: Vec<f64> = order(1)
            .into_iter()
            .filter(|(rank, _)| *rank == 0)
            .map(|(_, parameter)| parameter)
            .collect();
        for quarter in 0..4 {
            let lo = f64::from(quarter) / 4.0;
            let inside = hottest
                .iter()
                .filter(|p| (lo..lo + 0.25).contains(*p))
                .count();
            assert!(
                inside.abs_diff(hottest.len() / 4) <= 2,
                "{inside} of {}",
                hottest.len()
            );
        }
    }
}
