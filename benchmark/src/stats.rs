//! Order statistics over wall-clock samples.

/// Percentiles a tail may be reported at, highest first, each with the
/// thousandths of the samples that lie beyond it (whole numbers, so
/// that 10,000 samples leave exactly ten beyond p99.9).
const TAIL_CANDIDATES: [(f64, usize); 4] = [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100)];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// The highest candidate percentile that still has at least ten of
/// `n` samples beyond it, or `None` when even p90 has fewer (n < 100).
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|(_, beyond)| n * beyond >= MIN_BEYOND * 1000)
        .map(|(p, _)| p)
}

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median (mean of the two middle values for even counts); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with quartiles as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method) — the spread the acceptance check
/// uses. `None` with fewer than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let quartile = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let mid = median(&v)?;
    (mid != 0.0).then(|| (quartile(3) - quartile(1)) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(1), None);
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(9_999), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 0.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 150.0), Some(100.0));
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates beyond the data.
        let spread = quartile_spread(&[1.0, 2.0]).unwrap();
        assert!((spread - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), None);
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
    }
}
