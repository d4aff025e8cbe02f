//! Order statistics over measured samples.

/// Quartiles `(q1, median, q3)` as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method), so the spreads printed here are the ones the acceptance
/// procedure computes. One sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        let n = v.len();
        if n == 1 {
            return v[0];
        }
        // Position k(n+1)/4 in 1-based ranks; the rank is clamped into the
        // sample but the fraction is not, so short samples extrapolate
        // exactly as Python does.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        v[lo - 1] + (pos - lo as f64) * (v[lo] - v[lo - 1])
    };
    (at(1), at(2), at(3))
}

/// Interquartile range as a share of the median — the acceptance
/// procedure's spread.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Linearly interpolated percentile `p` in `[0, 1]` of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let pos = (sorted.len() - 1) as f64 * p.clamp(0.0, 1.0);
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo])
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it in a sample of `n`.
pub fn highest_resolved_percentile(n: usize) -> &'static str {
    // Per mille, so that 100 samples resolve p90 exactly.
    [("p99.9", 999), ("p99", 990), ("p95", 950), ("p90", 900)]
        .into_iter()
        .find(|&(_, per_mille)| n * (1000 - per_mille) >= 10_000)
        .map_or("p50", |(label, _)| label)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile_sorted(&v, 0.0), 10.0);
        assert_eq!(percentile_sorted(&v, 0.5), 30.0);
        assert_eq!(percentile_sorted(&v, 0.875), 45.0);
        assert_eq!(percentile_sorted(&v, 1.0), 50.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_resolved_percentile(50), "p50");
        assert_eq!(highest_resolved_percentile(100), "p90");
        assert_eq!(highest_resolved_percentile(1000), "p99");
        assert_eq!(highest_resolved_percentile(10_000), "p99.9");
    }
}
