//! Order statistics over in-memory samples.

/// Quartiles `(q1, median, q3)` by the method Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive, linear between
/// order statistics), so a spread computed here matches one computed by
/// `selfcheck.py` or the driver.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: usize| -> f64 {
        let n = v.len();
        if n == 1 {
            return v[0];
        }
        // Position q(n+1)/4 in 1-based order statistics; like Python, the
        // index is clamped to the ends but the fraction is not.
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(2), at(3))
}

/// Median of `values` (panics on an empty slice: every caller measures at
/// least one window).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The `q`-quantile (0..=1) of an already sorted slice, nearest-rank.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
    }
}
