//! Medians, quartiles and exact nearest-rank percentiles.

/// Samples a percentile must leave beyond itself before it is reported:
/// with fewer, the figure is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0 < p <= 100) of `sorted` by the nearest-rank
/// rule: the value at 1-based rank `ceil(p/100 * n)`. Exact — no
/// interpolation, no binning.
///
/// Refuses (with the reason) when fewer than [`MIN_BEYOND`] samples lie
/// beyond that rank, so a p99 needs at least 1,000 samples.
pub fn percentile(sorted: &[u64], p: f64) -> Result<u64, String> {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
    let n = sorted.len();
    // Integer arithmetic in hundredths of a percent: 0.99 * 1000 must not
    // round up to rank 991 through a float product.
    let rank = ((p * 100.0).round() as usize * n).div_ceil(10_000);
    if rank == 0 || n - rank < MIN_BEYOND {
        return Err(format!(
            "p{p} refused: {n} samples leave {} beyond it, need {MIN_BEYOND}",
            n.saturating_sub(rank)
        ));
    }
    Ok(sorted[rank - 1])
}

/// First quartile, median and third quartile of `values`, by the same
/// rule as Python's `statistics.quantiles(values, n=4)` (exclusive
/// method), which is what the acceptance driver computes spreads with.
/// Fewer than two values give that value three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return [v[0]; 3];
    }
    let cut = |i: usize| {
        // Position i*(n+1)/4 on a 1-based scale; like Python, the index is
        // clamped into the data and the offset is not (two values
        // extrapolate).
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    [cut(1), median_sorted(&v), cut(3)]
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), Ok(500));
        assert_eq!(percentile(&v, 99.0), Ok(990));
        assert_eq!(percentile(&v, 90.0), Ok(900));
        // 2,000 samples: rank ceil(0.99 * 2000) = 1980.
        let v: Vec<u64> = (1..=2000).map(|x| x * 3).collect();
        assert_eq!(percentile(&v, 99.0), Ok(1980 * 3));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=999).collect();
        assert!(percentile(&v, 99.0).is_err(), "999 samples leave 9 beyond");
        let v: Vec<u64> = (1..=1000).collect();
        assert!(percentile(&v, 99.0).is_ok(), "1000 samples leave 10 beyond");
        assert!(percentile(&v, 99.9).is_err());
        let v: Vec<u64> = (1..=19).collect();
        assert!(percentile(&v, 50.0).is_err());
        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&v, 50.0), Ok(10));
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1..9], n=4) == [2.5, 5.0, 7.5]
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.5, 5.0, 7.5]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
