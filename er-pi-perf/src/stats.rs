//! Order statistics the benchmark reports: medians, the percentile rule,
//! geometric means and quartile spreads.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank value at quantile `q` (0..=1) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it — a tail that
/// thin is an anecdote, not a percentile.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND || q <= 0.5).then(|| sorted[rank - 1])
}

/// The highest percentile (as a quantile) that still has [`MIN_BEYOND`]
/// samples beyond it, for a sample count of `n`.
pub fn highest_valid_quantile(n: usize) -> Option<f64> {
    (n > MIN_BEYOND).then(|| (n - MIN_BEYOND) as f64 / n as f64)
}

/// Median (mean of the middle pair for even counts); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Geometric mean of strictly positive values; `NaN` when empty or when
/// any value is not positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || v.is_nan()) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 100 samples: rank 90, ten beyond.
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        // 99 samples: rank 90, only nine beyond.
        assert_eq!(percentile(&ramp(99), 0.9), None);
        // The median is always reportable.
        assert_eq!(percentile(&ramp(3), 0.5), Some(2.0));
    }

    #[test]
    fn highest_valid_quantile_leaves_ten_beyond() {
        assert_eq!(highest_valid_quantile(100), Some(0.9));
        assert_eq!(highest_valid_quantile(10), None);
        let q = highest_valid_quantile(57).unwrap();
        assert!(percentile(&ramp(57), q).is_some());
    }

    #[test]
    fn geomean_weighs_every_value_equally() {
        let g = geomean(&[1.0, 100.0]);
        assert!((g - 10.0).abs() < 1e-9);
        assert!((geomean(&[5.0, 5.0, 5.0]) - 5.0).abs() < 1e-9);
        assert!(geomean(&[1.0, 0.0]).is_nan());
        assert!(geomean(&[]).is_nan());
    }
}
