//! Order statistics over timing samples.

/// The `p`-th percentile (`0 < p <= 100`) of `values` by the
/// nearest-rank rule: the smallest sample with at least `p`% of the
/// samples at or below it. `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quartiles `[q1, q2, q3]` and the interquartile distance `q3 - q1`,
/// computed exactly like Python's `statistics.quantiles(values, n=4)`
/// (its default "exclusive" method). A single sample is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> ([f64; 3], f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => return ([f64::NAN; 3], f64::NAN),
        1 => return ([sorted[0]; 3], 0.0),
        _ => {}
    }
    let at = |k: usize| {
        // Python's integer form of interpolating at 1-based position
        // (n + 1) * k / 4, with the index clamped but not the weight, so
        // small samples extrapolate exactly as Python does.
        let j = ((n + 1) * k / 4).clamp(1, n - 1);
        let delta = ((n + 1) * k) as f64 - (4 * j) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    let q = [at(1), at(2), at(3)];
    (q, q[2] - q[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q, iqr) = quartiles(&v);
        assert_eq!(q, [2.75, 5.5, 8.25]);
        assert_eq!(iqr, 5.5);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]).0, [1.25, 2.5, 3.75]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]).0, [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]).0, [1.0, 3.0, 5.0]);
    }
}
