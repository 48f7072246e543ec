//! Order statistics over timing samples.

/// Nearest-rank position (1-based) of the `per_mille` quantile among `n`
/// samples: the smallest rank with at least that share of the samples at or
/// below it. Integer arithmetic, so 95% of 200 is rank 190 on every host.
fn rank(n: usize, per_mille: u32) -> usize {
    (n * per_mille as usize).div_ceil(1000).clamp(1, n.max(1))
}

/// The value at the `per_mille` quantile (500 = median, 950 = p95) of
/// `sorted`, by the nearest-rank rule.
///
/// # Panics
///
/// Panics when `sorted` is empty.
pub fn quantile_sorted(sorted: &[f64], per_mille: u32) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), per_mille) - 1]
}

/// Sorts a copy of `samples` ascending (timings are never NaN).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `samples` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics when `samples` is empty.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q3 - q1) / median` by nearest rank: the spread of a set of repeated
/// timings (0 for fewer than two samples).
pub fn relative_iqr(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    if v.len() < 2 || median(&v) <= 0.0 {
        return 0.0;
    }
    (quantile_sorted(&v, 750) - quantile_sorted(&v, 250)) / median(&v)
}

/// `(max - min) / median`: the full relative range, for the few reps of the
/// parallel driver (too few for quartiles).
pub fn relative_range(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match (v.first(), v.last()) {
        (Some(lo), Some(hi)) if median(&v) > 0.0 => (hi - lo) / median(&v),
        _ => 0.0,
    }
}

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// True when the `per_mille` percentile of `n` samples has at least
/// [`TAIL_SAMPLES`] samples strictly beyond its nearest-rank position.
pub fn percentile_is_reportable(n: usize, per_mille: u32) -> bool {
    n > 0 && n - rank(n, per_mille) >= TAIL_SAMPLES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p95 needs 200 samples, p99 needs 1000, a median needs 20.
        for (n, per_mille, ok) in [
            (199, 950, false),
            (200, 950, true),
            (999, 990, false),
            (1000, 990, true),
            (10_000, 999, true),
            (19, 500, false),
            (20, 500, true),
            (153, 950, false),
            (459, 950, true),
            (0, 500, false),
        ] {
            assert_eq!(
                percentile_is_reportable(n, per_mille),
                ok,
                "{per_mille} per mille of {n} samples"
            );
        }
    }

    #[test]
    fn quantiles_use_the_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 500), 100.0);
        assert_eq!(quantile_sorted(&v, 950), 190.0, "ten samples lie beyond");
        assert_eq!(quantile_sorted(&v, 1000), 200.0);
        assert_eq!(quantile_sorted(&[7.0], 950), 7.0);
    }

    #[test]
    fn median_and_range() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(relative_iqr(&[9.0, 10.0, 11.0, 12.0]), 2.0 / 10.5);
        assert_eq!(relative_iqr(&[5.0]), 0.0);
        assert_eq!(relative_iqr(&[]), 0.0);
        assert_eq!(relative_range(&[9.0, 10.0, 11.0]), 0.2);
        assert_eq!(relative_range(&[]), 0.0);
    }
}
