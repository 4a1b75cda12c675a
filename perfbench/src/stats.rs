//! Exact order statistics over raw samples.
//!
//! Percentiles here are computed from every sample, never from histogram
//! buckets: a bucketed quantile reports a bucket edge, which hides any
//! change smaller than the bucket width.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// such that at least `pct` percent of all samples are at or below it.
/// The rank is `ceil(pct · n / 100)`, computed in integers so that
/// `pct · n` landing exactly on a whole number never rounds up by a
/// floating-point ulp.
///
/// # Panics
///
/// Panics if `sorted` is empty or `pct` is not in `1..=100`.
#[must_use]
pub fn percentile(sorted: &[f64], pct: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((1..=100).contains(&pct), "percentile {pct} out of 1..=100");
    let rank = (pct as usize * sorted.len()).div_ceil(100);
    sorted[rank.max(1) - 1]
}

/// Arithmetic mean; `0.0` for no samples.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The nearest-rank median (the lower middle value for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50)
}

/// Sample count, mean and the two reported percentiles of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Nearest-rank 50th percentile.
    pub p50: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
}

/// Summarizes raw samples.
///
/// # Panics
///
/// Panics if `samples` is empty.
#[must_use]
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        n: sorted.len(),
        mean: mean(&sorted),
        p50: percentile(&sorted, 50),
        p90: percentile(&sorted, 90),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_ten_known_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        // rank = ceil(p·10/100): p50 → 5th, p90 → 9th, p91 → 10th.
        assert_eq!(percentile(&s, 50), 5.0);
        assert_eq!(percentile(&s, 90), 9.0);
        assert_eq!(percentile(&s, 91), 10.0);
        assert_eq!(percentile(&s, 100), 10.0);
        assert_eq!(percentile(&s, 1), 1.0);
        assert_eq!(percentile(&s, 10), 1.0);
        assert_eq!(percentile(&s, 11), 2.0);
    }

    #[test]
    fn exact_integer_ranks_do_not_round_up() {
        // 90 % of 30 is exactly 27: the 27th sample, not the 28th, even
        // though 0.9 · 30 in floating point is not exactly 27.
        let s: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(percentile(&s, 90), 27.0);
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 90), 900.0);
        assert_eq!(percentile(&s, 50), 500.0);
    }

    #[test]
    fn small_sample_counts() {
        assert_eq!(percentile(&[7.0], 50), 7.0);
        assert_eq!(percentile(&[7.0], 90), 7.0);
        assert_eq!(percentile(&[1.0, 2.0], 50), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 51), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], 90), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 90), 3.0);
    }

    #[test]
    fn summary_counts_and_sorts_raw_samples() {
        let s = summarize(&[30.0, 10.0, 20.0, 40.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 25.0);
        assert_eq!(s.p50, 20.0);
        assert_eq!(s.p90, 40.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_input_is_a_bug() {
        let _ = percentile(&[], 50);
    }
}
