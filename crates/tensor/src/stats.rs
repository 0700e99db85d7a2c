//! Shared summary statistics: percentiles and sample summaries.
//!
//! One implementation of quantile math for the whole workspace — the
//! wall-clock profiler (`scidl-nn::profile`), the convergence experiments
//! and the serving latency accounting (`scidl-core::metrics`,
//! `scidl-serve`) all report percentiles, and they must agree on the
//! definition. We use linear interpolation between closest ranks (the
//! "type 7" estimator of Hyndman & Fan, numpy's default), which is exact
//! at q = 0/1 and at sample points.

/// Quantile `q ∈ [0, 1]` of an **ascending-sorted** slice by linear
/// interpolation between closest ranks. Panics on an empty slice or a
/// `q` outside `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "percentile_sorted requires ascending input"
    );
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Quantile of an unsorted sample (sorts a copy). Panics on empty input.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    percentile_sorted(&sorted, q)
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Five-number-plus summary of a sample: count, mean, min/max and the
/// latency-reporting percentiles p50/p95/p99.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarises a sample (sorts a copy). Panics on empty input.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Self {
            count: sorted.len(),
            mean,
            min: sorted[0],
            max: *sorted.last().unwrap(),
            p50: percentile_sorted(&sorted, 0.50),
            p95: percentile_sorted(&sorted, 0.95),
            p99: percentile_sorted(&sorted, 0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_endpoints_and_median() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert_eq!(percentile(&s, 0.5), 3.0);
        // Interpolated: pos = 0.95*4 = 3.8 → 4*0.2 + 5*0.8.
        assert!((percentile(&s, 0.95) - 4.8).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_order_independent() {
        let shuffled = [3.0, 1.0, 5.0, 2.0, 4.0];
        assert_eq!(percentile(&shuffled, 0.5), 3.0);
        assert_eq!(median(&shuffled), 3.0);
    }

    #[test]
    fn even_sample_median_interpolates() {
        assert!((median(&[1.0, 2.0, 3.0, 4.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample_summary_is_degenerate() {
        let s = Summary::from_samples(&[7.0]);
        assert_eq!(
            (s.count, s.mean, s.min, s.max, s.p50, s.p95, s.p99),
            (1, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0)
        );
    }

    #[test]
    fn summary_orders_percentiles() {
        let samples: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let s = Summary::from_samples(&samples);
        assert_eq!(s.count, 1000);
        assert!(s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        assert!((s.mean - 499.5).abs() < 1e-9);
        assert!((s.p99 - 989.01).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        percentile(&[], 0.5);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_quantile_panics() {
        percentile(&[1.0], 1.5);
    }
}
