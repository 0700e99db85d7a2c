//! Order statistics for the ledger: median, quartiles, sample count and
//! the highest percentile the sample supports.
//!
//! Kept inside the benchmark (not `scidl_tensor::stats`) so the
//! yardstick does not change when the code under test does. Quartiles
//! follow Python's `statistics.quantiles(values, n=4)` (the exclusive
//! method), so a spread computed here matches one computed from the
//! printed values by an outside driver.

/// Percentile ladder the tail report is chosen from.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// A percentile is reported only with at least this many samples beyond it.
pub const MIN_BEYOND: f64 = 10.0;

/// Summary of one sample.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    /// `(percentile, value)` of the highest percentile with at least
    /// [`MIN_BEYOND`] samples beyond it; `None` below 20 samples.
    pub top: Option<(f64, f64)>,
}

fn sorted_copy(samples: &[f64]) -> Vec<f64> {
    assert!(samples.iter().all(|v| !v.is_nan()), "NaN in sample");
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    s
}

/// Percentile `p ∈ [0, 100]` of an ascending slice, linear interpolation
/// between closest ranks.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile {p} outside [0, 100]"
    );
    let pos = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Percentile of an unsorted sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted_copy(samples), p)
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// `(q1, q2, q3)` of an ascending slice by the exclusive method
/// (`statistics.quantiles(n=4)`); a single sample is its own quartiles.
pub fn quartiles_sorted(sorted: &[f64]) -> (f64, f64, f64) {
    assert!(!sorted.is_empty(), "quartiles of an empty sample");
    let m = sorted.len();
    if m == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Highest ladder percentile with at least [`MIN_BEYOND`] of `n` samples
/// beyond it.
pub fn top_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|p| n as f64 * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9)
}

/// Summarises a non-empty sample.
pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted_copy(samples);
    let (q1, median, q3) = quartiles_sorted(&s);
    Summary {
        n: s.len(),
        min: s[0],
        q1,
        median,
        q3,
        max: s[s.len() - 1],
        top: top_supported_percentile(s.len()).map(|p| (p, percentile_sorted(&s, p))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_endpoints() {
        let s = [3.0, 1.0, 5.0, 2.0, 4.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert!((percentile(&s, 95.0) - 4.8).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_sorted(&s), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles_sorted(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([2, 4, 4, 5, 7], n=4) == [3.0, 4.0, 6.0]
        assert_eq!(
            quartiles_sorted(&[2.0, 4.0, 4.0, 5.0, 7.0]),
            (3.0, 4.0, 6.0)
        );
        assert_eq!(quartiles_sorted(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn top_percentile_needs_ten_samples_beyond() {
        assert_eq!(top_supported_percentile(19), None);
        assert_eq!(top_supported_percentile(20), Some(50.0));
        assert_eq!(top_supported_percentile(100), Some(90.0));
        assert_eq!(top_supported_percentile(200), Some(95.0));
        assert_eq!(top_supported_percentile(999), Some(95.0));
        assert_eq!(top_supported_percentile(1000), Some(99.0));
        assert_eq!(top_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_count_spread_and_tail() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let sum = summarize(&s);
        assert_eq!(sum.n, 1000);
        assert_eq!((sum.min, sum.max), (1.0, 1000.0));
        assert_eq!(sum.median, 500.5);
        let (p, v) = sum.top.unwrap();
        assert_eq!(p, 99.0);
        assert!((v - 990.01).abs() < 1e-9);
        assert_eq!((sum.q1, sum.q3), (250.25, 750.75));
    }

    #[test]
    #[should_panic(expected = "NaN in sample")]
    fn nan_is_rejected() {
        summarize(&[1.0, f64::NAN]);
    }
}
