//! Deterministic open-loop load generation.
//!
//! Serving benchmarks need *open-loop* arrivals: requests arrive on a
//! schedule independent of how fast the server answers, so queueing
//! delay is measured rather than hidden (closed-loop clients
//! self-throttle and flatten the tail). [`PoissonArrivals`] produces the
//! canonical open-loop process — exponential inter-arrival gaps at a
//! fixed offered rate — from a seeded [`TensorRng`], so a given
//! `(seed, rate, n)` triple always yields the same schedule, bit for
//! bit. [`HepRequestSource`] pairs the schedule with real sample tensors
//! drawn from a generated `scidl-data` HEP dataset.

use scidl_data::hep::{HepConfig, HepDataset};
use scidl_tensor::{Tensor, TensorRng};

/// Iterator over Poisson arrival timestamps in virtual seconds,
/// starting after the first exponential gap.
pub struct PoissonArrivals {
    rng: TensorRng,
    rate: f64,
    clock: f64,
    remaining: usize,
}

impl PoissonArrivals {
    /// Arrivals at `rate` requests/second; yields exactly `n` timestamps.
    pub fn new(seed: u64, rate: f64, n: usize) -> Self {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "rate must be positive, got {rate}"
        );
        Self {
            rng: TensorRng::new(seed),
            rate,
            clock: 0.0,
            remaining: n,
        }
    }
}

impl Iterator for PoissonArrivals {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Inverse-CDF exponential gap. `uniform` is in [0, 1); 1-u is in
        // (0, 1] so the log argument is never zero.
        let u = self.rng.uniform();
        self.clock += -(1.0 - u).ln() / self.rate;
        Some(self.clock)
    }
}

/// Draws request input tensors from a generated HEP dataset, cycling
/// deterministically through a seeded random sample order.
pub struct HepRequestSource {
    dataset: HepDataset,
    rng: TensorRng,
}

impl HepRequestSource {
    /// Generates `n` HEP samples under `config` with `seed`; request
    /// order uses an independent stream of the same seed.
    pub fn new(config: HepConfig, n: usize, seed: u64) -> Self {
        let mut rng = TensorRng::new(seed);
        Self {
            dataset: HepDataset::generate(config, n, seed),
            rng: rng.fork(1),
        }
    }

    /// The next request input: one dataset sample as a `(1, c, h, w)`
    /// tensor.
    pub fn next_request(&mut self) -> Tensor {
        let idx = self.rng.below(self.dataset.len());
        let (x, _labels) = self.dataset.gather(&[idx]);
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_deterministic_and_monotonic() {
        let a: Vec<f64> = PoissonArrivals::new(9, 100.0, 50).collect();
        let b: Vec<f64> = PoissonArrivals::new(9, 100.0, 50).collect();
        assert_eq!(a, b, "same seed must give bit-identical schedules");
        assert_eq!(a.len(), 50);
        assert!(a.windows(2).all(|w| w[1] > w[0]), "strictly increasing");
        assert!(a[0] > 0.0);
    }

    #[test]
    fn mean_gap_approaches_inverse_rate() {
        let n = 4000;
        let rate = 250.0;
        let last = PoissonArrivals::new(10, rate, n).last().unwrap();
        let mean_gap = last / n as f64;
        let expect = 1.0 / rate;
        assert!(
            (mean_gap - expect).abs() < 0.15 * expect,
            "mean gap {mean_gap} vs expected {expect}"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<f64> = PoissonArrivals::new(1, 100.0, 10).collect();
        let b: Vec<f64> = PoissonArrivals::new(2, 100.0, 10).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn hep_source_yields_unit_batch_samples() {
        let mut src = HepRequestSource::new(HepConfig::small(), 8, 3);
        let x = src.next_request();
        assert_eq!(x.shape().n, 1);
        assert_eq!(x.shape().c, 3);
        assert!(x.all_finite());
        // Deterministic across rebuilds.
        let mut src2 = HepRequestSource::new(HepConfig::small(), 8, 3);
        assert_eq!(src2.next_request().data(), x.data());
    }
}
