//! Deterministic random tensor initialisation.
//!
//! Every stochastic component in the stack takes an explicit seed so that
//! simulated-scale experiments are bit-reproducible. `TensorRng` wraps a
//! small, fast xoshiro-style generator with the handful of distributions
//! the stack needs (uniform, Gaussian via Box–Muller, Bernoulli, Poisson
//! via Knuth for small lambda).

use crate::{Shape4, Tensor};

/// SplitMix64-seeded xoshiro256** generator with tensor-filling helpers.
///
/// We implement the generator directly (≈30 lines) instead of pulling the
/// full `rand` trait machinery into the hot paths; `rand` remains a dev/
/// workload dependency elsewhere.
#[derive(Clone, Debug)]
pub struct TensorRng {
    s: [u64; 4],
}

impl TensorRng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    /// Derives an independent child generator; used to give each simulated
    /// node / worker / dataset shard its own stream.
    pub fn fork(&mut self, stream: u64) -> TensorRng {
        TensorRng::new(self.next_u64() ^ stream.wrapping_mul(0xA24BAED4963EE407))
    }

    /// Next raw 64-bit value (xoshiro256**).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`. Panics when `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        loop {
            let u1 = self.uniform();
            if u1 > 1e-300 {
                let u2 = self.uniform();
                return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            }
        }
    }

    /// Normal with the given mean and standard deviation.
    #[inline]
    pub fn normal_ms(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.normal()
    }

    /// Lognormal with the given underlying mu/sigma.
    #[inline]
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal_ms(mu, sigma).exp()
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Poisson sample (Knuth's method; adequate for the small lambdas used
    /// by the HEP generator, falls back to a normal approximation above 30).
    pub fn poisson(&mut self, lambda: f64) -> usize {
        assert!(lambda >= 0.0, "negative lambda");
        if lambda == 0.0 {
            return 0;
        }
        if lambda > 30.0 {
            return self.normal_ms(lambda, lambda.sqrt()).round().max(0.0) as usize;
        }
        let l = (-lambda).exp();
        let mut k = 0usize;
        let mut p = 1.0;
        loop {
            p *= self.uniform();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Tensor filled with `N(0, std^2)` samples.
    pub fn normal_tensor(&mut self, shape: Shape4, std: f32) -> Tensor {
        let data = (0..shape.len())
            .map(|_| (self.normal() as f32) * std)
            .collect();
        Tensor::from_vec(shape, data)
    }

    /// Tensor filled with uniform samples in `[lo, hi)`.
    pub fn uniform_tensor(&mut self, shape: Shape4, lo: f32, hi: f32) -> Tensor {
        let data = (0..shape.len())
            .map(|_| self.uniform_range(lo as f64, hi as f64) as f32)
            .collect();
        Tensor::from_vec(shape, data)
    }

    /// He/Kaiming initialisation for a layer with `fan_in` inputs — the
    /// standard choice for ReLU networks like the paper's HEP CNN.
    pub fn he_tensor(&mut self, shape: Shape4, fan_in: usize) -> Tensor {
        let std = (2.0 / fan_in.max(1) as f64).sqrt() as f32;
        self.normal_tensor(shape, std)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = TensorRng::new(42);
        let mut b = TensorRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = TensorRng::new(1);
        let mut b = TensorRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = TensorRng::new(7);
        let mut c1 = root.fork(0);
        let mut c2 = root.fork(1);
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn uniform_in_range() {
        let mut r = TensorRng::new(3);
        for _ in 0..1000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = TensorRng::new(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn poisson_mean_close_to_lambda() {
        let mut r = TensorRng::new(5);
        let lambda = 4.5;
        let n = 10_000;
        let mean = (0..n).map(|_| r.poisson(lambda) as f64).sum::<f64>() / n as f64;
        assert!((mean - lambda).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn poisson_large_lambda_uses_normal_path() {
        let mut r = TensorRng::new(6);
        let mean = (0..5000).map(|_| r.poisson(100.0) as f64).sum::<f64>() / 5000.0;
        assert!((mean - 100.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn he_tensor_std_scales_with_fan_in() {
        let mut r = TensorRng::new(9);
        let t = r.he_tensor(Shape4::flat(20_000), 8);
        let std_expected = (2.0f64 / 8.0).sqrt();
        let var = t.data().iter().map(|&x| x as f64 * x as f64).sum::<f64>() / t.len() as f64;
        assert!((var.sqrt() - std_expected).abs() < 0.05);
    }

    #[test]
    fn bernoulli_rate() {
        let mut r = TensorRng::new(13);
        let hits = (0..10_000).filter(|_| r.bernoulli(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.02);
    }
}
