//! Solvers (optimisers).
//!
//! The paper uses ADAM for the HEP network (Sec. III-A — "requires less
//! parameter tuning than SGD") and SGD with momentum for the climate
//! network (Sec. III-B). Momentum is a first-class tuning knob here
//! because the hybrid engine tunes it jointly with the level of
//! asynchrony, following Mitliagkas et al. ("asynchrony begets
//! momentum", ref. [31] in the paper).

use crate::network::Model;

/// An optimiser that updates parameter blocks from their gradients.
///
/// Solvers are keyed by block index so the same instance can live on a
/// per-layer parameter server (each PS owns a subset of block indices) or
/// drive a whole local model.
pub trait Solver: Send {
    /// Applies one update to block `idx` given its gradient.
    fn step_block(&mut self, idx: usize, value: &mut [f32], grad: &[f32]);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Sets the learning rate (schedules, hyper-parameter sweeps).
    fn set_learning_rate(&mut self, lr: f32);

    /// Steps every block of a flattened model in order: block `i` is the
    /// next `sizes[i]` elements of `flat` and `grad`.
    fn step_flat(&mut self, flat: &mut [f32], grad: &[f32], sizes: &[usize]) {
        let mut off = 0;
        for (idx, &len) in sizes.iter().enumerate() {
            self.step_block(idx, &mut flat[off..off + len], &grad[off..off + len]);
            off += len;
        }
    }

    /// Convenience: steps every block of a model in order.
    fn step_model(&mut self, model: &mut dyn Model) {
        for (idx, block) in model.param_blocks_mut().into_iter().enumerate() {
            // Split borrow: value and grad are distinct tensors.
            let grad = block.grad.data().to_vec();
            self.step_block(idx, block.value.data_mut(), &grad);
        }
    }
}

/// Stochastic gradient descent with classical momentum:
/// `v = mu*v - lr*g; w += v`.
pub struct Sgd {
    lr: f32,
    /// Momentum coefficient `mu` (paper tunes over {0.0, 0.4, 0.7, 0.9}).
    pub momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates an SGD solver.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Self {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Solver for Sgd {
    fn step_block(&mut self, idx: usize, value: &mut [f32], grad: &[f32]) {
        assert_eq!(value.len(), grad.len(), "value/grad length mismatch");
        while self.velocity.len() <= idx {
            self.velocity.push(Vec::new());
        }
        let v = &mut self.velocity[idx];
        if v.len() != value.len() {
            v.clear();
            v.resize(value.len(), 0.0);
        }
        let (lr, mu) = (self.lr, self.momentum);
        for ((w, &g), vel) in value.iter_mut().zip(grad).zip(v.iter_mut()) {
            *vel = mu * *vel - lr * g;
            *w += *vel;
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// ADAM (Kingma & Ba), the HEP solver.
pub struct Adam {
    lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Per-block step counters (bias correction).
    t: Vec<u64>,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates an ADAM solver with the standard betas.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: Vec::new(),
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Solver for Adam {
    fn step_block(&mut self, idx: usize, value: &mut [f32], grad: &[f32]) {
        assert_eq!(value.len(), grad.len(), "value/grad length mismatch");
        while self.m.len() <= idx {
            self.m.push(Vec::new());
            self.v.push(Vec::new());
            self.t.push(0);
        }
        if self.m[idx].len() != value.len() {
            self.m[idx].clear();
            self.m[idx].resize(value.len(), 0.0);
            self.v[idx].clear();
            self.v[idx].resize(value.len(), 0.0);
            self.t[idx] = 0;
        }
        self.t[idx] += 1;
        let t = self.t[idx] as f32;
        let (b1, b2) = (self.beta1, self.beta2);
        let bc1 = 1.0 - b1.powf(t);
        let bc2 = 1.0 - b2.powf(t);
        let lr = self.lr;
        let eps = self.eps;
        let (m, v) = (&mut self.m[idx], &mut self.v[idx]);
        for ((w, &g), (mi, vi)) in value
            .iter_mut()
            .zip(grad)
            .zip(m.iter_mut().zip(v.iter_mut()))
        {
            *mi = b1 * *mi + (1.0 - b1) * g;
            *vi = b2 * *vi + (1.0 - b2) * g * g;
            let mhat = *mi / bc1;
            let vhat = *vi / bc2;
            *w -= lr * mhat / (vhat.sqrt() + eps);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Which solver a parameter server runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SolverKind {
    /// SGD with the given momentum.
    Sgd {
        /// Explicit momentum coefficient.
        momentum: f32,
    },
    /// ADAM (the paper's HEP solver).
    Adam,
}

impl SolverKind {
    /// This kind with SGD's explicit momentum reduced for `groups`
    /// asynchronous groups ([`asynchrony_adjusted_momentum`]); ADAM is
    /// unchanged.
    pub fn for_groups(self, groups: usize) -> Self {
        match self {
            SolverKind::Sgd { momentum } => SolverKind::Sgd {
                momentum: asynchrony_adjusted_momentum(momentum, groups),
            },
            SolverKind::Adam => SolverKind::Adam,
        }
    }

    /// A fresh solver of this kind at learning rate `lr`.
    pub fn build(self, lr: f32) -> Box<dyn Solver> {
        match self {
            SolverKind::Sgd { momentum } => Box::new(Sgd::new(lr, momentum)),
            SolverKind::Adam => Box::new(Adam::new(lr)),
        }
    }
}

/// Effective-momentum correction for asynchronous training following
/// Mitliagkas et al. [31]: asynchrony with `groups` concurrent workers
/// contributes implicit momentum ≈ `1 - 1/groups`, so the explicit
/// momentum should be reduced to keep the total near `target`.
///
/// Returns the explicit momentum to configure (clamped to `[0, target]`).
pub fn asynchrony_adjusted_momentum(target: f32, groups: usize) -> f32 {
    assert!(groups >= 1);
    let implicit = 1.0 - 1.0 / groups as f32;
    ((target - implicit) / (1.0 - implicit).max(1e-6)).clamp(0.0, target)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(w) = 0.5*(w-3)^2 whose gradient is (w-3).
    fn quadratic_descent(solver: &mut dyn Solver, start: f32, steps: usize) -> f32 {
        let mut w = vec![start];
        for _ in 0..steps {
            let g = vec![w[0] - 3.0];
            solver.step_block(0, &mut w, &g);
        }
        w[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut s = Sgd::new(0.1, 0.0);
        let w = quadratic_descent(&mut s, 0.0, 200);
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let mut plain = Sgd::new(0.01, 0.0);
        let mut mom = Sgd::new(0.01, 0.9);
        let w_plain = quadratic_descent(&mut plain, 0.0, 50);
        let w_mom = quadratic_descent(&mut mom, 0.0, 50);
        assert!(
            (w_mom - 3.0).abs() < (w_plain - 3.0).abs(),
            "momentum should be closer: {w_mom} vs {w_plain}"
        );
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut a = Adam::new(0.05);
        let w = quadratic_descent(&mut a, 0.0, 500);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the first ADAM step is ≈ lr regardless of
        // gradient magnitude.
        let mut a = Adam::new(0.1);
        let mut w = vec![0.0f32];
        a.step_block(0, &mut w, &[1000.0]);
        assert!((w[0] + 0.1).abs() < 1e-3, "w = {}", w[0]);
    }

    #[test]
    fn per_block_state_is_independent() {
        let mut s = Sgd::new(0.1, 0.9);
        let mut w0 = vec![0.0f32];
        let mut w1 = vec![0.0f32];
        s.step_block(0, &mut w0, &[1.0]);
        s.step_block(1, &mut w1, &[-1.0]);
        s.step_block(0, &mut w0, &[1.0]);
        // Block 1 velocity must be unaffected by block 0 steps.
        assert!(w1[0] > 0.0);
        assert!(w0[0] < 0.0);
    }

    #[test]
    fn learning_rate_roundtrip() {
        let mut a = Adam::new(0.1);
        a.set_learning_rate(0.02);
        assert_eq!(a.learning_rate(), 0.02);
    }

    #[test]
    fn momentum_correction_formula() {
        // Synchronous (1 group): no correction.
        assert_eq!(asynchrony_adjusted_momentum(0.9, 1), 0.9);
        // 2 groups: implicit 0.5 → explicit (0.9-0.5)/0.5 = 0.8.
        assert!((asynchrony_adjusted_momentum(0.9, 2) - 0.8).abs() < 1e-6);
        // Many groups: implicit exceeds target → clamp at 0.
        assert_eq!(asynchrony_adjusted_momentum(0.9, 100), 0.0);
    }
}
