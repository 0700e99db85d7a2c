//! Property-based tests for the nn crate: layer gradient identities,
//! loss invariants and solver behaviour under random configurations.

use proptest::prelude::*;
use scidl_nn::loss::mse_loss;
use scidl_nn::network::Model;
use scidl_nn::{
    Adam, Conv2d, Deconv2d, Dense, GlobalAvgPool, Layer, MaxPool2d, Network, Relu, Sgd,
    SoftmaxCrossEntropy, Solver,
};
use scidl_tensor::{Shape4, Tensor, TensorRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any conv configuration, the directional derivative computed by
    /// backward matches a finite-difference probe of sum(forward(x)).
    #[test]
    fn conv_backward_matches_directional_derivative(
        cin in 1usize..3,
        cout in 1usize..4,
        hw in 4usize..8,
        k in 1usize..4,
        stride in 1usize..3,
        seed in any::<u64>(),
    ) {
        prop_assume!(hw >= k);
        let mut rng = TensorRng::new(seed);
        let mut conv = Conv2d::new("c", cin, cout, k, stride, k / 2, &mut rng);
        let x = rng.uniform_tensor(Shape4::new(1, cin, hw, hw), -1.0, 1.0);
        let dir = rng.uniform_tensor(x.shape(), -1.0, 1.0);

        let y = conv.forward(x.clone());
        let dx = conv.backward(Tensor::filled(y.shape(), 1.0));
        let analytic: f64 = dx.data().iter().zip(dir.data()).map(|(a, b)| *a as f64 * *b as f64).sum();

        let eps = 1e-3f32;
        let mut xp = x.clone();
        xp.axpy(eps, &dir);
        let mut xm = x.clone();
        xm.axpy(-eps, &dir);
        let lp = conv.forward(xp).sum() as f64;
        let lm = conv.forward(xm).sum() as f64;
        let numeric = (lp - lm) / (2.0 * eps as f64);
        prop_assert!(
            (analytic - numeric).abs() < 0.05 * (1.0 + analytic.abs()),
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    /// Conv followed by the matching deconv restores the input shape for
    /// stride-2 geometries (the decoder inverts the encoder's spatial
    /// downsampling exactly).
    #[test]
    fn deconv_inverts_conv_spatial_shape(
        c1 in 1usize..5,
        c2 in 1usize..5,
        hw_half in 2usize..9,
        seed in any::<u64>(),
    ) {
        let hw = hw_half * 2;
        let mut rng = TensorRng::new(seed);
        let mut conv = Conv2d::new("c", c1, c2, 5, 2, 2, &mut rng);
        let mut dec = Deconv2d::new("d", c2, c1, 4, 2, 1, &mut rng);
        let x = rng.uniform_tensor(Shape4::new(1, c1, hw, hw), -1.0, 1.0);
        let y = conv.forward(x.clone());
        let z = dec.forward(y);
        prop_assert_eq!(z.shape(), x.shape());
    }

    /// Cross-entropy loss is non-negative and its gradient rows sum to 0.
    #[test]
    fn softmax_ce_invariants(
        n in 1usize..5,
        k in 2usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = TensorRng::new(seed);
        let logits = rng.uniform_tensor(Shape4::new(n, k, 1, 1), -3.0, 3.0);
        let labels: Vec<usize> = (0..n).map(|i| (seed as usize + i) % k).collect();
        let (loss, grad) = SoftmaxCrossEntropy::forward(&logits, &labels);
        prop_assert!(loss >= 0.0);
        for i in 0..n {
            let s: f32 = grad.item(i).iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }

    /// MSE is symmetric and zero iff the inputs coincide.
    #[test]
    fn mse_symmetry(len in 1usize..40, seed in any::<u64>()) {
        let mut rng = TensorRng::new(seed);
        let a = rng.uniform_tensor(Shape4::flat(len), -2.0, 2.0);
        let b = rng.uniform_tensor(Shape4::flat(len), -2.0, 2.0);
        let (lab, _) = mse_loss(&a, &b);
        let (lba, _) = mse_loss(&b, &a);
        prop_assert!((lab - lba).abs() < 1e-6);
        let (laa, _) = mse_loss(&a, &a);
        prop_assert_eq!(laa, 0.0);
    }

    /// One solver step along the true gradient reduces a convex quadratic
    /// for any small learning rate.
    #[test]
    fn solver_step_descends_quadratic(
        lr in 0.001f32..0.2,
        momentum in 0.0f32..0.95,
        start in -5.0f32..5.0,
        adam_flag in any::<bool>(),
    ) {
        let loss = |w: f32| 0.5 * (w - 1.0) * (w - 1.0);
        let mut w = vec![start];
        let mut solver: Box<dyn Solver> = if adam_flag {
            Box::new(Adam::new(lr * 0.5))
        } else {
            Box::new(Sgd::new(lr, momentum))
        };
        let mut best = loss(start);
        for _ in 0..300 {
            let g = vec![w[0] - 1.0];
            solver.step_block(0, &mut w, &g);
            best = best.min(loss(w[0]));
        }
        prop_assert!(best < loss(start).max(1e-9) + 1e-6, "no descent from {start}: best {best}");
    }

    /// flat-params roundtrip is the identity for arbitrary networks.
    #[test]
    fn flat_param_roundtrip(seed in any::<u64>()) {
        let mut rng = TensorRng::new(seed);
        let mut net = Network::new("n")
            .push(Conv2d::new("c1", 2, 3, 3, 1, 1, &mut rng))
            .push(Relu::new("r"))
            .push(MaxPool2d::new("p", 2, 2))
            .push(GlobalAvgPool::new("g"))
            .push(Dense::new("fc", 3, 2, &mut rng));
        let before = net.flat_params();
        net.set_flat_params(&before);
        prop_assert_eq!(net.flat_params(), before);
    }

    /// Stochastic rounding is unbiased for arbitrary values and steps.
    #[test]
    fn stochastic_rounding_unbiased(value in -10.0f32..10.0, step_q in 1u32..20, seed in any::<u64>()) {
        use scidl_nn::quant::stochastic_round;
        let step = step_q as f32 * 0.05;
        let mut rng = TensorRng::new(seed);
        let n = 4000;
        let mean: f64 = (0..n)
            .map(|_| stochastic_round(value, step, &mut rng) as f64)
            .sum::<f64>() / n as f64;
        prop_assert!((mean - value as f64).abs() < step as f64 * 0.1 + 0.02);
    }

    /// MaxPool backward distributes exactly the incoming gradient mass.
    #[test]
    fn maxpool_gradient_mass_conserved(
        c in 1usize..4,
        hw_half in 2usize..8,
        seed in any::<u64>(),
    ) {
        let hw = hw_half * 2;
        let mut rng = TensorRng::new(seed);
        let mut p = MaxPool2d::new("p", 2, 2);
        let x = rng.uniform_tensor(Shape4::new(1, c, hw, hw), -1.0, 1.0);
        let y = p.forward(x);
        let g = rng.uniform_tensor(y.shape(), 0.0, 1.0);
        let gx = p.backward(g.clone());
        prop_assert!((gx.sum() - g.sum()).abs() < 1e-3);
    }
}
