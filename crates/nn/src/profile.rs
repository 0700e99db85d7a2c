//! Wall-clock per-layer profiler — the "real kernels" side of Fig. 5.
//!
//! The paper's Fig. 5 breaks single-node runtime into per-layer
//! contributions and FLOP rates at batch size 8. This module measures the
//! same decomposition for our Rust kernels on the host machine; the
//! KNL-calibrated *simulated* version of the figure lives in
//! `scidl-cluster` (the two are printed side by side by the Fig. 5
//! harness).

use crate::network::{backward_step, forward_step, plan, Network, Walk};
use scidl_tensor::stats::Summary;
use scidl_tensor::{Shape4, Tensor, TensorRng};
use std::ops::Range;
use std::time::Instant;

/// Timing and FLOP-rate entry for one layer.
#[derive(Clone, Debug)]
pub struct LayerProfile {
    /// Layer name.
    pub name: String,
    /// Mean forward seconds per iteration (whole minibatch).
    pub forward_secs: f64,
    /// Mean backward seconds per iteration.
    pub backward_secs: f64,
    /// Forward FLOPs per iteration.
    pub forward_flops: u64,
    /// Backward FLOPs per iteration.
    pub backward_flops: u64,
    /// Per-repetition forward-time distribution (shared stats machinery
    /// from `scidl_tensor::stats`; `forward_secs` is its mean).
    pub forward_stats: Summary,
    /// Per-repetition backward-time distribution.
    pub backward_stats: Summary,
}

impl LayerProfile {
    /// Total seconds (forward + backward).
    pub fn total_secs(&self) -> f64 {
        self.forward_secs + self.backward_secs
    }

    /// Achieved FLOP rate over forward+backward, in FLOP/s.
    pub fn flop_rate(&self) -> f64 {
        let t = self.total_secs();
        if t <= 0.0 {
            0.0
        } else {
            (self.forward_flops + self.backward_flops) as f64 / t
        }
    }
}

/// Profiles every layer of `net` on its own over `reps` training
/// iterations at the given input shape (batch included in `input.n`),
/// after `warmup` untimed iterations. Input data is random. Each layer
/// runs its own `forward` and `backward`, so a `Conv2d → Relu →
/// MaxPool2d` triple is timed as three layers, not as the one pass
/// [`Network`] runs it in, and the first layer takes the input gradient
/// training skips; [`profile_steps`] times what training runs.
pub fn profile_network(
    net: &mut Network,
    input: Shape4,
    warmup: usize,
    reps: usize,
) -> Vec<LayerProfile> {
    let steps = (0..net.layers().len()).map(|i| i..i + 1).collect();
    profile(net, steps, input, warmup, reps, true)
}

/// Profiles `net` step by step as training runs it
/// ([`Network::forward`], then [`Network::backward_params`]): a fused
/// `Conv2d → Relu → MaxPool2d` triple is one entry, named
/// `conv1+relu1+pool1` and carrying the three layers' FLOPs; every other
/// layer is its own. The network's first layer takes no input gradient
/// and counts its parameter gradients' FLOPs alone. Arguments as
/// [`profile_network`].
pub fn profile_steps(
    net: &mut Network,
    input: Shape4,
    warmup: usize,
    reps: usize,
) -> Vec<LayerProfile> {
    let mut steps = Vec::new();
    let mut at = 0;
    while at < net.layers().len() {
        let step = plan(net.layers(), at, Walk::Forward);
        at = step.end;
        steps.push(step);
    }
    profile(net, steps, input, warmup, reps, false)
}

/// Times each of `steps` (consecutive ranges covering `net`'s layers),
/// run through the network's step functions; the first step's backward
/// takes the input gradient only if `input_grad`.
fn profile(
    net: &mut Network,
    steps: Vec<Range<usize>>,
    input: Shape4,
    warmup: usize,
    reps: usize,
    input_grad: bool,
) -> Vec<LayerProfile> {
    assert!(reps > 0, "need at least one timed repetition");
    let mut rng = TensorRng::new(0xF165);
    let x = rng.uniform_tensor(input, -1.0, 1.0);

    let mut fwd: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); steps.len()];
    let mut bwd: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); steps.len()];
    // Forward and backward FLOPs per image of each layer.
    let spec = net.spec();
    let per_layer: Vec<[u64; 2]> = (spec.walk(input).enumerate())
        .map(|(i, (_, l, s))| match i == 0 && !input_grad {
            true => [
                l.forward_flops_per_image(s),
                l.param_grad_flops_per_image(s),
            ],
            false => [l.forward_flops_per_image(s), l.backward_flops_per_image(s)],
        })
        .collect();
    let out_shape = spec.out_shape(input);

    for it in 0..warmup + reps {
        let timed = it >= warmup;
        // Forward, timing each step.
        let mut act = x.clone();
        for (i, step) in steps.iter().enumerate() {
            let t0 = Instant::now();
            act = forward_step(&mut net.layers_mut()[step.clone()], act);
            if timed {
                fwd[i].push(t0.elapsed().as_secs_f64());
            }
        }
        // Backward with a unit gradient.
        let mut g = Some(Tensor::filled(out_shape, 1.0));
        for (i, step) in steps.iter().enumerate().rev() {
            let grad = g.take().expect("only the first step drops the gradient");
            let t0 = Instant::now();
            g = backward_step(
                &mut net.layers_mut()[step.clone()],
                grad,
                input_grad || i > 0,
            );
            if timed {
                bwd[i].push(t0.elapsed().as_secs_f64());
            }
        }
        // Keep gradient buffers from growing unboundedly.
        use crate::network::Model;
        net.zero_grads();
    }

    let batch = input.n as u64;
    let layers = net.layers();
    steps
        .iter()
        .enumerate()
        .map(|(i, step)| {
            let forward_stats = Summary::from_samples(&fwd[i]);
            let backward_stats = Summary::from_samples(&bwd[i]);
            let flops =
                |pass: usize| batch * per_layer[step.clone()].iter().map(|f| f[pass]).sum::<u64>();
            LayerProfile {
                name: layers[step.clone()]
                    .iter()
                    .map(|l| l.name())
                    .collect::<Vec<_>>()
                    .join("+"),
                forward_secs: forward_stats.mean,
                backward_secs: backward_stats.mean,
                forward_flops: flops(0),
                backward_flops: flops(1),
                forward_stats,
                backward_stats,
            }
        })
        .collect()
}

/// Aggregate throughput over a profile: total FLOPs / total seconds.
pub fn aggregate_flop_rate(profiles: &[LayerProfile]) -> f64 {
    let flops: u64 = profiles
        .iter()
        .map(|p| p.forward_flops + p.backward_flops)
        .sum();
    let secs: f64 = profiles.iter().map(|p| p.total_secs()).sum();
    if secs <= 0.0 {
        0.0
    } else {
        flops as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, MaxPool2d, Relu};

    fn small_net() -> Network {
        let mut rng = TensorRng::new(1);
        Network::new("p")
            .push(Conv2d::new("conv1", 1, 8, 3, 1, 1, &mut rng))
            .push(Relu::new("relu1"))
            .push(MaxPool2d::new("pool1", 2, 2))
            .push(Conv2d::new("conv2", 8, 8, 3, 1, 1, &mut rng))
    }

    #[test]
    fn profile_covers_all_layers_with_positive_times() {
        let mut net = small_net();
        let p = profile_network(&mut net, Shape4::new(2, 1, 16, 16), 1, 2);
        assert_eq!(p.len(), 4);
        for lp in &p {
            assert!(lp.forward_secs >= 0.0);
            assert!(lp.backward_secs >= 0.0);
            assert_eq!(lp.forward_stats.count, 2);
            assert!(
                lp.forward_stats.min <= lp.forward_secs && lp.forward_secs <= lp.forward_stats.max
            );
        }
        // Convolutions dominate FLOPs.
        assert!(p[0].forward_flops > p[1].forward_flops);
    }

    #[test]
    fn flop_rate_is_finite_and_positive_for_conv() {
        let mut net = small_net();
        let p = profile_network(&mut net, Shape4::new(4, 1, 32, 32), 1, 3);
        let conv = &p[0];
        assert!(conv.flop_rate() > 0.0);
        assert!(conv.flop_rate().is_finite());
        assert!(aggregate_flop_rate(&p) > 0.0);
    }

    #[test]
    fn steps_time_a_fused_triple_as_one_entry() {
        let mut net = small_net();
        let input = Shape4::new(2, 1, 16, 16);
        let layers = profile_network(&mut net, input, 0, 1);
        let steps = profile_steps(&mut net, input, 1, 2);
        let names: Vec<_> = steps.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["conv1+relu1+pool1", "conv2"]);
        let sum = |p: &[LayerProfile]| -> u64 { p.iter().map(|p| p.forward_flops).sum() };
        assert_eq!(steps[0].forward_flops, sum(&layers[..3]));
        // The first step takes no input gradient: conv1's data-gradient
        // GEMM, the size of its forward one, is not run or counted.
        let unfused: u64 = layers[..3].iter().map(|p| p.backward_flops).sum();
        assert_eq!(steps[0].backward_flops, unfused - layers[0].forward_flops);
        assert_eq!(sum(&steps), sum(&layers));
        assert_eq!(steps[1].forward_flops, layers[3].forward_flops);
        assert_eq!(steps[0].forward_stats.count, 2);
    }

    /// `hep_small`'s first step, `conv1+relu1+pool1`, counts conv1's
    /// weight gradient and the ReLU and pool backward that feed it — its
    /// weight-gradient FLOPs — and no input gradient; `profile_network`
    /// still times conv1's full backward, and later steps are unchanged.
    #[test]
    fn first_step_counts_its_weight_gradient_alone() {
        let mut net = crate::arch::hep_small(&mut TensorRng::new(2));
        let input = Shape4::new(2, 3, 32, 32);
        let steps = profile_steps(&mut net, input, 0, 1);
        let layers = profile_network(&mut net, input, 0, 1);
        let spec = net.spec();
        let walk: Vec<_> = spec.walk(input).collect();
        let [(_, conv1, s0), (_, relu1, s1), (_, pool1, s2)] = [walk[0], walk[1], walk[2]];
        let weight_grad = conv1.param_grad_flops_per_image(s0)
            + relu1.backward_flops_per_image(s1)
            + pool1.backward_flops_per_image(s2);
        assert_eq!(steps[0].name, "conv1+relu1+pool1");
        assert_eq!(steps[0].backward_flops, 2 * weight_grad);
        assert_eq!(
            conv1.param_grad_flops_per_image(s0),
            conv1.forward_flops_per_image(s0)
        );
        assert_eq!(layers[0].backward_flops, 2 * layers[0].forward_flops);
        assert_eq!(
            steps[1].backward_flops,
            layers[3..6].iter().map(|p| p.backward_flops).sum::<u64>()
        );
    }

    #[test]
    fn flops_scale_with_batch() {
        let mut net = small_net();
        let p1 = profile_network(&mut net, Shape4::new(1, 1, 16, 16), 0, 1);
        let mut net2 = small_net();
        let p8 = profile_network(&mut net2, Shape4::new(8, 1, 16, 16), 0, 1);
        assert_eq!(p8[0].forward_flops, 8 * p1[0].forward_flops);
    }
}
