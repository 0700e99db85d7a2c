//! Wall-clock per-layer profiler — the "real kernels" side of Fig. 5.
//!
//! The paper's Fig. 5 breaks single-node runtime into per-layer
//! contributions and FLOP rates at batch size 8. This module measures the
//! same decomposition for our Rust kernels on the host machine; the
//! KNL-calibrated *simulated* version of the figure lives in
//! `scidl-cluster` (the two are printed side by side by the Fig. 5
//! harness).

use crate::layer::Layer;
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
/// [`Network`] runs it in; [`profile_steps`] times that.
pub fn profile_network(net: &mut Network, input: Shape4, warmup: usize, reps: usize) -> Vec<LayerProfile> {
    let steps = (0..net.layers().len()).map(|i| i..i + 1).collect();
    profile(net, steps, input, warmup, reps)
}

/// Profiles `net` step by step as [`Network::forward`] and
/// [`Network::backward`] run it: a fused `Conv2d → Relu → MaxPool2d`
/// triple is one entry, named `conv1+relu1+pool1` and carrying the three
/// layers' FLOPs; every other layer is its own. Arguments as
/// [`profile_network`].
pub fn profile_steps(net: &mut Network, input: Shape4, warmup: usize, reps: usize) -> Vec<LayerProfile> {
    let mut steps = Vec::new();
    let mut at = 0;
    while at < net.layers().len() {
        let step = plan(net.layers(), at, Walk::Forward);
        at = step.end;
        steps.push(step);
    }
    profile(net, steps, input, warmup, reps)
}

/// Times each of `steps` (consecutive ranges covering `net`'s layers),
/// run through the network's step functions.
fn profile(
    net: &mut Network,
    steps: Vec<Range<usize>>,
    input: Shape4,
    warmup: usize,
    reps: usize,
) -> Vec<LayerProfile> {
    assert!(reps > 0, "need at least one timed repetition");
    let mut rng = TensorRng::new(0xF165);
    let x = rng.uniform_tensor(input, -1.0, 1.0);

    let mut fwd: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); steps.len()];
    let mut bwd: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); steps.len()];
    let mut shapes = Vec::with_capacity(net.layers().len());
    {
        let mut s = input;
        for l in net.layers() {
            shapes.push(s);
            s = l.out_shape(s);
        }
    }
    let out_shape = net.out_shape(input);

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
        let mut g = Tensor::filled(out_shape, 1.0);
        for (i, step) in steps.iter().enumerate().rev() {
            let t0 = Instant::now();
            g = backward_step(&mut net.layers_mut()[step.clone()], g, true).expect("the input gradient was asked for");
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
            let flops = |f: fn(&dyn Layer, Shape4) -> u64| {
                batch * step.clone().map(|l| f(&*layers[l], shapes[l])).sum::<u64>()
            };
            LayerProfile {
                name: layers[step.clone()].iter().map(|l| l.name()).collect::<Vec<_>>().join("+"),
                forward_secs: forward_stats.mean,
                backward_secs: backward_stats.mean,
                forward_flops: flops(|l, s| l.forward_flops_per_image(s)),
                backward_flops: flops(|l, s| l.backward_flops_per_image(s)),
                forward_stats,
                backward_stats,
            }
        })
        .collect()
}

/// Aggregate throughput over a profile: total FLOPs / total seconds.
pub fn aggregate_flop_rate(profiles: &[LayerProfile]) -> f64 {
    let flops: u64 = profiles.iter().map(|p| p.forward_flops + p.backward_flops).sum();
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
            assert!(lp.forward_stats.min <= lp.forward_secs && lp.forward_secs <= lp.forward_stats.max);
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
        assert_eq!(steps[0].backward_flops, layers[..3].iter().map(|p| p.backward_flops).sum::<u64>());
        assert_eq!(sum(&steps), sum(&layers));
        assert_eq!(steps[1].forward_flops, layers[3].forward_flops);
        assert_eq!(steps[0].forward_stats.count, 2);
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
