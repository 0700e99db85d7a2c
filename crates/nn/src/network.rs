//! Sequential network container and the `Model` abstraction used by the
//! distributed engines.
//!
//! A network walks its layers in *steps*. One fusion planner (`plan`)
//! cuts them: every `Conv2d → Relu → MaxPool2d` triple is one step, run
//! as one pass per batch item (`Conv2d::forward_pooled`), and every
//! other layer a step of its own. `forward`, `infer` and
//! `backward_layered` all ask it, so the three always agree; nothing
//! turns it off, and [`Network::layers`] still lists every layer.

use crate::layer::{InferScratch, Layer, ParamBlock, Part};
use crate::spec::NetSpec;
use crate::{Conv2d, MaxPool2d};
use scidl_tensor::{Shape4, Tensor};
use std::ops::Range;

/// Anything with trainable parameters that the distributed engines in
/// `scidl-core` can train: a plain [`Network`] or a composite like the
/// climate encoder/decoder model.
///
/// The engines only ever see parameters as an ordered list of
/// [`ParamBlock`]s; flattened copies of values/gradients are what travels
/// over all-reduce and to the parameter servers.
pub trait Model: Send {
    /// Ordered list of parameter blocks.
    fn param_blocks(&self) -> Vec<&ParamBlock>;

    /// Ordered mutable list of parameter blocks (same order).
    fn param_blocks_mut(&mut self) -> Vec<&mut ParamBlock>;

    /// Zeroes every accumulated gradient.
    fn zero_grads(&mut self) {
        for b in self.param_blocks_mut() {
            b.zero_grad();
        }
    }

    /// Total scalar parameter count.
    fn num_params(&self) -> usize {
        self.param_blocks().iter().map(|b| b.len()).sum()
    }

    /// Copies all parameter values into one flat vector (block order).
    fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for b in self.param_blocks() {
            out.extend_from_slice(b.value.data());
        }
        out
    }

    /// Overwrites all parameter values from a flat vector (block order).
    fn set_flat_params(&mut self, flat: &[f32]) {
        let mut off = 0;
        for b in self.param_blocks_mut() {
            let len = b.len();
            b.value.data_mut().copy_from_slice(&flat[off..off + len]);
            off += len;
        }
        assert_eq!(off, flat.len(), "flat parameter length mismatch");
    }

    /// Copies all gradients into one flat vector (block order).
    fn flat_grads(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for b in self.param_blocks() {
            out.extend_from_slice(b.grad.data());
        }
        out
    }

    /// Overwrites all gradients from a flat vector (block order).
    fn set_flat_grads(&mut self, flat: &[f32]) {
        let mut off = 0;
        for b in self.param_blocks_mut() {
            let len = b.len();
            b.grad.data_mut().copy_from_slice(&flat[off..off + len]);
            off += len;
        }
        assert_eq!(off, flat.len(), "flat gradient length mismatch");
    }
}

/// A plain sequential stack of layers (the HEP network's shape, and the
/// building block of the climate model's encoder and decoder).
#[derive(Clone)]
pub struct Network {
    pub(crate) name: String,
    pub(crate) layers: Vec<Box<dyn Layer>>,
}

impl Network {
    /// Creates an empty network.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to the layers (used by the profiler).
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Shape produced by running an input of shape `input` through every
    /// layer.
    pub fn out_shape(&self, input: Shape4) -> Shape4 {
        self.layers.iter().fold(input, |s, l| l.out_shape(s))
    }

    /// Full forward pass. The input is copied once, for the first step
    /// to own; each step's output is then handed to the next.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        let mut at = 0;
        while at < self.layers.len() {
            let step = plan(&self.layers, at, Walk::Forward);
            at = step.end;
            x = forward_step(&mut self.layers[step], x);
        }
        x
    }

    /// Inference-only forward pass: the same function as
    /// [`Network::forward`] bit for bit (each step's `forward` *is* its
    /// `infer` plus caching), but `&self` — no activation caching, no
    /// layer-state mutation — so one network instance can serve many
    /// readers.
    pub fn infer(&self, input: &Tensor) -> Tensor {
        let mut x: Option<Tensor> = None;
        let mut at = 0;
        while at < self.layers.len() {
            let step = plan(&self.layers, at, Walk::Forward);
            at = step.end;
            let input = x.as_ref().unwrap_or(input);
            x = Some(match fused(&self.layers[step.clone()]) {
                Some((conv, pool)) => conv.infer_pooled(input, pool),
                None => self.layers[step.start].infer(input),
            });
        }
        x.unwrap_or_else(|| input.clone())
    }

    /// Builds the int8 sidecar for this network: every GEMM-shaped layer
    /// gets symmetrically quantized weights ([`crate::quant::QuantLayer`]),
    /// everything else stays on its f32 [`Layer::infer`]. The sidecar is
    /// positional — run it with [`Network::infer_quantized_with`] against
    /// the *same* network it was built from.
    pub fn quantize(&self) -> crate::quant::QuantizedNetwork {
        crate::quant::QuantizedNetwork {
            layers: self.layers.iter().map(|l| l.quantize()).collect(),
        }
    }

    /// Quantized inference with a fresh scratch pad — see
    /// [`Network::infer_quantized_with`].
    pub fn infer_quantized(&self, q: &crate::quant::QuantizedNetwork, input: &Tensor) -> Tensor {
        let mut scratch = InferScratch::new();
        self.infer_quantized_with(q, input, &mut scratch)
    }

    /// The int8 serving forward: layers with a quantized form run through
    /// the exact i32-accumulate [`scidl_tensor::gemm_i8`] kernel with
    /// dynamic per-tensor activation scales; the rest run their f32
    /// [`Layer::infer`]. Output is *approximate* (unlike
    /// [`Network::infer`], which is bit-identical to training
    /// forward) — callers gate deployment on probe accuracy, not on
    /// equality. Non-finite inputs still poison the output: the
    /// quantizers emit NaN scales, never finite garbage.
    pub fn infer_quantized_with(
        &self,
        q: &crate::quant::QuantizedNetwork,
        input: &Tensor,
        scratch: &mut InferScratch,
    ) -> Tensor {
        assert_eq!(
            q.layers.len(),
            self.layers.len(),
            "quantized sidecar was built from a different network"
        );
        let mut x = input.clone();
        for (l, ql) in self.layers.iter().zip(&q.layers) {
            x = match ql {
                Some(ql) => ql.infer(&x, scratch),
                None => l.infer(&x),
            };
        }
        x
    }

    /// Full backward pass; returns the gradient w.r.t. the network input.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_layered(grad_out, |_, _| {})
    }

    /// Backward pass that reports each layer as its gradients become
    /// ready — deepest (output-side) layer first, the order backward
    /// visits them. `on_ready(i, layer)` fires once per layer, right after
    /// the step holding layer `i` completes its backward, so its
    /// parameter gradients are final and a caller can start communicating
    /// them while shallower layers are still backpropagating (the
    /// MLSL-style overlap of Sec. V); a fused triple reports its pool,
    /// ReLU and conv in that order. [`Network::backward`] is this loop
    /// with a no-op callback. Like `forward`, it copies `grad_out` once
    /// and hands each step's result to the next.
    pub fn backward_layered<F>(&mut self, grad_out: &Tensor, on_ready: F) -> Tensor
    where
        F: FnMut(usize, &dyn Layer),
    {
        self.walk_backward(grad_out, on_ready, true)
            .expect("the input gradient was asked for")
    }

    /// [`Network::backward_layered`] for a network whose input is data:
    /// the walk stops at the first step's parameter gradients, and that
    /// step computes no gradient for the input (Caffe's `propagate_down =
    /// false` on the data blob) — a convolution there skips its
    /// data-gradient GEMM and scatter. Every parameter gradient, and the
    /// order `on_ready` reports the layers in, is `backward_layered`'s.
    pub fn backward_params<F>(&mut self, grad_out: &Tensor, on_ready: F)
    where
        F: FnMut(usize, &dyn Layer),
    {
        self.walk_backward(grad_out, on_ready, false);
    }

    /// The walk behind both: returns the input gradient if `input`.
    fn walk_backward<F>(
        &mut self,
        grad_out: &Tensor,
        mut on_ready: F,
        input: bool,
    ) -> Option<Tensor>
    where
        F: FnMut(usize, &dyn Layer),
    {
        let mut g = Some(grad_out.clone());
        let mut at = self.layers.len();
        while at > 0 {
            let step = plan(&self.layers, at, Walk::Backward);
            at = step.start;
            let grad = g.take().expect("only the last step drops the gradient");
            g = backward_step(&mut self.layers[step.clone()], grad, input || at > 0);
            for i in step.rev() {
                on_ready(i, &*self.layers[i]);
            }
        }
        g
    }

    /// The network as data: its name and its layers' names and specs.
    pub fn spec(&self) -> NetSpec {
        let layers = self
            .layers
            .iter()
            .map(|l| (l.name().to_string(), l.spec()))
            .collect();
        NetSpec {
            name: self.name.clone(),
            layers,
        }
    }
}

/// Which way a walk over a network's layers goes.
#[derive(Clone, Copy)]
pub(crate) enum Walk {
    /// Input to output: the step starts at the position asked about.
    Forward,
    /// Output to input: the step ends just before it.
    Backward,
}

/// The fusion planner, the one place a walk decides what runs together:
/// the layers of the step that starts at `at` (or, walking backward, ends
/// just before it) — a `Conv2d → Relu → MaxPool2d` triple whole, any
/// other layer alone. A triple is three distinct kinds in a fixed order,
/// so two can never overlap, and both directions cut the same steps.
pub(crate) fn plan(layers: &[Box<dyn Layer>], at: usize, walk: Walk) -> Range<usize> {
    let (triple, single) = match walk {
        Walk::Forward => (at..at + 3, at..at + 1),
        Walk::Backward => (at.saturating_sub(3)..at, at - 1..at),
    };
    match layers.get(triple.clone()).and_then(fused) {
        Some(_) => triple,
        None => single,
    }
}

/// The conv and pool of `step` if it is a `Conv2d → Relu → MaxPool2d`
/// triple.
fn fused(step: &[Box<dyn Layer>]) -> Option<(&Conv2d, &MaxPool2d)> {
    let [conv, relu, pool] = step else {
        return None;
    };
    match (conv.part(), relu.part(), pool.part()) {
        (Some(Part::Conv(conv)), Some(Part::Relu(_)), Some(Part::Pool(pool))) => Some((conv, pool)),
        _ => None,
    }
}

/// [`fused`], borrowed exclusively.
fn fused_mut(step: &mut [Box<dyn Layer>]) -> Option<(&mut Conv2d, &mut MaxPool2d)> {
    let [conv, relu, pool] = step else {
        return None;
    };
    match (conv.part_mut(), relu.part(), pool.part_mut()) {
        (Some(Part::Conv(conv)), Some(Part::Relu(_)), Some(Part::Pool(pool))) => Some((conv, pool)),
        _ => None,
    }
}

/// Training forward of one step [`plan`] cut.
pub(crate) fn forward_step(step: &mut [Box<dyn Layer>], x: Tensor) -> Tensor {
    match fused_mut(step) {
        Some((conv, pool)) => conv.forward_pooled(x, pool),
        None => step[0].forward(x),
    }
}

/// Backward of one step [`plan`] cut: its parameter gradients, and the
/// gradient for its input if `data`.
pub(crate) fn backward_step(step: &mut [Box<dyn Layer>], g: Tensor, data: bool) -> Option<Tensor> {
    match fused_mut(step) {
        Some((conv, pool)) => conv.backward_pooled(g, pool, data),
        None if data => Some(step[0].backward(g)),
        None => {
            step[0].backward_params(g);
            None
        }
    }
}

impl Model for Network {
    fn param_blocks(&self) -> Vec<&ParamBlock> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn param_blocks_mut(&mut self) -> Vec<&mut ParamBlock> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, Dense, GlobalAvgPool, MaxPool2d, Relu};
    use scidl_tensor::TensorRng;

    fn tiny_net(rng: &mut TensorRng) -> Network {
        Network::new("tiny")
            .push(Conv2d::new("conv1", 1, 4, 3, 1, 1, rng))
            .push(Relu::new("relu1"))
            .push(MaxPool2d::new("pool1", 2, 2))
            .push(GlobalAvgPool::new("gap"))
            .push(Dense::new("fc", 4, 2, rng))
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn a_clone_trains_like_a_fresh_build_and_shares_nothing() {
        use crate::arch::{hep_small, ClimateNet, CLIMATE_CLASSES};
        use crate::loss::{DetectionTargets, SoftmaxCrossEntropy};
        use crate::solver::{Sgd, Solver};

        // hep_small: one SGD step on the clone and on a fresh build.
        let build = || hep_small(&mut TensorRng::new(3));
        let original = build();
        let x = TensorRng::new(4).uniform_tensor(Shape4::new(2, 3, 32, 32), -1.0, 1.0);
        let step = |net: &mut Network| {
            let logits = net.forward(&x);
            let (loss, dlogits) = SoftmaxCrossEntropy::forward(&logits, &[0, 1]);
            net.backward_params(&dlogits, |_, _| {});
            let grads = net.flat_grads();
            Sgd::new(0.1, 0.9).step_model(net);
            (loss.to_bits(), bits(&grads), bits(&net.flat_params()))
        };
        let mut copy = original.clone();
        assert!(
            step(&mut copy) == step(&mut build()),
            "hep_small clone steps differently"
        );
        // The step wrote the clone's values and gradients, not the original's.
        assert_eq!(bits(&original.flat_params()), bits(&build().flat_params()));
        assert!(original.flat_grads().iter().all(|&g| g == 0.0));

        // ClimateNet::small: one supervised step, the same way.
        let build = || ClimateNet::small(&mut TensorRng::new(5));
        let original = build();
        let x = TensorRng::new(6).uniform_tensor(Shape4::new(1, 4, 64, 64), -1.0, 1.0);
        let mut t = DetectionTargets::empty(1, 8, 8, CLIMATE_CLASSES);
        t.add_object(0, 3, 4, 1, 0.5, 0.5, 0.2, 0.2);
        let step = |net: &mut ClimateNet| {
            let (parts, recon) = net.forward_backward(&x, Some(&t));
            let grads = net.flat_grads();
            Sgd::new(0.1, 0.9).step_model(net);
            (
                parts.total().to_bits(),
                recon.to_bits(),
                bits(&grads),
                bits(&net.flat_params()),
            )
        };
        let mut copy = original.clone();
        assert!(
            step(&mut copy) == step(&mut build()),
            "ClimateNet clone steps differently"
        );
        for b in copy.param_blocks_mut() {
            b.value.data_mut().fill(7.0);
        }
        assert_eq!(bits(&original.flat_params()), bits(&build().flat_params()));
        assert!(original.flat_grads().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn out_shape_chains_layers() {
        let mut rng = TensorRng::new(1);
        let net = tiny_net(&mut rng);
        assert_eq!(
            net.out_shape(Shape4::new(5, 1, 8, 8)),
            Shape4::new(5, 2, 1, 1)
        );
    }

    #[test]
    fn forward_backward_shapes() {
        let mut rng = TensorRng::new(1);
        let mut net = tiny_net(&mut rng);
        let x = rng.uniform_tensor(Shape4::new(2, 1, 8, 8), -1.0, 1.0);
        let y = net.forward(&x);
        assert_eq!(y.shape(), Shape4::new(2, 2, 1, 1));
        let g = net.backward(&Tensor::filled(y.shape(), 1.0));
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    fn param_roundtrip_via_flat_vectors() {
        let mut rng = TensorRng::new(1);
        let mut net = tiny_net(&mut rng);
        let flat = net.flat_params();
        assert_eq!(flat.len(), net.num_params());
        let mut doubled: Vec<f32> = flat.iter().map(|x| x * 2.0).collect();
        net.set_flat_params(&doubled);
        doubled.iter_mut().for_each(|x| *x *= 0.5);
        net.set_flat_params(&doubled);
        assert_eq!(net.flat_params(), flat);
    }

    #[test]
    fn zero_grads_clears_all_blocks() {
        let mut rng = TensorRng::new(1);
        let mut net = tiny_net(&mut rng);
        let x = rng.uniform_tensor(Shape4::new(1, 1, 8, 8), -1.0, 1.0);
        let y = net.forward(&x);
        net.backward(&Tensor::filled(y.shape(), 1.0));
        assert!(net.flat_grads().iter().any(|&g| g != 0.0));
        net.zero_grads();
        assert!(net.flat_grads().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn param_block_names_are_qualified() {
        let mut rng = TensorRng::new(1);
        let net = tiny_net(&mut rng);
        let names: Vec<_> = net.param_blocks().iter().map(|b| b.name.clone()).collect();
        assert_eq!(
            names,
            vec!["conv1.weight", "conv1.bias", "fc.weight", "fc.bias"]
        );
    }

    #[test]
    fn whole_network_gradient_check() {
        let mut rng = TensorRng::new(77);
        let mut net = tiny_net(&mut rng);
        let x = rng.uniform_tensor(Shape4::new(1, 1, 6, 6), -1.0, 1.0);

        let y = net.forward(&x);
        net.backward(&Tensor::filled(y.shape(), 1.0));
        let analytic = net.flat_grads();

        let eps = 1e-2f32;
        let flat = net.flat_params();
        // Spot-check a few parameters across the blocks.
        for idx in [0usize, 3, 17, flat.len() - 1] {
            let mut p = flat.clone();
            p[idx] += eps;
            net.set_flat_params(&p);
            let lp = net.forward(&x).sum();
            p[idx] -= 2.0 * eps;
            net.set_flat_params(&p);
            let lm = net.forward(&x).sum();
            p[idx] += eps;
            net.set_flat_params(&p);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic[idx] - num).abs() < 3e-2,
                "param {idx}: analytic {} vs numeric {num}",
                analytic[idx]
            );
        }
    }

    #[test]
    fn backward_layered_is_bit_identical_and_deepest_first() {
        // `tiny_net` has one fused triple, `hep_small` two and
        // `hep_network` four, each starting the network; the climate
        // encoder has none (its first step is a lone conv, followed by a
        // ReLU); the dense stack starts with a `Dense`, whose
        // parameter-only backward skips its input-gradient GEMM as a
        // conv's does. Each must still report every layer once, in strict
        // reverse order — through `backward_layered` and through the
        // parameter-only walk `backward_params`, which must also leave
        // every parameter gradient bit-identical.
        let mut rng = TensorRng::new(21);
        let nets = [
            (tiny_net(&mut rng), Shape4::new(2, 1, 8, 8)),
            (crate::arch::hep_small(&mut rng), Shape4::new(2, 3, 32, 32)),
            (
                crate::arch::hep_network(&mut rng),
                Shape4::new(2, 3, 32, 32),
            ),
            (
                crate::arch::ClimateNet::small(&mut rng).encoder,
                Shape4::new(2, 4, 16, 16),
            ),
            (
                Network::new("dense")
                    .push(Dense::new("fc1", 3 * 4 * 4, 16, &mut rng))
                    .push(Relu::new("relu1"))
                    .push(Dense::new("fc2", 16, 2, &mut rng)),
                Shape4::new(2, 3, 4, 4),
            ),
        ];
        for (mut net, shape) in nets {
            let x = rng.uniform_tensor(shape, -1.0, 1.0);

            // Reference: plain backward.
            let y = net.forward(&x);
            let dy = Tensor::filled(y.shape(), 0.5);
            let gin_ref = net.backward(&dy);
            let grads_ref = net.flat_grads();
            let want_order: Vec<usize> = (0..net.layers().len()).rev().collect();
            let want_blocks: Vec<String> = net
                .layers()
                .iter()
                .rev()
                .flat_map(|l| l.params().into_iter().map(|b| b.name.clone()))
                .collect();

            for params_only in [false, true] {
                // Both walks must produce bit-identical gradients, visit
                // every layer exactly once in reverse order, and expose
                // each layer's *final* parameter gradients at callback
                // time.
                net.zero_grads();
                let _ = net.forward(&x);
                let mut order = Vec::new();
                let mut seen_grads: Vec<(String, Vec<f32>)> = Vec::new();
                let on_ready = |i: usize, layer: &dyn Layer| {
                    order.push(i);
                    for b in layer.params() {
                        seen_grads.push((b.name.clone(), b.grad.data().to_vec()));
                    }
                };
                let name = format!("{} (params only: {params_only})", net.name());
                if params_only {
                    net.backward_params(&dy, on_ready);
                } else {
                    let gin = net.backward_layered(&dy, on_ready);
                    assert_eq!(gin.data(), gin_ref.data(), "{name}");
                }
                assert_eq!(net.flat_grads(), grads_ref, "{name}");
                assert_eq!(
                    order, want_order,
                    "{name}: layers must be reported deepest first"
                );
                // Callback-time gradients equal the post-backward ones (they
                // were final when reported); blocks arrive in reverse layer
                // order.
                let final_blocks: Vec<(String, Vec<f32>)> = net
                    .param_blocks()
                    .iter()
                    .map(|b| (b.name.clone(), b.grad.data().to_vec()))
                    .collect();
                for (block, g) in &seen_grads {
                    let f = final_blocks.iter().find(|(n, _)| n == block).unwrap();
                    assert_eq!(
                        g, &f.1,
                        "{name}: block {block} changed after its ready callback"
                    );
                }
                let seen_blocks: Vec<String> = seen_grads.iter().map(|(n, _)| n.clone()).collect();
                assert_eq!(seen_blocks, want_blocks, "{name}");
            }
        }
    }

    #[test]
    fn infer_is_bit_identical_to_forward() {
        // Batch 6 takes Conv2d's batch-parallel path; equality must be
        // exact, not approximate.
        let mut rng = TensorRng::new(42);
        let mut net = tiny_net(&mut rng);
        let x = rng.uniform_tensor(Shape4::new(6, 1, 8, 8), -1.0, 1.0);
        let y_train = net.forward(&x);
        let y_infer = net.infer(&x);
        assert_eq!(y_train.shape(), y_infer.shape());
        assert_eq!(y_train.data(), y_infer.data());
    }

    #[test]
    fn infer_does_not_disturb_training_state() {
        let mut rng = TensorRng::new(44);
        let mut net = tiny_net(&mut rng);
        let x = rng.uniform_tensor(Shape4::new(2, 1, 8, 8), -1.0, 1.0);
        // Reference gradients with no infer interleaved.
        let y = net.forward(&x);
        net.backward(&Tensor::filled(y.shape(), 1.0));
        let want = net.flat_grads();
        net.zero_grads();
        // forward → infer → backward: infer must not clobber the caches
        // backward depends on.
        let y2 = net.forward(&x);
        let _ = net.infer(&x);
        net.backward(&Tensor::filled(y2.shape(), 1.0));
        assert_eq!(net.flat_grads(), want);
    }

    #[test]
    fn summary_lists_layers_and_totals() {
        let mut rng = TensorRng::new(1);
        let net = tiny_net(&mut rng);
        let s = net.spec().summary(Shape4::new(1, 1, 8, 8));
        assert!(s.contains("conv1"));
        assert!(s.contains("fc"));
        assert!(s.contains("total:"));
        assert!(s.contains(&net.num_params().to_string()));
        assert_eq!(s.lines().count(), 2 + net.layers().len() + 1);
    }

    #[test]
    fn flop_counts_accumulate_over_layers() {
        let mut rng = TensorRng::new(1);
        let spec = tiny_net(&mut rng).spec();
        let s = Shape4::new(1, 1, 8, 8);
        let walk: Vec<_> = spec.walk(s).collect();
        let fwd: u64 = walk
            .iter()
            .map(|&(_, l, s)| l.forward_flops_per_image(s))
            .sum();
        let bwd: u64 = walk
            .iter()
            .map(|&(_, l, s)| l.backward_flops_per_image(s))
            .sum();
        // conv out 4x8x8: 2*4*1*9*64 = 4608; relu 256; pool out 4x4x4,
        // 4 taps each = 256; gap 64; fc 2*4*2 = 16.
        assert_eq!(fwd, 4608 + 256 + 256 + 64 + 16);
        // conv and fc twice forward; relu 256; pool 64; gap 64.
        assert_eq!(bwd, 2 * 4608 + 256 + 64 + 64 + 2 * 16);
        assert_eq!(spec.training_flops_per_image(s), fwd + bwd);
    }
}
