//! The two reference architectures of Table II, plus scaled-down variants
//! used for fast tests and the simulated-time convergence runs.

use crate::conv::Conv2d;
use crate::deconv::Deconv2d;
use crate::dense::Dense;
use crate::layer::{Layer, ParamBlock};
use crate::loss::{mse_loss, DetectionLoss, DetectionLossParts, DetectionTargets};
use crate::network::{Model, Network};
use crate::pool::{GlobalAvgPool, MaxPool2d};
use crate::Relu;
use scidl_tensor::{Shape4, Tensor, TensorRng};

/// HEP input: 224x224 pixels, 3 channels (ECAL energy, HCAL energy, track
/// count) — Table II.
pub const HEP_INPUT: Shape4 = Shape4::new(1, 3, 224, 224);
/// HEP classes: signal vs background.
pub const HEP_CLASSES: usize = 2;

/// Climate input: 768x768 pixels, 16 channels — Tables I/II.
pub const CLIMATE_INPUT: Shape4 = Shape4::new(1, 16, 768, 768);
/// Climate object classes: tropical cyclone, extra-tropical cyclone,
/// atmospheric river (Sec. VII-B).
pub const CLIMATE_CLASSES: usize = 3;
/// Coarse detection grid after five stride-2 encoder convolutions.
pub const CLIMATE_GRID: usize = 24;

/// Builds the supervised HEP network of Sec. III-A / Table II:
/// five 3x3/s1 convolutions with 128 filters, ReLU, 2x2/s2 max pooling
/// after the first four, global average pooling after the fifth, and a
/// single 128→2 dense layer. ≈594k parameters ≈ 2.27 MiB (paper: 2.3 MiB,
/// "~590 KB model" in Sec. VI-B2).
pub fn hep_network(rng: &mut TensorRng) -> Network {
    let mut net = Network::new("hep");
    let mut cin = HEP_INPUT.c;
    for i in 1..=5 {
        net.add(Box::new(Conv2d::new(format!("conv{i}"), cin, 128, 3, 1, 1, rng)));
        net.add(Box::new(Relu::new(format!("relu{i}"))));
        if i < 5 {
            net.add(Box::new(MaxPool2d::new(format!("pool{i}"), 2, 2)));
        }
        cin = 128;
    }
    net.add(Box::new(GlobalAvgPool::new("gap")));
    net.add(Box::new(Dense::new("fc", 128, HEP_CLASSES, rng)));
    net
}

/// Scaled-down HEP-style classifier for 32x32 inputs — used by fast tests
/// and the real-gradient simulated-time convergence runs (Fig. 8), where
/// training thousands of simulated nodes on full 224px images would be
/// prohibitive on a laptop-class host. Same topology (conv+pool units,
/// global pooling, tiny dense head), ≈6k parameters.
pub fn hep_small(rng: &mut TensorRng) -> Network {
    Network::new("hep-small")
        .push(Conv2d::new("conv1", 3, 8, 3, 1, 1, rng))
        .push(Relu::new("relu1"))
        .push(MaxPool2d::new("pool1", 2, 2))
        .push(Conv2d::new("conv2", 8, 16, 3, 1, 1, rng))
        .push(Relu::new("relu2"))
        .push(MaxPool2d::new("pool2", 2, 2))
        .push(Conv2d::new("conv3", 16, 32, 3, 1, 1, rng))
        .push(Relu::new("relu3"))
        .push(GlobalAvgPool::new("gap"))
        .push(Dense::new("fc", 32, HEP_CLASSES, rng))
}

/// Counterfactual HEP network for the paper's design-rule ablation
/// (Sec. I: "to not use layers with large dense weights such as batch
/// normalization or fully connected units"): the same conv stack, but a
/// VGG-style flattened dense head (14·14·128 → 4096 → 2) instead of
/// global average pooling. ≈103M parameters vs 594k — the model the
/// all-reduce and parameter servers would have to move at every
/// iteration had the paper not followed its own rule.
pub fn hep_dense_variant(rng: &mut TensorRng) -> Network {
    let mut net = Network::new("hep-dense-variant");
    let mut cin = HEP_INPUT.c;
    for i in 1..=5 {
        net.add(Box::new(Conv2d::new(format!("conv{i}"), cin, 128, 3, 1, 1, rng)));
        net.add(Box::new(Relu::new(format!("relu{i}"))));
        if i < 5 {
            net.add(Box::new(MaxPool2d::new(format!("pool{i}"), 2, 2)));
        }
        cin = 128;
    }
    net.add(Box::new(Dense::new("fc1", 14 * 14 * 128, 4096, rng)));
    net.add(Box::new(Relu::new("fc1_relu")));
    net.add(Box::new(Dense::new("fc2", 4096, HEP_CLASSES, rng)));
    net
}

/// Channel plan of the climate encoder: `(cout, stride)` per 5x5 conv.
/// Five stride-2 stages take 768 → 24 (the detection grid).
const CLIMATE_ENCODER_PLAN: [(usize, usize); 9] = [
    (64, 2),
    (128, 2),
    (256, 2),
    (384, 1),
    (512, 2),
    (640, 1),
    (768, 2),
    (896, 1),
    (1024, 1),
];

/// Channel plan of the climate decoder: five 4x4/s2/p1 deconvolutions
/// doubling resolution back from 24 to 768.
const CLIMATE_DECODER_PLAN: [usize; 5] = [512, 256, 128, 64, 16];

/// Output of one [`ClimateNet`] forward pass.
pub struct ClimateOutput {
    /// Confidence logits `(n, 1, g, g)`.
    pub conf: Tensor,
    /// Class logits `(n, classes, g, g)`.
    pub class: Tensor,
    /// Box regressions `(n, 4, g, g)`.
    pub bbox: Tensor,
    /// Autoencoder reconstruction `(n, cin, H, W)`.
    pub recon: Tensor,
}

/// The semi-supervised climate architecture of Sec. III-B / Table II:
/// a strided-convolution encoder shared by (a) three small convolutional
/// scoring heads (confidence / class / bounding box) and (b) a
/// deconvolutional decoder that reconstructs the input. The unlabelled
/// data path trains the encoder through the reconstruction loss only.
#[derive(Clone)]
pub struct ClimateNet {
    /// Shared encoder (9 convolutions).
    pub encoder: Network,
    /// Reconstruction decoder (5 deconvolutions).
    pub decoder: Network,
    conf_head: Conv2d,
    class_head: Conv2d,
    bbox_head: Conv2d,
    /// Loss weighting of the reconstruction term.
    pub lambda_recon: f32,
    /// The supervised detection objective.
    pub det_loss: DetectionLoss,
}

impl ClimateNet {
    /// Builds the full-scale network (Table II: 9 conv + 5 deconv,
    /// ≈80.3M parameters ≈ 306 MiB; paper reports 302.1 MiB).
    pub fn full(rng: &mut TensorRng) -> Self {
        Self::build(CLIMATE_INPUT.c, &CLIMATE_ENCODER_PLAN, &CLIMATE_DECODER_PLAN, CLIMATE_CLASSES, rng)
    }

    /// Scaled-down variant for 64x64, 4-channel inputs (tests and
    /// laptop-scale training): 3 encoder convs to an 8x8 grid, 3 decoder
    /// deconvs, same head structure.
    pub fn small(rng: &mut TensorRng) -> Self {
        Self::build(4, &[(8, 2), (16, 2), (32, 2)], &[16, 8, 4], CLIMATE_CLASSES, rng)
    }

    fn build(
        cin: usize,
        encoder_plan: &[(usize, usize)],
        decoder_plan: &[usize],
        classes: usize,
        rng: &mut TensorRng,
    ) -> Self {
        let mut encoder = Network::new("climate-encoder");
        let mut c = cin;
        for (i, &(cout, stride)) in encoder_plan.iter().enumerate() {
            encoder.add(Box::new(Conv2d::new(format!("enc{}", i + 1), c, cout, 5, stride, 2, rng)));
            encoder.add(Box::new(Relu::new(format!("enc_relu{}", i + 1))));
            c = cout;
        }
        let feat_c = c;

        let mut decoder = Network::new("climate-decoder");
        for (i, &cout) in decoder_plan.iter().enumerate() {
            decoder.add(Box::new(Deconv2d::new(format!("dec{}", i + 1), c, cout, 4, 2, 1, rng)));
            if i + 1 < decoder_plan.len() {
                decoder.add(Box::new(Relu::new(format!("dec_relu{}", i + 1))));
            }
            c = cout;
        }

        Self {
            encoder,
            decoder,
            conf_head: Conv2d::new("head_conf", feat_c, 1, 3, 1, 1, rng),
            class_head: Conv2d::new("head_class", feat_c, classes, 3, 1, 1, rng),
            bbox_head: Conv2d::new("head_bbox", feat_c, 4, 3, 1, 1, rng),
            lambda_recon: 1.0,
            det_loss: DetectionLoss::default(),
        }
    }

    /// Number of object classes predicted by the class head.
    pub fn classes(&self) -> usize {
        self.class_head.cout()
    }

    /// Detection grid side for a given input size.
    pub fn grid_for(&self, input: Shape4) -> Shape4 {
        let f = self.encoder.out_shape(input);
        Shape4::new(input.n, 1, f.h, f.w)
    }

    /// Forward pass through encoder, decoder and heads. Each consumer of
    /// the features caches its own copy of them; the last takes the
    /// original.
    pub fn forward(&mut self, input: &Tensor) -> ClimateOutput {
        let features = self.encoder.forward(input);
        let recon = self.decoder.forward(&features);
        let conf = self.conf_head.forward(features.clone());
        let class = self.class_head.forward(features.clone());
        let bbox = self.bbox_head.forward(features);
        ClimateOutput { conf, class, bbox, recon }
    }

    /// Combined semi-supervised training step for one batch: forward,
    /// loss (detection on labelled cells + weighted reconstruction) and
    /// backward — down to the encoder's first parameter gradients, with no
    /// gradient for the input ([`Network::backward_params`]). Pass `targets = None` for unlabelled batches, which
    /// train through the autoencoder path alone — the mechanism by which
    /// the paper's architecture can "discover new weather patterns that
    /// might have few/no labeled examples". Returns
    /// `(detection parts, reconstruction loss)`.
    pub fn forward_backward(
        &mut self,
        input: &Tensor,
        targets: Option<&DetectionTargets>,
    ) -> (DetectionLossParts, f32) {
        let out = self.forward(input);

        let (recon_loss, mut drecon) = mse_loss(&out.recon, input);
        drecon.scale(self.lambda_recon);
        let mut dfeat = self.decoder.backward(&drecon);

        let parts = if let Some(t) = targets {
            let (parts, dconf, dclass, dbbox) = self.det_loss.forward(&out.conf, &out.class, &out.bbox, t);
            dfeat.add_assign(&self.conf_head.backward(dconf));
            dfeat.add_assign(&self.class_head.backward(dclass));
            dfeat.add_assign(&self.bbox_head.backward(dbbox));
            parts
        } else {
            // Unlabelled batch: heads still cached a forward; drop state
            // by running a zero backward so gradient accumulation stays
            // well-defined without contributing to head gradients.
            self.conf_head.backward(Tensor::zeros(out.conf.shape()));
            self.class_head.backward(Tensor::zeros(out.class.shape()));
            self.bbox_head.backward(Tensor::zeros(out.bbox.shape()));
            DetectionLossParts::default()
        };

        // The input is data: no gradient for it.
        self.encoder.backward_params(&dfeat, |_, _| {});
        (parts, recon_loss * self.lambda_recon)
    }

    /// Total FLOPs per image for one training iteration (forward +
    /// backward over encoder, heads and decoder).
    pub fn training_flops_per_image(&self, input: Shape4) -> u64 {
        let feat = self.encoder.out_shape(input.with_n(1));
        let enc = self.encoder.forward_flops_per_image(input.with_n(1))
            + self.encoder.backward_flops_per_image(input.with_n(1));
        let dec = self.decoder.forward_flops_per_image(feat)
            + self.decoder.backward_flops_per_image(feat);
        let heads = [
            &self.conf_head as &dyn Layer,
            &self.class_head as &dyn Layer,
            &self.bbox_head as &dyn Layer,
        ]
        .iter()
        .map(|h| h.forward_flops_per_image(feat) + h.backward_flops_per_image(feat))
        .sum::<u64>();
        enc + dec + heads
    }
}

impl Model for ClimateNet {
    fn param_blocks(&self) -> Vec<&ParamBlock> {
        let mut blocks = self.encoder.param_blocks();
        blocks.extend(self.conf_head.params());
        blocks.extend(self.class_head.params());
        blocks.extend(self.bbox_head.params());
        blocks.extend(self.decoder.param_blocks());
        blocks
    }

    fn param_blocks_mut(&mut self) -> Vec<&mut ParamBlock> {
        let mut blocks = self.encoder.param_blocks_mut();
        blocks.extend(self.conf_head.params_mut());
        blocks.extend(self.class_head.params_mut());
        blocks.extend(self.bbox_head.params_mut());
        blocks.extend(self.decoder.param_blocks_mut());
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hep_parameter_count_matches_paper() {
        let mut rng = TensorRng::new(1);
        let net = hep_network(&mut rng);
        // conv1: 3*128*9+128; conv2..5: 128*128*9+128 each; fc: 128*2+2.
        let expect = (3 * 128 * 9 + 128) + 4 * (128 * 128 * 9 + 128) + (128 * 2 + 2);
        assert_eq!(net.num_params(), expect);
        assert_eq!(net.num_params(), 594_178);
        // Table II: 2.3 MiB. Ours: 594178*4 bytes = 2.27 MiB.
        let mib = net.param_bytes() as f64 / (1024.0 * 1024.0);
        assert!((mib - 2.3).abs() < 0.1, "HEP model is {mib:.2} MiB");
    }

    #[test]
    fn hep_shapes_flow_to_two_logits() {
        let mut rng = TensorRng::new(1);
        let net = hep_network(&mut rng);
        assert_eq!(net.out_shape(HEP_INPUT.with_n(4)), Shape4::new(4, 2, 1, 1));
    }

    #[test]
    fn hep_model_is_allreduce_sized() {
        // Sec. VI-B2: "a small model of ~590 KB" is what each all-reduce
        // moves; our parameter count divided by 1024 gives KiB.
        let mut rng = TensorRng::new(1);
        let net = hep_network(&mut rng);
        let kib = net.param_bytes() as f64 / 1024.0;
        assert!((2200.0..2400.0).contains(&kib));
        // (590 KB in the paper counts one f32 per parameter / 4 bytes
        // ambiguity aside: 594k params * 1B? The paper's number is the
        // parameter count in thousands; our count matches at 594k.)
        assert_eq!(net.num_params() / 1000, 594);
    }

    #[test]
    fn climate_parameter_budget_matches_table2() {
        let mut rng = TensorRng::new(2);
        let net = ClimateNet::full(&mut rng);
        let mib = net.param_bytes() as f64 / (1024.0 * 1024.0);
        // Paper: 302.1 MiB. Our channel plan lands within 2%.
        assert!((mib - 302.1).abs() < 6.0, "climate model is {mib:.1} MiB");
    }

    #[test]
    fn climate_grid_is_24_for_full_input() {
        let mut rng = TensorRng::new(2);
        let net = ClimateNet::full(&mut rng);
        let g = net.grid_for(CLIMATE_INPUT);
        assert_eq!((g.h, g.w), (CLIMATE_GRID, CLIMATE_GRID));
    }

    #[test]
    fn climate_small_forward_shapes() {
        let mut rng = TensorRng::new(3);
        let mut net = ClimateNet::small(&mut rng);
        let x = rng.uniform_tensor(Shape4::new(2, 4, 64, 64), -1.0, 1.0);
        let out = net.forward(&x);
        assert_eq!(out.conf.shape(), Shape4::new(2, 1, 8, 8));
        assert_eq!(out.class.shape(), Shape4::new(2, CLIMATE_CLASSES, 8, 8));
        assert_eq!(out.bbox.shape(), Shape4::new(2, 4, 8, 8));
        assert_eq!(out.recon.shape(), x.shape());
    }

    #[test]
    fn climate_small_supervised_step_produces_gradients() {
        let mut rng = TensorRng::new(4);
        let mut net = ClimateNet::small(&mut rng);
        let x = rng.uniform_tensor(Shape4::new(1, 4, 64, 64), -1.0, 1.0);
        let mut t = DetectionTargets::empty(1, 8, 8, CLIMATE_CLASSES);
        t.add_object(0, 3, 4, 1, 0.5, 0.5, 0.2, 0.2);
        let (parts, recon) = net.forward_backward(&x, Some(&t));
        assert!(parts.total().is_finite() && parts.total() > 0.0);
        assert!(recon > 0.0);
        let grads = net.flat_grads();
        assert!(grads.iter().any(|&g| g != 0.0));
        // Head gradients must be nonzero in supervised mode.
        let conf_grad_norm: f32 = net.conf_head.params()[0].grad.data().iter().map(|g| g.abs()).sum();
        assert!(conf_grad_norm > 0.0);
    }

    #[test]
    fn climate_unlabelled_step_trains_encoder_but_not_heads() {
        let mut rng = TensorRng::new(5);
        let mut net = ClimateNet::small(&mut rng);
        let x = rng.uniform_tensor(Shape4::new(1, 4, 64, 64), -1.0, 1.0);
        let (parts, recon) = net.forward_backward(&x, None);
        assert_eq!(parts.total(), 0.0);
        assert!(recon > 0.0);
        let head_grad: f32 = net.conf_head.params()[0].grad.data().iter().map(|g| g.abs()).sum();
        assert_eq!(head_grad, 0.0);
        let enc_grad: f32 = net.encoder.flat_grads().iter().map(|g| g.abs()).sum();
        assert!(enc_grad > 0.0);
    }

    #[test]
    fn climate_autoencoder_reduces_reconstruction_loss() {
        use crate::solver::{Sgd, Solver};
        let mut rng = TensorRng::new(6);
        let mut net = ClimateNet::small(&mut rng);
        net.lambda_recon = 1.0;
        let x = rng.uniform_tensor(Shape4::new(2, 4, 64, 64), 0.0, 1.0);
        let mut solver = Sgd::new(0.01, 0.9);
        let (_, first) = net.forward_backward(&x, None);
        solver.step_model(&mut net);
        net.zero_grads();
        let mut last = first;
        for _ in 0..15 {
            let (_, l) = net.forward_backward(&x, None);
            solver.step_model(&mut net);
            net.zero_grads();
            last = l;
        }
        assert!(last < first, "reconstruction loss should fall: {first} → {last}");
    }

    #[test]
    fn hep_small_trains_on_separable_toy_data() {
        use crate::loss::SoftmaxCrossEntropy;
        use crate::solver::{Adam, Solver};
        let mut rng = TensorRng::new(7);
        let mut net = hep_small(&mut rng);
        // Two trivially separable classes: bright vs dark images.
        let n = 8;
        let mut x = Tensor::zeros(Shape4::new(n, 3, 32, 32));
        let mut labels = vec![0usize; n];
        for (i, label) in labels.iter_mut().enumerate().take(n) {
            let v = if i % 2 == 0 { 1.0 } else { -1.0 };
            *label = i % 2;
            x.item_mut(i).iter_mut().for_each(|p| *p = v);
        }
        let mut solver = Adam::new(1e-2);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..30 {
            let logits = net.forward(&x);
            let (loss, grad) = SoftmaxCrossEntropy::forward(&logits, &labels);
            net.backward(&grad);
            solver.step_model(&mut net);
            net.zero_grads();
            first_loss.get_or_insert(loss);
            last_loss = loss;
        }
        assert!(last_loss < first_loss.unwrap() * 0.5, "{first_loss:?} → {last_loss}");
    }

    #[test]
    fn climate_flops_dominated_by_encoder() {
        let mut rng = TensorRng::new(8);
        let net = ClimateNet::small(&mut rng);
        let input = Shape4::new(1, 4, 64, 64);
        let total = net.training_flops_per_image(input);
        let enc = net.encoder.forward_flops_per_image(input)
            + net.encoder.backward_flops_per_image(input);
        assert!(total > enc);
        assert!(enc as f64 / total as f64 > 0.25);
    }
}
