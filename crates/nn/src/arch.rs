//! The two reference architectures of Table II, plus scaled-down variants
//! used for fast tests and the simulated-time convergence runs. Each is a
//! list of layer specs first (the `*_spec` functions), which cost tables
//! read without drawing a weight; its builder draws the weights from that
//! list, in list order.

use crate::conv::Conv2d;
use crate::layer::{Layer, ParamBlock};
use crate::loss::{mse_loss, DetectionLoss, DetectionLossParts, DetectionTargets};
use crate::network::{Model, Network};
use crate::spec::{ConvSpec, LayerSpec, NetSpec};
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

/// The conv stack of every HEP classifier: 3x3/s1 convolutions from the
/// input's channels through `channels`, each followed by a ReLU and all
/// but the last by a 2x2/s2 max pool.
fn hep_conv_stack(name: &str, channels: &[usize]) -> NetSpec {
    let (mut net, mut cin) = (NetSpec::new(name), HEP_INPUT.c);
    for (i, &cout) in (1..).zip(channels) {
        let conv = LayerSpec::Conv(ConvSpec {
            cin,
            cout,
            k: 3,
            stride: 1,
            pad: 1,
        });
        net = net
            .push(format!("conv{i}"), conv)
            .push(format!("relu{i}"), LayerSpec::Relu);
        if i < channels.len() {
            net = net.push(format!("pool{i}"), LayerSpec::MaxPool { k: 2, stride: 2 });
        }
        cin = cout;
    }
    net
}

/// The supervised HEP network of Sec. III-A / Table II: five 128-filter
/// conv units, global average pooling after the fifth convolution, and a
/// single 128→2 dense layer. ≈594k parameters ≈ 2.27 MiB (paper: 2.3 MiB,
/// "~590 KB model" in Sec. VI-B2).
pub fn hep_network_spec() -> NetSpec {
    hep_conv_stack("hep", &[128; 5])
        .push("gap", LayerSpec::GlobalAvgPool)
        .push(
            "fc",
            LayerSpec::Dense {
                input_len: 128,
                output_len: HEP_CLASSES,
            },
        )
}

/// Builds [`hep_network_spec`].
pub fn hep_network(rng: &mut TensorRng) -> Network {
    hep_network_spec().build(rng)
}

/// Scaled-down HEP-style classifier for 32x32 inputs — used by fast tests
/// and the real-gradient simulated-time convergence runs (Fig. 8), where
/// training thousands of simulated nodes on full 224px images would be
/// prohibitive on a laptop-class host. Same topology (conv+pool units,
/// global pooling, tiny dense head), ≈6k parameters.
pub fn hep_small_spec() -> NetSpec {
    hep_conv_stack("hep-small", &[8, 16, 32])
        .push("gap", LayerSpec::GlobalAvgPool)
        .push(
            "fc",
            LayerSpec::Dense {
                input_len: 32,
                output_len: HEP_CLASSES,
            },
        )
}

/// Builds [`hep_small_spec`].
pub fn hep_small(rng: &mut TensorRng) -> Network {
    hep_small_spec().build(rng)
}

/// Counterfactual HEP network for the paper's design-rule ablation
/// (Sec. I: "to not use layers with large dense weights such as batch
/// normalization or fully connected units"): the same conv stack, but a
/// VGG-style flattened dense head (14·14·128 → 4096 → 2) instead of
/// global average pooling. ≈103M parameters vs 594k — the model the
/// all-reduce and parameter servers would have to move at every
/// iteration had the paper not followed its own rule.
pub fn hep_dense_variant_spec() -> NetSpec {
    hep_conv_stack("hep-dense-variant", &[128; 5])
        .push(
            "fc1",
            LayerSpec::Dense {
                input_len: 14 * 14 * 128,
                output_len: 4096,
            },
        )
        .push("fc1_relu", LayerSpec::Relu)
        .push(
            "fc2",
            LayerSpec::Dense {
                input_len: 4096,
                output_len: HEP_CLASSES,
            },
        )
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
    /// Scoring heads: confidence, class, bounding box.
    heads: [Conv2d; 3],
    /// Loss weighting of the reconstruction term.
    pub lambda_recon: f32,
    /// The supervised detection objective.
    pub det_loss: DetectionLoss,
}

/// [`ClimateNet`] as data: the encoder, the decoder, and the three
/// scoring heads that each read the encoder's features.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClimateSpec {
    /// Shared encoder (strided 5x5 convolutions, each with a ReLU).
    pub encoder: NetSpec,
    /// Reconstruction decoder (4x4/s2/p1 deconvolutions).
    pub decoder: NetSpec,
    /// `head_conf`, `head_class` and `head_bbox`: 3x3 convolutions from
    /// the features to 1, `classes` and 4 channels.
    pub heads: [(String, ConvSpec); 3],
}

impl ClimateSpec {
    fn new(
        cin: usize,
        encoder_plan: &[(usize, usize)],
        decoder_plan: &[usize],
        classes: usize,
    ) -> Self {
        let mut encoder = NetSpec::new("climate-encoder");
        let mut c = cin;
        for (i, &(cout, stride)) in encoder_plan.iter().enumerate() {
            let conv = LayerSpec::Conv(ConvSpec {
                cin: c,
                cout,
                k: 5,
                stride,
                pad: 2,
            });
            encoder = encoder
                .push(format!("enc{}", i + 1), conv)
                .push(format!("enc_relu{}", i + 1), LayerSpec::Relu);
            c = cout;
        }
        let head = |name: &str, cout| {
            (
                name.to_string(),
                ConvSpec {
                    cin: c,
                    cout,
                    k: 3,
                    stride: 1,
                    pad: 1,
                },
            )
        };
        let heads = [
            head("head_conf", 1),
            head("head_class", classes),
            head("head_bbox", 4),
        ];

        let mut decoder = NetSpec::new("climate-decoder");
        for (i, &cout) in decoder_plan.iter().enumerate() {
            let deconv = LayerSpec::Deconv(ConvSpec {
                cin: c,
                cout,
                k: 4,
                stride: 2,
                pad: 1,
            });
            decoder = decoder.push(format!("dec{}", i + 1), deconv);
            if i + 1 < decoder_plan.len() {
                decoder = decoder.push(format!("dec_relu{}", i + 1), LayerSpec::Relu);
            }
            c = cout;
        }
        Self {
            encoder,
            decoder,
            heads,
        }
    }

    /// Builds the network, drawing the encoder's weights, then the
    /// decoder's, then the heads'.
    pub fn build(&self, rng: &mut TensorRng) -> ClimateNet {
        let (encoder, decoder) = (self.encoder.build(rng), self.decoder.build(rng));
        let heads = self
            .heads
            .clone()
            .map(|(name, c)| Conv2d::new(name, c.cin, c.cout, c.k, c.stride, c.pad, rng));
        ClimateNet {
            encoder,
            decoder,
            heads,
            lambda_recon: 1.0,
            det_loss: DetectionLoss::default(),
        }
    }

    /// Each layer's name, spec and input shape for a network input of
    /// shape `input`: the encoder's layers, the heads on its features,
    /// then the decoder's layers.
    pub fn walk(&self, input: Shape4) -> impl Iterator<Item = (&str, LayerSpec, Shape4)> + Clone {
        let feat = self.encoder.out_shape(input);
        let heads = self
            .heads
            .iter()
            .map(move |(name, c)| (name.as_str(), LayerSpec::Conv(*c), feat));
        self.encoder
            .walk(input)
            .chain(heads)
            .chain(self.decoder.walk(feat))
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        let heads: usize = self
            .heads
            .iter()
            .map(|(_, c)| LayerSpec::Conv(*c).num_params())
            .sum();
        self.encoder.num_params() + heads + self.decoder.num_params()
    }
}

impl ClimateNet {
    /// The full-scale network (Table II: 9 conv + 5 deconv, ≈80.3M
    /// parameters ≈ 306 MiB; paper reports 302.1 MiB).
    pub fn full_spec() -> ClimateSpec {
        ClimateSpec::new(
            CLIMATE_INPUT.c,
            &CLIMATE_ENCODER_PLAN,
            &CLIMATE_DECODER_PLAN,
            CLIMATE_CLASSES,
        )
    }

    /// Builds [`ClimateNet::full_spec`].
    pub fn full(rng: &mut TensorRng) -> Self {
        Self::full_spec().build(rng)
    }

    /// Scaled-down variant for 64x64, 4-channel inputs (tests and
    /// laptop-scale training): 3 encoder convs to an 8x8 grid, 3 decoder
    /// deconvs, same head structure.
    pub fn small_spec() -> ClimateSpec {
        ClimateSpec::new(4, &[(8, 2), (16, 2), (32, 2)], &[16, 8, 4], CLIMATE_CLASSES)
    }

    /// Builds [`ClimateNet::small_spec`].
    pub fn small(rng: &mut TensorRng) -> Self {
        Self::small_spec().build(rng)
    }

    /// The network as data.
    pub fn spec(&self) -> ClimateSpec {
        let heads = self
            .heads
            .each_ref()
            .map(|h| (h.name().to_string(), h.conv));
        ClimateSpec {
            encoder: self.encoder.spec(),
            decoder: self.decoder.spec(),
            heads,
        }
    }

    /// Number of object classes predicted by the class head.
    pub fn classes(&self) -> usize {
        self.heads[1].conv.cout
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
        let [conf, class, bbox] = &mut self.heads;
        let (conf, class) = (
            conf.forward(features.clone()),
            class.forward(features.clone()),
        );
        let bbox = bbox.forward(features);
        ClimateOutput {
            conf,
            class,
            bbox,
            recon,
        }
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
            let (parts, dconf, dclass, dbbox) =
                self.det_loss.forward(&out.conf, &out.class, &out.bbox, t);
            for (head, d) in self.heads.iter_mut().zip([dconf, dclass, dbbox]) {
                dfeat.add_assign(&head.backward(d));
            }
            parts
        } else {
            // Unlabelled batch: heads still cached a forward; drop state
            // by running a zero backward so gradient accumulation stays
            // well-defined without contributing to head gradients.
            for (head, out) in self
                .heads
                .iter_mut()
                .zip([&out.conf, &out.class, &out.bbox])
            {
                head.backward(Tensor::zeros(out.shape()));
            }
            DetectionLossParts::default()
        };

        // The input is data: no gradient for it.
        self.encoder.backward_params(&dfeat, |_, _| {});
        (parts, recon_loss * self.lambda_recon)
    }

    /// Total FLOPs per image for one training iteration (forward +
    /// backward over encoder, heads and decoder).
    pub fn training_flops_per_image(&self, input: Shape4) -> u64 {
        self.spec()
            .walk(input.with_n(1))
            .map(|(_, l, s)| l.training_flops_per_image(s))
            .sum()
    }
}

impl Model for ClimateNet {
    fn param_blocks(&self) -> Vec<&ParamBlock> {
        let mut blocks = self.encoder.param_blocks();
        blocks.extend(self.heads.iter().flat_map(|h| h.params()));
        blocks.extend(self.decoder.param_blocks());
        blocks
    }

    fn param_blocks_mut(&mut self) -> Vec<&mut ParamBlock> {
        let mut blocks = self.encoder.param_blocks_mut();
        blocks.extend(self.heads.iter_mut().flat_map(|h| h.params_mut()));
        blocks.extend(self.decoder.param_blocks_mut());
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hep_parameter_count_matches_paper() {
        let net = hep_network_spec();
        // conv1: 3*128*9+128; conv2..5: 128*128*9+128 each; fc: 128*2+2.
        let expect = (3 * 128 * 9 + 128) + 4 * (128 * 128 * 9 + 128) + (128 * 2 + 2);
        assert_eq!(net.num_params(), expect);
        assert_eq!(net.num_params(), 594_178);
        // Table II: 2.3 MiB. Ours: 594178*4 bytes = 2.27 MiB.
        let mib = (4 * net.num_params()) as f64 / (1024.0 * 1024.0);
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
        let net = hep_network_spec();
        let kib = (4 * net.num_params()) as f64 / 1024.0;
        assert!((2200.0..2400.0).contains(&kib));
        // (590 KB in the paper counts one f32 per parameter / 4 bytes
        // ambiguity aside: 594k params * 1B? The paper's number is the
        // parameter count in thousands; our count matches at 594k.)
        assert_eq!(net.num_params() / 1000, 594);
    }

    #[test]
    fn climate_parameter_budget_matches_table2() {
        let mib = (4 * ClimateNet::full_spec().num_params()) as f64 / (1024.0 * 1024.0);
        // Paper: 302.1 MiB. Our channel plan lands within 2%.
        assert!((mib - 302.1).abs() < 6.0, "climate model is {mib:.1} MiB");
    }

    #[test]
    fn climate_grid_is_24_for_full_input() {
        let g = ClimateNet::full_spec().encoder.out_shape(CLIMATE_INPUT);
        assert_eq!((g.h, g.w), (CLIMATE_GRID, CLIMATE_GRID));
    }

    /// Every architecture, built, reports the spec list it was built from
    /// and holds as many parameters as the list counts; the full-scale
    /// ones are built one at a time and dropped.
    #[test]
    fn every_architecture_builds_the_list_it_was_built_from() {
        let mut rng = TensorRng::new(9);
        for spec in [
            hep_network_spec(),
            hep_small_spec(),
            hep_dense_variant_spec(),
        ] {
            let net = spec.build(&mut rng);
            assert_eq!(net.spec(), spec);
            assert_eq!(net.num_params(), spec.num_params(), "{}", spec.name);
        }
        assert_eq!(hep_network(&mut rng).spec(), hep_network_spec());
        assert_eq!(hep_small(&mut rng).spec(), hep_small_spec());
        for spec in [ClimateNet::full_spec(), ClimateNet::small_spec()] {
            let net = spec.build(&mut rng);
            assert_eq!(net.spec(), spec);
            assert_eq!(net.num_params(), spec.num_params());
        }
        assert_eq!(ClimateNet::small(&mut rng).spec(), ClimateNet::small_spec());
    }

    /// Building from a list draws each layer's weights in list order —
    /// climate encoder, decoder, then the heads — so one seed gives the
    /// same parameters as drawing them layer by layer by hand.
    #[test]
    fn building_from_a_list_draws_weights_in_list_order() {
        let spec = ClimateNet::small_spec();
        let net = spec.build(&mut TensorRng::new(3));
        let mut rng = TensorRng::new(3);
        let mut by_hand: Vec<Box<dyn Layer>> = Vec::new();
        for (name, l) in spec.encoder.layers.iter().chain(&spec.decoder.layers) {
            by_hand.push(l.build(name.clone(), &mut rng));
        }
        for (name, c) in &spec.heads {
            by_hand.push(LayerSpec::Conv(*c).build(name.clone(), &mut rng));
        }
        let (enc, rest) = by_hand.split_at(spec.encoder.layers.len());
        let (dec, heads) = rest.split_at(spec.decoder.layers.len());
        let want: Vec<f32> = enc
            .iter()
            .chain(heads)
            .chain(dec)
            .flat_map(|l| {
                l.params()
                    .into_iter()
                    .flat_map(|b| b.value.data().to_vec())
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(net.flat_params(), want);
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
        let conf_grad_norm: f32 = net.heads[0].params()[0]
            .grad
            .data()
            .iter()
            .map(|g| g.abs())
            .sum();
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
        let head_grad: f32 = net.heads[0].params()[0]
            .grad
            .data()
            .iter()
            .map(|g| g.abs())
            .sum();
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
        assert!(
            last < first,
            "reconstruction loss should fall: {first} → {last}"
        );
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
        assert!(
            last_loss < first_loss.unwrap() * 0.5,
            "{first_loss:?} → {last_loss}"
        );
    }

    #[test]
    fn climate_flops_dominated_by_encoder() {
        let net = ClimateNet::small(&mut TensorRng::new(8));
        let input = Shape4::new(1, 4, 64, 64);
        let total = net.training_flops_per_image(input);
        let enc = net.spec().encoder.training_flops_per_image(input);
        assert!(total > enc);
        assert!(enc as f64 / total as f64 > 0.25);
    }
}
