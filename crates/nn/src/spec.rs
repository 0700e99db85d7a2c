//! Layers and architectures as data. A [`LayerSpec`] is one layer's
//! configuration (kind and sizes, no weights) and the one home of its
//! output shape, FLOP counts and parameter count; every [`Layer`] reports
//! its own. A [`NetSpec`] is an architecture before any weight is drawn:
//! cost tables read it without building a model, and [`NetSpec::build`]
//! draws the weights layer by layer, in list order.

use crate::pool::Window;
use crate::{Conv2d, Deconv2d, Dense, GlobalAvgPool, Layer, MaxPool2d, Network, Relu};
use scidl_tensor::{ConvGeometry, Shape4, TensorRng};

/// A convolution's or a deconvolution's configuration: square `k x k`
/// kernel, uniform stride, symmetric padding, `cin` input and `cout`
/// output channels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct ConvSpec {
    pub cin: usize,
    pub cout: usize,
    pub k: usize,
    pub stride: usize,
    pub pad: usize,
}

impl ConvSpec {
    /// The GEMM geometry of this convolution over an `h x w` input.
    pub fn geometry(self, h: usize, w: usize) -> ConvGeometry {
        ConvGeometry::new(self.cin, self.cout, h, w, self.k, self.stride, self.pad)
    }

    /// The convolution whose backward pass is this deconvolution's
    /// forward pass over an `h x w` input: from the deconv's output plane
    /// back to its input plane.
    pub fn mirror_geometry(self, h: usize, w: usize) -> ConvGeometry {
        let ConvSpec { k, stride, pad, .. } = self;
        assert!(
            (h - 1) * stride + k >= 2 * pad,
            "deconv: degenerate geometry"
        );
        let (oh, ow) = (
            (h - 1) * stride + k - 2 * pad,
            (w - 1) * stride + k - 2 * pad,
        );
        ConvSpec {
            cin: self.cout,
            cout: self.cin,
            ..self
        }
        .geometry(oh, ow)
    }
}

/// One layer's configuration, one variant per layer kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayerSpec {
    /// A [`Conv2d`].
    Conv(ConvSpec),
    /// A [`Deconv2d`]: the transpose of a convolution from `cout` back
    /// to `cin` channels.
    Deconv(ConvSpec),
    /// A [`Dense`] layer over flattened items.
    #[allow(missing_docs)]
    Dense { input_len: usize, output_len: usize },
    /// A [`Relu`].
    Relu,
    /// A [`MaxPool2d`] without padding.
    #[allow(missing_docs)]
    MaxPool { k: usize, stride: usize },
    /// A [`GlobalAvgPool`].
    GlobalAvgPool,
}

impl LayerSpec {
    /// Output shape for a given input shape. Panics if the input shape is
    /// incompatible with the configuration.
    pub fn out_shape(self, input: Shape4) -> Shape4 {
        if let LayerSpec::Conv(c) | LayerSpec::Deconv(c) = self {
            assert_eq!(
                input.c, c.cin,
                "{self:?}: expected {} input channels, got {}",
                c.cin, input.c
            );
        }
        match self {
            LayerSpec::Conv(c) => c.geometry(input.h, input.w).out_shape(input.n),
            LayerSpec::Deconv(c) => {
                let geo = c.mirror_geometry(input.h, input.w);
                Shape4::new(input.n, c.cout, geo.h, geo.w)
            }
            LayerSpec::Dense {
                input_len,
                output_len,
            } => {
                assert_eq!(
                    input.item_len(),
                    input_len,
                    "dense: expected item length {input_len}, got {input}"
                );
                Shape4::new(input.n, output_len, 1, 1)
            }
            LayerSpec::Relu => input,
            LayerSpec::MaxPool { k, stride } => Window { k, stride }.out_shape(input),
            LayerSpec::GlobalAvgPool => Shape4::new(input.n, input.c, 1, 1),
        }
    }

    /// Forward FLOPs per image: `2*macs` for a (de)convolution, as the
    /// paper's SDE counting reports, and one operation per element
    /// touched for a stateless layer (a max pool: per tap per output).
    pub fn forward_flops_per_image(self, input: Shape4) -> u64 {
        let one = input.with_n(1);
        match self {
            LayerSpec::Conv(c) => 2 * c.geometry(one.h, one.w).macs_per_image(),
            LayerSpec::Deconv(c) => 2 * c.mirror_geometry(one.h, one.w).macs_per_image(),
            LayerSpec::Dense {
                input_len,
                output_len,
            } => 2 * (input_len as u64) * (output_len as u64),
            LayerSpec::Relu | LayerSpec::GlobalAvgPool => one.item_len() as u64,
            LayerSpec::MaxPool { k, .. } => (self.out_shape(one).len() * k * k) as u64,
        }
    }

    /// Backward FLOPs per image, input gradient included: two GEMMs the
    /// size of the forward one for a layer with weights (input and weight
    /// gradient), one operation per element passed back otherwise.
    pub fn backward_flops_per_image(self, input: Shape4) -> u64 {
        match self {
            LayerSpec::Relu | LayerSpec::GlobalAvgPool => input.item_len() as u64,
            LayerSpec::MaxPool { .. } => self.out_shape(input.with_n(1)).len() as u64,
            _ => 2 * self.forward_flops_per_image(input),
        }
    }

    /// Forward plus backward FLOPs per single image: one training step.
    pub fn training_flops_per_image(self, input: Shape4) -> u64 {
        self.forward_flops_per_image(input) + self.backward_flops_per_image(input)
    }

    /// The part of the backward a layer runs with no gradient for its
    /// input ([`Layer::backward_params`]): the weight-gradient GEMM of a
    /// layer with weights, nothing for a stateless one.
    pub fn param_grad_flops_per_image(self, input: Shape4) -> u64 {
        match self {
            LayerSpec::Conv(_) | LayerSpec::Deconv(_) | LayerSpec::Dense { .. } => {
                self.forward_flops_per_image(input)
            }
            LayerSpec::Relu | LayerSpec::MaxPool { .. } | LayerSpec::GlobalAvgPool => 0,
        }
    }

    /// Trainable scalars: weights and biases.
    pub fn num_params(self) -> usize {
        match self {
            LayerSpec::Conv(c) | LayerSpec::Deconv(c) => c.cout * c.cin * c.k * c.k + c.cout,
            LayerSpec::Dense {
                input_len,
                output_len,
            } => output_len * input_len + output_len,
            LayerSpec::Relu | LayerSpec::MaxPool { .. } | LayerSpec::GlobalAvgPool => 0,
        }
    }

    /// Builds the layer, drawing its weights (if any) from `rng`.
    pub fn build(self, name: impl Into<String>, rng: &mut TensorRng) -> Box<dyn Layer> {
        match self {
            LayerSpec::Conv(c) => {
                Box::new(Conv2d::new(name, c.cin, c.cout, c.k, c.stride, c.pad, rng))
            }
            LayerSpec::Deconv(c) => Box::new(Deconv2d::new(
                name, c.cin, c.cout, c.k, c.stride, c.pad, rng,
            )),
            LayerSpec::Dense {
                input_len,
                output_len,
            } => Box::new(Dense::new(name, input_len, output_len, rng)),
            LayerSpec::Relu => Box::new(Relu::new(name)),
            LayerSpec::MaxPool { k, stride } => Box::new(MaxPool2d::new(name, k, stride)),
            LayerSpec::GlobalAvgPool => Box::new(GlobalAvgPool::new(name)),
        }
    }
}

/// A sequential architecture as data: a [`Network`]'s name and its
/// layers' names and specs, in order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetSpec {
    /// Network name.
    pub name: String,
    /// `(layer name, spec)`, input to output.
    pub layers: Vec<(String, LayerSpec)>,
}

impl NetSpec {
    /// An empty architecture.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, name: impl Into<String>, spec: LayerSpec) -> Self {
        self.layers.push((name.into(), spec));
        self
    }

    /// Builds the network, drawing every layer's weights from `rng` in
    /// list order.
    pub fn build(&self, rng: &mut TensorRng) -> Network {
        let layers = self
            .layers
            .iter()
            .map(|(name, spec)| spec.build(name.clone(), rng))
            .collect();
        Network {
            name: self.name.clone(),
            layers,
        }
    }

    /// Each layer's name, spec and input shape for a network input of
    /// shape `input`.
    pub fn walk(&self, input: Shape4) -> impl Iterator<Item = (&str, LayerSpec, Shape4)> + Clone {
        self.layers.iter().scan(input, |s, (name, spec)| {
            let at = std::mem::replace(s, spec.out_shape(*s));
            Some((name.as_str(), *spec, at))
        })
    }

    /// Shape produced by running an input of shape `input` through every
    /// layer.
    pub fn out_shape(&self, input: Shape4) -> Shape4 {
        self.layers
            .iter()
            .fold(input, |s, (_, spec)| spec.out_shape(s))
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|(_, spec)| spec.num_params()).sum()
    }

    /// Training FLOPs per image (forward + backward over every layer),
    /// the quantity the paper's throughput numbers are computed from.
    pub fn training_flops_per_image(&self, input: Shape4) -> u64 {
        self.walk(input.with_n(1))
            .map(|(_, l, s)| l.training_flops_per_image(s))
            .sum()
    }

    /// Human-readable layer-by-layer summary for a given input shape:
    /// name, output shape, parameter count and training GFLOPs per image.
    pub fn summary(&self, input: Shape4) -> String {
        let (input, params) = (input.with_n(1), self.num_params());
        let mut out = format!(
            "{} (input {input})\n{:<14} {:>16} {:>12} {:>12}\n",
            self.name, "layer", "output", "params", "GF/img"
        );
        for (name, l, s) in self.walk(input) {
            let (o, gf) = (
                format!("{}", l.out_shape(s)),
                l.training_flops_per_image(s) as f64 / 1e9,
            );
            out += &format!("{name:<14} {o:>16} {:>12} {gf:>12.3}\n", l.num_params());
        }
        let (mib, gf) = (
            (4 * params) as f64 / (1024.0 * 1024.0),
            self.training_flops_per_image(input) as f64 / 1e9,
        );
        out + &format!("total: {params} params ({mib:.2} MiB), {gf:.2} GF/img training\n")
    }
}
