//! `scidl-nn`: per-layer forward/backward of the HEP network
//! (`profile::profile_network`), the climate and wide steps, the solver
//! sweep and the inference forward (f32 and int8).

use super::{median_secs, Shared};
use crate::alloc;
use crate::catalogue::Better::{Higher, Lower};
use crate::report::{Metric, Outcome};
use crate::workloads::{climate_train, hep_train, serve_hep, wide_train};
use scidl_core::task::hep_gradient;
use scidl_data::climate::{ClimateConfig, ClimateDataset};
use scidl_data::{HepConfig, HepDataset};
use scidl_nn::network::Model;
use scidl_nn::profile::{profile_network, LayerProfile};
use scidl_nn::{Adam, Sgd, SoftmaxCrossEntropy, Solver};
use scidl_tensor::{Shape4, TensorRng};
use std::hint::black_box;

/// `(name, unit, better)` of every metric this section reports.
pub const NAMES: &[super::Def] = &[
    ("nn.hep.conv1.fwd_ms", "ms", Lower),
    ("nn.hep.conv1.bwd_ms", "ms", Lower),
    ("nn.hep.conv1.roofline_share", "share", Higher),
    ("nn.hep.conv2.fwd_ms", "ms", Lower),
    ("nn.hep.conv2.bwd_ms", "ms", Lower),
    ("nn.hep.conv2.roofline_share", "share", Higher),
    ("nn.hep.conv3.fwd_ms", "ms", Lower),
    ("nn.hep.conv3.bwd_ms", "ms", Lower),
    ("nn.hep.conv3.roofline_share", "share", Higher),
    ("nn.hep.conv4.fwd_ms", "ms", Lower),
    ("nn.hep.conv4.bwd_ms", "ms", Lower),
    ("nn.hep.conv4.roofline_share", "share", Higher),
    ("nn.hep.conv5.fwd_ms", "ms", Lower),
    ("nn.hep.conv5.bwd_ms", "ms", Lower),
    ("nn.hep.conv5.roofline_share", "share", Higher),
    ("nn.hep.conv2.non_gemm_share", "share", Lower),
    ("nn.hep.other_ms", "ms", Lower),
    ("nn.climate.enc_ms", "ms", Lower),
    ("nn.climate.dec_ms", "ms", Lower),
    ("nn.climate.step_ms", "ms", Lower),
    ("nn.wide.step_ms", "ms", Lower),
    ("nn.solver.adam.ns_per_param", "ns", Lower),
    ("nn.solver.sgd.ns_per_param", "ns", Lower),
    ("nn.infer.hep32.b1_ms_per_image", "ms", Lower),
    ("nn.infer.hep32.b8_ms_per_image", "ms", Lower),
    ("nn.infer_int8.hep32.b8_ms_per_image", "ms", Lower),
    ("nn.quant.speedup_vs_f32", "x", Higher),
    ("tensor.workspace.allocs_per_step", "count", Lower),
    ("tensor.workspace.alloc_bytes_per_step", "B", Lower),
];

fn total_ms(profiles: &[LayerProfile]) -> f64 {
    profiles
        .iter()
        .map(|p| (p.forward_stats.p50 + p.backward_stats.p50) * 1e3)
        .sum()
}

pub fn run(out: &mut Outcome, shared: &Shared, seed: u64) {
    // One rank's minibatch through the HEP network, layer by layer.
    let rank_batch = hep_train::BATCH / hep_train::RANKS;
    let mut hep = hep_train::build();
    let input = Shape4::new(rank_batch, 3, hep_train::IMAGE, hep_train::IMAGE);
    let profiles = profile_network(&mut hep, input, 1, 3);
    let mut other_ms = 0.0;
    for p in &profiles {
        let (fwd, bwd) = (p.forward_stats.p50, p.backward_stats.p50);
        if !p.name.starts_with("conv") {
            other_ms += (fwd + bwd) * 1e3;
            continue;
        }
        let gflops = (p.forward_flops + p.backward_flops) as f64 / (fwd + bwd) / 1e9;
        out.push(Metric::value(
            format!("nn.hep.{}.fwd_ms", p.name),
            "ms",
            fwd * 1e3,
        ));
        out.push(Metric::value(
            format!("nn.hep.{}.bwd_ms", p.name),
            "ms",
            bwd * 1e3,
        ));
        out.push(Metric::value(
            format!("nn.hep.{}.roofline_share", p.name),
            "share",
            gflops / shared.peak_gflops,
        ));
        if p.name == "conv2" {
            // Forward layer time not spent in the raw GEMM and im2col
            // calls on the same shapes: bias, packing, copies.
            let raw = rank_batch as f64 * (shared.conv2_gemm_s + shared.conv2_im2col_s);
            out.push(Metric::value(
                "nn.hep.conv2.non_gemm_share",
                "share",
                1.0 - raw / fwd,
            ));
        }
    }
    out.push(Metric::value("nn.hep.other_ms", "ms", other_ms));

    // Heap traffic of one steady-state gradient step on this thread
    // (nothing else runs): the workspace pool should make it small.
    let ds = HepDataset::generate(
        HepConfig {
            image_size: hep_train::IMAGE,
            ..HepConfig::paper()
        },
        rank_batch,
        seed,
    );
    let idx: Vec<usize> = (0..rank_batch).collect();
    black_box(hep_gradient(&mut hep, &ds, &idx));
    let (_, allocs, bytes) = alloc::count(|| black_box(hep_gradient(&mut hep, &ds, &idx)));
    out.push(Metric::value(
        "tensor.workspace.allocs_per_step",
        "count",
        allocs as f64,
    ));
    out.push(Metric::value(
        "tensor.workspace.alloc_bytes_per_step",
        "B",
        bytes as f64,
    ));
    drop((hep, ds));

    // Climate: encoder and decoder stacks, then the whole semi-supervised
    // step (heads, both losses, clipping).
    let mut net = climate_train::build();
    let frames = Shape4::new(climate_train::BATCH, 4, 64, 64);
    let enc = profile_network(&mut net.encoder, frames, 1, 9);
    out.push(Metric::value("nn.climate.enc_ms", "ms", total_ms(&enc)));
    let features = net.encoder.out_shape(frames);
    let dec = profile_network(&mut net.decoder, features, 1, 9);
    out.push(Metric::value("nn.climate.dec_ms", "ms", total_ms(&dec)));
    let cds = ClimateDataset::generate(
        ClimateConfig {
            labelled_fraction: 0.7,
            ..ClimateConfig::small()
        },
        climate_train::BATCH,
        seed,
    );
    let (batch, boxes) = cds.gather(&(0..climate_train::BATCH).collect::<Vec<_>>());
    let step = median_secs(2, 15, || {
        black_box(climate_train::step(&mut net, &batch, &boxes));
    });
    out.push(Metric::value("nn.climate.step_ms", "ms", step * 1e3));

    // Wide: one rank's forward + loss + backward.
    let mut wide = wide_train::build();
    let rank = wide_train::BATCH / wide_train::RANKS;
    let x = TensorRng::new(3).uniform_tensor(
        Shape4::new(rank, 3, wide_train::IMAGE, wide_train::IMAGE),
        -1.0,
        1.0,
    );
    let labels: Vec<usize> = (0..rank).map(|i| i % 2).collect();
    let step = median_secs(1, 9, || {
        wide.zero_grads();
        let logits = wide.forward(&x);
        let (_, d) = SoftmaxCrossEntropy::forward(&logits, &labels);
        black_box(wide.backward(&d));
    });
    out.push(Metric::value("nn.wide.step_ms", "ms", step * 1e3));

    // Solver sweep over a block the size of wide's fc1 weight.
    let n = wide.param_blocks()[0].len();
    let grad = vec![1e-3f32; n];
    let mut params = vec![0.5f32; n];
    let mut adam = Adam::new(wide_train::LR);
    let s = median_secs(1, 7, || {
        adam.step_block(0, black_box(&mut params), black_box(&grad))
    });
    out.push(Metric::value(
        "nn.solver.adam.ns_per_param",
        "ns",
        s * 1e9 / n as f64,
    ));
    let mut sgd = Sgd::new(wide_train::LR, wide_train::MOMENTUM);
    let s = median_secs(1, 7, || {
        sgd.step_block(0, black_box(&mut params), black_box(&grad))
    });
    out.push(Metric::value(
        "nn.solver.sgd.ns_per_param",
        "ns",
        s * 1e9 / n as f64,
    ));
    drop((wide, grad, params));

    // Inference forward at the serving input size, per image.
    let net = serve_hep::build();
    let rng = &mut TensorRng::new(4);
    let size = serve_hep::IMAGE;
    let x1 = rng.uniform_tensor(Shape4::new(1, 3, size, size), 0.0, 1.0);
    let x8 = rng.uniform_tensor(Shape4::new(serve_hep::MAX_BATCH, 3, size, size), 0.0, 1.0);
    let b1 = median_secs(2, 21, || {
        black_box(net.infer(&x1));
    });
    let b8 = median_secs(1, 9, || {
        black_box(net.infer(&x8));
    }) / serve_hep::MAX_BATCH as f64;
    let q = net.quantize();
    let q8 = median_secs(1, 7, || {
        black_box(net.infer_quantized(&q, &x8));
    }) / serve_hep::MAX_BATCH as f64;
    out.push(Metric::value(
        "nn.infer.hep32.b1_ms_per_image",
        "ms",
        b1 * 1e3,
    ));
    out.push(Metric::value(
        "nn.infer.hep32.b8_ms_per_image",
        "ms",
        b8 * 1e3,
    ));
    out.push(Metric::value(
        "nn.infer_int8.hep32.b8_ms_per_image",
        "ms",
        q8 * 1e3,
    ));
    out.push(Metric::value("nn.quant.speedup_vs_f32", "x", b8 / q8));
}
