//! `scidl-tensor`: `gemm`, `gemm_i8`, `im2col` on the workloads' shapes,
//! the best GEMM rate (512³ or any of those shapes) and a memory-copy rate
//! to hold them against.

use super::{median_secs, Shared};
use crate::catalogue::Better::Higher;
use crate::report::{Metric, Outcome};
use crate::workloads::{climate_train, hep_train, wide_train};
use scidl_nn::Network;
use scidl_tensor::{gemm, gemm_i8, im2col, ConvGeometry, Isa, Shape4, TensorRng, Transpose};
use std::hint::black_box;

/// `(name, unit, better)` of every metric this section reports.
pub const NAMES: &[super::Def] = &[
    ("tensor.gemm.hep_fwd.gflops", "GFLOP/s", Higher),
    ("tensor.gemm.hep_wgrad.gflops", "GFLOP/s", Higher),
    ("tensor.gemm.hep_bwddata.gflops", "GFLOP/s", Higher),
    ("tensor.gemm.climate_enc.gflops", "GFLOP/s", Higher),
    ("tensor.gemm.wide_fc.gflops", "GFLOP/s", Higher),
    ("tensor.gemm.peak_gflops", "GFLOP/s", Higher),
    ("tensor.mem.copy_gbytes_per_s", "GB/s", Higher),
    ("tensor.gemm_i8.hep_fwd.gops", "Gop/s", Higher),
    ("tensor.im2col.hep.gbytes_per_s", "GB/s", Higher),
    ("tensor.im2col.climate_s2.gbytes_per_s", "GB/s", Higher),
    ("tensor.isa.avx2", "flag", Higher),
];

/// Copy-benchmark array: 4× the last-level cache, capped so a traced run
/// stays small. Both sizes are printed.
const COPY_CAP_BYTES: usize = 256 << 20;

/// Geometry of the convolution called `name` in `net` for `input`,
/// read off the layer's own weight block and the shapes before it.
pub fn conv_geometry(
    net: &Network,
    input: Shape4,
    name: &str,
    stride: usize,
    pad: usize,
) -> ConvGeometry {
    let mut s = input;
    for l in net.layers() {
        if l.name() == name {
            let w = l.params()[0].value.shape();
            return ConvGeometry::new(w.c, w.n, s.h, s.w, w.h, stride, pad);
        }
        s = l.out_shape(s);
    }
    panic!("no layer {name}");
}

/// conv2 of the HEP network at the `hep_train` input size.
pub fn hep_conv2() -> ConvGeometry {
    let input = Shape4::new(1, 3, hep_train::IMAGE, hep_train::IMAGE);
    conv_geometry(&hep_train::build(), input, "conv2", 1, 1)
}

/// The second (stride-2, 5×5) encoder convolution of `ClimateNet::small`.
pub fn climate_enc2() -> ConvGeometry {
    let net = climate_train::build();
    conv_geometry(&net.encoder, Shape4::new(1, 4, 64, 64), "enc2", 2, 2)
}

fn rand(rng: &mut TensorRng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| rng.uniform_range(-1.0, 1.0) as f32)
        .collect()
}

/// Median seconds of one `m×n×k` GEMM with the given operand layouts.
fn gemm_secs(ta: Transpose, tb: Transpose, m: usize, n: usize, k: usize, reps: usize) -> f64 {
    let rng = &mut TensorRng::new(7);
    let (a, b) = (rand(rng, m * k), rand(rng, k * n));
    let mut c = vec![0.0f32; m * n];
    median_secs(1, reps, || {
        gemm(
            ta,
            tb,
            m,
            n,
            k,
            1.0,
            black_box(&a),
            black_box(&b),
            0.0,
            &mut c,
        );
        black_box(&mut c);
    })
}

fn gflops(m: usize, n: usize, k: usize, secs: f64) -> f64 {
    2.0 * (m * n * k) as f64 / secs / 1e9
}

fn llc_bytes() -> usize {
    (0..8)
        .filter_map(|i| {
            let s = std::fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{i}/size"
            ))
            .ok()?;
            let s = s.trim();
            let (num, mult) = match s.as_bytes().last()? {
                b'K' => (&s[..s.len() - 1], 1 << 10),
                b'M' => (&s[..s.len() - 1], 1 << 20),
                _ => (s, 1),
            };
            num.parse::<usize>().ok().map(|n| n * mult)
        })
        .max()
        .unwrap_or(32 << 20)
}

fn im2col_rate(geo: &ConvGeometry, reps: usize) -> (f64, f64) {
    let image = rand(&mut TensorRng::new(9), geo.cin * geo.h * geo.w);
    let mut col = vec![0.0f32; geo.col_rows() * geo.col_cols()];
    let secs = median_secs(1, reps, || {
        im2col(geo, black_box(&image), &mut col);
        black_box(&mut col);
    });
    (4.0 * (image.len() + col.len()) as f64 / secs / 1e9, secs)
}

pub fn run(out: &mut Outcome, shared: &mut Shared) {
    // conv2 per image: forward C(cout × ohow) = W(cout × ckk) · col(ckk × ohow);
    // weight gradient dW = dY · colᵀ; data gradient dcol = Wᵀ · dY.
    let g = hep_conv2();
    let (cout, ckk, ohow) = (g.cout, g.col_rows(), g.col_cols());
    let fwd = gemm_secs(Transpose::No, Transpose::No, cout, ohow, ckk, 7);
    out.push(Metric::value(
        "tensor.gemm.hep_fwd.gflops",
        "GFLOP/s",
        gflops(cout, ohow, ckk, fwd),
    ));
    let wgrad = gemm_secs(Transpose::No, Transpose::Yes, cout, ckk, ohow, 7);
    out.push(Metric::value(
        "tensor.gemm.hep_wgrad.gflops",
        "GFLOP/s",
        gflops(cout, ckk, ohow, wgrad),
    ));
    let bwd = gemm_secs(Transpose::Yes, Transpose::No, ckk, ohow, cout, 7);
    out.push(Metric::value(
        "tensor.gemm.hep_bwddata.gflops",
        "GFLOP/s",
        gflops(ckk, ohow, cout, bwd),
    ));
    shared.conv2_gemm_s = fwd;

    // Small-M: 16 output channels.
    let e = climate_enc2();
    let enc = gemm_secs(
        Transpose::No,
        Transpose::No,
        e.cout,
        e.col_cols(),
        e.col_rows(),
        51,
    );
    out.push(Metric::value(
        "tensor.gemm.climate_enc.gflops",
        "GFLOP/s",
        gflops(e.cout, e.col_cols(), e.col_rows(), enc),
    ));

    // Skinny: one rank's batch through fc1, Y(n × out) = X · Wᵀ.
    let (n, k, o) = (
        wide_train::BATCH / wide_train::RANKS,
        3 * wide_train::IMAGE * wide_train::IMAGE,
        1024,
    );
    let fc = gemm_secs(Transpose::No, Transpose::Yes, n, o, k, 15);
    out.push(Metric::value(
        "tensor.gemm.wide_fc.gflops",
        "GFLOP/s",
        gflops(n, o, k, fc),
    ));

    let rng = &mut TensorRng::new(8);
    let (a, b) = (rand(rng, 512 * 512), rand(rng, 512 * 512));
    let mut c = vec![0.0f32; 512 * 512];
    let best = super::time_reps(1, 7, || {
        gemm(
            Transpose::No,
            Transpose::No,
            512,
            512,
            512,
            1.0,
            black_box(&a),
            black_box(&b),
            0.0,
            &mut c,
        );
        black_box(&mut c);
    })
    .into_iter()
    .fold(f64::INFINITY, f64::min);
    // The roofline the conv rows are held against: the best rate any
    // shape here reached, so no layer can read above 1.
    shared.peak_gflops = [
        gflops(cout, ohow, ckk, fwd),
        gflops(cout, ckk, ohow, wgrad),
        gflops(ckk, ohow, cout, bwd),
        gflops(e.cout, e.col_cols(), e.col_rows(), enc),
        gflops(n, o, k, fc),
    ]
    .into_iter()
    .fold(gflops(512, 512, 512, best), f64::max);
    out.push(Metric::value(
        "tensor.gemm.peak_gflops",
        "GFLOP/s",
        shared.peak_gflops,
    ));

    let llc = llc_bytes();
    let bytes = (4 * llc).min(COPY_CAP_BYTES);
    println!(
        "  tensor.mem.copy: array {} MiB, last-level cache {} MiB{}",
        bytes >> 20,
        llc >> 20,
        if bytes < 4 * llc {
            " (capped below 4× LLC)"
        } else {
            ""
        }
    );
    let src = vec![1.0f32; bytes / 4];
    let mut dst = vec![0.0f32; bytes / 4];
    let copy = median_secs(1, 3, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    // Read + write traffic.
    out.push(Metric::value(
        "tensor.mem.copy_gbytes_per_s",
        "GB/s",
        2.0 * bytes as f64 / copy / 1e9,
    ));
    drop((src, dst));

    // int8 forward: activations (ohow × ckk) against weights (cout × ckk).
    let qa: Vec<i8> = (0..ohow * ckk).map(|i| (i % 251) as i8).collect();
    let qb: Vec<i8> = (0..cout * ckk).map(|i| (i % 241) as i8).collect();
    let mut qc = vec![0i32; ohow * cout];
    let i8s = median_secs(1, 7, || {
        gemm_i8(ohow, cout, ckk, black_box(&qa), black_box(&qb), &mut qc);
        black_box(&mut qc);
    });
    out.push(Metric::value(
        "tensor.gemm_i8.hep_fwd.gops",
        "Gop/s",
        gflops(ohow, cout, ckk, i8s),
    ));

    let (rate, secs) = im2col_rate(&g, 15);
    shared.conv2_im2col_s = secs;
    out.push(Metric::value(
        "tensor.im2col.hep.gbytes_per_s",
        "GB/s",
        rate,
    ));
    out.push(Metric::value(
        "tensor.im2col.climate_s2.gbytes_per_s",
        "GB/s",
        im2col_rate(&e, 101).0,
    ));

    let isa = Isa::active();
    println!(
        "  tensor.isa: {} (also in the result's host fingerprint)",
        isa.name()
    );
    out.push(Metric::value(
        "tensor.isa.avx2",
        "flag",
        (isa == Isa::Avx2) as u8 as f64,
    ));
}
