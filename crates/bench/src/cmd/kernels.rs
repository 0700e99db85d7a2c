//! Kernel throughput table — the per-node GFLOP/s trajectory.
//!
//! Times the packed register-tiled GEMM against the retained pre-packing
//! seed kernel on the paper's HEP/climate conv-lowered shapes (forward
//! NN, weight-gradient NT, backward-data TN, plus a square TT case), and
//! the end-to-end conv layer forward+backward on HEP/climate layer
//! geometries. These are the numbers that roll up into the paper's
//! ≈2 TFLOP/s-per-KNL-node Table 2 rates — on one sequential container
//! core the absolute scale is ~100× smaller, but the per-shape ratios
//! (and the packed-vs-seed speedup) are the tracked quantity.
//!
//! Each GEMM shape is timed once per *detected ISA* (baseline SSE2
//! always; AVX2 and AVX-512 where the host reports them) through the
//! runtime-dispatch layer, plus an int8 `gemm_i8` row per ISA on the
//! serving-relevant shapes and `im2col`/`col2im` GB/s rows at the HEP
//! conv2 and climate stride-2 geometries. The table opens with the
//! ceiling the GEMM rows are judged against: register-only ymm FMA, zmm
//! FMA and zmm add loops, what one core issues with no memory traffic.
//! The bench asserts each wider arm's aggregate is faster-or-equal to
//! the next narrower one — the widest-wins dispatch must never pick a
//! slower kernel.
//!
//! Emits a markdown table on stdout and writes
//! `results/kernels.{csv,txt}`. Every number is `host-measured` on the
//! machine named in the header, never the KNL model's.
//!
//! ```text
//! cargo run --release -p scidl-bench -- kernels [--fast]
//! ```
//!
//! `--fast` (the CI smoke) runs one rep per shape instead of best-of-5
//! and skips the largest climate shape.

use crate::report::{csv, fnum, markdown_table, write_result};
use crate::Args;
use scidl_nn::{Conv2d, Layer};
use scidl_tensor::{
    col2im, gemm_i8_with_isa, gemm_unpacked, gemm_with_isa, im2col, ConvGeometry, Isa, Shape4,
    TensorRng, Transpose,
};
use std::time::Instant;

/// `(label, ta, tb, m, n, k)` — conv-lowered GEMM shapes.
const GEMM_SHAPES: &[(&str, Transpose, Transpose, usize, usize, usize)] = &[
    ("hep_fwd_nn", Transpose::No, Transpose::No, 128, 196, 1152),
    (
        "hep_fwd_wide_nn",
        Transpose::No,
        Transpose::No,
        128,
        784,
        1152,
    ),
    (
        "climate_enc_nn",
        Transpose::No,
        Transpose::No,
        64,
        3136,
        576,
    ),
    (
        "hep_wgrad_nt",
        Transpose::No,
        Transpose::Yes,
        128,
        1152,
        196,
    ),
    (
        "hep_bwddata_tn",
        Transpose::Yes,
        Transpose::No,
        1152,
        196,
        128,
    ),
    ("square_tt", Transpose::Yes, Transpose::Yes, 256, 256, 256),
];

/// `(label, cin, cout, hw, k, stride, batch)` — layer geometries from the
/// two paper networks (spatial size reduced to keep one-core runtime
/// sane; the full climate 768² plane is ~150× this work).
const CONV_LAYERS: &[(&str, usize, usize, usize, usize, usize, usize)] = &[
    ("hep_conv_3to128_k3", 3, 128, 64, 3, 1, 4),
    ("hep_conv_128to128_k3", 128, 128, 14, 3, 1, 4),
    ("climate_enc_16to64_k5s2", 16, 64, 64, 5, 2, 4),
];

/// `(label, geometry)` — the lowering the two training workloads of
/// `benchmarks/` spend their non-GEMM conv time in: HEP conv2 (stride 1,
/// row copies) and `ClimateNet::small` enc2 (stride 2, strided gather).
fn lowering_geometries() -> [(&'static str, ConvGeometry); 2] {
    [
        (
            "hep_conv2_128c_32px_k3s1",
            ConvGeometry::new(128, 128, 32, 32, 3, 1, 1),
        ),
        (
            "climate_enc2_8c_32px_k5s2",
            ConvGeometry::new(8, 16, 32, 32, 5, 2, 2),
        ),
    ]
}

/// Register-only loops: independent accumulator chains — enough to cover
/// the instruction's latency on both vector ports — fed by operands that
/// never leave their registers.
#[cfg(target_arch = "x86_64")]
mod ceiling {
    use std::arch::x86_64::*;
    use std::hint::black_box;

    macro_rules! register_loop {
        ($name:ident, $feature:literal, $chains:expr, $set1:ident, |$a:ident, $b:ident, $acc:ident| $step:expr) => {
            #[target_feature(enable = $feature)]
            pub fn $name(iters: usize) {
                let ($a, $b) = ($set1(black_box(1.000_000_1)), $set1(black_box(0.999_999_9)));
                let mut chains = [$set1(0.0); $chains];
                for _ in 0..iters {
                    for $acc in chains.iter_mut() {
                        *$acc = $step;
                    }
                }
                black_box(chains);
            }
        };
    }

    /// 12 ymm chains and two operands fill the 16 registers AVX2 has.
    pub const YMM_CHAINS: usize = 12;
    pub const ZMM_CHAINS: usize = 16;
    register_loop!(
        ymm_fma,
        "avx2,fma",
        YMM_CHAINS,
        _mm256_set1_ps,
        |a, b, acc| _mm256_fmadd_ps(a, b, *acc)
    );
    register_loop!(
        zmm_fma,
        "avx512f",
        ZMM_CHAINS,
        _mm512_set1_ps,
        |a, b, acc| _mm512_fmadd_ps(a, b, *acc)
    );
    register_loop!(
        zmm_add,
        "avx512f",
        ZMM_CHAINS,
        _mm512_set1_ps,
        |a, _b, acc| _mm512_add_ps(*acc, a)
    );
}

/// `(label, unit, rate)` of every register-only loop this CPU can run:
/// a fused multiply-add counts 2 FLOP per lane, an add 1 op.
#[cfg(target_arch = "x86_64")]
fn ceilings(reps: usize) -> Vec<(&'static str, &'static str, f64)> {
    const ITERS: usize = 2_000_000;
    let mut rows = Vec::new();
    let mut time = |label, unit, ops_per_iter: usize, f: &dyn Fn()| {
        rows.push((
            label,
            unit,
            (ITERS * ops_per_iter) as f64 / best_secs(reps, f) / 1e9,
        ));
    };
    if Isa::Avx2.is_available() {
        // SAFETY: `Isa::Avx2` is only available when the CPU reports avx2 and fma.
        time("ymm_fma", "GF/s", ceiling::YMM_CHAINS * 8 * 2, &|| unsafe {
            ceiling::ymm_fma(ITERS)
        });
    }
    if Isa::Avx512.is_available() {
        // SAFETY: `Isa::Avx512` is only available when the CPU reports avx512f.
        time(
            "zmm_fma",
            "GF/s",
            ceiling::ZMM_CHAINS * 16 * 2,
            &|| unsafe { ceiling::zmm_fma(ITERS) },
        );
        // SAFETY: as above.
        time("zmm_add", "GOP/s", ceiling::ZMM_CHAINS * 16, &|| unsafe {
            ceiling::zmm_add(ITERS)
        });
    }
    rows
}

#[cfg(not(target_arch = "x86_64"))]
fn ceilings(_reps: usize) -> Vec<(&'static str, &'static str, f64)> {
    Vec::new()
}

fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up: populates the pack workspace pool
    let mut best = f64::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

pub fn run(args: &Args) {
    let reps = if args.fast { 1 } else { 5 };

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut csv_rows: Vec<Vec<String>> = Vec::new();

    // Aggregate f32 rate per detected ISA (same order as
    // `Isa::detected()`), for the dispatch acceptance assert.
    let mut totals = vec![0.0f64; Isa::detected().len()];

    for (label, unit, rate) in ceilings(reps) {
        let name = format!("ceiling/{label}");
        rows.push(vec![
            name.clone(),
            String::from("registers only"),
            format!("{} {unit}", fnum(rate, 2)),
            String::from("-"),
            String::from("-"),
        ]);
        csv_rows.push(vec![
            name,
            String::from("registers only"),
            fnum(rate, 3),
            String::new(),
            String::new(),
        ]);
    }

    for &(label, ta, tb, m, n, k) in GEMM_SHAPES {
        if args.fast && m * n * k > 80_000_000 {
            continue;
        }
        let mut rng = TensorRng::new(11);
        let a: Vec<f32> = (0..m * k)
            .map(|_| rng.uniform_range(-1.0, 1.0) as f32)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|_| rng.uniform_range(-1.0, 1.0) as f32)
            .collect();
        let mut out = vec![0.0f32; m * n];
        let flops = 2.0 * (m * n * k) as f64;
        let seed = flops
            / best_secs(reps, || {
                gemm_unpacked(ta, tb, m, n, k, 1.0, &a, &b, 0.0, &mut out);
            })
            / 1e9;
        let dims = format!("{m}x{n}x{k}");
        for (&isa, total) in Isa::detected().iter().zip(&mut totals) {
            let packed = flops
                / best_secs(reps, || {
                    gemm_with_isa(isa, ta, tb, m, n, k, 1.0, &a, &b, 0.0, &mut out);
                })
                / 1e9;
            *total += packed;
            let name = format!("gemm/{label}@{}", isa.name());
            rows.push(vec![
                name.clone(),
                dims.clone(),
                format!("{} GF/s", fnum(packed, 2)),
                format!("{} GF/s", fnum(seed, 2)),
                format!("{}x", fnum(packed / seed, 2)),
            ]);
            csv_rows.push(vec![
                name,
                dims.clone(),
                fnum(packed, 3),
                fnum(seed, 3),
                fnum(packed / seed, 3),
            ]);
        }
    }

    // Int8 serving kernel: same dot-product shapes the quantized dense /
    // conv path lowers to (B stored transposed). Rates are GOP/s — one
    // multiply-accumulate counted as 2 ops, like the f32 rows — and the
    // "seed" column is the scalar (sse2) int8 kernel, so the speedup
    // column reads as the SIMD gain *within* the int8 path.
    let i8_shapes: &[(&str, usize, usize, usize)] =
        &[("hep_fwd", 128, 196, 1152), ("square", 256, 256, 256)];
    for &(label, m, n, k) in i8_shapes {
        let mut s = 0x1157u64;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 255) as i16 - 127) as i8
        };
        let a: Vec<i8> = (0..m * k).map(|_| next()).collect();
        let b_t: Vec<i8> = (0..n * k).map(|_| next()).collect();
        let mut out = vec![0i32; m * n];
        let ops = 2.0 * (m * n * k) as f64;
        let scalar =
            ops / best_secs(reps, || {
                gemm_i8_with_isa(Isa::Sse2, m, n, k, &a, &b_t, &mut out);
            }) / 1e9;
        let dims = format!("{m}x{n}x{k}");
        for &isa in Isa::detected() {
            let rate =
                ops / best_secs(reps, || {
                    gemm_i8_with_isa(isa, m, n, k, &a, &b_t, &mut out);
                }) / 1e9;
            let name = format!("gemm_i8/{label}@{}", isa.name());
            rows.push(vec![
                name.clone(),
                dims.clone(),
                format!("{} GOP/s", fnum(rate, 2)),
                format!("{} GOP/s", fnum(scalar, 2)),
                format!("{}x", fnum(rate / scalar, 2)),
            ]);
            csv_rows.push(vec![
                name,
                dims.clone(),
                fnum(rate, 3),
                fnum(scalar, 3),
                fnum(rate / scalar, 3),
            ]);
        }
    }

    // Conv lowering: bytes read + written per call over best time.
    for (label, geo) in lowering_geometries() {
        let mut rng = TensorRng::new(12);
        let image: Vec<f32> = (0..geo.cin * geo.h * geo.w)
            .map(|_| rng.uniform_range(-1.0, 1.0) as f32)
            .collect();
        let mut col = vec![0.0f32; geo.col_rows() * geo.col_cols()];
        let mut back = vec![0.0f32; image.len()];
        let bytes = 4.0 * (image.len() + col.len()) as f64;
        let dims = format!("{}x{}", geo.col_rows(), geo.col_cols());
        let lower = bytes / best_secs(reps * 3, || im2col(&geo, &image, &mut col)) / 1e9;
        let raise = bytes / best_secs(reps * 3, || col2im(&geo, &col, &mut back)) / 1e9;
        for (dir, rate) in [("im2col", lower), ("col2im", raise)] {
            let name = format!("{dir}/{label}");
            rows.push(vec![
                name.clone(),
                dims.clone(),
                format!("{} GB/s", fnum(rate, 2)),
                String::from("-"),
                String::from("-"),
            ]);
            csv_rows.push(vec![
                name,
                dims.clone(),
                fnum(rate, 3),
                String::new(),
                String::new(),
            ]);
        }
    }

    for &(label, cin, cout, hw, k, stride, batch) in CONV_LAYERS {
        let mut rng = TensorRng::new(13);
        let mut conv = Conv2d::new("c", cin, cout, k, stride, k / 2, &mut rng);
        let x = rng.uniform_tensor(Shape4::new(batch, cin, hw, hw), -1.0, 1.0);
        // forward + backward ≈ 3× the forward MACs (fwd, wgrad, bwd-data).
        let flops =
            3.0 * batch as f64 * conv.spec().forward_flops_per_image(x.shape().with_n(1)) as f64;
        let secs = best_secs(reps, || {
            let y = conv.forward(x.clone());
            let _ = conv.backward(y);
        });
        let rate = flops / secs / 1e9;
        let dims = format!("{batch}x{cin}x{hw}x{hw}->k{k}s{stride}x{cout}");
        rows.push(vec![
            format!("conv/{label}"),
            dims.clone(),
            format!("{} GF/s", fnum(rate, 2)),
            String::from("-"),
            String::from("-"),
        ]);
        csv_rows.push(vec![
            format!("conv/{label}"),
            dims,
            fnum(rate, 3),
            String::new(),
            String::new(),
        ]);
    }

    let headers = ["kernel", "shape", "packed", "seed", "speedup"];
    let table = markdown_table(&headers, &rows);
    let isa_names: Vec<&str> = Isa::detected().iter().map(|i| i.name()).collect();
    let host = format!(
        "host-measured; nproc {}; detected ISAs: {} (active: {})",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        isa_names.join(", "),
        Isa::active().name()
    );
    println!("{host}\n\n{table}");
    println!(
        "(packed = register-tiled packed GEMM through the runtime ISA dispatch; \
         seed = pre-packing axpy baseline; gemm_i8 rows use the scalar int8 kernel \
         as their seed; ceiling rows are register-only loops, one fused multiply-add \
         = 2 FLOP, one add = 1 op; im2col/col2im rows are bytes read + written per second; \
         conv rows time layer fwd+bwd through the packed kernel at the active ISA)"
    );

    // --- acceptance: widest-wins never picks a slower kernel -----------
    for (pair, names) in totals.windows(2).zip(isa_names.windows(2)) {
        let (narrow, wide) = (pair[0], pair[1]);
        println!(
            "f32 aggregate: {} {} GF/s, {} {} GF/s ({}x)",
            names[0],
            fnum(narrow, 2),
            names[1],
            fnum(wide, 2),
            fnum(wide / narrow, 2)
        );
        assert!(
            wide >= narrow,
            "acceptance: {} aggregate ({wide:.2} GF/s) must be faster-or-equal to {} ({narrow:.2} GF/s)",
            names[1],
            names[0]
        );
        println!(
            "acceptance: {} faster-or-equal to {} — PASS",
            names[1], names[0]
        );
    }
    for isa in ["avx2", "avx512"] {
        if !isa_names.contains(&isa) {
            println!("({isa} not detected on this host; its dispatch acceptance skipped)");
        }
    }

    let csv_text = csv(
        &["kernel", "shape", "packed_gflops", "seed_gflops", "speedup"],
        &csv_rows,
    );
    write_result("kernels.csv", &csv_text, "written to");
    let txt = format!(
        "Kernel throughput (one container core; paper's KNL nodes: ~2 TFLOP/s/node)\n{host}\n\n{table}"
    );
    write_result("kernels.txt", &txt, "written to");
}
