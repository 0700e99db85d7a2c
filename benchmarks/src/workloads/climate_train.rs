//! `climate_train`: `ClimateNet::small` on 64×64×4 climate frames through
//! `ThreadEngine`, **2 groups × 1 rank** (asynchronous through the PS
//! bank), batch 8 per group, SGD m=0.9, the `forward_backward` +
//! `clip_norm(1.0)` step of `experiments::science::climate_distributed`.
//!
//! Uses the same layers differently: strided 5×5 conv, deconv, detection
//! and reconstruction loss, small-M ragged GEMMs (cout 8/16/32) and a
//! latency-bound PS (≈18 tiny shards per update, two groups contending,
//! staleness ≈ 1). A GEMM tuned for M=128, or a PS change tuned for big
//! blocks that hurts small ones, shows here.
//!
//! The end-to-end run has the two group threads take turns on one CPU
//! (`host::Pin::last`): total work of both groups on one core.

use crate::host::{Pin, Threads};
use crate::report::{Metric, Outcome};
use crate::span::{self, Layer};
use crate::train::{self, Rep};
use crate::workloads::Workload;
use scidl_core::thread_engine::{ThreadEngine, ThreadEngineConfig};
use scidl_data::climate::{boxes_to_targets, ClimateConfig, ClimateDataset, GtBox};
use scidl_nn::arch::ClimateNet;
use scidl_nn::network::Model;
use scidl_tensor::{Tensor, TensorRng};

pub const NAME: &str = "climate_train";
pub const WHY: &str = "asynchronous 2-group training with small ragged GEMMs, deconv and a latency-bound PS of ~18 tiny shards";

pub const FRAMES: usize = 256;
pub const GROUPS: usize = 2;
pub const BATCH: usize = 8;
pub const LR: f32 = 0.008;
pub const MOMENTUM: f32 = 0.9;
/// Iterations per group of one timed engine run.
pub const ITERATIONS: usize = 40;
pub const MODEL_SEED: u64 = 0xC11_A7E;
/// Loss-curve points averaged at each end for the "loss falls" check.
const WINDOW: usize = 32;

pub struct Env {
    pub ds: ClimateDataset,
}

pub struct ClimateTrain;

impl Workload for ClimateTrain {
    type Env = Env;
    const NAME: &'static str = NAME;
    const WHY: &'static str = WHY;

    fn threads() -> Threads {
        Threads {
            ranks: GROUPS,
            workers: 0,
            clients: 0,
        }
    }

    fn setup(seed: u64) -> Env {
        let cfg = ClimateConfig {
            labelled_fraction: 0.7,
            ..ClimateConfig::small()
        };
        let ds = ClimateDataset::generate(cfg, FRAMES, seed);
        std::hint::black_box(build());
        Env { ds }
    }

    fn measure(env: &mut Env, seed: u64, seconds: f64) -> Outcome {
        let cfg = config(seed, ITERATIONS);
        let _one_cpu = Pin::last();
        let reps: Vec<Rep> = train::rep_loop(seconds, || run_engine(env, &cfg, 0));
        // Two groups interleave on the curve, so the per-iteration time of a
        // group is the run's wall over its iterations.
        let iter_ms: Vec<f64> = reps
            .iter()
            .map(|r| r.wall_s * 1e3 / ITERATIONS as f64)
            .collect();
        let mut out = Outcome::default();
        let blocks = build().num_params() as u64;
        train::report_common(
            &mut out,
            &cfg,
            &reps,
            &iter_ms,
            (GROUPS * ITERATIONS) as u64 * 4 * blocks,
        );

        let stale: Vec<f64> = reps.iter().map(|r| r.run.mean_staleness).collect();
        out.push(Metric::median_of("staleness_mean", "updates", &stale));
        // Rudra: mean staleness of an n-group asynchronous PS ≈ n − 1.
        out.check(
            "staleness_near_groups_minus_1",
            stale.iter().all(|s| (0.7..=1.3).contains(s)),
            format!("mean staleness per run {stale:.3?}, expected in [0.7, 1.3]"),
        );
        let falls = reps.iter().all(|r| {
            let p = &r.run.curve.points;
            let mean =
                |s: &[(f64, f32)]| s.iter().map(|x| x.1 as f64).sum::<f64>() / s.len() as f64;
            p.len() >= 2 * WINDOW && mean(&p[p.len() - WINDOW..]) < mean(&p[..WINDOW])
        });
        out.check(
            "loss_falls",
            falls,
            format!("trailing-{WINDOW} mean loss below first-{WINDOW} mean in every run"),
        );
        out
    }

    /// One short engine run with spans around the step's `data`/`nn` calls;
    /// returns images/s.
    fn traced_section(env: &mut Env, seed: u64) -> f64 {
        let cfg = config(seed, 40);
        span::span(Layer::Core, "core.thread_engine.run_with", || {
            let t = std::time::Instant::now();
            let run = run_engine(env, &cfg, span::current());
            run.updates as f64 * BATCH as f64 / t.elapsed().as_secs_f64()
        })
    }
}

pub fn build() -> ClimateNet {
    let mut net = ClimateNet::small(&mut TensorRng::new(MODEL_SEED));
    net.det_loss.lambda_obj = 8.0;
    net.lambda_recon = 0.5;
    net
}

pub fn config(seed: u64, iterations: usize) -> ThreadEngineConfig {
    let mut cfg = ThreadEngineConfig::new(GROUPS, 1, BATCH);
    cfg.iterations = iterations;
    cfg.lr = LR;
    cfg.momentum = MOMENTUM;
    cfg.seed = seed;
    cfg
}

/// The semi-supervised step: detection loss on labelled frames,
/// reconstruction on all, per-block gradient clipping.
pub fn step(net: &mut ClimateNet, batch: &Tensor, boxes: &[Vec<GtBox>]) -> f32 {
    let grid = net.grid_for(batch.shape()).h;
    let classes = net.classes();
    net.zero_grads();
    let (parts, recon) = if boxes.iter().any(|b| !b.is_empty()) {
        let targets = boxes_to_targets(boxes, grid, classes);
        net.forward_backward(batch, Some(&targets))
    } else {
        net.forward_backward(batch, None)
    };
    for b in net.param_blocks_mut() {
        scidl_tensor::ops::clip_norm(b.grad.data_mut(), 1.0);
    }
    parts.total() + recon
}

pub fn run_engine(
    env: &Env,
    cfg: &ThreadEngineConfig,
    parent: u32,
) -> scidl_core::ThreadRunSummary {
    ThreadEngine::run_with(
        cfg,
        env.ds.len(),
        |_| build(),
        |net: &mut ClimateNet, idx: &[usize]| {
            let (batch, boxes) =
                span::span_under(parent, Layer::Data, "data.climate.gather", || {
                    env.ds.gather(idx)
                });
            let loss = span::span_under(parent, Layer::Nn, "nn.climate.forward_backward", || {
                step(net, &batch, &boxes)
            });
            (
                loss,
                span::span_under(parent, Layer::Nn, "nn.flat_grads", || net.flat_grads()),
            )
        },
    )
}
