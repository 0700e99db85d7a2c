//! `hep_train`: the paper's 5×128-filter HEP network on 64×64×3 events
//! through `ThreadEngine`, 1 group × 1 rank, batch 8 (the paper's per-node
//! batch), Adam: the plain single-worker run.
//!
//! Compute-bound: conv/GEMM are ≥90 % of a step, the 12-shard PS exchange
//! a few percent. Kernel, packing, im2col and thread-pool work must show
//! here.
//!
//! One rank, not the issue's two: the rank is the only busy thread, so the
//! second CPU of the reference box takes whatever else the machine runs
//! and the step keeps its speed (README, "Threads and CPUs"). The 2-rank
//! run of the same task is `core.hep.scaling_efficiency_2r` in the suite.

use crate::host::Threads;
use crate::report::Outcome;
use crate::train;
use crate::workloads::Workload;
use scidl_core::thread_engine::ThreadEngineConfig;
use scidl_data::{HepConfig, HepDataset};
use scidl_nn::Network;
use scidl_tensor::TensorRng;
use std::sync::Arc;

pub const NAME: &str = "hep_train";
pub const WHY: &str = "compute-bound conv/GEMM training step: kernel, packing, im2col and thread-pool work shows here";

pub const IMAGE: usize = 64;
pub const EVENTS: usize = 512;
pub const RANKS: usize = 1;
pub const BATCH: usize = 8;
pub const LR: f32 = 1e-3;
/// Iterations of one timed engine run; a run is repeated for the
/// measured seconds.
pub const ITERATIONS: usize = 6;
/// Model initialisation never follows the workload seed.
pub const MODEL_SEED: u64 = 0x15_2017;

/// Reference constants. They change only when a PR states that it alters
/// arithmetic or reduction order (README, "Rebaselining").
/// `(seed, final loss after ITERATIONS iterations on that seed)`.
pub const REF_FINAL_LOSS: (u64, f32) = (1, 0.683_251_1);
/// Per run: `ITERATIONS × 1 PS leg × 4 B × 594 178 params` (one rank has
/// no all-reduce).
pub const REF_WIRE_BYTES: u64 = (ITERATIONS * 4 * 594_178) as u64;

pub struct Env {
    pub ds: Arc<HepDataset>,
}

pub fn build() -> Network {
    scidl_nn::arch::hep_network(&mut TensorRng::new(MODEL_SEED))
}

pub fn config(seed: u64, ranks: usize, iterations: usize) -> ThreadEngineConfig {
    let mut cfg = ThreadEngineConfig::new(1, ranks, BATCH);
    cfg.iterations = iterations;
    cfg.lr = LR;
    cfg.adam = true;
    cfg.overlap_comm = false;
    cfg.seed = seed;
    cfg
}

pub struct HepTrain;

impl Workload for HepTrain {
    type Env = Env;
    const NAME: &'static str = NAME;
    const WHY: &'static str = WHY;

    fn threads() -> Threads {
        Threads {
            ranks: RANKS,
            workers: 0,
            clients: 0,
        }
    }

    /// Generates the events and builds the model once.
    fn setup(seed: u64) -> Env {
        let cfg = HepConfig {
            image_size: IMAGE,
            ..HepConfig::paper()
        };
        let ds = HepDataset::generate(cfg, EVENTS, seed);
        std::hint::black_box(build());
        Env { ds: Arc::new(ds) }
    }

    fn measure(env: &mut Env, seed: u64, seconds: f64) -> Outcome {
        let cfg = config(seed, RANKS, ITERATIONS);
        train::measure_classifier(
            &env.ds,
            &cfg,
            build,
            (seed, seconds),
            REF_WIRE_BYTES,
            REF_FINAL_LOSS,
        )
    }

    fn traced_section(env: &mut Env, seed: u64) -> f64 {
        train::traced_classifier(&env.ds, &config(seed, RANKS, 3), build)
    }
}
