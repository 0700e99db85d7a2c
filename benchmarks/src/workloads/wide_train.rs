//! `wide_train`: the dense stack `Dense(3072→1024) → Relu →
//! Dense(1024→1024) → Relu → Dense(1024→2)` (4.2 M parameters, 16.8 MB —
//! the "large dense weights" model Sec. I of the paper tells you not to
//! build) on 32×32×3 events through `ThreadEngine`, 1 group × 2 ranks,
//! batch 16, SGD m=0.9, bucketed ring all-reduce on the comm thread.
//!
//! Communication-bound: it bypasses the conv kernels, so the ring,
//! bucketing, PS update/fetch of MB-sized blocks and the solver sweep
//! dominate. Comm/PS/solver/compression work must show here and not on
//! `hep_train`.
//!
//! The ring needs its two rank threads (and their comm threads); the
//! end-to-end run has them take turns on one CPU (`host::Pin::last`), so
//! its numbers are the step's total work on one core, not a two-core step.

use crate::host::{Pin, Threads};
use crate::report::Outcome;
use crate::train;
use crate::workloads::Workload;
use scidl_core::thread_engine::ThreadEngineConfig;
use scidl_data::{HepConfig, HepDataset};
use scidl_nn::{Dense, Network, Relu};
use scidl_tensor::TensorRng;
use std::sync::Arc;

pub const NAME: &str = "wide_train";
pub const WHY: &str = "communication-bound dense model: ring, bucketing, MB-sized PS blocks and the solver sweep show here, conv kernels do not";

pub const IMAGE: usize = 32;
pub const EVENTS: usize = 2048;
pub const RANKS: usize = 2;
pub const BATCH: usize = 16;
pub const LR: f32 = 1e-3;
pub const MOMENTUM: f32 = 0.9;
pub const ITERATIONS: usize = 12;
pub const MODEL_SEED: u64 = 0x1D_E5E;

/// Reference constants; see README, "Rebaselining".
pub const REF_FINAL_LOSS: (u64, f32) = (1, 0.687_398_55);
/// Per run: `ITERATIONS × (RANKS ring legs + 1 PS leg) × 4 B × 4 198 402 params`.
pub const REF_WIRE_BYTES: u64 = (ITERATIONS * (RANKS + 1) * 4 * 4_198_402) as u64;

pub struct Env {
    pub ds: Arc<HepDataset>,
}

pub fn build() -> Network {
    let rng = &mut TensorRng::new(MODEL_SEED);
    Network::new("wide")
        .push(Dense::new("fc1", 3 * IMAGE * IMAGE, 1024, rng))
        .push(Relu::new("relu1"))
        .push(Dense::new("fc2", 1024, 1024, rng))
        .push(Relu::new("relu2"))
        .push(Dense::new("fc3", 1024, 2, rng))
}

pub fn config(seed: u64, iterations: usize) -> ThreadEngineConfig {
    let mut cfg = ThreadEngineConfig::new(1, RANKS, BATCH);
    cfg.iterations = iterations;
    cfg.lr = LR;
    cfg.momentum = MOMENTUM;
    cfg.overlap_comm = true;
    cfg.seed = seed;
    cfg
}

pub struct WideTrain;

impl Workload for WideTrain {
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
        let cfg = config(seed, ITERATIONS);
        let _one_cpu = Pin::last();
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
        train::traced_classifier(&env.ds, &config(seed, 12), build)
    }
}
