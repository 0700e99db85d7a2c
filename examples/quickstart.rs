//! Quickstart: train a small HEP classifier with the hybrid
//! (sync-groups + async parameter-server) architecture on real threads.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! This exercises the whole public stack in under a minute: the synthetic
//! event generator (`scidl-data`), the from-scratch CNN (`scidl-nn`),
//! the MLSL-style communication layer (`scidl-comm`) and the hybrid
//! engine (`scidl-core`).

use scidl_core::thread_engine::{ThreadEngine, ThreadEngineConfig};
use scidl_data::{HepConfig, HepDataset};
use std::sync::Arc;

fn main() {
    // 1. Generate a small synthetic HEP dataset (32px calorimeter images).
    let ds = Arc::new(HepDataset::generate(HepConfig::small(), 512, 42));
    println!(
        "dataset: {} events, {} signal",
        ds.len(),
        ds.labels.iter().sum::<usize>()
    );

    // 2. Configure a hybrid run: 2 compute groups of 2 worker threads,
    //    each group sees a 32-image minibatch per update.
    let mut cfg = ThreadEngineConfig::new(2, 2, 32);
    cfg.iterations = 120;
    cfg.lr = 4e-3;
    cfg.momentum = 0.7; // reduced vs sync — asynchrony begets momentum [31]
    cfg.seed = 7;

    // 3. Train. Every "node" is a real thread; groups all-reduce
    //    internally and exchange updates with per-layer parameter servers.
    let run = ThreadEngine::run(&cfg, Arc::clone(&ds));

    println!("updates applied: {}", run.updates);
    println!("mean staleness:  {:.2} updates", run.mean_staleness);
    let pts = &run.curve.points;
    println!(
        "loss: {:.4} (first) -> {:.4} (last)",
        pts.first().map(|p| p.1).unwrap_or(f32::NAN),
        pts.last().map(|p| p.1).unwrap_or(f32::NAN)
    );

    // 4. Evaluate the trained model.
    let mut rng = scidl_tensor::TensorRng::new(cfg.seed);
    let mut model = scidl_nn::arch::hep_small(&mut rng);
    scidl_nn::network::Model::set_flat_params(&mut model, &run.final_params);
    let test = HepDataset::generate(HepConfig::small(), 256, 43);
    let idx: Vec<usize> = (0..test.len()).collect();
    let acc = scidl_core::task::hep_accuracy(&model, &test, &idx);
    println!("held-out accuracy: {:.1}%", acc * 100.0);
}
