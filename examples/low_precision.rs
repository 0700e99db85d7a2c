//! Low-precision training and compressed communication (Sec. VIII):
//! bfloat16 rounding, stochastic rounding, and the 8-bit error-feedback
//! all-reduce, demonstrated on real gradient traffic.
//!
//! ```text
//! cargo run --release --example low_precision
//! ```

use scidl_comm::{CommWorld, Compression, ErrorFeedback};
use scidl_core::thread_engine::{ThreadEngine, ThreadEngineConfig};
use scidl_data::{HepConfig, HepDataset};
use scidl_nn::quant::{bf16_round, stochastic_round, QuantizedBuffer};
use scidl_tensor::TensorRng;
use std::sync::Arc;
use std::thread;

fn main() {
    // 1. Numeric formats.
    println!("bfloat16 rounding (Sec. VIII-A's low-precision formats):");
    for x in [std::f32::consts::PI, 0.001234, 123456.7] {
        println!("  {x:>12.6} -> {:>12.6}", bf16_round(x));
    }

    // 2. Stochastic rounding is unbiased — the property refs [46]/[47]
    //    identify as critical for convergence.
    let mut rng = TensorRng::new(1);
    let x = 0.3f32;
    let n = 100_000;
    let mean: f64 = (0..n)
        .map(|_| stochastic_round(x, 1.0, &mut rng) as f64)
        .sum::<f64>()
        / n as f64;
    println!(
        "\nstochastic rounding of {x} to integers: mean over {n} draws = {mean:.4} (unbiased)"
    );

    // 3. 8-bit gradient compression: wire size.
    let grads: Vec<f32> = (0..594_178)
        .map(|i| ((i % 997) as f32 - 500.0) * 1e-4)
        .collect();
    let q = QuantizedBuffer::quantize(&grads);
    println!(
        "\nHEP-sized gradient: {} B as f32, {} B quantised ({}x smaller)",
        grads.len() * 4,
        q.wire_bytes(),
        grads.len() * 4 / q.wire_bytes()
    );

    // 4. Compressed all-reduce across real threads.
    let comms = CommWorld::new(4);
    let handles: Vec<_> = comms
        .into_iter()
        .enumerate()
        .map(|(rank, comm)| {
            thread::spawn(move || {
                // One error-feedback round, then the exact collective over
                // the decompressed sent values.
                let mut ef = ErrorFeedback::new(Compression::Int8);
                let mut data = vec![rank as f32; 8];
                ef.apply(&mut data);
                comm.allreduce_mean(&mut data);
                data[0]
            })
        })
        .collect();
    let means: Vec<f32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    println!(
        "\ncompressed all-reduce of ranks 0..4: every rank sees mean ≈ {:.3}",
        means[0]
    );

    // 5. End-to-end: does compression hurt convergence? (Sec. VIII-B's
    //    open question, answered by the error-feedback mechanism.) The
    //    engine runs the same gradient path either way; the policy only
    //    picks the codec on the bucketed ring and the PS leg.
    println!("\ntraining comparison (1 group x 2 ranks, 40 iterations):");
    let ds = Arc::new(HepDataset::generate(HepConfig::small(), 256, 3));
    let mut cfg = ThreadEngineConfig::new(1, 2, 16);
    cfg.iterations = 40;
    cfg.lr = 4e-3;
    cfg.momentum = 0.8;
    for policy in [Compression::None, Compression::Int8] {
        cfg.compression = policy;
        let run = ThreadEngine::run(&cfg, Arc::clone(&ds));
        println!(
            "  {:<5}: final loss {:.4}, {} B on the wire",
            policy.label(),
            run.curve.final_loss().unwrap_or(f32::NAN),
            run.wire_bytes
        );
    }
}
