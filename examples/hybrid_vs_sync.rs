//! The paper's core comparison on real threads: synchronous training vs
//! hybrid groups exchanging updates through per-layer parameter servers.
//! Demonstrates (a) the sync run behaves as sequential SGD, (b) hybrid
//! runs carry measurable gradient staleness, and (c) both converge.
//!
//! ```text
//! cargo run --release --example hybrid_vs_sync [-- --trace out.json]
//! ```
//!
//! With `--trace`, every run's iteration/all-reduce/PS spans land in
//! Chrome `trace_event` JSON (load at chrome://tracing) plus a
//! per-iteration CSV next to it.

use scidl_core::thread_engine::{ThreadEngine, ThreadEngineConfig};
use scidl_core::trace;
use scidl_data::{HepConfig, HepDataset};
use std::sync::Arc;

fn main() {
    let trace_path: Option<std::path::PathBuf> = {
        let mut args = std::env::args();
        let mut found = None;
        while let Some(a) = args.next() {
            if a == "--trace" {
                found = Some(args.next().expect("--trace requires a path").into());
            }
        }
        found
    };
    if trace_path.is_some() {
        trace::install(Arc::new(trace::TraceSink::new()));
    }

    let ds = Arc::new(HepDataset::generate(HepConfig::small(), 768, 99));

    for (label, groups, nodes_per_group, momentum) in [
        ("synchronous (1 group x 4 nodes)", 1usize, 4usize, 0.9f32),
        ("hybrid (2 groups x 2 nodes)", 2, 2, 0.8),
        ("hybrid (4 groups x 1 node)", 4, 1, 0.6),
    ] {
        let mut cfg = ThreadEngineConfig::new(groups, nodes_per_group, 16);
        cfg.iterations = 30;
        cfg.lr = 2e-3;
        cfg.momentum = momentum;
        cfg.seed = 4242;

        let t0 = std::time::Instant::now();
        let run = ThreadEngine::run(&cfg, Arc::clone(&ds));
        let wall = t0.elapsed().as_secs_f64();

        let pts = &run.curve.points;
        let first: f32 = pts.iter().take(5).map(|p| p.1).sum::<f32>() / 5.0;
        let last: f32 = pts.iter().rev().take(5).map(|p| p.1).sum::<f32>() / 5.0;
        println!("{label}");
        println!(
            "  updates {:>3}   staleness {:.2}   loss {first:.4} -> {last:.4}   wall {wall:.2}s",
            run.updates, run.mean_staleness
        );
        assert!(
            run.final_params.iter().all(|p| p.is_finite()),
            "model must stay finite"
        );
    }
    println!("\nnote: staleness is 0 for the synchronous run by construction and ~G-1");
    println!("for G free-running groups — the quantity the momentum correction of [31] targets.");

    if let Some(path) = trace_path {
        let sink = trace::uninstall().expect("sink was installed above");
        sink.write_chrome_json(&path).expect("write trace json");
        let csv_path = path.with_extension("csv");
        sink.write_iteration_csv(&csv_path)
            .expect("write trace csv");
        println!(
            "\ntrace: {} events -> {}, {} rows -> {}",
            sink.events().len(),
            path.display(),
            sink.rows().len(),
            csv_path.display()
        );
    }
}
