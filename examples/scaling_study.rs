//! Scaling study on the simulated Cori Phase II system: how synchronous
//! and hybrid configurations scale for the HEP workload, plus the
//! full-system throughput estimate.
//!
//! ```text
//! cargo run --release --example scaling_study
//! ```

use scidl_core::experiments::{full_system, strong_scaling, weak_scaling, ScalingOptions};
use scidl_core::workloads::hep_workload;

fn main() {
    let w = hep_workload();
    println!(
        "workload: {} ({:.1} GF/image, {:.1} MiB model)\n",
        w.name,
        w.flops_per_image() / 1e9,
        w.model_bytes as f64 / (1024.0 * 1024.0)
    );

    println!("strong scaling (fixed batch 2048 per synchronous group):");
    println!("{:>8} {:>8} {:>10}", "nodes", "groups", "speedup");
    for r in strong_scaling(
        &w,
        &[64, 256, 1024],
        &[1, 4],
        2048,
        10,
        3,
        &ScalingOptions::default(),
    ) {
        println!("{:>8} {:>8} {:>10.0}", r.nodes, r.groups, r.speedup);
    }

    println!("\nweak scaling (batch 8 per node):");
    println!("{:>8} {:>8} {:>10}", "nodes", "groups", "speedup");
    for r in weak_scaling(
        &w,
        &[64, 512, 2048],
        &[1, 4],
        8,
        10,
        3,
        &ScalingOptions::default(),
    ) {
        println!("{:>8} {:>8} {:>10.0}", r.nodes, r.groups, r.speedup);
    }

    println!("\nfull-system estimate (9594 nodes, 9 groups, minibatch 1066/group):");
    let fs = full_system(&w, 9594, 9, 1066, 20, 0, 3, &ScalingOptions::default());
    println!(
        "  peak {:.2} PF, sustained {:.2} PF, {:.0}x over one node, {:.0} ms/iteration",
        fs.peak_pflops,
        fs.sustained_pflops,
        fs.speedup_vs_single,
        fs.mean_iter_secs * 1e3
    );
}
