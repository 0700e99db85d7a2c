//! Regenerates **Fig. 7** — weak scaling (batch 8 per node) of
//! synchronous vs hybrid configurations, extended past the paper's plot
//! to 4,096 and 9,688 nodes with `--full`, plus a same-seed flat-ring vs
//! hierarchical-collective comparison (`--fast` keeps a 4,096-node
//! hierarchical leg so CI smokes the paper-scale path).

use crate::report::{print_collectives, print_speedups};
use crate::Args;
use scidl_core::experiments::{collective_comparison, weak_scaling, ScalingOptions};
use scidl_core::workloads::{climate_workload, hep_workload};

pub fn run(args: &Args) {
    let (nodes, iters): (&[usize], usize) = if args.fast {
        (&[1, 256, 2048], 8)
    } else if args.full {
        (&[1, 128, 256, 512, 1024, 2048, 4096, 9688], 15)
    } else {
        (&[1, 128, 256, 512, 1024, 2048], 15)
    };

    println!("Fig. 7a (HEP): weak scaling, batch 8/node\n");
    let groups = [1usize, 2, 4, 8];
    print_speedups(
        &weak_scaling(
            &hep_workload(),
            nodes,
            &groups,
            8,
            iters,
            0xF167,
            &ScalingOptions::default(),
        ),
        nodes,
        &groups,
    );
    println!("paper: sublinear for all; ~1500x sync / ~1150-1250x hybrid at 2048 (jitter on ~12 ms layers)\n");

    println!("Fig. 7b (Climate): weak scaling, batch 8/node\n");
    let groups = [1usize, 4, 8];
    print_speedups(
        &weak_scaling(
            &climate_workload(),
            nodes,
            &groups,
            8,
            iters.min(8),
            0xF167,
            &ScalingOptions::default(),
        ),
        nodes,
        &groups,
    );
    println!(
        "paper: near-linear (~1750x sync, ~1850x hybrid at 2048; >300 ms layers hide jitter)\n"
    );

    // --- flat-placed ring vs hierarchical collective, same seeds -------
    let cmp_nodes: &[usize] = if args.fast {
        &[256, 4096]
    } else if args.full {
        &[256, 1024, 2048, 4096, 9688]
    } else {
        &[256, 1024, 2048, 4096]
    };
    println!("Fig. 7 extension: flat-placed ring vs hierarchical collective (HEP, hybrid-4, batch 8/node)\n");
    let cmp = collective_comparison(&hep_workload(), cmp_nodes, 4, 8, iters, 0xF167);
    print_collectives(
        &cmp.iter()
            .map(|r| (r.nodes, r.flat_ips, r.hier_ips))
            .collect::<Vec<_>>(),
    );
}
