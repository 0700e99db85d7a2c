//! Regenerates **Fig. 6** — strong scaling of synchronous vs hybrid
//! configurations (batch 2048 per synchronous group), extended past the
//! paper's 1024-node plot to the full 9,688-node machine with `--full`,
//! plus a flat-ring vs hierarchical-collective shoot-out at scale.

use crate::report::{print_collectives, print_speedups};
use crate::Args;
use scidl_core::experiments::{strong_scaling, ScalingOptions};
use scidl_core::workloads::{climate_workload, hep_workload};

pub fn run(args: &Args) {
    let (nodes, iters): (&[usize], usize) = if args.fast {
        (&[1, 64, 256, 1024], 8)
    } else if args.full {
        (&[1, 64, 128, 256, 512, 1024, 2048, 4096, 9688], 15)
    } else {
        (&[1, 64, 128, 256, 512, 1024], 15)
    };
    let groups = [1usize, 2, 4];

    for (name, w, paper) in [
        (
            "HEP",
            hep_workload(),
            "paper: sync does not scale past 256 nodes; hybrid-2 saturates ~280x; hybrid-4 ~580x at 1024",
        ),
        (
            "Climate",
            climate_workload(),
            "paper: sync max ~320x at 512 then stops; hybrid-2 ~580x, hybrid-4 ~780x at 1024",
        ),
    ] {
        println!("Fig. 6 ({name}): strong scaling, batch 2048 per synchronous group\n");
        print_speedups(&strong_scaling(&w, nodes, &groups, 2048, iters, 0xF166, &ScalingOptions::default()), nodes, &groups);
        println!("{paper}\n");
    }

    // --- flat-placed ring vs hierarchical collective at scale ----------
    let cmp_nodes: &[usize] = if args.fast {
        &[1024]
    } else if args.full {
        &[1024, 2048, 4096, 9688]
    } else {
        &[1024, 2048]
    };
    println!("Fig. 6 extension: flat-placed ring vs hierarchical collective (Climate, hybrid-4, batch 2048/group)\n");
    println!("(306 MiB model: the all-reduce dominates the shrinking per-node compute, so the");
    println!(" inter-group tree's contention savings show directly in throughput)\n");
    let w = climate_workload();
    let flat = strong_scaling(
        &w,
        cmp_nodes,
        &[4],
        2048,
        iters,
        0xF166,
        &ScalingOptions::flat(),
    );
    let hier = strong_scaling(
        &w,
        cmp_nodes,
        &[4],
        2048,
        iters,
        0xF166,
        &ScalingOptions::hierarchical(),
    );
    let points: Vec<_> = flat
        .iter()
        .zip(&hier)
        .map(|(f, h)| (f.nodes, f.images_per_sec, h.images_per_sec))
        .collect();
    print_collectives(&points);
}
