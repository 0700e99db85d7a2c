//! Ablation of the **per-layer parameter-server** design (Sec. III-E(c),
//! Fig. 4): a single PS must absorb every group's full-model exchange and
//! saturates as asynchrony grows; dedicating a PS per trainable layer
//! shards both bandwidth and solver work.

use crate::report::{fnum, markdown_table};
use crate::Args;
use scidl_core::experiments::ps_ablation;
use scidl_core::workloads::{climate_workload, hep_workload};

pub fn run(args: &Args) {
    let groups: &[usize] = if args.fast {
        &[2, 8, 32]
    } else {
        &[2, 4, 8, 16, 32, 64]
    };
    let iters = if args.fast { 8 } else { 15 };

    for (name, w, nodes, batch) in [
        ("HEP", hep_workload(), 1024usize, 1024usize),
        ("Climate", climate_workload(), 1024, 1024),
    ] {
        println!("PS ablation ({name}): {nodes} nodes, batch {batch}/group\n");
        let rows = ps_ablation(&w, nodes, groups, batch, iters, 0xAB1);
        let mut table = Vec::new();
        for &g in groups {
            let single = rows
                .iter()
                .find(|r| r.groups == g && r.num_ps == 1)
                .unwrap();
            let sharded = rows.iter().find(|r| r.groups == g && r.num_ps > 1).unwrap();
            table.push(vec![
                g.to_string(),
                fnum(single.images_per_sec, 0),
                format!(
                    "{} ({} PS)",
                    fnum(sharded.images_per_sec, 0),
                    sharded.num_ps
                ),
                format!(
                    "{}x",
                    fnum(sharded.images_per_sec / single.images_per_sec.max(1e-9), 2)
                ),
            ]);
        }
        println!(
            "{}",
            markdown_table(
                &[
                    "groups",
                    "single PS (img/s)",
                    "per-layer PS (img/s)",
                    "gain"
                ],
                &table
            )
        );
        println!();
    }
    println!("expected: gains grow with group count — the motivation for Fig. 4's design.");
}
