//! One-command condensed reproduction: runs every experiment at reduced
//! (`--fast`-equivalent) scale in-process and prints a summary table of
//! paper-vs-measured values. For the full-scale versions run the
//! individual subcommands (`scidl-bench --help`).

use crate::report::{fnum, markdown_table};
use crate::Args;
use scidl_cluster::KnlModel;
use scidl_core::experiments::convergence::fig8;
use scidl_core::experiments::science::hep_science;
use scidl_core::experiments::{
    architecture_shootout, full_system, strong_scaling, weak_scaling, ScalingOptions,
};
use scidl_core::workloads::{climate_workload, hep_workload};
use scidl_nn::arch::{self, ClimateNet};

pub fn run(_: &Args) {
    println!("scidl condensed reproduction (reduced scale; see EXPERIMENTS.md for full runs)\n");
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut row = |exp: &str, paper: &str, ours: String| {
        rows.push(vec![exp.to_string(), paper.to_string(), ours]);
    };

    // Table II.
    let mib = |params: usize| (params * std::mem::size_of::<f32>()) as f64 / (1024.0 * 1024.0);
    row(
        "Table II: HEP model size",
        "2.3 MiB",
        format!(
            "{} MiB",
            fnum(mib(arch::hep_network_spec().num_params()), 2)
        ),
    );
    row(
        "Table II: climate model size",
        "302.1 MiB",
        format!("{} MiB", fnum(mib(ClimateNet::full_spec().num_params()), 1)),
    );

    // Fig. 5 headline rates.
    let knl = KnlModel::default();
    let wh = hep_workload();
    let wc = climate_workload();
    row(
        "Fig. 5: HEP single-node rate",
        "1.90 TF/s",
        format!("{} TF/s", fnum(wh.single_node_rate(&knl, 8) / 1e12, 2)),
    );
    row(
        "Fig. 5: climate single-node rate",
        "2.09 TF/s",
        format!("{} TF/s", fnum(wc.single_node_rate(&knl, 8) / 1e12, 2)),
    );

    // Fig. 6 condensed: sync saturation + hybrid-4 at 1024.
    let f6 = strong_scaling(
        &wh,
        &[512, 1024],
        &[1, 4],
        2048,
        10,
        0xF166,
        &ScalingOptions::default(),
    );
    let get = |n: usize, g: usize| {
        f6.iter()
            .find(|r| r.nodes == n && r.groups == g)
            .unwrap()
            .speedup
    };
    row(
        "Fig. 6a: HEP sync 512 -> 1024",
        "stops scaling past 256",
        format!("{} -> {}", fnum(get(512, 1), 0), fnum(get(1024, 1), 0)),
    );
    row(
        "Fig. 6a: HEP hybrid-4 @1024",
        "~580x",
        format!("{}x", fnum(get(1024, 4), 0)),
    );

    // Fig. 7 condensed.
    let f7h = weak_scaling(
        &wh,
        &[2048],
        &[1, 8],
        8,
        10,
        0xF167,
        &ScalingOptions::default(),
    );
    let f7c = weak_scaling(
        &wc,
        &[2048],
        &[1, 8],
        8,
        6,
        0xF167,
        &ScalingOptions::default(),
    );
    let pick = |rows: &[scidl_core::experiments::ScalingRow], g: usize| {
        rows.iter().find(|r| r.groups == g).unwrap().speedup
    };
    row(
        "Fig. 7a: HEP weak @2048 (sync/hyb8)",
        "~1500 / ~1150",
        format!("{} / {}", fnum(pick(&f7h, 1), 0), fnum(pick(&f7h, 8), 0)),
    );
    row(
        "Fig. 7b: climate weak @2048 (sync/hyb8)",
        "~1750 / ~1850",
        format!("{} / {}", fnum(pick(&f7c, 1), 0), fnum(pick(&f7c, 8), 0)),
    );

    // Fig. 8 condensed.
    let f8 = fig8(&super::fig8::fast_scale(), 0xF168);
    row(
        "Fig. 8: best hybrid vs best sync",
        "~1.66x",
        f8.best_hybrid_speedup
            .map(|s| format!("{}x", fnum(s, 2)))
            .unwrap_or_else(|| "n/a".into()),
    );

    // Sec. VI-B3 headline at full machine scale: the 15PF-class rows,
    // run topology-aware (packed placement + hierarchical collective).
    let opts = ScalingOptions::hierarchical();
    let fs_hep = full_system(&wh, 9594, 9, 1066, 12, 0, 0x0A11, &opts);
    row(
        "Sec. VI-B3: HEP @9594 (peak/sustained PF)",
        "11.73 / 11.41",
        format!(
            "{} / {}",
            fnum(fs_hep.peak_pflops, 2),
            fnum(fs_hep.sustained_pflops, 2)
        ),
    );
    let fs_climate = full_system(&wc, 9608, 8, 9608, 12, 10, 0x0A11, &opts);
    row(
        "Sec. VI-B3: climate @9608 (peak/sustained PF)",
        "15.07 / 13.27",
        format!(
            "{} / {}",
            fnum(fs_climate.peak_pflops, 2),
            fnum(fs_climate.sustained_pflops, 2)
        ),
    );

    // Sec. VII-A condensed.
    let hs = hep_science(&super::hep_science::fast_scale(), 0x5C1);
    row(
        "Sec. VII-A: CNN vs cuts",
        "1.7x (72% vs 42% TPR)",
        format!(
            "{}x ({}% vs {}%)",
            fnum(hs.improvement, 2),
            fnum(hs.cnn_tpr * 100.0, 1),
            fnum(hs.baseline_tpr * 100.0, 1)
        ),
    );

    println!(
        "{}",
        markdown_table(&["experiment", "paper", "ours (fast scale)"], &rows)
    );

    // Three-way architecture shoot-out at 1x and 2x the paper's machine:
    // fully-synchronous all-reduce vs the paper's hybrid PS design vs
    // gossip/decentralized averaging between group roots, all with
    // packed placement and the hierarchical collective (batch 8/node).
    println!("\nArchitecture shoot-out (HEP, batch 8/node, hierarchical collective):\n");
    let mut shootout: Vec<Vec<String>> = Vec::new();
    for (nodes, groups) in [(9688usize, 8usize), (19376, 16)] {
        for r in architecture_shootout(&wh, nodes, groups, 10, 0x5407) {
            shootout.push(vec![
                r.nodes.to_string(),
                r.label.to_string(),
                r.groups.to_string(),
                fnum(r.images_per_sec, 0),
                fnum(r.sustained_pflops, 2),
                fnum(r.staleness, 2),
            ]);
        }
    }
    println!(
        "{}",
        markdown_table(
            &[
                "nodes",
                "contender",
                "groups",
                "img/s",
                "sustained PF",
                "staleness"
            ],
            &shootout
        )
    );
}
