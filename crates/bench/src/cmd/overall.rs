//! Regenerates **Sec. VI-B3 (Overall Performance)** — peak and sustained
//! system throughput at the paper's full-system configurations:
//!
//! * HEP: 9594 compute nodes + 6 PS in 9 groups, minibatch 1066/group
//!   (paper: 11.73 PF peak, 11.41 PF sustained, ~106 ms/iteration)
//! * Climate: 9608 compute nodes + 14 PS in 8 groups, minibatch
//!   9608/group, model snapshot every 10 iterations (paper: 15.07 PF
//!   peak, 13.27 PF sustained, ~12.16 s/iteration)
//!
//! Note on absolute numbers: our PFLOP/s are computed from *our*
//! networks' analytic FLOP counts (Sec. V methodology); the paper's SDE
//! counts imply ≈8x more FLOPs per HEP image than the architecture
//! description yields analytically, so our HEP absolute rate is lower
//! while iteration times and efficiencies are comparable (see
//! EXPERIMENTS.md).

use crate::report::{fnum, markdown_table};
use crate::Args;
use scidl_core::experiments::{full_system, ScalingOptions};
use scidl_core::workloads::{climate_workload, hep_workload};

pub fn run(args: &Args) {
    let iters = if args.fast { 12 } else { 40 };

    let hep = full_system(
        &hep_workload(),
        9594,
        9,
        1066,
        iters,
        0,
        0x0A11,
        &ScalingOptions::default(),
    );
    let climate = full_system(
        &climate_workload(),
        9608,
        8,
        9608,
        iters.min(20),
        10,
        0x0A11,
        &ScalingOptions::default(),
    );

    println!("Sec. VI-B3: full-system throughput\n");
    let rows = vec![
        vec![
            "HEP (9594 nodes, 9 groups, mb 1066)".to_string(),
            format!("{} PF", fnum(hep.peak_pflops, 2)),
            format!("{} PF", fnum(hep.sustained_pflops, 2)),
            format!("{}x", fnum(hep.speedup_vs_single, 0)),
            format!("{} ms", fnum(hep.mean_iter_secs * 1e3, 0)),
        ],
        vec![
            "Climate (9608 nodes, 8 groups, mb 9608)".to_string(),
            format!("{} PF", fnum(climate.peak_pflops, 2)),
            format!("{} PF", fnum(climate.sustained_pflops, 2)),
            format!("{}x", fnum(climate.speedup_vs_single, 0)),
            format!("{} s", fnum(climate.mean_iter_secs, 2)),
        ],
    ];
    println!(
        "{}",
        markdown_table(
            &[
                "configuration",
                "peak",
                "sustained",
                "speedup vs 1 node",
                "iter time"
            ],
            &rows
        )
    );
    println!("paper: HEP 11.73 PF peak / 11.41 PF sustained / 6173x / ~106 ms");
    println!(
        "       Climate 15.07 PF peak / 13.27 PF sustained / 7205x / ~12.16 s (incl. snapshots)"
    );
    println!(
        "\nmean staleness: HEP {} updates, Climate {} updates",
        fnum(hep.staleness, 1),
        fnum(climate.staleness, 1)
    );
}
