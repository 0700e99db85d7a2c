//! Regenerates **Fig. 5** — single-node runtime and FLOP rate of the top
//! time-consuming components at batch size 8.
//!
//! Two modes:
//! * default: the calibrated KNL model (what the paper measured on a
//!   Xeon Phi 7250),
//! * `--real`: additionally times our actual Rust kernels on the host
//!   for a scaled-down HEP network (224px full profile is expensive on a
//!   laptop; pass `--full` with `--real` to profile the full network),
//!   one row per step the network runs: a `Conv2d → Relu → MaxPool2d`
//!   triple is one pass, so one row (`conv1+relu1+pool1`).

use crate::report::{fnum, markdown_table};
use crate::Args;
use scidl_cluster::sim::single_node_profile;
use scidl_cluster::KnlModel;
use scidl_core::workloads::{climate_workload, hep_workload};
use scidl_tensor::{Shape4, TensorRng};

fn print_profile(name: &str, w: &scidl_cluster::sim::Workload, batch: usize) {
    let knl = KnlModel::default();
    let prof = single_node_profile(w, &knl, batch);
    let total_secs: f64 = prof.iter().map(|e| e.secs).sum();
    let total_flops: f64 = prof.iter().map(|e| e.flops).sum();

    println!("Fig. 5 ({name}): simulated KNL single-node profile, batch {batch}\n");
    let mut entries: Vec<_> = prof.iter().collect();
    entries.sort_by(|a, b| b.secs.partial_cmp(&a.secs).unwrap());
    let rows: Vec<Vec<String>> = entries
        .iter()
        .take(12)
        .map(|e| {
            vec![
                e.name.clone(),
                format!("{} ms", fnum(e.secs * 1e3, 2)),
                format!("{}%", fnum(100.0 * e.secs / total_secs, 1)),
                if e.flops > 0.0 {
                    format!("{} TF/s", fnum(e.flops / e.secs / 1e12, 2))
                } else {
                    "-".into()
                },
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(&["component", "time/iter", "share", "flop rate"], &rows)
    );
    println!(
        "overall: {} ms/iteration, {} TF/s\n",
        fnum(total_secs * 1e3, 1),
        fnum(total_flops / total_secs / 1e12, 2)
    );
}

pub fn run(args: &Args) {
    print_profile("HEP", &hep_workload(), 8);
    println!("paper: HEP overall 1.90 TF/s; conv layers 1.25-3.5 TF/s; solver ~12.5%; I/O ~2%\n");
    print_profile("Climate", &climate_workload(), 8);
    println!("paper: Climate overall 2.09 TF/s; solver <2%; I/O ~13%\n");

    if args.real {
        let mut rng = TensorRng::new(7);
        let (mut net, input) = if args.full {
            (
                scidl_nn::arch::hep_network(&mut rng),
                Shape4::new(8, 3, 224, 224),
            )
        } else {
            (
                scidl_nn::arch::hep_small(&mut rng),
                Shape4::new(8, 3, 32, 32),
            )
        };
        println!(
            "-- real Rust kernels on this host ({}, batch 8) --\n",
            if args.full {
                "full 224px HEP network"
            } else {
                "scaled 32px HEP network"
            }
        );
        let prof = scidl_nn::profile::profile_steps(&mut net, input, 1, 3);
        let rows: Vec<Vec<String>> = prof
            .iter()
            .map(|p| {
                vec![
                    p.name.clone(),
                    format!("{} ms", fnum(p.forward_secs * 1e3, 3)),
                    format!("{} ms", fnum(p.backward_secs * 1e3, 3)),
                    format!("{} GF/s", fnum(p.flop_rate() / 1e9, 2)),
                ]
            })
            .collect();
        println!(
            "{}",
            markdown_table(&["layer", "fwd", "bwd", "rate"], &rows)
        );
        println!(
            "aggregate host rate: {} GF/s",
            fnum(scidl_nn::profile::aggregate_flop_rate(&prof) / 1e9, 2)
        );
    }
}
