//! Regenerates **Fig. 8** — training loss vs wall-clock for HEP on 1K
//! (virtual) nodes: synchronous vs hybrid with 2/4/8 groups, fixed total
//! batch.
//!
//! Gradients are real (scaled-down HEP problem); wall-clock is simulated
//! Cori time. The paper's readout: best hybrid reaches the target loss
//! ≈1.66× faster than the best sync run; the worst sync run is many
//! times slower.
//!
//! `--compress <policy>` (`none`, `int8`, `int16`, `topk:<density>`)
//! trains every run with error-feedback gradient compression and charges
//! the reduced wire sizes. The bench also sweeps the standard policy set
//! and writes the convergence-vs-bytes frontier to
//! `results/fig8_compress.{csv,txt}`.

use crate::report::{ascii_chart, csv, fnum, markdown_table, write_result};
use crate::Args;
use scidl_comm::Compression;
use scidl_core::experiments::convergence::{fig8, fig8_compress, Fig8Scale};

/// The reduced `--fast` scale (also what `paper` condenses Fig. 8 to).
pub fn fast_scale() -> Fig8Scale {
    Fig8Scale {
        nodes: 256,
        total_batch: 256,
        sync_iterations: 48,
        dataset_events: 1024,
        smooth_window: 6,
        overlap_comm: false,
        compression: Compression::None,
    }
}

pub fn run(args: &Args) {
    let mut scale = if args.fast {
        fast_scale()
    } else {
        Fig8Scale::default()
    };
    scale.overlap_comm = args.overlap;
    scale.compression = args.compress;

    println!(
        "Fig. 8: loss vs simulated wall-clock ({} virtual nodes, total batch {}, comm overlap {}, compression {})\n",
        scale.nodes,
        scale.total_batch,
        if args.overlap { "on" } else { "off" },
        scale.compression.label()
    );
    let result = fig8(&scale, 0xF168);

    let rows: Vec<Vec<String>> = result
        .runs
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                r.groups.to_string(),
                fnum(r.staleness, 2),
                r.curve
                    .final_loss()
                    .map(|l| fnum(l as f64, 4))
                    .unwrap_or_default(),
                r.time_to_target
                    .map(|t| format!("{} s", fnum(t, 1)))
                    .unwrap_or_else(|| "not reached".into()),
                format!("{} ms", fnum(r.iter_secs * 1e3, 2)),
                format!("{} ms", fnum(r.iter_secs_overlap * 1e3, 2)),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "run",
                "groups",
                "staleness",
                "final loss",
                &format!("time to loss {}", fnum(result.target_loss as f64, 3)),
                "iter (seq)",
                "iter (overlap)",
            ],
            &rows
        )
    );

    match result.best_hybrid_speedup {
        Some(s) => println!(
            "best hybrid vs best sync speedup: {}x (paper: ~1.66x)\n",
            fnum(s, 2)
        ),
        None => println!("best hybrid vs best sync speedup: n/a (target not reached)\n"),
    }

    let series: Vec<(&str, &[(f64, f32)])> = result
        .runs
        .iter()
        .map(|r| (r.label.as_str(), r.curve.points.as_slice()))
        .collect();
    println!("{}", ascii_chart(&series, 100, 24));

    // Convergence-vs-bytes frontier: the standard policy sweep on the
    // hybrid configuration, written to results/ for the README.
    let frontier = fig8_compress(&scale, 0xF168);
    let headers = [
        "policy",
        "wire bytes",
        "bytes ratio",
        "best loss",
        "sim time (s)",
    ];
    let frows: Vec<Vec<String>> = frontier
        .runs
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                r.wire_bytes.to_string(),
                format!("{}x", fnum(r.bytes_ratio, 2)),
                fnum(r.final_loss as f64, 4),
                fnum(r.total_time, 1),
            ]
        })
        .collect();
    let table = markdown_table(&headers, &frows);
    println!(
        "compression frontier (hybrid-{} groups, error feedback on):\n{table}",
        frontier.groups
    );
    let txt = format!(
        "Fig. 8 compression frontier: convergence vs bytes on the wire\n\
         (hybrid-{} groups, {} virtual nodes, total batch {}; per-group\n\
         error feedback keeps lossy policies near the dense loss)\n\n{table}",
        frontier.groups, scale.nodes, scale.total_batch
    );
    write_result("fig8_compress.txt", &txt, "wrote");
    let csv_rows: Vec<Vec<String>> = frontier
        .runs
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                r.wire_bytes.to_string(),
                fnum(r.bytes_ratio, 3),
                fnum(r.final_loss as f64, 5),
                fnum(r.total_time, 3),
            ]
        })
        .collect();
    let csv_headers = [
        "policy",
        "wire_bytes",
        "bytes_ratio",
        "best_loss",
        "sim_time_s",
    ];
    write_result("fig8_compress.csv", &csv(&csv_headers, &csv_rows), "wrote");
}
