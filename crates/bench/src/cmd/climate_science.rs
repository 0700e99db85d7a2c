//! Regenerates **Sec. VII-B / Fig. 9 (Climate Science Result)** — trains
//! the semi-supervised detector and renders a test frame's integrated
//! water vapour (TMQ) channel with ground-truth (`#`) and predicted
//! (`+`) bounding boxes, plus detection metrics the paper says they were
//! still developing.

use crate::report::{fnum, markdown_table};
use crate::Args;
use scidl_core::experiments::science::{climate_science, ClimateScienceScale};

pub fn run(args: &Args) {
    let scale = if args.fast {
        ClimateScienceScale {
            train_frames: 48,
            test_frames: 12,
            epochs: 15,
            batch: 8,
            labelled_fraction: 0.7,
            confidence: 0.8,
        }
    } else {
        ClimateScienceScale::default()
    };

    println!(
        "Sec. VII-B: semi-supervised extreme-weather detection ({} train frames, {}% labelled, {} epochs)\n",
        scale.train_frames,
        fnum(scale.labelled_fraction * 100.0, 0),
        scale.epochs
    );
    let r = climate_science(&scale, 0xC11);

    let rows = vec![vec![
        format!("{}", r.detections),
        format!("{}", r.ground_truth),
        format!("{}%", fnum(r.precision * 100.0, 1)),
        format!("{}%", fnum(r.recall * 100.0, 1)),
        fnum(r.final_recon_loss as f64, 4),
    ]];
    println!(
        "{}",
        markdown_table(
            &[
                "detections",
                "ground truth",
                "precision",
                "recall",
                "recon loss"
            ],
            &rows
        )
    );

    println!("\nFig. 9 (ASCII): TMQ channel of a test frame; '#' ground truth, '+' predictions\n");
    println!("{}", r.rendering);
    println!("paper: qualitative — the architecture localises tropical cyclones well;");
    println!("       no established benchmark exists for this task in the climate community.");
}
