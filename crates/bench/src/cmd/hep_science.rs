//! Regenerates **Sec. VII-A (HEP Science Result)** — true-positive rate
//! at a fixed very-low false-positive rate: the tuned cut-based
//! benchmark analysis vs the trained CNN.
//!
//! Paper (10M events, FPR = 0.02%): cuts 42% TPR, CNN 72% TPR — a 1.7x
//! improvement. At laptop scale the budget is 2% (the smallest FPR
//! resolvable with thousands of events); the CNN-vs-cuts comparison at
//! equal budget is the preserved quantity.

use crate::report::{fnum, markdown_table};
use crate::Args;
use scidl_core::experiments::science::{hep_science, HepScienceScale};

/// The reduced `--fast` scale (also what `paper` condenses Sec. VII-A to).
pub fn fast_scale() -> HepScienceScale {
    HepScienceScale {
        train_events: 1200,
        test_events: 1200,
        iterations: 150,
        batch: 32,
        fpr_budget: 0.02,
    }
}

pub fn run(args: &Args) {
    let scale = if args.fast {
        fast_scale()
    } else {
        HepScienceScale::default()
    };

    println!(
        "Sec. VII-A: HEP classification at FPR budget {}% ({} train / {} test events)\n",
        fnum(scale.fpr_budget * 100.0, 2),
        scale.train_events,
        scale.test_events
    );
    let r = hep_science(&scale, 0x5C1);

    let rows = vec![
        vec![
            "cut-based benchmark [5]".to_string(),
            format!(
                "HT>{} njets>={} lead pT>{}",
                fnum(r.cuts.ht_min as f64, 0),
                r.cuts.njets_min,
                fnum(r.cuts.leading_min as f64, 0)
            ),
            format!("{}%", fnum(r.baseline_fpr * 100.0, 2)),
            format!("{}%", fnum(r.baseline_tpr * 100.0, 1)),
        ],
        vec![
            "CNN (ours)".to_string(),
            "low-level calorimeter images".to_string(),
            format!("{}%", fnum(r.fpr_budget * 100.0, 2)),
            format!("{}%", fnum(r.cnn_tpr * 100.0, 1)),
        ],
    ];
    println!(
        "{}",
        markdown_table(&["classifier", "selection", "FPR", "TPR"], &rows)
    );
    println!(
        "improvement: {}x (paper: 1.7x with tuning, 1.3x without)",
        fnum(r.improvement, 2)
    );
    println!("final training loss: {}", fnum(r.final_loss as f64, 4));
}
