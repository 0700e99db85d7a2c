//! Supervised HEP classification (the paper's Sec. I-A workload): train
//! the CNN on synthetic LHC events and compare it against the cut-based
//! benchmark analysis at a fixed false-positive-rate budget.
//!
//! ```text
//! cargo run --release --example hep_classification
//! ```

use scidl_core::experiments::science::{hep_science, HepScienceScale};

fn main() {
    let scale = HepScienceScale {
        train_events: 2000,
        test_events: 2000,
        iterations: 200,
        batch: 32,
        fpr_budget: 0.02,
    };
    println!(
        "training CNN on {} events; evaluating at FPR <= {:.1}% on {} events…",
        scale.train_events,
        scale.fpr_budget * 100.0,
        scale.test_events
    );

    let r = hep_science(&scale, 11);

    println!("\ncut-based benchmark (tuned like ref. [5]):");
    println!(
        "  selection: HT > {:.0} GeV, njets >= {}, leading-jet pT > {:.0} GeV",
        r.cuts.ht_min, r.cuts.njets_min, r.cuts.leading_min
    );
    println!(
        "  -> TPR {:.1}% at FPR {:.2}%",
        r.baseline_tpr * 100.0,
        r.baseline_fpr * 100.0
    );
    println!("\nCNN on low-level calorimeter images:");
    println!(
        "  -> TPR {:.1}% at FPR {:.2}%",
        r.cnn_tpr * 100.0,
        r.fpr_budget * 100.0
    );
    println!(
        "\nimprovement: {:.2}x  (paper: 1.7x at FPR 0.02% on 10M events)",
        r.improvement
    );
}
