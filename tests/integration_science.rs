//! Cross-crate integration: the two science results (Sec. VII) at
//! reduced scale — CNN vs cuts for HEP, and the semi-supervised climate
//! detector end to end.

use scidl_core::experiments::science::{
    climate_science, hep_science, ClimateScienceScale, HepScienceScale,
};

/// Sec. VII-A shape: at a fixed FPR budget the CNN's TPR beats the tuned
/// cut-based benchmark, and both are non-trivial.
#[test]
fn cnn_beats_cut_benchmark_at_fixed_fpr() {
    let scale = HepScienceScale {
        train_events: 900,
        test_events: 900,
        iterations: 150,
        batch: 32,
        fpr_budget: 0.03,
    };
    let r = hep_science(&scale, 17);
    assert!(
        r.baseline_tpr > 0.05,
        "cuts should catch signal: {}",
        r.baseline_tpr
    );
    assert!(
        r.baseline_tpr < 0.95,
        "cuts should be imperfect: {}",
        r.baseline_tpr
    );
    assert!(
        r.cnn_tpr > r.baseline_tpr,
        "CNN ({}) must beat cuts ({}) — paper reports 1.7x",
        r.cnn_tpr,
        r.baseline_tpr
    );
    assert!(
        r.improvement > 1.0 && r.improvement < 20.0,
        "improvement {}",
        r.improvement
    );
}

/// Sec. VII-B shape: the semi-supervised detector learns to localise
/// events — nonzero recall with usable precision — and its unsupervised
/// reconstruction path converges.
#[test]
fn climate_detector_localises_events() {
    let scale = ClimateScienceScale {
        train_frames: 64,
        test_frames: 16,
        epochs: 22,
        batch: 8,
        labelled_fraction: 0.75,
        confidence: 0.7,
    };
    let r = climate_science(&scale, 23);
    assert!(r.ground_truth > 10, "need a populated test set");
    assert!(r.final_recon_loss.is_finite() && r.final_recon_loss < 0.5);
    assert!(r.detections > 0, "detector must fire at this scale");
    assert!(r.recall > 0.15, "recall {}", r.recall);
    assert!(r.precision > 0.3, "precision {}", r.precision);
    // The Fig. 9 rendering contains both ground truth and predictions.
    assert!(r.rendering.contains('#'));
    assert!(r.rendering.contains('+'));
}

/// Semi-supervision matters: with most labels hidden the autoencoder
/// path still trains the encoder (recon loss falls), which is the
/// mechanism the paper relies on for discovering unlabelled patterns.
#[test]
fn unsupervised_path_trains_without_labels() {
    let scale = ClimateScienceScale {
        train_frames: 32,
        test_frames: 8,
        epochs: 8,
        batch: 8,
        labelled_fraction: 0.05,
        confidence: 0.9,
    };
    let r = climate_science(&scale, 29);
    assert!(
        r.final_recon_loss.is_finite() && r.final_recon_loss < 0.6,
        "reconstruction should converge without labels: {}",
        r.final_recon_loss
    );
}
