//! Semi-supervised extreme-weather detection (the paper's Sec. I-B
//! workload): train the shared-encoder detector + autoencoder on
//! synthetic climate frames, then localise events on held-out frames.
//!
//! ```text
//! cargo run --release --example climate_detection
//! ```

use scidl_core::experiments::science::{climate_science, ClimateScienceScale};

fn main() {
    let scale = ClimateScienceScale {
        train_frames: 96,
        test_frames: 16,
        epochs: 30,
        batch: 8,
        labelled_fraction: 0.6, // 40% of frames train the autoencoder only
        confidence: 0.8,        // the paper keeps boxes with conf > 0.8
    };
    println!(
        "training semi-supervised detector on {} frames ({:.0}% labelled), {} epochs…",
        scale.train_frames,
        scale.labelled_fraction * 100.0,
        scale.epochs
    );

    let r = climate_science(&scale, 21);

    println!("\nheld-out frames:");
    println!("  detections:   {}", r.detections);
    println!("  ground truth: {}", r.ground_truth);
    println!("  precision:    {:.1}%", r.precision * 100.0);
    println!("  recall:       {:.1}%", r.recall * 100.0);
    println!(
        "  recon loss:   {:.4} (unsupervised path)",
        r.final_recon_loss
    );

    println!("\nTMQ channel of a test frame ('#' ground truth, '+' predicted):\n");
    println!("{}", r.rendering);
}
