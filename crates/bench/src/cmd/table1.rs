//! Regenerates **Table I** — characteristics of the datasets — from the
//! synthetic generator configurations, and validates a generated sample
//! against them.

use crate::report::{fnum, markdown_table};
use crate::Args;
use scidl_data::{climate_stats, hep_stats, ClimateConfig, ClimateDataset, HepConfig, HepDataset};

pub fn run(_: &Args) {
    println!("Table I: characteristics of datasets used\n");
    let rows: Vec<Vec<String>> = [hep_stats(), climate_stats()]
        .iter()
        .map(|s| {
            vec![
                s.name.to_string(),
                format!("{}x{}", s.pixels, s.pixels),
                s.channels.to_string(),
                format!("{}M", fnum(s.images as f64 / 1e6, 1)),
                format!("{}TB", fnum(s.volume_tb, 1)),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &["dataset", "pixels", "channels", "#images", "volume (f32)"],
            &rows
        )
    );

    println!("paper reports: HEP 228x228 / 3 ch / 10M / 7.4TB (stored HDF5)");
    println!("               Climate 768x768 / 16 ch / 0.4M / 15TB\n");

    // Generate small samples and verify their per-image geometry matches
    // the Table I configuration.
    let hep = HepDataset::generate(HepConfig::paper(), 2, 1);
    let hs = hep.images.shape();
    println!(
        "generated HEP sample: {}x{} px, {} ch, {} bytes/image",
        hs.h,
        hs.w,
        hs.c,
        hs.item_len() * 4
    );
    let climate = ClimateDataset::generate(ClimateConfig::paper(), 1, 1);
    let cs = climate.samples[0].image.shape();
    println!(
        "generated climate frame: {}x{} px, {} ch, {} bytes/image, {} labelled boxes",
        cs.h,
        cs.w,
        cs.c,
        cs.item_len() * 4,
        climate.samples[0].boxes.len()
    );
}
