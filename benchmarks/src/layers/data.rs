//! `scidl-data`: minibatch gather, event generation and the dataset file
//! reader.

use super::median_secs;
use crate::catalogue::Better::{Higher, Lower};
use crate::host;
use crate::report::{Metric, Outcome};
use crate::workloads::{climate_train, hep_train};
use scidl_data::climate::{ClimateConfig, ClimateDataset};
use scidl_data::io::{write_dataset, DatasetReader};
use scidl_data::{HepConfig, HepDataset};
use std::hint::black_box;

/// `(name, unit, better)` of every metric this section reports.
pub const NAMES: &[super::Def] = &[
    ("data.hep.gather_us_per_image", "us", Lower),
    ("data.climate.gather_us_per_image", "us", Lower),
    ("data.hep.generate_ms_per_image", "ms", Lower),
    ("data.io.read_mbytes_per_s", "MB/s", Higher),
];

const EVENTS: usize = 64;

pub fn run(out: &mut Outcome, seed: u64) {
    let cfg = HepConfig {
        image_size: hep_train::IMAGE,
        ..HepConfig::paper()
    };
    let gen = median_secs(0, 3, || {
        black_box(HepDataset::generate(cfg, EVENTS, seed));
    });
    out.push(Metric::value(
        "data.hep.generate_ms_per_image",
        "ms",
        gen * 1e3 / EVENTS as f64,
    ));

    let ds = HepDataset::generate(cfg, EVENTS, seed);
    let rank_batch = hep_train::BATCH / hep_train::RANKS;
    let idx: Vec<usize> = (0..rank_batch).map(|i| (i * 7) % EVENTS).collect();
    let g = median_secs(2, 51, || {
        black_box(ds.gather(&idx));
    });
    out.push(Metric::value(
        "data.hep.gather_us_per_image",
        "us",
        g * 1e6 / rank_batch as f64,
    ));

    let cds = ClimateDataset::generate(
        ClimateConfig {
            labelled_fraction: 0.7,
            ..ClimateConfig::small()
        },
        EVENTS,
        seed,
    );
    let idx: Vec<usize> = (0..climate_train::BATCH)
        .map(|i| (i * 7) % EVENTS)
        .collect();
    let g = median_secs(2, 51, || {
        black_box(cds.gather(&idx));
    });
    out.push(Metric::value(
        "data.climate.gather_us_per_image",
        "us",
        g * 1e6 / climate_train::BATCH as f64,
    ));

    // `write_dataset` → `DatasetReader::read_batch` through a file under
    // benchmarks/out/ (page cache, not disk: the file was just written).
    let path = host::out_dir().join(format!("dataset_{}.bin", std::process::id()));
    write_dataset(&path, &ds.images, &ds.labels).expect("write dataset");
    let all: Vec<u64> = (0..EVENTS as u64).collect();
    let bytes = 4.0 * ds.images.len() as f64;
    let read = median_secs(1, 5, || {
        let mut reader = DatasetReader::open(&path).expect("open dataset");
        black_box(reader.read_batch(&all).expect("read batch"));
    });
    let _ = std::fs::remove_file(&path);
    out.push(Metric::value(
        "data.io.read_mbytes_per_s",
        "MB/s",
        bytes / read / 1e6,
    ));
}
