#![warn(missing_docs)]
//! # scidl-data
//!
//! Synthetic dataset generators standing in for the paper's two scientific
//! datasets, which are not publicly reproducible:
//!
//! * [`hep`] replaces the 10M-event Pythia 8 + Delphes simulation of
//!   Sec. I-A — RPV-SUSY-like multi-jet *signal* events versus QCD
//!   multi-jet *background*, rendered as 3-channel calorimeter images
//!   (ECAL energy, HCAL energy, track counts) on a cylindrical η–φ grid,
//!   together with the high-level physics features (HT, jet multiplicity,
//!   leading-jet pT) that the paper's cut-based benchmark analysis [5]
//!   uses.
//! * [`climate`] replaces the 15TB CAM5 climate archive of Sec. I-B —
//!   16-channel atmospheric state images with embedded extreme-weather
//!   events (tropical cyclones, extra-tropical cyclones, atmospheric
//!   rivers) and ground-truth bounding boxes, with a configurable labelled
//!   fraction for semi-supervised training.
//!
//! Both generators are fully deterministic given a seed, sized by a config
//! so tests run at laptop scale while the benchmark harness reports the
//! paper-scale characteristics of Table I.

pub mod batch;
pub mod climate;
pub mod hep;
pub mod io;

pub use batch::BatchSampler;
pub use climate::{ClimateConfig, ClimateDataset, ClimateSample, GtBox};
pub use hep::{HepConfig, HepDataset, HepFeatures};

/// One row of Table I: the characteristics of a dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetStats {
    /// Dataset name as in Table I.
    pub name: &'static str,
    /// Image side in pixels (square images).
    pub pixels: usize,
    /// Channel count.
    pub channels: usize,
    /// Number of images at paper scale.
    pub images: u64,
    /// Total volume in terabytes (f32 pixels).
    pub volume_tb: f64,
}

impl DatasetStats {
    /// Computes the volume from the geometric parameters.
    pub fn computed(name: &'static str, pixels: usize, channels: usize, images: u64) -> Self {
        let bytes_per_image = (pixels * pixels * channels * 4) as f64;
        Self {
            name,
            pixels,
            channels,
            images,
            volume_tb: bytes_per_image * images as f64 / 1e12,
        }
    }
}

/// Paper-scale characteristics of the HEP dataset (Table I).
pub fn hep_stats() -> DatasetStats {
    DatasetStats::computed("HEP", 224, 3, 10_000_000)
}

/// Paper-scale characteristics of the climate dataset (Table I).
pub fn climate_stats() -> DatasetStats {
    DatasetStats::computed("Climate", 768, 16, 400_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shapes_match_paper() {
        let h = hep_stats();
        assert_eq!((h.pixels, h.channels, h.images), (224, 3, 10_000_000));
        let c = climate_stats();
        assert_eq!((c.pixels, c.channels, c.images), (768, 16, 400_000));
    }

    #[test]
    fn table1_volumes_in_paper_ballpark() {
        // Paper: HEP 7.4TB, Climate 15TB. Raw-f32 arithmetic gives 6.0TB
        // and 15.1TB; the HEP gap is storage overhead in the original
        // HDF5 files. We assert the computed volumes are in range.
        let h = hep_stats();
        assert!(
            (5.5..7.5).contains(&h.volume_tb),
            "HEP volume {}",
            h.volume_tb
        );
        let c = climate_stats();
        assert!(
            (14.0..16.0).contains(&c.volume_tb),
            "Climate volume {}",
            c.volume_tb
        );
    }
}
