//! Binary dataset storage — the stand-in for the paper's HDF5 input
//! pipeline.
//!
//! Sec. VI-A identifies two I/O bottlenecks: "I/O throughput from a
//! single Xeon Phi core is relatively slow" and "the current HDF5
//! library is not multi-threaded". This module provides the substrate
//! that pipeline needs: a simple self-describing container for image
//! batches with per-image random access and a single-threaded reader
//! (the HDF5 analogue). The performance ledger's read-throughput row is
//! measured through [`write_dataset`] and [`DatasetReader`].
//!
//! Format (little-endian): magic `b"SDAT"`, version u32, image count
//! u64, channels u32, height u32, width u32, then `count` records of
//! `label u32 + C*H*W f32`.

use scidl_tensor::{Shape4, Tensor};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"SDAT";
const VERSION: u32 = 1;

/// Header of a dataset file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DatasetHeader {
    /// Number of images.
    pub count: u64,
    /// Channels per image.
    pub channels: u32,
    /// Image height.
    pub height: u32,
    /// Image width.
    pub width: u32,
}

impl DatasetHeader {
    /// Bytes of one record (label + pixels).
    pub fn record_bytes(&self) -> u64 {
        4 + (self.channels as u64) * (self.height as u64) * (self.width as u64) * 4
    }

    /// Flat pixel count per image.
    pub fn pixels(&self) -> usize {
        (self.channels * self.height * self.width) as usize
    }

    const HEADER_BYTES: u64 = 4 + 4 + 8 + 4 + 4 + 4;
}

/// Writes a labelled image dataset to `path`.
pub fn write_dataset(path: &Path, images: &Tensor, labels: &[usize]) -> io::Result<()> {
    let s = images.shape();
    assert_eq!(s.n, labels.len(), "label count mismatch");
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(s.n as u64).to_le_bytes())?;
    w.write_all(&(s.c as u32).to_le_bytes())?;
    w.write_all(&(s.h as u32).to_le_bytes())?;
    w.write_all(&(s.w as u32).to_le_bytes())?;
    for (i, &label) in labels.iter().enumerate() {
        w.write_all(&(label as u32).to_le_bytes())?;
        for &px in images.item(i) {
            w.write_all(&px.to_le_bytes())?;
        }
    }
    w.flush()
}

/// Single-threaded random-access reader — the analogue of the paper's
/// HDF5 path.
#[derive(Debug)]
pub struct DatasetReader {
    file: BufReader<File>,
    header: DatasetHeader,
}

impl DatasetReader {
    /// Opens a dataset file, validating the header.
    pub fn open(path: &Path) -> io::Result<Self> {
        let mut file = BufReader::new(File::open(path)?);
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let mut magic = [0u8; 4];
        file.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("not a scidl dataset"));
        }
        let mut u32buf = [0u8; 4];
        file.read_exact(&mut u32buf)?;
        if u32::from_le_bytes(u32buf) != VERSION {
            return Err(bad("unsupported dataset version"));
        }
        let mut u64buf = [0u8; 8];
        file.read_exact(&mut u64buf)?;
        let count = u64::from_le_bytes(u64buf);
        let mut dims = [0u32; 3];
        for d in dims.iter_mut() {
            file.read_exact(&mut u32buf)?;
            *d = u32::from_le_bytes(u32buf);
        }
        let header = DatasetHeader {
            count,
            channels: dims[0],
            height: dims[1],
            width: dims[2],
        };
        // Validate the file length.
        let expect = DatasetHeader::HEADER_BYTES + count * header.record_bytes();
        let actual = file.get_ref().metadata()?.len();
        if actual != expect {
            return Err(bad("dataset length mismatch"));
        }
        Ok(Self { file, header })
    }

    /// The file's header.
    pub fn header(&self) -> DatasetHeader {
        self.header
    }

    /// Reads one record by index.
    pub fn read_image(&mut self, index: u64) -> io::Result<(Vec<f32>, usize)> {
        assert!(index < self.header.count, "index out of range");
        let off = DatasetHeader::HEADER_BYTES + index * self.header.record_bytes();
        self.file.seek(SeekFrom::Start(off))?;
        let mut u32buf = [0u8; 4];
        self.file.read_exact(&mut u32buf)?;
        let label = u32::from_le_bytes(u32buf) as usize;
        let mut raw = vec![0u8; self.header.pixels() * 4];
        self.file.read_exact(&mut raw)?;
        let pixels = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok((pixels, label))
    }

    /// Reads a whole minibatch into an NCHW tensor.
    pub fn read_batch(&mut self, indices: &[u64]) -> io::Result<(Tensor, Vec<usize>)> {
        let h = self.header;
        let mut out = Tensor::zeros(Shape4::new(
            indices.len(),
            h.channels as usize,
            h.height as usize,
            h.width as usize,
        ));
        let mut labels = Vec::with_capacity(indices.len());
        for (j, &i) in indices.iter().enumerate() {
            let (pixels, label) = self.read_image(i)?;
            out.item_mut(j).copy_from_slice(&pixels);
            labels.push(label);
        }
        Ok((out, labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hep::{HepConfig, HepDataset};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("scidl_data_{name}_{}", std::process::id()));
        p
    }

    fn sample() -> HepDataset {
        HepDataset::generate(HepConfig::small(), 12, 3)
    }

    #[test]
    fn roundtrip_preserves_images_and_labels() {
        let ds = sample();
        let path = tmp("roundtrip");
        write_dataset(&path, &ds.images, &ds.labels).unwrap();
        let mut reader = DatasetReader::open(&path).unwrap();
        assert_eq!(reader.header().count, 12);
        assert_eq!(reader.header().channels, 3);
        for i in [0u64, 5, 11] {
            let (pixels, label) = reader.read_image(i).unwrap();
            assert_eq!(pixels, ds.images.item(i as usize));
            assert_eq!(label, ds.labels[i as usize]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batch_read_matches_gather() {
        let ds = sample();
        let path = tmp("batch");
        write_dataset(&path, &ds.images, &ds.labels).unwrap();
        let mut reader = DatasetReader::open(&path).unwrap();
        let (batch, labels) = reader.read_batch(&[2, 7, 4]).unwrap();
        let (want, want_labels) = ds.gather(&[2, 7, 4]);
        assert_eq!(batch.data(), want.data());
        assert_eq!(labels, want_labels);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_magic_rejected() {
        let path = tmp("magic");
        std::fs::write(&path, b"JUNKJUNKJUNKJUNKJUNKJUNKJUNK").unwrap();
        let err = DatasetReader::open(&path).unwrap_err();
        assert!(err.to_string().contains("not a scidl dataset"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_rejected() {
        let ds = sample();
        let path = tmp("trunc");
        write_dataset(&path, &ds.images, &ds.labels).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let err = DatasetReader::open(&path).unwrap_err();
        assert!(err.to_string().contains("length mismatch"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn out_of_range_read_panics() {
        let ds = sample();
        let path = tmp("range");
        write_dataset(&path, &ds.images, &ds.labels).unwrap();
        let mut reader = DatasetReader::open(&path).unwrap();
        let _ = reader.read_image(99);
    }
}
