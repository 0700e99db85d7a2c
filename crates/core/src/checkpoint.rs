//! Model checkpointing.
//!
//! The paper's sustained-throughput numbers include "the overhead of
//! storing a model snapshot to disk once in 10 iterations" (Sec. VI-B3),
//! and resilience to failures (Sec. VIII-A) presumes restartability.
//! The cluster simulator charges the *time* of snapshots; this module
//! provides the real artefact: a small, self-describing binary format
//! for model parameters plus training metadata, with integrity checks —
//! no serialization dependency needed.
//!
//! Format (little-endian): magic `b"SCDL"`, version u32, iteration u64,
//! seed u64, param-count u64, raw f32 parameters, FNV-1a checksum u64 of
//! everything before it.

use scidl_nn::network::Model;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"SCDL";
const VERSION: u32 = 1;

/// A checkpoint: flat parameters plus the training cursor.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Training iteration at which the snapshot was taken.
    pub iteration: u64,
    /// The run's RNG seed (restarts must keep sampling streams).
    pub seed: u64,
    /// Flat model parameters (block order).
    pub params: Vec<f32>,
}

impl Checkpoint {
    /// Captures a model's current parameters.
    pub fn capture(model: &dyn Model, iteration: u64, seed: u64) -> Self {
        Self {
            iteration,
            seed,
            params: model.flat_params(),
        }
    }

    /// Restores the parameters into a model (shapes must match).
    pub fn restore(&self, model: &mut dyn Model) {
        model.set_flat_params(&self.params);
    }

    /// Writes the checkpoint to `path` *crash-safely*: the bytes go to a
    /// sibling temporary file which is fsynced and then atomically
    /// renamed over `path`. A crash mid-write leaves either the previous
    /// checkpoint intact or a stray `.tmp` that [`Checkpoint::load`]
    /// never sees — never a torn file at `path`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut buf = Vec::with_capacity(4 + 4 + 8 + 8 + 8 + self.params.len() * 4 + 8);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&self.iteration.to_le_bytes());
        buf.extend_from_slice(&self.seed.to_le_bytes());
        buf.extend_from_slice(&(self.params.len() as u64).to_le_bytes());
        for p in &self.params {
            buf.extend_from_slice(&p.to_le_bytes());
        }
        let sum = fnv1a(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());

        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let mut f = File::create(&tmp)?;
        f.write_all(&buf)?;
        f.sync_all()?;
        drop(f);
        match std::fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                std::fs::remove_file(&tmp).ok();
                Err(e)
            }
        }
    }

    /// Reads a checkpoint from `path`, verifying magic, version and
    /// checksum.
    pub fn load(path: &Path) -> io::Result<Self> {
        let mut buf = Vec::new();
        File::open(path)?.read_to_end(&mut buf)?;
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        if buf.len() < 4 + 4 + 8 + 8 + 8 + 8 {
            return Err(bad("checkpoint truncated"));
        }
        let (body, sum_bytes) = buf.split_at(buf.len() - 8);
        let stored = u64::from_le_bytes(sum_bytes.try_into().unwrap());
        if fnv1a(body) != stored {
            return Err(bad("checkpoint checksum mismatch"));
        }
        if &body[0..4] != MAGIC {
            return Err(bad("not a scidl checkpoint"));
        }
        let version = u32::from_le_bytes(body[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(bad("unsupported checkpoint version"));
        }
        let iteration = u64::from_le_bytes(body[8..16].try_into().unwrap());
        let seed = u64::from_le_bytes(body[16..24].try_into().unwrap());
        let count = u64::from_le_bytes(body[24..32].try_into().unwrap()) as usize;
        if body.len() != 32 + count * 4 {
            return Err(bad("checkpoint length mismatch"));
        }
        let params = body[32..]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok(Self {
            iteration,
            seed,
            params,
        })
    }
}

/// FNV-1a over a byte slice.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use scidl_nn::Solver;
    use scidl_tensor::TensorRng;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("scidl_ckpt_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let mut rng = TensorRng::new(3);
        let model = scidl_nn::arch::hep_small(&mut rng);
        let ck = Checkpoint::capture(&model, 1234, 0xBEEF);
        let path = tmp("roundtrip");
        ck.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(ck, back);
    }

    #[test]
    fn restore_overwrites_model_params() {
        let mut rng = TensorRng::new(4);
        let model_a = scidl_nn::arch::hep_small(&mut rng);
        let mut rng2 = TensorRng::new(5);
        let mut model_b = scidl_nn::arch::hep_small(&mut rng2);
        assert_ne!(model_a.flat_params(), model_b.flat_params());
        let ck = Checkpoint::capture(&model_a, 0, 0);
        ck.restore(&mut model_b);
        assert_eq!(model_a.flat_params(), model_b.flat_params());
    }

    #[test]
    fn corruption_is_detected() {
        let mut rng = TensorRng::new(6);
        let model = scidl_nn::arch::hep_small(&mut rng);
        let ck = Checkpoint::capture(&model, 7, 8);
        let path = tmp("corrupt");
        ck.save(&path).unwrap();
        // Flip one byte in the middle.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn truncation_is_detected() {
        let path = tmp("trunc");
        std::fs::write(&path, b"SCDL").unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn mid_data_truncation_fails_the_checksum() {
        // A file long enough to parse but cut mid-parameters must be
        // rejected by the checksum, not read as a shorter model.
        let mut rng = TensorRng::new(21);
        let model = scidl_nn::arch::hep_small(&mut rng);
        let ck = Checkpoint::capture(&model, 7, 8);
        let path = tmp("midtrunc");
        ck.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 100]).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("checksum"), "got: {err}");
    }

    #[test]
    fn save_replaces_atomically_and_leaves_no_tmp() {
        let mut rng = TensorRng::new(22);
        let model = scidl_nn::arch::hep_small(&mut rng);
        let path = tmp("atomic");
        Checkpoint::capture(&model, 1, 0).save(&path).unwrap();
        // Overwrite with a later snapshot; the file must parse cleanly
        // and hold the *new* cursor, with no .tmp sibling left behind.
        Checkpoint::capture(&model, 2, 0).save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.iteration, 2);
        let mut tmp_path = path.as_os_str().to_owned();
        tmp_path.push(".tmp");
        assert!(
            !std::path::Path::new(&tmp_path).exists(),
            "tmp file left behind"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tmp_write_does_not_clobber_the_previous_checkpoint() {
        // Simulate a crash between tmp-write and rename: the stray .tmp
        // must not affect loading the last good checkpoint.
        let mut rng = TensorRng::new(23);
        let model = scidl_nn::arch::hep_small(&mut rng);
        let path = tmp("torn");
        Checkpoint::capture(&model, 5, 0).save(&path).unwrap();
        let mut tmp_path = path.as_os_str().to_owned();
        tmp_path.push(".tmp");
        std::fs::write(&tmp_path, b"garbage from a crashed writer").unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.iteration, 5);
        std::fs::remove_file(&tmp_path).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut rng = TensorRng::new(9);
        let model = scidl_nn::arch::hep_small(&mut rng);
        let ck = Checkpoint::capture(&model, 1, 2);
        let path = tmp("magic");
        ck.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        // Re-stamp the checksum so only the magic is wrong.
        let body_len = bytes.len() - 8;
        let sum = super::fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("not a scidl checkpoint"));
    }

    #[test]
    fn resume_continues_training_identically() {
        use crate::sim_engine::{SimEngine, SimEngineConfig, SolverKind};
        use crate::workloads::hep_workload;
        use scidl_data::{HepConfig, HepDataset};

        // Train 4 iterations straight vs 2 + checkpoint + 2 with a fresh
        // engine resumed from the snapshot. SGD without momentum has no
        // solver state, so parameters must match exactly.
        let ds = HepDataset::generate(HepConfig::small(), 48, 77);
        let mk = |iters: usize| {
            let mut cfg = SimEngineConfig::fig8(1, 1, 8, hep_workload());
            cfg.iterations = iters;
            cfg.solver = SolverKind::Sgd { momentum: 0.0 };
            cfg.jitter = scidl_cluster::JitterModel::none();
            cfg
        };
        let mut rng = TensorRng::new(1);
        let mut straight = scidl_nn::arch::hep_small(&mut rng);
        SimEngine::run(&mk(4), &mut straight, &ds);

        let mut rng = TensorRng::new(1);
        let mut resumed = scidl_nn::arch::hep_small(&mut rng);
        // First half. The sampler draws 2 batches.
        let mut cfg_a = mk(2);
        cfg_a.seed = 0xF18;
        SimEngine::run(&cfg_a, &mut resumed, &ds);
        let path = tmp("resume");
        Checkpoint::capture(&resumed, 2, cfg_a.seed)
            .save(&path)
            .unwrap();

        // "Restart": fresh model, restore, continue with a sampler that
        // replays the stream past the first 2 batches.
        let mut rng = TensorRng::new(99);
        let mut fresh = scidl_nn::arch::hep_small(&mut rng);
        Checkpoint::load(&path).unwrap().restore(&mut fresh);
        std::fs::remove_file(&path).ok();
        // Drive the remaining 2 iterations manually with the same stream.
        let mut sampler = scidl_data::BatchSampler::for_node(ds.len(), 8, cfg_a.seed, 0, 1);
        let _ = sampler.next_batch();
        let _ = sampler.next_batch();
        let mut solver = scidl_nn::Sgd::new(1e-3, 0.0);
        let sizes: Vec<usize> = fresh.param_blocks().iter().map(|b| b.len()).collect();
        let mut flat = fresh.flat_params();
        for _ in 0..2 {
            fresh.set_flat_params(&flat);
            let idx = sampler.next_batch();
            let (_, grad) = crate::task::hep_gradient(&mut fresh, &ds, &idx);
            solver.step_flat(&mut flat, &grad, &sizes);
        }
        fresh.set_flat_params(&flat);

        let a = straight.flat_params();
        let b = fresh.flat_params();
        let max_err = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_err < 1e-6,
            "resume must reproduce straight-through training: {max_err}"
        );
    }
}
