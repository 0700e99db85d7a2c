//! Cross-crate integration: the communication layer carrying real model
//! gradients — all-reduce equivalence between algorithms, and per-layer
//! parameter servers driving a real network.

use scidl_comm::ps::UpdateFn;
use scidl_comm::{
    ring_allreduce_mean, CommWorld, Compression, ErrorFeedback, PsUpdate, RingFabric,
    SupervisedPsBank, SupervisorConfig, UpdateFactory,
};
use scidl_core::sim_engine::{SimEngine, SimEngineConfig, SolverKind};
use scidl_core::thread_engine::{ThreadEngine, ThreadEngineConfig};
use scidl_core::workloads::hep_workload;
use scidl_data::{HepConfig, HepDataset};
use scidl_nn::network::Model;
use scidl_nn::{Sgd, Solver};
use scidl_tensor::TensorRng;
use std::sync::Arc;
use std::thread;

/// Ring and tree all-reduce agree on real gradient buffers.
#[test]
fn ring_and_tree_allreduce_agree_on_real_gradients() {
    let n = 4;
    let ds = Arc::new(HepDataset::generate(HepConfig::small(), 4 * n, 31));

    // Compute per-rank gradients.
    let grads: Vec<Vec<f32>> = (0..n)
        .map(|r| {
            let mut rng = TensorRng::new(7);
            let mut model = scidl_nn::arch::hep_small(&mut rng);
            let idx: Vec<usize> = (r * 4..(r + 1) * 4).collect();
            scidl_core::task::hep_gradient(&mut model, &ds, &idx).1
        })
        .collect();

    // Tree.
    let comms = CommWorld::new(n);
    let tree_handles: Vec<_> = comms
        .into_iter()
        .zip(grads.clone())
        .map(|(c, mut g)| {
            thread::spawn(move || {
                c.allreduce_mean(&mut g);
                g
            })
        })
        .collect();
    let tree: Vec<Vec<f32>> = tree_handles
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();

    // Ring.
    let endpoints = RingFabric::new(n).into_endpoints();
    let ring_handles: Vec<_> = endpoints
        .into_iter()
        .enumerate()
        .zip(grads)
        .map(|((rank, (tx, rx)), mut g)| {
            thread::spawn(move || {
                ring_allreduce_mean(rank, n, &mut g, &tx, &rx).unwrap();
                g
            })
        })
        .collect();
    let ring: Vec<Vec<f32>> = ring_handles
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();

    for (t, r) in tree[0].iter().zip(&ring[0]) {
        assert!((t - r).abs() < 1e-5, "{t} vs {r}");
    }
    // All ranks hold identical results.
    for rank in 1..n {
        assert_eq!(tree[0], tree[rank]);
    }
}

/// One supervised shard per parameter block of `model`, each running
/// plain SGD at `lr`.
fn sgd_bank(model: &dyn Model, lr: f32) -> SupervisedPsBank {
    SupervisedPsBank::spawn(
        model
            .param_blocks()
            .iter()
            .map(|b| {
                let factory: UpdateFactory = Box::new(move || {
                    let mut solver = Sgd::new(lr, 0.0);
                    Box::new(move |p: &mut [f32], g: &[f32]| solver.step_block(0, p, g)) as UpdateFn
                });
                (b.value.data().to_vec(), factory)
            })
            .collect(),
        SupervisorConfig::default(),
    )
}

/// A per-layer PS bank can drive a real network block-by-block and
/// produces the same update as a local solver step.
#[test]
fn ps_bank_matches_local_solver_on_real_model() {
    let mut rng = TensorRng::new(77);
    let mut model = scidl_nn::arch::hep_small(&mut rng);
    let ds = HepDataset::generate(HepConfig::small(), 8, 55);
    let idx: Vec<usize> = (0..8).collect();
    let (_, grads) = scidl_core::task::hep_gradient(&mut model, &ds, &idx);

    let lr = 0.01f32;
    let block_sizes: Vec<usize> = model.param_blocks().iter().map(|b| b.len()).collect();

    // Local update.
    let mut local = model.flat_params();
    {
        let mut solver = Sgd::new(lr, 0.0);
        let mut off = 0;
        for (i, &len) in block_sizes.iter().enumerate() {
            solver.step_block(i, &mut local[off..off + len], &grads[off..off + len]);
            off += len;
        }
    }

    // PS bank update.
    let bank = sgd_bank(&model, lr);
    let mut blocks = Vec::new();
    let mut off = 0;
    for &len in &block_sizes {
        blocks.push(grads[off..off + len].to_vec());
        off += len;
    }
    let replies = bank.update_all(&blocks).unwrap();
    let remote: Vec<f32> = replies.into_iter().flat_map(|r| r.params).collect();

    assert_eq!(local.len(), remote.len());
    for (a, b) in local.iter().zip(&remote) {
        assert!((a - b).abs() < 1e-7);
    }
}

/// Differential battery, PS leg (Sec. VIII-B): a real model trained
/// through the per-layer PS bank with error-feedback compression on the
/// update leg. The identity codec (density-1.0 top-k) must reproduce the
/// dense trajectory **bit-identically**; lossy int8 must stay convergent
/// (close to the dense trajectory, losses finite).
#[test]
fn compressed_ps_exchange_identity_exact_lossy_convergent() {
    let run = |policy: Option<Compression>| -> Vec<f32> {
        let mut rng = TensorRng::new(77);
        let mut model = scidl_nn::arch::hep_small(&mut rng);
        let ds = HepDataset::generate(HepConfig::small(), 32, 55);
        let lr = 0.01f32;
        let block_sizes: Vec<usize> = model.param_blocks().iter().map(|b| b.len()).collect();
        let bank = sgd_bank(&model, lr);
        let mut efs: Vec<ErrorFeedback> = block_sizes
            .iter()
            .map(|_| ErrorFeedback::new(policy.unwrap_or(Compression::None)))
            .collect();
        for round in 0..6 {
            let idx: Vec<usize> = (round * 4..(round + 1) * 4).map(|i| i % 32).collect();
            let (_, grads) = scidl_core::task::hep_gradient(&mut model, &ds, &idx);
            let replies = match policy {
                None => {
                    // Dense reference path: raw blocks to the PS.
                    let mut blocks = Vec::new();
                    let mut off = 0;
                    for &len in &block_sizes {
                        blocks.push(grads[off..off + len].to_vec());
                        off += len;
                    }
                    bank.update_all(&blocks).unwrap()
                }
                Some(_) => {
                    let mut msgs: Vec<PsUpdate> = Vec::new();
                    let mut off = 0;
                    for (b, &len) in block_sizes.iter().enumerate() {
                        let mut block = grads[off..off + len].to_vec();
                        msgs.push(efs[b].encode(&mut block).into());
                        off += len;
                    }
                    bank.update_all(&msgs).unwrap()
                }
            };
            let fresh: Vec<f32> = replies.into_iter().flat_map(|r| r.params).collect();
            model.set_flat_params(&fresh);
        }
        model.flat_params()
    };

    let dense = run(None);
    let identity = run(Some(Compression::TopK { density: 1.0 }));
    assert_eq!(
        dense, identity,
        "identity codec must be bit-identical to the dense PS path"
    );

    let int8 = run(Some(Compression::Int8));
    let max_err = int8
        .iter()
        .zip(&dense)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(
        max_err.is_finite() && max_err < 1e-2,
        "int8 PS trajectory drifted by {max_err}"
    );
    assert!(max_err > 0.0, "int8 should actually quantise something");
}

/// Differential battery, engine level: identity compression is
/// bit-identical to the uncompressed run on the thread engine (real
/// ranks, real all-reduce + PS legs) and on the sim engine; lossy
/// settings stay convergent on both.
#[test]
fn engines_identity_compression_exact_lossy_convergent() {
    // Thread engine (1 group × 2 ranks: all-reduce + PS legs both live).
    let ds = Arc::new(HepDataset::generate(HepConfig::small(), 64, 91));
    let mut tcfg = ThreadEngineConfig::new(1, 2, 8);
    tcfg.iterations = 5;
    tcfg.momentum = 0.9;
    tcfg.seed = 91;
    let dense = ThreadEngine::run(&tcfg, Arc::clone(&ds));
    tcfg.compression = Compression::TopK { density: 1.0 };
    let ident = ThreadEngine::run(&tcfg, Arc::clone(&ds));
    assert_eq!(dense.final_params, ident.final_params);
    tcfg.compression = Compression::Int8;
    let int8 = ThreadEngine::run(&tcfg, Arc::clone(&ds));
    assert_eq!(int8.updates, dense.updates);
    let max_err = int8
        .final_params
        .iter()
        .zip(&dense.final_params)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(
        max_err.is_finite() && max_err < 5e-2,
        "thread-engine int8 drifted by {max_err}"
    );
    assert!(int8.wire_bytes < dense.wire_bytes);

    // Sim engine: same differential, simulated clock.
    let sds = HepDataset::generate(HepConfig::small(), 64, 91);
    let mut scfg = SimEngineConfig::fig8(8, 1, 8, hep_workload());
    scfg.iterations = 10;
    scfg.solver = SolverKind::Sgd { momentum: 0.9 };
    scfg.seed = 91;
    let run_sim = |policy: Compression| {
        let mut cfg = scfg.clone();
        cfg.compression = policy;
        let mut rng = TensorRng::new(91);
        let mut model = scidl_nn::arch::hep_small(&mut rng);
        SimEngine::run(&cfg, &mut model, &sds)
    };
    let sdense = run_sim(Compression::None);
    let sident = run_sim(Compression::TopK { density: 1.0 });
    assert_eq!(sdense.final_params, sident.final_params);
    let stopk = run_sim(Compression::TopK { density: 0.1 });
    assert!(
        stopk.wire_bytes * 4 <= sdense.wire_bytes,
        "sim top-k 10% must cut bytes ≥4×: {} vs {}",
        stopk.wire_bytes,
        sdense.wire_bytes
    );
    assert!(stopk.curve.points.iter().all(|p| p.1.is_finite()));
}

/// Group splitting covers every rank exactly once with contiguous sizes —
/// the MLSL-extension behaviour of Sec. III-E(b).
#[test]
fn comm_world_split_partitions_ranks() {
    for (n, groups) in [(8usize, 2usize), (9, 3), (10, 4), (16, 16)] {
        let members = CommWorld::split(n, groups);
        assert_eq!(members.len(), n);
        let mut per_group = vec![0usize; groups];
        for (g, c) in &members {
            per_group[*g] += 1;
            assert!(c.size() >= 1);
        }
        assert_eq!(per_group.iter().sum::<usize>(), n);
        let max = per_group.iter().max().unwrap();
        let min = per_group.iter().min().unwrap();
        assert!(max - min <= 1, "groups should be balanced: {per_group:?}");
    }
}
