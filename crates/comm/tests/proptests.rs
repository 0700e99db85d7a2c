//! Property-based tests for the communication layer: collective
//! correctness over arbitrary rank counts, buffer lengths and contents.

use proptest::prelude::*;
use scidl_comm::ps::UpdateFn;
use scidl_comm::{
    bucketed_allreduce_mean, bucketed_allreduce_mean_compressed, ring_allreduce_mean, BucketPlan,
    BucketSink, CommWorld, CompressedGrad, Compression, ErrorFeedback, OverlapContext, PsServer,
    RingFabric, RingScratch,
};
use std::thread;

/// The lossy policy palette the error-feedback battery sweeps.
const LOSSY: [Compression; 5] = [
    Compression::TopK { density: 0.01 },
    Compression::TopK { density: 0.1 },
    Compression::TopK { density: 1.0 },
    Compression::Int8,
    Compression::Int16,
];

fn expected_mean(contribs: &[Vec<f32>]) -> Vec<f32> {
    let n = contribs.len();
    let len = contribs[0].len();
    (0..len)
        .map(|i| contribs.iter().map(|c| c[i]).sum::<f32>() / n as f32)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tree all-reduce computes the exact mean for arbitrary inputs and
    /// every rank observes the same result.
    #[test]
    fn tree_allreduce_mean_correct(
        n in 1usize..7,
        len in 1usize..40,
        seed in any::<u64>(),
    ) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) as i32 % 1000) as f32 / 100.0
        };
        let contribs: Vec<Vec<f32>> = (0..n).map(|_| (0..len).map(|_| next()).collect()).collect();
        let want = expected_mean(&contribs);

        let comms = CommWorld::new(n);
        let handles: Vec<_> = comms
            .into_iter()
            .zip(contribs)
            .map(|(c, mut data)| {
                thread::spawn(move || {
                    c.allreduce_mean(&mut data);
                    data
                })
            })
            .collect();
        let results: Vec<Vec<f32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results {
            for (a, b) in r.iter().zip(&want) {
                prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
            }
        }
    }

    /// Ring all-reduce agrees with the mean for arbitrary n/len,
    /// including len < n (empty chunks).
    #[test]
    fn ring_allreduce_mean_correct(
        n in 1usize..7,
        len in 1usize..40,
        seed in any::<u64>(),
    ) {
        let mut s = seed ^ 0xDEAD;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) as i32 % 1000) as f32 / 100.0
        };
        let contribs: Vec<Vec<f32>> = (0..n).map(|_| (0..len).map(|_| next()).collect()).collect();
        let want = expected_mean(&contribs);

        let endpoints = RingFabric::new(n).into_endpoints();
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .zip(contribs)
            .map(|((rank, (tx, rx)), mut data)| {
                thread::spawn(move || {
                    ring_allreduce_mean(rank, n, &mut data, &tx, &rx).unwrap();
                    data
                })
            })
            .collect();
        let results: Vec<Vec<f32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results {
            for (a, b) in r.iter().zip(&want) {
                prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
            }
        }
    }

    /// The PS applies every update exactly once: after `k` concurrent
    /// decrement-updates of −1 each, the parameter equals `k` and the
    /// version equals `k`.
    #[test]
    fn ps_applies_every_update(threads in 1usize..6, per in 1usize..20) {
        let ps = PsServer::spawn(
            vec![0.0f32],
            Box::new(|p: &mut [f32], g: &[f32]| p[0] -= g[0]) as UpdateFn,
        );
        let ps = std::sync::Arc::new(ps);
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let ps = std::sync::Arc::clone(&ps);
                thread::spawn(move || {
                    for _ in 0..per {
                        ps.update(vec![-1.0]).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let f = ps.fetch().unwrap();
        prop_assert_eq!(f.version, (threads * per) as u64);
        prop_assert_eq!(f.params[0], (threads * per) as f32);
    }

    /// A supervised PS conserves the update count across an injected
    /// crash at an arbitrary point: with a single client retrying
    /// through the supervisor, every update lands exactly once, so the
    /// recovered parameter equals the number of updates sent.
    #[test]
    fn supervised_ps_conserves_updates_across_crashes(
        total in 5u64..40,
        crash_after in 1u64..20,
    ) {
        use scidl_comm::{SupervisedPs, SupervisorConfig, UpdateFactory};
        let make: UpdateFactory =
            Box::new(|| Box::new(|p: &mut [f32], g: &[f32]| p[0] -= g[0]) as UpdateFn);
        let cfg = SupervisorConfig { inject_crash_after: Some(crash_after) };
        let ps = SupervisedPs::spawn(vec![0.0f32], make, cfg);
        let mut last = 0.0f32;
        for _ in 0..total {
            last = ps.update(vec![-1.0]).unwrap().params[0];
        }
        prop_assert_eq!(last, total as f32);
        let f = ps.fetch().unwrap();
        prop_assert_eq!(f.params[0], total as f32);
        if crash_after < total {
            prop_assert!(ps.respawns() >= 1);
        }
    }

    /// Differential battery for the overlap tentpole: the overlapped
    /// bucketed all-reduce (dedicated comm thread, blocks pushed in
    /// backward-readiness order) is **bit-identical** to the sequential
    /// bucketed baseline on every rank, for arbitrary seeded block
    /// shapes, rank counts 1/2/4 and bucket size targets.
    #[test]
    fn overlapped_bucketed_reduce_is_bit_identical_to_sequential(
        n_pick in 0usize..3,
        sizes in proptest::collection::vec(1usize..60, 1..8),
        target_bytes in 0usize..300,
        seed in any::<u64>(),
    ) {
        let n = [1usize, 2, 4][n_pick];
        let plan = BucketPlan::new(&sizes, target_bytes);
        let total = plan.total_len();
        let grad = |rank: usize| -> Vec<f32> {
            let mut s = seed ^ ((rank as u64) << 32) ^ 0xB0C7;
            (0..total)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((s >> 33) as i32 % 1000) as f32 / 64.0
                })
                .collect()
        };

        // Overlapped: comm thread per rank, blocks pushed deepest-first.
        let endpoints = RingFabric::new(n).into_endpoints();
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, ep)| {
                let plan = plan.clone();
                let flat = grad(rank);
                thread::spawn(move || {
                    let mut ctx = OverlapContext::spawn(rank, n, ep, Compression::None);
                    let mut stream = ctx.stream(&plan);
                    for b in (0..plan.num_blocks()).rev() {
                        let (lo, hi) = plan.block_flat_range(b);
                        stream.push_block(b, &flat[lo..hi]);
                    }
                    let mut out = vec![0.0f32; total];
                    stream.finish(&mut [&mut out]).unwrap();
                    out
                })
            })
            .collect();
        let overlapped: Vec<Vec<f32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        // Sequential baseline: same plan, buckets reduced one by one.
        let endpoints = RingFabric::new(n).into_endpoints();
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, (tx, rx))| {
                let plan = plan.clone();
                let mut data = grad(rank);
                thread::spawn(move || {
                    let mut scratch = RingScratch::new();
                    bucketed_allreduce_mean(&plan, rank, n, &mut data, &mut scratch, &tx, &rx)
                        .unwrap();
                    data
                })
            })
            .collect();
        let sequential: Vec<Vec<f32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        let contribs: Vec<Vec<f32>> = (0..n).map(grad).collect();
        let want = expected_mean(&contribs);
        for rank in 0..n {
            // Bit identity with the sequential schedule...
            prop_assert_eq!(&overlapped[rank], &sequential[rank], "rank {} diverged", rank);
            // ...agreement across ranks...
            prop_assert_eq!(&overlapped[rank], &overlapped[0]);
            // ...and numerical correctness of the mean itself.
            for (a, b) in overlapped[rank].iter().zip(&want) {
                prop_assert!((a - b).abs() < 1e-3, "{} vs {}", a, b);
            }
        }
    }

    /// Error feedback is **exact** every round, for arbitrary gradients
    /// and every policy: with `compensated = data + residual_before`
    /// (the same f32 adds the implementation performs),
    /// `sent + residual_after == compensated` element-wise, and the
    /// message's decompression equals the sent values exactly.
    #[test]
    fn error_feedback_exact_for_arbitrary_gradients(
        policy_pick in 0usize..5,
        len in 1usize..80,
        rounds in 1usize..6,
        seed in any::<u64>(),
    ) {
        let policy = LOSSY[policy_pick];
        let mut ef = ErrorFeedback::new(policy);
        let mut s = seed ^ 0xEF;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) as i32 % 2000) as f32 / 121.0
        };
        for _ in 0..rounds {
            let grad: Vec<f32> = (0..len).map(|_| next()).collect();
            let mut residual_before = ef.residual().to_vec();
            residual_before.resize(len, 0.0);
            let compensated: Vec<f32> =
                grad.iter().zip(&residual_before).map(|(g, r)| g + r).collect();

            let mut sent = grad.clone();
            let msg = ef.encode(&mut sent);
            // Identity fast paths legitimately leave the residual empty.
            let mut residual_after = ef.residual().to_vec();
            residual_after.resize(len, 0.0);
            for i in 0..len {
                prop_assert_eq!(
                    sent[i] + residual_after[i],
                    compensated[i],
                    "round not exact at {} under {}",
                    i,
                    policy.label()
                );
            }
            let mut decoded = vec![0.0f32; len];
            msg.decompress_into(&mut decoded);
            prop_assert_eq!(&decoded, &sent);
            prop_assert_eq!(msg.wire_bytes(), policy.wire_bytes(len));
        }
    }

    /// The residual never diverges: every round it obeys the policy's
    /// analytic bound — for top-k it is a sub-vector of the compensated
    /// gradient (‖r‖₂ ≤ ‖compensated‖₂); for int8/int16 each element is
    /// within half a quantisation step (‖r‖₂ ≤ √len·scale/2).
    #[test]
    fn residual_norm_bounded_every_round(
        policy_pick in 0usize..5,
        len in 1usize..60,
        seed in any::<u64>(),
    ) {
        let policy = LOSSY[policy_pick];
        let qmax = match policy {
            Compression::Int8 => Some(127.0f64),
            Compression::Int16 => Some(32767.0f64),
            _ => None,
        };
        let mut ef = ErrorFeedback::new(policy);
        let mut s = seed ^ 0xB0;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) as i32 % 2000) as f32 / 250.0
        };
        for _ in 0..12 {
            let mut data: Vec<f32> = (0..len).map(|_| next()).collect();
            let mut residual_before = ef.residual().to_vec();
            residual_before.resize(len, 0.0);
            let compensated: Vec<f32> =
                data.iter().zip(&residual_before).map(|(g, r)| g + r).collect();
            ef.apply(&mut data);
            let norm = ef.residual_norm();
            prop_assert!(norm.is_finite());
            let bound = match qmax {
                Some(q) => {
                    let max = compensated.iter().fold(0.0f64, |m, &x| m.max(x.abs() as f64));
                    (len as f64).sqrt() * (max / q) * 0.5 + 1e-9
                }
                None => {
                    compensated.iter().map(|&x| x as f64 * x as f64).sum::<f64>().sqrt() + 1e-9
                }
            };
            prop_assert!(
                norm <= bound,
                "residual {} exceeds bound {} under {}",
                norm,
                bound,
                policy.label()
            );
        }
    }

    /// Identity settings — the `none` policy and density-1.0 top-k — are
    /// **bit-identical** to the uncompressed path on arbitrary inputs
    /// (zeros, negatives, denormals included) with a zero residual.
    #[test]
    fn identity_settings_are_bit_identical(
        use_topk in any::<bool>(),
        data in proptest::collection::vec(-100.0f32..100.0, 1..60),
    ) {
        let policy =
            if use_topk { Compression::TopK { density: 1.0 } } else { Compression::None };
        let mut ef = ErrorFeedback::new(policy);
        for _ in 0..3 {
            let mut sent = data.clone();
            let msg = ef.encode(&mut sent);
            for (a, b) in sent.iter().zip(&data) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            let mut decoded = vec![0.0f32; data.len()];
            msg.decompress_into(&mut decoded);
            for (a, b) in decoded.iter().zip(&data) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            prop_assert_eq!(ef.residual_norm(), 0.0);
        }
    }

    /// A non-finite gradient poisons the stream for every policy: the
    /// message decodes to all-NaN and the residual is frozen, never
    /// silently laundered into finite values.
    #[test]
    fn nonfinite_gradients_poison_never_launder(
        policy_pick in 0usize..5,
        len in 2usize..40,
        bad_at in any::<usize>(),
    ) {
        let policy = LOSSY[policy_pick];
        let mut ef = ErrorFeedback::new(policy);
        // One clean round to build up residual state.
        let mut warm: Vec<f32> = (0..len).map(|i| (i as f32 - 3.0) * 0.25).collect();
        ef.apply(&mut warm);
        let residual_before = ef.residual().to_vec();

        let mut data: Vec<f32> = (0..len).map(|i| i as f32 * 0.5).collect();
        data[bad_at % len] = f32::NAN;
        let msg = ef.encode(&mut data);
        prop_assert!(data.iter().all(|x| x.is_nan()), "sent must be poisoned");
        prop_assert!(matches!(msg, CompressedGrad::Poisoned { .. }));
        let mut decoded = vec![0.0f32; len];
        msg.decompress_into(&mut decoded);
        prop_assert!(decoded.iter().all(|x| x.is_nan()), "receiver must see NaN");
        prop_assert_eq!(ef.residual().to_vec(), residual_before, "residual must freeze");
    }

    /// The compressed overlapped bucket path (per-bucket error feedback
    /// on the comm thread) is bit-identical to the sequential compressed
    /// baseline — same outputs, same wire bytes — for arbitrary block
    /// shapes, policies and rank counts.
    #[test]
    fn compressed_overlap_is_bit_identical_to_sequential(
        policy_pick in 0usize..5,
        n_pick in 0usize..3,
        sizes in proptest::collection::vec(1usize..40, 1..6),
        target_bytes in 0usize..200,
        seed in any::<u64>(),
    ) {
        let policy = LOSSY[policy_pick];
        let n = [1usize, 2, 4][n_pick];
        let plan = BucketPlan::new(&sizes, target_bytes);
        let total = plan.total_len();
        let grad = |rank: usize| -> Vec<f32> {
            let mut s = seed ^ ((rank as u64) << 32) ^ 0xC0DE;
            (0..total)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((s >> 33) as i32 % 1000) as f32 / 64.0
                })
                .collect()
        };

        let endpoints = RingFabric::new(n).into_endpoints();
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, ep)| {
                let plan = plan.clone();
                let flat = grad(rank);
                thread::spawn(move || {
                    let mut ctx = OverlapContext::spawn(rank, n, ep, policy);
                    let mut stream = ctx.stream(&plan);
                    for b in (0..plan.num_blocks()).rev() {
                        let (lo, hi) = plan.block_flat_range(b);
                        stream.push_block(b, &flat[lo..hi]);
                    }
                    let mut out = vec![0.0f32; total];
                    let bytes = stream.finish(&mut [&mut out]).unwrap();
                    (out, bytes)
                })
            })
            .collect();
        let overlapped: Vec<(Vec<f32>, usize)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();

        let endpoints = RingFabric::new(n).into_endpoints();
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, (tx, rx))| {
                let plan = plan.clone();
                let mut data = grad(rank);
                thread::spawn(move || {
                    let mut scratch = RingScratch::new();
                    let mut efs: Vec<ErrorFeedback> = Vec::new();
                    let bytes = bucketed_allreduce_mean_compressed(
                        &plan, rank, n, &mut data, policy, &mut efs, &mut scratch, &tx, &rx,
                    )
                    .unwrap();
                    (data, bytes)
                })
            })
            .collect();
        let sequential: Vec<(Vec<f32>, usize)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();

        for rank in 0..n {
            prop_assert_eq!(&overlapped[rank], &sequential[rank], "rank {} diverged", rank);
            prop_assert_eq!(&overlapped[rank].0, &overlapped[0].0);
        }
    }

    /// Broadcast delivers the root's data to every rank for any root.
    #[test]
    fn broadcast_from_any_root(n in 1usize..6, root_pick in any::<usize>(), len in 1usize..20) {
        let root = root_pick % n;
        let comms = CommWorld::new(n);
        let handles: Vec<_> = comms
            .into_iter()
            .enumerate()
            .map(|(rank, c)| {
                thread::spawn(move || {
                    let mut data = if rank == root {
                        (0..len).map(|i| (i * 3 + 1) as f32).collect::<Vec<_>>()
                    } else {
                        vec![0.0; len]
                    };
                    c.broadcast(root, &mut data);
                    data
                })
            })
            .collect();
        let want: Vec<f32> = (0..len).map(|i| (i * 3 + 1) as f32).collect();
        for h in handles {
            prop_assert_eq!(h.join().unwrap(), want.clone());
        }
    }
}
