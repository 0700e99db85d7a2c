//! Shared by the three `ThreadEngine` workloads: the repetition loop, the
//! metrics and checks every training workload reports, and the traced
//! replay of one step from outside the engine.

use crate::report::{Metric, Outcome};
use crate::span::{self, Layer};
use crate::stats::median;
use scidl_comm::supervisor::{SupervisedPsBank, SupervisorConfig, UpdateFactory};
use scidl_comm::{ring_allreduce_mean, PsReply, RingFabric};
use scidl_core::thread_engine::{ThreadEngineConfig, ThreadRunSummary};
use scidl_nn::network::Model;
use scidl_nn::Solver;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One timed `ThreadEngine::run_with` call.
pub struct Rep {
    pub wall_s: f64,
    /// The run's summary with `final_params` taken out: holding every
    /// repetition's parameters would make the memory high-water mark
    /// depend on how many repetitions fit into the measured seconds.
    pub run: ThreadRunSummary,
    /// [`bits_hash`] of the parameters the run ended on.
    pub params_hash: u64,
}

/// Repeats a fixed-size engine run for about `seconds`
/// ([`crate::workloads::repeat_for`]).
pub fn rep_loop(seconds: f64, mut one: impl FnMut() -> ThreadRunSummary) -> Vec<Rep> {
    crate::workloads::repeat_for(seconds, |_| {
        let t = Instant::now();
        let mut run = one();
        let wall_s = t.elapsed().as_secs_f64();
        let params_hash = bits_hash(&std::mem::take(&mut run.final_params));
        Rep {
            wall_s,
            run,
            params_hash,
        }
    })
}

/// FNV-1a over the bit patterns: equal only for bit-identical vectors.
pub fn bits_hash(v: &[f32]) -> u64 {
    v.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
        (h ^ x.to_bits() as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Milliseconds between consecutive loss-curve points of one run.
pub fn curve_gaps_ms(run: &ThreadRunSummary) -> Vec<f64> {
    run.curve
        .points
        .windows(2)
        .map(|w| (w[1].0 - w[0].0) * 1e3)
        .collect()
}

/// `images_per_s`, `iter_ms_p50`, `wire_bytes` and the checks common to
/// every training workload (finite losses, updates applied, exact wire
/// bytes). `iter_ms` are the per-iteration samples the caller chose.
pub fn report_common(
    out: &mut Outcome,
    cfg: &ThreadEngineConfig,
    reps: &[Rep],
    iter_ms: &[f64],
    expect_wire_bytes: u64,
) {
    let want_updates = (cfg.groups * cfg.iterations) as u64;
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| r.run.updates as f64 * cfg.batch_per_group as f64 / r.wall_s)
        .collect();
    out.push(Metric::median_of("images_per_s", "1/s", &rates));
    out.push(Metric::median_of("iter_ms_p50", "ms", iter_ms));
    out.push(Metric::value(
        "wire_bytes",
        "B",
        reps[0].run.wire_bytes as f64,
    ));

    let applied: u64 = reps.iter().map(|r| r.run.updates).sum();
    let requested = want_updates * reps.len() as u64;
    out.ops(requested, requested - applied.min(requested));
    out.check(
        "updates_applied",
        reps.iter().all(|r| r.run.updates == want_updates),
        format!("{applied} of {requested} over {} runs", reps.len()),
    );
    let finite = reps
        .iter()
        .all(|r| r.run.curve.points.iter().all(|p| p.1.is_finite()));
    out.check("losses_finite", finite, "every loss-curve point is finite");
    let wire: Vec<u64> = reps.iter().map(|r| r.run.wire_bytes).collect();
    out.check(
        "wire_bytes_exact",
        wire.iter().all(|&w| w == expect_wire_bytes),
        format!("{} B per run, stored {expect_wire_bytes} B", wire[0]),
    );
}

/// Single-group runs are deterministic: every repetition ends on the same
/// loss and parameters, and on the reference seed the loss equals the
/// stored constant to 1e-4 relative.
pub fn check_deterministic(out: &mut Outcome, reps: &[Rep], seed: u64, reference: (u64, f32)) {
    let finals: Vec<f32> = reps
        .iter()
        .map(|r| r.run.curve.final_loss().unwrap_or(f32::NAN))
        .collect();
    let hashes: Vec<u64> = reps.iter().map(|r| r.params_hash).collect();
    out.check(
        "runs_bit_identical",
        finals.iter().all(|l| l.to_bits() == finals[0].to_bits())
            && hashes.iter().all(|h| *h == hashes[0]),
        format!(
            "final loss {:?}, params hash {:016x}, {} runs",
            finals[0],
            hashes[0],
            reps.len()
        ),
    );
    out.push(Metric::value("final_loss", "loss", finals[0] as f64));
    let (ref_seed, ref_loss) = reference;
    if seed == ref_seed {
        let rel = ((finals[0] - ref_loss) / ref_loss).abs();
        out.check(
            "final_loss_reference",
            rel <= 1e-4,
            format!(
                "{:?} vs stored {ref_loss:?} on seed {ref_seed} (rel {rel:.2e})",
                finals[0]
            ),
        );
    }
}

/// What [`replay_steps`] needs to know about a training workload.
pub struct Replay<'a, M: Model> {
    pub model: &'a mut M,
    /// Ranks in the group (the ring is run by this many threads).
    pub ranks: usize,
    pub adam: bool,
    pub lr: f32,
    pub momentum: f32,
}

/// Milliseconds each part of one replayed step took.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepParts {
    pub data_ms: f64,
    pub compute_ms: f64,
    pub comm_ms: f64,
    pub ps_ms: f64,
}

impl StepParts {
    pub fn total_ms(&self) -> f64 {
        self.data_ms + self.compute_ms + self.comm_ms + self.ps_ms
    }
}

/// Replays training steps from outside the engine, one span per call
/// into a layer: gather → forward/backward → flat_grads → ring
/// all-reduce over `ranks` threads → PS update → fetch → set params.
/// `gather` and `fwd_bwd` are the workload's own data and model calls
/// (they open their own `data`/`nn` spans). Returns per-part medians over
/// `steps` steps after one warm-up step.
pub fn replay_steps<M: Model, B>(
    r: Replay<'_, M>,
    steps: usize,
    mut gather: impl FnMut(usize) -> B,
    mut fwd_bwd: impl FnMut(&mut M, B),
) -> StepParts {
    let blocks: Vec<Vec<f32>> = r
        .model
        .param_blocks()
        .iter()
        .map(|b| b.value.data().to_vec())
        .collect();
    // The solver runs on the PS threads; its spans hang under the
    // exchange span that is open on the replaying thread.
    let exchange = Arc::new(AtomicU32::new(0));
    let (adam, lr, momentum) = (r.adam, r.lr, r.momentum);
    let bank = SupervisedPsBank::spawn(
        blocks
            .into_iter()
            .map(|p| {
                let exchange = Arc::clone(&exchange);
                let factory: UpdateFactory = Box::new(move || {
                    let exchange = Arc::clone(&exchange);
                    let mut solver: Box<dyn Solver> = if adam {
                        Box::new(scidl_nn::Adam::new(lr))
                    } else {
                        Box::new(scidl_nn::Sgd::new(lr, momentum))
                    };
                    Box::new(move |p: &mut [f32], g: &[f32]| {
                        span::span_under(
                            exchange.load(Ordering::SeqCst),
                            Layer::Nn,
                            "nn.solver.step_block",
                            || solver.step_block(0, p, g),
                        );
                    })
                });
                (p, factory)
            })
            .collect(),
        SupervisorConfig::default(),
    );

    let mut parts: Vec<StepParts> = Vec::new();
    for step in 0..=steps {
        let mut p = StepParts::default();
        let t = Instant::now();
        let batch = gather(step);
        p.data_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        fwd_bwd(r.model, batch);
        let mut grads = span::span(Layer::Nn, "nn.flat_grads", || r.model.flat_grads());
        p.compute_ms = t.elapsed().as_secs_f64() * 1e3;

        // The other ranks' gradients are the harness's to provide, not
        // the ring's to pay for.
        let mut peers: Vec<Vec<f32>> = (1..r.ranks).map(|_| grads.clone()).collect();
        let t = Instant::now();
        span::span(Layer::Comm, "comm.ring_allreduce_mean", || {
            ring_over(&mut grads, &mut peers)
        });
        p.comm_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let sizes: Vec<usize> = r.model.param_blocks().iter().map(|b| b.len()).collect();
        let replies: Vec<PsReply> = span::span(Layer::Comm, "comm.ps_bank.exchange", || {
            exchange.store(span::current(), Ordering::SeqCst);
            let mut off = 0;
            let blocks: Vec<Vec<f32>> = sizes
                .iter()
                .map(|&len| {
                    off += len;
                    grads[off - len..off].to_vec()
                })
                .collect();
            bank.update_all(&blocks).expect("PS update");
            bank.fetch_all().expect("PS fetch")
        });
        let flat: Vec<f32> = replies.into_iter().flat_map(|r| r.params).collect();
        span::span(Layer::Nn, "nn.set_flat_params", || {
            r.model.set_flat_params(&flat)
        });
        p.ps_ms = t.elapsed().as_secs_f64() * 1e3;
        if step > 0 {
            parts.push(p);
        }
    }
    bank.shutdown().expect("PS bank shutdown");
    let med = |f: fn(&StepParts) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
    StepParts {
        data_ms: med(|p| p.data_ms),
        compute_ms: med(|p| p.compute_ms),
        comm_ms: med(|p| p.comm_ms),
        ps_ms: med(|p| p.ps_ms),
    }
}

/// Ring all-reduce (`RingFabric`) of `grads` with one thread per entry of
/// `peers`: rank 0 is the caller — the traffic one engine iteration puts
/// on the ring. No peers, no ring.
pub fn ring_over(grads: &mut [f32], peers: &mut [Vec<f32>]) {
    let ranks = peers.len() + 1;
    if ranks == 1 {
        return;
    }
    let mut endpoints = RingFabric::new(ranks).into_endpoints();
    let (tx0, rx0) = endpoints.remove(0);
    let parent = span::current();
    std::thread::scope(|s| {
        for (i, ((tx, rx), data)) in endpoints.into_iter().zip(peers.iter_mut()).enumerate() {
            s.spawn(move || {
                span::span_under(parent, Layer::Comm, "comm.ring.peer", || {
                    ring_allreduce_mean(i + 1, ranks, data, &tx, &rx).expect("ring peer")
                })
            });
        }
        ring_allreduce_mean(0, ranks, grads, &tx0, &rx0).expect("ring root");
    });
}

/// Share metrics `core.<w>.{compute,comm,ps,data}_share` and the engine
/// overhead (engine iteration − replayed parts) for one workload.
pub fn report_replay(out: &mut Outcome, w: &str, parts: StepParts, engine_iter_ms: f64) {
    let total = parts.total_ms();
    for (part, ms) in [
        ("compute", parts.compute_ms),
        ("comm", parts.comm_ms),
        ("ps", parts.ps_ms),
        ("data", parts.data_ms),
    ] {
        out.push(Metric::value(
            format!("core.{w}.{part}_share"),
            "share",
            ms / total,
        ));
    }
    out.push(Metric::value(
        format!("core.{w}.engine_overhead_ms"),
        "ms",
        engine_iter_ms - total,
    ));
    // Reported, not checked: a timing check on a shared host would fail
    // runs of correct code.
    let off = (engine_iter_ms - total).abs() / engine_iter_ms;
    println!(
        "  core.{w}: replayed parts sum to {total:.2} ms of the engine's {engine_iter_ms:.2} ms iteration, {:.1} % apart ({} 15 %); the remainder is core.{w}.engine_overhead_ms",
        off * 100.0,
        if off <= 0.15 { "within" } else { "OUTSIDE" }
    );
}

/// The HEP classification task with one span per call into `data`/`nn`:
/// what [`scidl_core::task::HepGradTask`] does, written out so the traced
/// run sees each layer boundary. Gradients are bit-identical to it.
pub struct SpannedHepTask {
    pub ds: Arc<scidl_data::HepDataset>,
    /// Span the engine call runs under (the workers are other threads).
    pub parent: u32,
}

impl SpannedHepTask {
    fn forward_loss(
        &self,
        model: &mut scidl_nn::Network,
        indices: &[usize],
    ) -> (f32, scidl_tensor::Tensor) {
        let up = self.parent;
        let (batch, labels) = span::span_under(up, Layer::Data, "data.hep.gather", || {
            self.ds.gather(indices)
        });
        model.zero_grads();
        let logits = span::span_under(up, Layer::Nn, "nn.forward", || model.forward(&batch));
        span::span_under(up, Layer::Nn, "nn.loss", || {
            scidl_nn::SoftmaxCrossEntropy::forward(&logits, &labels)
        })
    }
}

impl scidl_core::task::GradTask<scidl_nn::Network> for SpannedHepTask {
    fn grad(&self, model: &mut scidl_nn::Network, indices: &[usize]) -> (f32, Vec<f32>) {
        let (loss, dlogits) = self.forward_loss(model, indices);
        let up = self.parent;
        span::span_under(up, Layer::Nn, "nn.backward", || model.backward(&dlogits));
        (
            loss,
            span::span_under(up, Layer::Nn, "nn.flat_grads", || model.flat_grads()),
        )
    }

    fn grad_overlapped(
        &self,
        model: &mut scidl_nn::Network,
        indices: &[usize],
        sink: &mut dyn scidl_comm::bucket::BucketSink,
    ) -> f32 {
        let (loss, dlogits) = self.forward_loss(model, indices);
        let first_block: Vec<usize> = model
            .layers()
            .iter()
            .scan(0usize, |acc, l| {
                let first = *acc;
                *acc += l.params().len();
                Some(first)
            })
            .collect();
        span::span_under(self.parent, Layer::Nn, "nn.backward_layered", || {
            model.backward_layered(&dlogits, |li, layer| {
                span::span(Layer::Comm, "comm.bucket.push_block", || {
                    for (bi, b) in layer.params().iter().enumerate().rev() {
                        sink.push_block(first_block[li] + bi, b.grad.data());
                    }
                });
            })
        });
        loss
    }
}

/// The untraced measurement of a single-group classification workload
/// (`hep_train`, `wide_train`): repeated engine runs of `cfg` on `ds`
/// with [`scidl_core::task::HepGradTask`], the common metrics, and the
/// determinism checks against the workload's reference constants.
pub fn measure_classifier(
    ds: &Arc<scidl_data::HepDataset>,
    cfg: &ThreadEngineConfig,
    build: fn() -> scidl_nn::Network,
    (seed, seconds): (u64, f64),
    ref_wire_bytes: u64,
    ref_final_loss: (u64, f32),
) -> Outcome {
    let reps = rep_loop(seconds, || {
        let task = scidl_core::task::HepGradTask::new(Arc::clone(ds));
        scidl_core::thread_engine::ThreadEngine::run_with(cfg, ds.len(), |_| build(), task)
    });
    let gaps: Vec<f64> = reps.iter().flat_map(|r| curve_gaps_ms(&r.run)).collect();
    let mut out = Outcome::default();
    report_common(&mut out, cfg, &reps, &gaps, ref_wire_bytes);
    check_deterministic(&mut out, &reps, seed, ref_final_loss);
    out
}

/// One short engine run of `cfg` with a span around every call the task
/// makes into `data`/`nn` (and its bucket pushes); returns images/s.
pub fn traced_classifier(
    ds: &Arc<scidl_data::HepDataset>,
    cfg: &ThreadEngineConfig,
    build: fn() -> scidl_nn::Network,
) -> f64 {
    span::span(Layer::Core, "core.thread_engine.run_with", || {
        let task = SpannedHepTask {
            ds: Arc::clone(ds),
            parent: span::current(),
        };
        let t = Instant::now();
        let run =
            scidl_core::thread_engine::ThreadEngine::run_with(cfg, ds.len(), |_| build(), task);
        run.updates as f64 * cfg.batch_per_group as f64 / t.elapsed().as_secs_f64()
    })
}
