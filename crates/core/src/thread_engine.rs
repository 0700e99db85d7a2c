//! Real-concurrency hybrid training: every virtual node is a thread.
//!
//! This backend exists to validate the *architecture* rather than to
//! scale: groups of worker threads run data-parallel SGD with a real
//! all-reduce (`scidl-comm`), group roots exchange per-layer updates
//! with a real parameter-server bank, and staleness arises from genuine
//! thread interleaving. A step has one gradient path whatever the
//! configuration: backward feeds a bucketed ring all-reduce on the rank's
//! comm thread, the root encodes each block through its error-feedback
//! accumulator (the identity for `Compression::None`) and fork-joins the
//! messages over the supervised PS bank (Fig. 4). With one group the
//! result is bit-identical to sequential minibatch SGD — the correctness
//! anchor the simulated-time backend builds on.
//!
//! The engine is generic over the model and task
//! ([`ThreadEngine::run_with`]); [`ThreadEngine::run`] is the HEP
//! classification instantiation.
//!
//! ## Fault injection and recovery (Sec. VIII-A)
//!
//! [`ThreadEngineConfig::faults`] takes a [`FaultPlan`]. Whether a group
//! runs, stops or is repaired before an iteration, and how stale its
//! update is, each rank asks its [`GroupLifecycle`] — the one
//! `ClusterSim`'s clock asks. A stopped group's workers return together;
//! a lost rank returns alone and its ring neighbours stop on the
//! `CommError`. A repaired group sleeps its MTTR (`mttr_iters` × its own
//! measured iteration time), re-fetches the *current* model from the PS
//! bank and rejoins ([`ThreadRunSummary::recovered_updates`]). A crashed
//! PS shard is respawned from its last snapshot by `scidl-comm`'s
//! supervisor ([`ThreadRunSummary::ps_respawns`]); stragglers and message
//! delays are real sleeps. Independently, the root of group 0 writes
//! crash-safe checkpoints ([`ThreadEngineConfig::checkpoint_every`]).

use crate::checkpoint::Checkpoint;
use crate::faults::FaultPlan;
use crate::metrics::{LossCurve, TrainTrace};
use crate::task::{GradTask, HepGradTask};
use scidl_cluster::lifecycle::{GroupLifecycle, Step};
use scidl_cluster::IterBreakdown;
use scidl_comm::bucket::{BucketPlan, BucketSink, OverlapContext};
use scidl_comm::compress::{Compression, ErrorFeedback};
use scidl_comm::ps::{PsReply, PsUpdate, UpdateFn};
use scidl_comm::supervisor::{SupervisedPsBank, SupervisorConfig, UpdateFactory};
use scidl_comm::{CommWorld, Communicator, RingEndpoint, RingFabric};
use scidl_data::{BatchSampler, HepDataset};
use scidl_nn::network::Model;
use scidl_nn::solver::SolverKind;
use scidl_tensor::{Tensor, TensorRng};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cap (exclusive) on the staleness histogram; larger values land in the
/// last bucket.
const STALENESS_BUCKETS: usize = 32;

/// Configuration of a thread-backed training run.
#[derive(Clone, Debug)]
pub struct ThreadEngineConfig {
    /// Compute groups.
    pub groups: usize,
    /// Worker threads per group.
    pub nodes_per_group: usize,
    /// Minibatch per group per update (split across the group's nodes).
    pub batch_per_group: usize,
    /// Iterations per group.
    pub iterations: usize,
    /// Learning rate of the PS solver.
    pub lr: f32,
    /// Momentum of the PS solver (ignored when `adam` is set).
    pub momentum: f32,
    /// Run ADAM at the parameter servers instead of momentum-SGD (the
    /// paper's HEP configuration, Sec. III-A).
    pub adam: bool,
    /// Overlap gradient communication with backward compute (Sec. V).
    /// Every group's gradients are bucketed ([`bucket_bytes`](Self::bucket_bytes))
    /// and ring-reduced on a dedicated per-rank comm thread either way;
    /// with the flag on, the task's layered backward ships each bucket
    /// while shallower layers still backpropagate, with it off the
    /// finished flat gradient is shipped. Updates are bit-identical; only
    /// the timing changes.
    pub overlap_comm: bool,
    /// Target gradient bucket size in bytes (blocks are coalesced in
    /// backward-readiness order up to roughly this size; `0` = one bucket
    /// per parameter block).
    pub bucket_bytes: usize,
    /// Gradient compression policy with per-rank error feedback
    /// (Sec. VIII-B): applied per bucket to the intra-group gradient
    /// all-reduce and per block to the root's PS update leg (decompressed
    /// server-side; the residual stays on the worker and survives PS
    /// failover). With a single rank per group the collective has no
    /// wire, so only the PS leg compresses. [`Compression::None`] is the
    /// identity codec on the same path, not a different one.
    pub compression: Compression,
    /// Fault-injection scenario (Sec. VIII-A): group crashes (with or
    /// without recovery), single-rank crashes, PS crashes, stragglers and
    /// message delays. `FaultPlan::none()` trains fault-free.
    pub faults: FaultPlan,
    /// Write a crash-safe checkpoint every N group-0 iterations
    /// (0 = off; requires `checkpoint_path`).
    pub checkpoint_every: usize,
    /// Where periodic checkpoints go.
    pub checkpoint_path: Option<PathBuf>,
    /// Seed for model init and data sampling.
    pub seed: u64,
}

impl ThreadEngineConfig {
    /// A small default configuration.
    pub fn new(groups: usize, nodes_per_group: usize, batch_per_group: usize) -> Self {
        Self {
            groups,
            nodes_per_group,
            batch_per_group,
            iterations: 10,
            lr: 1e-3,
            momentum: 0.0,
            adam: false,
            overlap_comm: false,
            bucket_bytes: 1 << 16,
            compression: Compression::None,
            faults: FaultPlan::none(),
            checkpoint_every: 0,
            checkpoint_path: None,
            seed: 0x7B,
        }
    }
}

/// Result of a thread-backed run.
#[derive(Debug)]
pub struct ThreadRunSummary {
    /// Group-update losses over real elapsed seconds.
    pub curve: LossCurve,
    /// Per-group curves.
    pub per_group: Vec<LossCurve>,
    /// Final flat model parameters (from the PS bank).
    pub final_params: Vec<f32>,
    /// Mean staleness observed at the PS (in updates).
    pub mean_staleness: f64,
    /// Histogram of observed staleness values (bucket `i` counts updates
    /// with staleness `i`; the last bucket aggregates the tail).
    pub staleness_histogram: Vec<u64>,
    /// Total updates applied across all groups.
    pub updates: u64,
    /// Updates contributed by groups *after* they recovered from a crash
    /// — work the recovery policy saved (0 without recovery).
    pub recovered_updates: u64,
    /// PS-shard failovers performed by the supervisor during the run.
    pub ps_respawns: u64,
    /// Crash-safe checkpoints written during the run.
    pub checkpoints_written: u64,
    /// Total gradient bytes a real network would have carried: every
    /// rank's all-reduce contributions plus each root's PS update legs,
    /// compressed sizes when a [`ThreadEngineConfig::compression`]
    /// policy is set.
    pub wire_bytes: u64,
}

/// What one worker observed. Each worker owns its log, hands it back
/// through its join handle, and the logs are merged once the run is over;
/// only group roots record anything but `wire_bytes`.
#[derive(Default)]
struct WorkerLog {
    /// `(seconds since start, group loss, staleness, after a recovery)`,
    /// one per applied update.
    updates: Vec<(f64, f32, u64, bool)>,
    checkpoints_written: u64,
    /// Gradient bytes-on-wire (all-reduce + PS legs).
    wire_bytes: u64,
}

impl WorkerLog {
    fn merge(&mut self, other: WorkerLog) {
        self.updates.extend(other.updates);
        self.checkpoints_written += other.checkpoints_written;
        self.wire_bytes += other.wire_bytes;
    }
}

/// Everything the workers of one run read and never write.
struct Run<'a, G> {
    cfg: &'a ThreadEngineConfig,
    dataset_len: usize,
    grad: &'a G,
    bank: &'a SupervisedPsBank,
    /// One bucket plan shared by all ranks (readiness order over the
    /// blocks).
    plan: &'a BucketPlan,
    /// A no-op when no sink is installed.
    trace: &'a TrainTrace,
    t0: Instant,
}

/// The thread-backed hybrid engine.
pub struct ThreadEngine;

impl ThreadEngine {
    /// Trains `hep_small` (seeded from `cfg.seed`) on `ds`. With
    /// `cfg.overlap_comm` the HEP task's layered backward overlaps each
    /// bucket's ring all-reduce with the remaining backward compute.
    pub fn run(cfg: &ThreadEngineConfig, ds: Arc<HepDataset>) -> ThreadRunSummary {
        let len = ds.len();
        Self::run_with(
            cfg,
            len,
            move |seed| {
                let mut rng = TensorRng::new(seed);
                scidl_nn::arch::hep_small(&mut rng)
            },
            HepGradTask::new(ds),
        )
    }

    /// Generic thread-backed hybrid training. `build` is called once,
    /// on the calling thread, with `cfg.seed`: the model it returns seeds
    /// the PS bank and is the one starting point of every rank, each of
    /// which clones it on its own thread; it is dropped as soon as the
    /// last rank holds its copy. `grad` computes `(loss, flat gradient)`
    /// for a batch of sample indices — a plain closure works, and a
    /// [`GradTask`] overriding `grad_overlapped` additionally supports
    /// `cfg.overlap_comm`.
    ///
    /// `build` is [`FnOnce`], so it may move what it captured into the
    /// model it returns. Such a closure is `FnOnce` only, so this example
    /// stops compiling if `run_with` ever calls `build` twice:
    ///
    /// ```
    /// use scidl_core::{task::HepGradTask, thread_engine::{ThreadEngine, ThreadEngineConfig}};
    /// use scidl_data::{HepConfig, HepDataset};
    ///
    /// let ds = std::sync::Arc::new(HepDataset::generate(HepConfig::small(), 8, 1));
    /// let model = scidl_nn::arch::hep_small(&mut scidl_tensor::TensorRng::new(1));
    /// let cfg = ThreadEngineConfig { iterations: 1, ..ThreadEngineConfig::new(1, 1, 2) };
    /// let run = ThreadEngine::run_with(&cfg, ds.len(), move |_seed| model, HepGradTask::new(ds));
    /// assert_eq!(run.updates, 1);
    /// ```
    pub fn run_with<M, B, G>(
        cfg: &ThreadEngineConfig,
        dataset_len: usize,
        build: B,
        grad: G,
    ) -> ThreadRunSummary
    where
        M: Model + Clone + Sync,
        B: FnOnce(u64) -> M,
        G: GradTask<M>,
    {
        assert!(cfg.groups >= 1 && cfg.nodes_per_group >= 1);
        assert!(
            cfg.batch_per_group >= cfg.nodes_per_group,
            "each node needs at least one image"
        );

        // The one initial model: it defines the block structure, the PS
        // bank's initial params and every rank's starting point.
        let template = build(cfg.seed);
        let block_sizes: Vec<usize> = template.param_blocks().iter().map(|b| b.len()).collect();
        let plan = BucketPlan::new(&block_sizes, cfg.bucket_bytes);
        let trace = TrainTrace::begin(
            "thread-engine",
            &template,
            plan.total_len() as u64,
            cfg.batch_per_group,
        );

        // Supervised per-layer PS bank: each shard has its own solver
        // state and is respawned from a snapshot if it dies. The factory
        // rebuilds the update rule for a respawned shard (its solver
        // state restarts fresh, like a PS process restarting from a
        // checkpoint).
        let sgd = SolverKind::Sgd {
            momentum: cfg.momentum,
        };
        let (kind, lr) = (if cfg.adam { SolverKind::Adam } else { sgd }, cfg.lr);
        let bank = SupervisedPsBank::spawn_with(
            template
                .param_blocks()
                .iter()
                .enumerate()
                .map(|(shard, b)| {
                    let factory: UpdateFactory = Box::new(move || {
                        let mut solver = kind.build(lr);
                        Box::new(move |p: &mut [f32], g: &[f32]| solver.step_block(0, p, g))
                            as UpdateFn
                    });
                    let sup = SupervisorConfig {
                        inject_crash_after: cfg
                            .faults
                            .ps_crash_for_shard(shard)
                            .map(|c| c.after_requests),
                    };
                    (b.value.data().to_vec(), factory, sup)
                })
                .collect(),
        );
        let run = Run {
            cfg,
            dataset_len,
            grad: &grad,
            bank: &bank,
            plan: &plan,
            trace: &trace,
            t0: Instant::now(),
        };
        // The ranks are the compute threads and split the CPUs this call
        // may use between them; nothing else the engine spawns fans out.
        let threads_per_rank = scidl_tensor::par::budget(cfg.groups * cfg.nodes_per_group);

        // One tree communicator (loss scalar, status word, model
        // broadcast) and one gradient ring per group.
        let mut log = WorkerLog::default();
        let mut per_group = vec![LossCurve::new(); cfg.groups];
        // Each rank holds the template until it has cloned it on its own
        // thread; the last one to let go drops it, so the run keeps no
        // copy of the model beyond the ranks' own.
        let template = Arc::new(template);
        std::thread::scope(|scope| {
            let mut workers = Vec::new();
            for g in 0..cfg.groups {
                let comms = CommWorld::new(cfg.nodes_per_group);
                let endpoints = RingFabric::new(cfg.nodes_per_group).into_endpoints();
                for (r, (comm, endpoint)) in comms.into_iter().zip(endpoints).enumerate() {
                    let (run, template) = (&run, Arc::clone(&template));
                    workers.push((
                        g,
                        scope.spawn(move || {
                            scidl_tensor::par::set_width(threads_per_rank);
                            worker(run, g, r, comm, endpoint, template)
                        }),
                    ));
                }
            }
            drop(template);
            for (g, w) in workers {
                let l = w
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                // Only the group root records updates, in update order.
                l.updates
                    .iter()
                    .for_each(|&(t, loss, ..)| per_group[g].push(t, loss));
                log.merge(l);
            }
        });

        log.updates.sort_by(|a, b| a.0.total_cmp(&b.0));
        let updates = log.updates.len() as u64;
        let mut staleness_histogram = vec![0; STALENESS_BUCKETS];
        for &(.., staleness, _) in &log.updates {
            staleness_histogram[(staleness as usize).min(STALENESS_BUCKETS - 1)] += 1;
        }

        let ps_respawns = bank.total_respawns();
        let final_params: Vec<f32> = bank
            .fetch_all()
            .expect("PS bank unreachable at shutdown")
            .into_iter()
            .flat_map(|r| r.params)
            .collect();
        ThreadRunSummary {
            curve: LossCurve {
                points: log.updates.iter().map(|&(t, loss, ..)| (t, loss)).collect(),
            },
            per_group,
            final_params,
            mean_staleness: log.updates.iter().map(|&(.., s, _)| s as f64).sum::<f64>()
                / updates.max(1) as f64,
            staleness_histogram,
            updates,
            recovered_updates: log
                .updates
                .iter()
                .filter(|&&(.., recovered)| recovered)
                .count() as u64,
            ps_respawns,
            checkpoints_written: log.checkpoints_written,
            wire_bytes: log.wire_bytes,
        }
    }
}

fn worker<M, G>(
    run: &Run<'_, G>,
    group: usize,
    rank: usize,
    comm: Communicator,
    endpoint: RingEndpoint,
    template: Arc<M>,
) -> WorkerLog
where
    M: Model + Clone + Sync,
    G: GradTask<M>,
{
    let &Run {
        cfg,
        bank,
        plan,
        trace,
        ..
    } = run;
    let tr = &trace.tr;
    let mut log = WorkerLog::default();
    // Every rank starts from a copy of the run's one initial model, made
    // on this thread: copies cloned on the spawning thread and moved in
    // ran `climate_train` slower (EXPERIMENTS.md A16). It is the rank's
    // only copy of the parameters and their gradient: PS replies and the
    // group broadcast land in its value blocks, the reduced gradient in
    // its grad blocks.
    let mut model = M::clone(&template);
    drop(template);
    // A dedicated comm thread owns this rank's ring endpoint for the
    // whole run (MLSL's endpoint proxy threads), and with it the
    // per-bucket error-feedback accumulators.
    let mut overlap = OverlapContext::spawn(rank, cfg.nodes_per_group, endpoint, cfg.compression);
    // Root's PS leg: one accumulator per parameter block, worker-local
    // so residuals survive PS failover/rejoin.
    let mut ef_ps: Vec<ErrorFeedback> = (0..plan.num_blocks())
        .map(|_| ErrorFeedback::new(cfg.compression))
        .collect();
    // A dead peer reaches this rank as a ring error, so it watches only
    // its own node; the PS bank outlives every group, so a crashed group
    // may always rejoin.
    let mut life = GroupLifecycle::new(&cfg.faults, group, rank..rank + 1, true);
    let node_id = group * cfg.nodes_per_group + rank;
    let total_nodes = cfg.groups * cfg.nodes_per_group;
    let per_node = cfg.batch_per_group / cfg.nodes_per_group;
    let mut sampler =
        BatchSampler::for_node(run.dataset_len, per_node, cfg.seed, node_id, total_nodes);

    // MTTR is expressed in iterations; convert with the group's own
    // measured pace (fallback before the first iteration completes).
    let mut last_iter_secs = 1e-3f64;

    for iter in 0..cfg.iterations {
        match life.before(iter) {
            Step::Run => {}
            // The whole group stops together, or this rank alone dies
            // (Sec. VIII-A): returning drops its comm thread and ring
            // channels, so the group's survivors hit the dead neighbour
            // mid-bucket and abort with a CommError instead of hanging.
            // Other groups keep going via the PS bank.
            Step::Stop => return log,
            Step::Repair(rec) => {
                // Sit out the repair time, then rejoin from the *current*
                // model at the PS bank — everything the other groups
                // learned meanwhile is picked up. If the bank itself is
                // unreachable, the status word stops the group together.
                std::thread::sleep(Duration::from_secs_f64(
                    rec.mttr_iters as f64 * last_iter_secs,
                ));
                let fetched = if rank == 0 {
                    bank.fetch_all().ok()
                } else {
                    None
                };
                // Only the root applies updates, so only its cursor is read.
                let cursor = fetched.as_ref().map(|replies| replies[0].version);
                if let Some(replies) = fetched {
                    load_params(&mut model, replies);
                }
                if !group_agrees(&comm, cursor.is_some()) {
                    return log;
                }
                life.rejoin(cursor.unwrap_or(0));
                broadcast_params(&comm, &mut model);
            }
        }
        let iter_start = Instant::now();
        // The iteration's record on the trace clock: each part is the lap
        // since the previous boundary, so the parts tile the iteration.
        let mut rec = IterBreakdown {
            group,
            iter,
            start: tr.now(),
            ..Default::default()
        };
        let mut mark = rec.start;
        let mut lap = || {
            let now = tr.now();
            now - std::mem::replace(&mut mark, now)
        };
        let indices = sampler.next_batch();
        // Backward hands its gradient to the bucket stream — layer by
        // layer as each becomes final, or whole once it is done — and the
        // comm thread ring-reduces every bucket as it fills.
        let mut stream = overlap.stream(plan);
        let loss = if cfg.overlap_comm {
            run.grad.grad_overlapped(&mut model, &indices, &mut stream)
        } else {
            let (loss, local) = run.grad.grad(&mut model, &indices);
            stream.push_flat(&local);
            loss
        };
        rec.compute = lap();

        // Scheduled straggler: stretch this group's compute phase by the
        // plan's factor (the all-reduce barrier spreads the slowdown to
        // the whole group, as a slow node does).
        let factor = cfg.faults.straggler_factor(group, iter);
        if factor > 1.0 {
            std::thread::sleep(iter_start.elapsed().mul_f64(factor - 1.0));
            rec.straggler = lap();
        }

        // Intra-group synchronous step: drain the reduced buckets into the
        // model's grad blocks — what is still on the ring now is the
        // exposed communication — and average the loss.
        let mut grads: Vec<&mut [f32]> = model
            .param_blocks_mut()
            .into_iter()
            .map(|b| b.grad.data_mut())
            .collect();
        let Ok(ar_bytes) = stream.finish(&mut grads) else {
            // A ring neighbour died mid-bucket: fatal for the whole
            // synchronous group (Sec. VIII-A). Return before any tree
            // collective so the group's survivors stop together instead
            // of deadlocking on a rank that will never arrive.
            return log;
        };
        let mut lbuf = [loss];
        comm.allreduce_mean(&mut lbuf);
        let group_loss = lbuf[0];
        rec.allreduce = lap();
        log.wire_bytes += ar_bytes as u64;
        if rank == 0 {
            // Numeric-health sentinel: a non-finite loss or gradient
            // (from any node — the mean propagates it) is caught here
            // and the first offender attributed to its parameter block.
            let blocks: Vec<&[f32]> = grads.iter().map(|g| &**g).collect();
            tr.check_step(iter as u64, group_loss, &blocks, &trace.names);
        }

        // If the root's PS exchange fails terminally, every worker of the
        // group returns together instead of deadlocking in a broadcast.
        let mut exchanged = true;
        let mut ps_wire = 0u64;
        if rank == 0 {
            // Scheduled network delay in front of the exchange: part of
            // the PS leg, as on the clock.
            let delay = cfg.faults.message_delay_secs(group, iter);
            if delay > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(delay));
            }
            // Root: per-layer PS exchange (asynchronous across groups),
            // forked over every shard and joined. Each block goes through
            // its worker-local error-feedback accumulator — which leaves
            // a dense message untouched — and the server decodes on
            // arrival. The supervisor behind `update_all` retries and
            // respawns dead shards; an error here means retries are
            // exhausted.
            let msgs: Vec<PsUpdate> = (grads.iter_mut().zip(&mut ef_ps))
                .map(|(g, ef)| {
                    let msg = ef.encode(g);
                    ps_wire += msg.wire_bytes() as u64;
                    msg.into()
                })
                .collect();
            log.wire_bytes += ps_wire;
            let exchange = bank.update_all(&msgs);
            // The messages are the step's transient model copy: they go
            // before a checkpoint adds its own, and the replies become the
            // model's values.
            drop(msgs);
            match exchange {
                Ok(replies) => {
                    // Staleness from the first block's version stream.
                    rec.staleness = life.applied(replies[0].version);
                    load_params(&mut model, replies);
                    let secs = run.t0.elapsed().as_secs_f64();
                    log.updates
                        .push((secs, group_loss, rec.staleness, life.recovered()));
                    rec.ps = lap();

                    // Periodic crash-safe checkpoint from group 0's root.
                    if group == 0
                        && cfg.checkpoint_every > 0
                        && (iter + 1) % cfg.checkpoint_every == 0
                    {
                        if let Some(path) = &cfg.checkpoint_path {
                            let ck = Checkpoint {
                                iteration: (iter + 1) as u64,
                                seed: cfg.seed,
                                params: model.flat_params(),
                            };
                            log.checkpoints_written += u64::from(ck.save(path).is_ok());
                            rec.checkpoint = lap();
                        }
                    }
                }
                // The PS bank is terminally unreachable for this group:
                // it dies, the others keep going.
                Err(_) => exchanged = false,
            }
        }
        if !group_agrees(&comm, exchanged) {
            return log;
        }
        // Root broadcasts the fresh model to its group.
        broadcast_params(&comm, &mut model);
        rec.ps += lap();
        rec.end = mark;
        last_iter_secs = iter_start.elapsed().as_secs_f64().max(1e-6);
        if rank == 0 {
            // One lane per group: only the root traces.
            trace.iteration(&rec, group_loss, [ar_bytes as u64, ps_wire]);
        }
    }
    log
}

/// Moves a bank exchange's replies (one per shard, in block order) into
/// the model's parameter blocks: each reply's buffer becomes the block's
/// value, no copy made.
fn load_params<M: Model>(model: &mut M, replies: Vec<PsReply>) {
    for (b, r) in model.param_blocks_mut().into_iter().zip(replies) {
        b.value = Tensor::from_vec(b.value.shape(), r.params);
    }
}

/// One status word: the group root's verdict `ok` to every rank of its
/// group (the others' `ok` is ignored), so the group's fate is shared.
fn group_agrees(comm: &Communicator, ok: bool) -> bool {
    let mut status = [if ok { 1.0f32 } else { 0.0 }];
    comm.broadcast(0, &mut status);
    status[0] > 0.5
}

/// The group root's parameters to every rank of its group, block by
/// block: each non-root copies each block once, out of the root's model.
fn broadcast_params<M: Model>(comm: &Communicator, model: &mut M) {
    for b in model.param_blocks_mut() {
        comm.broadcast(0, b.value.data_mut());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::hep_gradient;
    use scidl_data::HepConfig;
    use scidl_nn::{Sgd, Solver};

    fn dataset() -> Arc<HepDataset> {
        Arc::new(HepDataset::generate(HepConfig::small(), 64, 77))
    }

    #[test]
    fn single_group_single_node_matches_sequential_sgd() {
        let ds = dataset();
        let mut cfg = ThreadEngineConfig::new(1, 1, 8);
        cfg.iterations = 5;
        cfg.momentum = 0.9;
        let run = ThreadEngine::run(&cfg, Arc::clone(&ds));

        // Sequential reference with identical sampling and solver.
        let mut mrng = TensorRng::new(cfg.seed);
        let mut model = scidl_nn::arch::hep_small(&mut mrng);
        let mut sampler = BatchSampler::for_node(ds.len(), 8, cfg.seed, 0, 1);
        let mut solvers: Vec<Sgd> = model
            .param_blocks()
            .iter()
            .map(|_| Sgd::new(cfg.lr, 0.9))
            .collect();
        for _ in 0..cfg.iterations {
            let idx = sampler.next_batch();
            let (_, grads) = hep_gradient(&mut model, &ds, &idx);
            let mut off = 0;
            for (solver, b) in solvers.iter_mut().zip(model.param_blocks_mut()) {
                let len = b.len();
                solver.step_block(0, b.value.data_mut(), &grads[off..off + len]);
                off += len;
            }
        }
        let flat = model.flat_params();
        assert_eq!(run.final_params.len(), flat.len());
        let max_err = run
            .final_params
            .iter()
            .zip(&flat)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_err < 1e-6,
            "thread engine diverges from SGD by {max_err}"
        );
        assert_eq!(run.mean_staleness, 0.0);
        assert_eq!(run.ps_respawns, 0);
        assert_eq!(run.recovered_updates, 0);
    }

    #[test]
    fn one_build_per_run_is_every_rank_starting_point() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Each call of this build seeds its model differently, so a rank
        // that built its own model would start from a different one.
        let ds = dataset();
        let calls = AtomicU64::new(0);
        let counted = |seed: u64| {
            let call = calls.fetch_add(1, Ordering::Relaxed);
            scidl_nn::arch::hep_small(&mut TensorRng::new(seed + call))
        };
        let first = |seed: u64| scidl_nn::arch::hep_small(&mut TensorRng::new(seed));
        let bits = |run: &ThreadRunSummary| {
            let params: Vec<u32> = run.final_params.iter().map(|p| p.to_bits()).collect();
            let losses: Vec<u32> = run.curve.points.iter().map(|&(_, l)| l.to_bits()).collect();
            (params, losses)
        };

        let mut cfg = ThreadEngineConfig::new(2, 2, 4);
        cfg.iterations = 2;
        let run =
            ThreadEngine::run_with(&cfg, ds.len(), counted, HepGradTask::new(Arc::clone(&ds)));
        assert_eq!(run.updates, 2 * 2);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "build must run once per run"
        );

        let mut cfg = ThreadEngineConfig::new(1, 3, 6);
        cfg.iterations = 3;
        cfg.momentum = 0.9;
        calls.store(0, Ordering::Relaxed);
        let got =
            ThreadEngine::run_with(&cfg, ds.len(), counted, HepGradTask::new(Arc::clone(&ds)));
        let want = ThreadEngine::run_with(&cfg, ds.len(), first, HepGradTask::new(Arc::clone(&ds)));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(got.curve.len(), cfg.iterations);
        assert!(
            bits(&got) == bits(&want),
            "ranks must all start from the one built model"
        );
    }

    #[test]
    fn overlap_single_node_is_bit_identical_to_sequential_path() {
        // With one rank the ring is the identity, so overlap on/off must
        // produce bit-identical parameters — pinning that the overlapped
        // grad path computes exactly the same gradients.
        let ds = dataset();
        let mut cfg = ThreadEngineConfig::new(1, 1, 8);
        cfg.iterations = 5;
        cfg.momentum = 0.9;
        let base = ThreadEngine::run(&cfg, Arc::clone(&ds));
        cfg.overlap_comm = true;
        cfg.bucket_bytes = 512; // force several buckets
        let over = ThreadEngine::run(&cfg, Arc::clone(&ds));
        assert_eq!(base.final_params, over.final_params);
        assert_eq!(base.updates, over.updates);
    }

    #[test]
    fn overlap_group_is_bit_identical_to_flat_push_group() {
        // Across ranks both settings reduce through the same bucket plan
        // on the same ring — only *when* a bucket ships differs — so a
        // 4-rank run is bit-identical with the flag on or off.
        let ds = dataset();
        let mut cfg = ThreadEngineConfig::new(1, 4, 8);
        cfg.iterations = 6;
        cfg.momentum = 0.5;
        cfg.bucket_bytes = 2048;
        let base = ThreadEngine::run(&cfg, Arc::clone(&ds));
        cfg.overlap_comm = true;
        let over = ThreadEngine::run(&cfg, Arc::clone(&ds));
        assert_eq!(over.updates, base.updates);
        assert_eq!(over.final_params, base.final_params);
        assert_eq!(over.wire_bytes, base.wire_bytes);
    }

    #[test]
    fn node_crash_in_overlap_mode_stops_the_group_not_the_run() {
        // Rank 1 of group 0 dies at iteration 2: group 0's survivors hit
        // the dead ring neighbour, get a CommError and stop together;
        // group 1 keeps training through the PS bank.
        let ds = dataset();
        let mut cfg = ThreadEngineConfig::new(2, 3, 6);
        cfg.iterations = 8;
        cfg.overlap_comm = true;
        cfg.bucket_bytes = 1024;
        cfg.faults = FaultPlan::none().with_node_crash(0, 1, 2);
        let run = ThreadEngine::run(&cfg, Arc::clone(&ds));
        // Group 0 contributes its 2 pre-crash updates; group 1 all 8.
        assert_eq!(run.updates, 8 + 2);
        assert!(run.final_params.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn node_crash_without_overlap_stops_the_group_not_the_run() {
        // Every rank reduces on the ring, overlapped or not, so a dead
        // rank is detected (CommError, not a hang) with the flag off too:
        // group 0 stops after its 2 pre-crash updates, group 1 finishes.
        let ds = dataset();
        let mut cfg = ThreadEngineConfig::new(2, 3, 6);
        cfg.iterations = 8;
        cfg.faults = FaultPlan::none().with_node_crash(0, 1, 2);
        let run = ThreadEngine::run(&cfg, Arc::clone(&ds));
        assert_eq!(run.updates, 8 + 2);
        assert!(run.final_params.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn group_of_four_nodes_matches_single_node_big_batch() {
        // Data-parallel equivalence: 4 nodes × batch 2 with all-reduce
        // must equal 1 node × batch 8 *if* they see the same images. We
        // verify the weaker, architecture-level property that gradients
        // averaged over the group produce a valid converging run and all
        // nodes stay in sync (same final params from the bank).
        let ds = dataset();
        let mut cfg = ThreadEngineConfig::new(1, 4, 8);
        cfg.iterations = 6;
        let run = ThreadEngine::run(&cfg, Arc::clone(&ds));
        assert_eq!(run.updates, 6);
        assert_eq!(run.curve.len(), 6);
        assert!(run.final_params.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn hybrid_groups_interleave_and_apply_all_updates() {
        let ds = dataset();
        let mut cfg = ThreadEngineConfig::new(3, 2, 6);
        cfg.iterations = 8;
        let run = ThreadEngine::run(&cfg, Arc::clone(&ds));
        assert_eq!(run.updates, 3 * 8);
        assert_eq!(run.curve.len(), 3 * 8);
        assert!(run.final_params.iter().all(|p| p.is_finite()));
        // Histogram accounts for every update.
        assert_eq!(run.staleness_histogram.iter().sum::<u64>(), 24);
    }

    #[test]
    fn hybrid_staleness_is_positive_with_multiple_groups() {
        let ds = dataset();
        let mut cfg = ThreadEngineConfig::new(4, 1, 4);
        cfg.iterations = 12;
        let run = ThreadEngine::run(&cfg, Arc::clone(&ds));
        // With 4 free-running groups, updates from other groups land
        // between a group's read and write essentially always.
        assert!(
            run.mean_staleness > 0.5,
            "expected real staleness, got {}",
            run.mean_staleness
        );
        // The histogram's non-zero buckets dominate.
        let zero = run.staleness_histogram[0];
        let total: u64 = run.staleness_histogram.iter().sum();
        assert!(zero < total, "some updates must be stale");
    }

    #[test]
    fn failed_group_leaves_others_running() {
        let ds = dataset();
        let mut cfg = ThreadEngineConfig::new(3, 2, 6);
        cfg.iterations = 10;
        cfg.faults = FaultPlan::none().with_group_crash(1, 3); // group 1 dies at iteration 3
        let run = ThreadEngine::run(&cfg, Arc::clone(&ds));
        // Two healthy groups × 10 + the failed group's 3 updates.
        assert_eq!(run.updates, 2 * 10 + 3);
        assert_eq!(run.recovered_updates, 0);
        assert!(run.final_params.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn crashed_group_recovers_and_finishes_the_run() {
        let ds = dataset();
        let mut cfg = ThreadEngineConfig::new(3, 2, 6);
        cfg.iterations = 10;
        cfg.faults = FaultPlan::none()
            .with_group_crash(1, 3)
            .with_recovery(2, 0.0);
        let run = ThreadEngine::run(&cfg, Arc::clone(&ds));
        // Every group completes all its iterations: the crashed group
        // contributes its 3 pre-crash updates plus 7 recovered ones.
        assert_eq!(run.updates, 3 * 10);
        assert_eq!(run.recovered_updates, 7);
        assert!(run.final_params.iter().all(|p| p.is_finite()));
        // The recovery beats the no-recovery baseline by exactly the
        // recovered updates (23 vs 30).
        assert!(run.updates > 2 * 10 + 3);
    }

    #[test]
    fn ps_crash_mid_run_is_survived_by_the_supervisor() {
        let ds = dataset();
        let mut cfg = ThreadEngineConfig::new(2, 1, 4);
        cfg.iterations = 12;
        // Shard 0 dies after 5 served requests; the supervisor respawns
        // it from its snapshot and the run completes fully.
        cfg.faults = FaultPlan::none().with_ps_crash(0, 5, 0.0);
        let run = ThreadEngine::run(&cfg, Arc::clone(&ds));
        assert_eq!(
            run.updates,
            2 * 12,
            "no iteration may be lost to the PS crash"
        );
        assert!(run.ps_respawns >= 1, "the supervisor must have failed over");
        assert!(run.final_params.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn straggler_and_delay_injection_completes_with_extra_staleness() {
        let ds = dataset();
        let mut cfg = ThreadEngineConfig::new(2, 1, 4);
        cfg.iterations = 8;
        cfg.faults = FaultPlan::none()
            .with_straggler(0, 2, 6, 3.0)
            .with_message_delay(0, 4, 0.002);
        let run = ThreadEngine::run(&cfg, Arc::clone(&ds));
        assert_eq!(run.updates, 2 * 8);
        assert!(run.final_params.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn periodic_checkpoints_are_written_and_loadable() {
        let ds = dataset();
        let mut path = std::env::temp_dir();
        path.push(format!("scidl_engine_ckpt_{}", std::process::id()));
        let mut cfg = ThreadEngineConfig::new(2, 1, 4);
        cfg.iterations = 6;
        cfg.checkpoint_every = 2;
        cfg.checkpoint_path = Some(path.clone());
        let run = ThreadEngine::run(&cfg, Arc::clone(&ds));
        assert_eq!(run.checkpoints_written, 3);
        let ck = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(ck.iteration, 6);
        assert_eq!(ck.seed, cfg.seed);
        assert_eq!(ck.params.len(), run.final_params.len());
        assert!(ck.params.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn adam_at_the_parameter_servers_converges() {
        let ds = Arc::new(HepDataset::generate(HepConfig::small(), 128, 79));
        let mut cfg = ThreadEngineConfig::new(2, 1, 16);
        cfg.iterations = 30;
        cfg.lr = 1e-3;
        cfg.adam = true;
        let run = ThreadEngine::run(&cfg, ds);
        assert_eq!(run.updates, 60);
        assert!(run.final_params.iter().all(|p| p.is_finite()));
        let pts = &run.curve.points;
        let first: f32 = pts[..6].iter().map(|p| p.1).sum::<f32>() / 6.0;
        let last: f32 = pts[pts.len() - 6..].iter().map(|p| p.1).sum::<f32>() / 6.0;
        assert!(last < first, "ADAM-at-PS should learn: {first} → {last}");
    }

    #[test]
    fn identity_compression_is_bit_identical_to_uncompressed() {
        // topk:1.0 keeps every element: the sent values are bitwise the
        // original gradients on both the all-reduce and PS legs, so the
        // whole trajectory must match the uncompressed run exactly —
        // while still reporting top-k wire accounting.
        let ds = dataset();
        let mut cfg = ThreadEngineConfig::new(1, 2, 8);
        cfg.iterations = 5;
        cfg.momentum = 0.9;
        let base = ThreadEngine::run(&cfg, Arc::clone(&ds));
        cfg.compression = Compression::TopK { density: 1.0 };
        let ident = ThreadEngine::run(&cfg, Arc::clone(&ds));
        assert_eq!(base.final_params, ident.final_params);
        assert_eq!(base.updates, ident.updates);
        assert!(ident.wire_bytes > 0);
    }

    #[test]
    fn compression_reduces_wire_bytes_and_still_converges() {
        let ds = Arc::new(HepDataset::generate(HepConfig::small(), 128, 78));
        let mut cfg = ThreadEngineConfig::new(1, 2, 16);
        cfg.iterations = 40;
        cfg.lr = 4e-3;
        cfg.momentum = 0.8;
        let dense = ThreadEngine::run(&cfg, Arc::clone(&ds));
        cfg.compression = Compression::TopK { density: 0.1 };
        let sparse = ThreadEngine::run(&cfg, Arc::clone(&ds));
        assert_eq!(sparse.updates, dense.updates);
        assert!(
            sparse.wire_bytes * 4 <= dense.wire_bytes,
            "top-k 10% must cut wire bytes ≥4×: {} vs {}",
            sparse.wire_bytes,
            dense.wire_bytes
        );
        let pts = &sparse.curve.points;
        let first: f32 = pts[..8].iter().map(|p| p.1).sum::<f32>() / 8.0;
        let last: f32 = pts[pts.len() - 8..].iter().map(|p| p.1).sum::<f32>() / 8.0;
        assert!(
            last < first,
            "compressed run should still learn: {first} → {last}"
        );
        assert!(sparse.final_params.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn ps_crash_with_compression_preserves_every_update() {
        // Fault composition: PS failover mid-run with the compressed
        // exchange. Residuals are worker-local, so the supervisor's
        // retry resends the identical encoded message — no update (and
        // no residual) is dropped or double-applied.
        let ds = dataset();
        let mut cfg = ThreadEngineConfig::new(2, 1, 4);
        cfg.iterations = 12;
        cfg.compression = Compression::Int8;
        cfg.faults = FaultPlan::none().with_ps_crash(0, 5, 0.0);
        let run = ThreadEngine::run(&cfg, Arc::clone(&ds));
        assert_eq!(
            run.updates,
            2 * 12,
            "no compressed update may be lost to the PS crash"
        );
        assert!(run.ps_respawns >= 1, "the supervisor must have failed over");
        assert!(run.final_params.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn node_crash_with_compression_stops_the_group_cleanly() {
        // Mid-bucket ring-neighbour crash with compression on: the
        // surviving workers observe a CommError, stop together, and no
        // partially-decompressed bucket corrupts the PS state.
        let ds = dataset();
        let mut cfg = ThreadEngineConfig::new(2, 3, 6);
        cfg.iterations = 8;
        cfg.overlap_comm = true;
        cfg.bucket_bytes = 1024;
        cfg.compression = Compression::Int16;
        cfg.faults = FaultPlan::none().with_node_crash(0, 1, 2);
        let run = ThreadEngine::run(&cfg, Arc::clone(&ds));
        assert_eq!(run.updates, 8 + 2);
        assert!(run.final_params.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn training_loss_decreases() {
        let ds = Arc::new(HepDataset::generate(HepConfig::small(), 128, 78));
        let mut cfg = ThreadEngineConfig::new(1, 2, 16);
        cfg.iterations = 60;
        cfg.lr = 4e-3;
        cfg.momentum = 0.8;
        let run = ThreadEngine::run(&cfg, ds);
        let pts = &run.curve.points;
        let first: f32 = pts[..8].iter().map(|p| p.1).sum::<f32>() / 8.0;
        let last: f32 = pts[pts.len() - 8..].iter().map(|p| p.1).sum::<f32>() / 8.0;
        assert!(last < first, "loss should fall: {first} → {last}");
    }
}
