//! Parameter-server supervision: snapshots, crash detection and failover.
//!
//! Sec. VIII-A observes that in the hybrid configuration a failed node
//! only removes its compute group — *unless* the failed node hosts a
//! parameter server, in which case the whole run stalls. This module
//! closes that gap: a [`SupervisedPs`] wraps a [`PsServer`], keeps a
//! snapshot of the last known shard state, and when the server stops
//! answering (closed channel, or a reply timeout on a hung thread) it
//! respawns the shard from the snapshot and retries the operation with
//! exponential backoff.
//!
//! [`SupervisedPsBank`] is the only PS bank: one supervised shard per
//! parameter block, exchanged fork-join as in Fig. 4 — an `update_all` or
//! `fetch_all` posts to every shard first and then collects, and a shard
//! that fails drops into its own respawn-and-retry loop without holding
//! up the others. That is the shape both simulators charge for
//! (`resume = max over shards`).
//!
//! Recovery semantics:
//! - **Parameters** are restored from the last snapshot. Snapshots ride
//!   on every successful reply (every reply already carries the full
//!   shard), so the snapshot is at most one update old per client and
//!   snapshotting adds zero extra traffic.
//! - **Versions** stay monotonic: the respawned server continues from the
//!   snapshot's version, so staleness accounting survives a failover.
//! - **Updates that were in flight when the server died are lost** —
//!   exactly the bounded loss the paper's async design tolerates (a lost
//!   update is indistinguishable from a slightly staler gradient).
//! - **Solver state** internal to the update rule (momentum/ADAM moments)
//!   restarts fresh on the respawned shard; the update-rule factory
//!   recreates it. This matches restarting a PS process from a checkpoint.

use crate::error::{CommError, CommResult};
use crate::ps::{PsReply, PsServer, PsUpdate, UpdateFn};
use crossbeam::channel::{Receiver, RecvTimeoutError};
use parking_lot::Mutex;
use std::time::Duration;

/// One client-facing PS operation, unified so the retry/failover loop
/// is written once. An update owns the shared encoded message, so a
/// retried attempt resends exactly the same sent values: a lost
/// in-flight update is re-applied once, never re-encoded — the worker's
/// error-feedback residual is *not* part of the message, so failover
/// neither drops nor double-applies residuals.
enum PsOp {
    Fetch,
    Update(PsUpdate),
}

/// A posted attempt: the reply channel (or why posting failed) plus the
/// generation of the server it was posted to.
type Posted = (CommResult<Receiver<PsReply>>, u64);

const UPDATE: &str = "supervised PS update";
const FETCH: &str = "supervised PS fetch";

/// Recreates the update rule for a respawned server. The plain
/// [`UpdateFn`] is consumed by the server thread, so the supervisor
/// needs a factory to build a fresh one after a crash.
pub type UpdateFactory = Box<dyn Fn() -> UpdateFn + Send + Sync>;

/// How long to wait for a reply before declaring the server hung.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// Backoff before retry k is `BACKOFF_BASE * 2^(k-1)`.
const BACKOFF_BASE: Duration = Duration::from_millis(1);
/// Total attempts per operation (first try + retries, each retry
/// preceded by a respawn when the server is dead).
const MAX_RETRIES: u32 = 3;

/// Tuning knobs for a [`SupervisedPs`].
#[derive(Clone, Debug, Default)]
pub struct SupervisorConfig {
    /// Fault injection: crash the server after this many successful
    /// operations (once). `None` disables injection.
    pub inject_crash_after: Option<u64>,
}

struct Inner {
    server: PsServer,
    /// Last shard state seen in a reply (the failover image).
    snapshot: Vec<f32>,
    snapshot_version: u64,
    /// Successful operations since spawn (drives crash injection).
    successes: u64,
    /// Bumped on every respawn; lets a client that observed a failure
    /// tell whether someone else already replaced the server.
    generation: u64,
    respawns: u64,
    injected: bool,
}

/// A [`PsServer`] with crash detection and automatic failover.
pub struct SupervisedPs {
    cfg: SupervisorConfig,
    make_update: UpdateFactory,
    /// Trace label: which shard of the bank this is (`u32::MAX` =
    /// unlabelled); respawn events and service spans land on this lane.
    shard: u32,
    param_len: usize,
    inner: Mutex<Inner>,
}

impl SupervisedPs {
    /// Spawns a supervised server owning `params`.
    pub fn spawn(params: Vec<f32>, make_update: UpdateFactory, cfg: SupervisorConfig) -> Self {
        Self::spawn_shard(params, make_update, cfg, u32::MAX)
    }

    /// [`SupervisedPs::spawn`] with a shard label for tracing.
    pub fn spawn_shard(
        params: Vec<f32>,
        make_update: UpdateFactory,
        cfg: SupervisorConfig,
        shard: u32,
    ) -> Self {
        let server = PsServer::spawn_shard(params.clone(), 0, shard, make_update());
        Self {
            cfg,
            make_update,
            shard,
            param_len: params.len(),
            inner: Mutex::new(Inner {
                server,
                snapshot: params,
                snapshot_version: 0,
                successes: 0,
                generation: 0,
                respawns: 0,
                injected: false,
            }),
        }
    }

    /// Number of failovers performed so far.
    pub fn respawns(&self) -> u64 {
        self.inner.lock().respawns
    }

    /// Fault injection: kill the underlying server now. The next
    /// operation will detect the death and fail over.
    pub fn crash(&self) {
        self.inner.lock().server.crash();
    }

    /// Records a successful reply: refresh the snapshot in place (a
    /// late reply from an older incarnation never rolls it back) and
    /// fire scheduled crash injection.
    fn on_success(inner: &mut Inner, cfg: &SupervisorConfig, reply: &PsReply) {
        inner.successes += 1;
        if reply.version >= inner.snapshot_version {
            inner.snapshot.copy_from_slice(&reply.params);
            inner.snapshot_version = reply.version;
        }
        if let Some(n) = cfg.inject_crash_after {
            if !inner.injected && inner.successes >= n {
                inner.injected = true;
                inner.server.crash();
            }
        }
    }

    /// Replaces a dead/hung server with one spawned from the snapshot.
    /// `observed_generation` guards against double-respawn when several
    /// clients detect the same failure.
    fn respawn(&self, observed_generation: u64) {
        let mut inner = self.inner.lock();
        if inner.generation != observed_generation {
            return; // someone else already failed over
        }
        let fresh = PsServer::spawn_shard(
            inner.snapshot.clone(),
            inner.snapshot_version,
            self.shard,
            (self.make_update)(),
        );
        // Never join the old thread — it may be hung forever.
        std::mem::replace(&mut inner.server, fresh).abandon();
        inner.generation += 1;
        inner.respawns += 1;
        let track = if self.shard == u32::MAX {
            0
        } else {
            self.shard as u64
        };
        scidl_trace::TraceHandle::current().instant(
            track,
            scidl_trace::EventKind::PsRespawn {
                shard: self.shard as u64,
            },
        );
    }

    /// Validates an op's gradient length, so a size mismatch is a
    /// client error, not a reason to respawn a healthy server.
    fn check(&self, context: &'static str, op: &PsOp) -> CommResult<()> {
        match op {
            PsOp::Update(msg) if msg.0.len() != self.param_len => Err(CommError::SizeMismatch {
                context,
                expected: self.param_len,
                got: msg.0.len(),
            }),
            _ => Ok(()),
        }
    }

    /// First half of an attempt: post under the lock, capturing the
    /// generation. Never blocks on the server, so a bank can post to
    /// every shard before waiting on any.
    fn post(&self, op: &PsOp) -> Posted {
        let inner = self.inner.lock();
        let rx = match op {
            PsOp::Update(msg) => inner.server.update_async(msg.clone()),
            PsOp::Fetch => inner.server.fetch_async(),
        };
        (rx, inner.generation)
    }

    /// Second half: wait outside the lock so concurrent clients and the
    /// supervisor stay live.
    fn collect(&self, posted: Posted) -> Result<PsReply, (CommError, u64)> {
        let (rx, generation) = posted;
        let rx = rx.map_err(|e| (e, generation))?;
        rx.recv_timeout(REPLY_TIMEOUT).map_err(|e| {
            let err = match e {
                RecvTimeoutError::Timeout => CommError::Timeout {
                    context: "supervised PS reply",
                    waited: REPLY_TIMEOUT,
                },
                RecvTimeoutError::Disconnected => CommError::ChannelClosed {
                    context: "supervised PS reply",
                },
            };
            (err, generation)
        })
    }

    /// Collects a posted first attempt; if it failed, respawns the shard
    /// and retries with exponential backoff, reposting the same `op`.
    fn finish(&self, context: &'static str, op: &PsOp, first: Posted) -> CommResult<PsReply> {
        let mut posted = first;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match self.collect(posted) {
                Ok(reply) => {
                    Self::on_success(&mut self.inner.lock(), &self.cfg, &reply);
                    return Ok(reply);
                }
                Err((_err, generation)) if attempts < MAX_RETRIES => {
                    self.respawn(generation);
                    let backoff = BACKOFF_BASE * 2u32.saturating_pow(attempts - 1);
                    std::thread::sleep(backoff);
                    posted = self.post(op);
                }
                Err(..) => {
                    return Err(CommError::RetriesExhausted { context, attempts });
                }
            }
        }
    }

    fn run(&self, context: &'static str, op: PsOp) -> CommResult<PsReply> {
        self.check(context, &op)?;
        self.finish(context, &op, self.post(&op))
    }

    /// Sends a gradient (dense or encoded) and blocks for the fresh
    /// parameters, failing over and retrying if the server is dead or
    /// hung. Retried attempts resend the identical message, so a worker's
    /// error-feedback residual stays consistent across a failover.
    pub fn update(&self, grad: impl Into<PsUpdate>) -> CommResult<PsReply> {
        self.run(UPDATE, PsOp::Update(grad.into()))
    }

    /// Fetches the current parameters with the same failover guarantees.
    pub fn fetch(&self) -> CommResult<PsReply> {
        self.run(FETCH, PsOp::Fetch)
    }

    /// Stops the server, returning its final update count.
    pub fn shutdown(self) -> CommResult<u64> {
        let inner = self.inner.into_inner();
        inner.server.shutdown()
    }
}

/// The bank of per-layer servers — one shard per trainable block, the
/// paper's design for avoiding PS saturation — and the fork-join of
/// Fig. 4: an exchange posts to every shard before it waits on any, so
/// its latency is the slowest shard's, not the sum.
pub struct SupervisedPsBank {
    servers: Vec<SupervisedPs>,
}

impl SupervisedPsBank {
    /// Spawns one supervised server per `(params, update factory)` pair.
    pub fn spawn(blocks: Vec<(Vec<f32>, UpdateFactory)>, cfg: SupervisorConfig) -> Self {
        Self::spawn_with(
            blocks
                .into_iter()
                .map(|(p, f)| (p, f, cfg.clone()))
                .collect(),
        )
    }

    /// Spawns a bank where each shard gets its own supervisor config —
    /// how a fault plan schedules a crash on one specific shard.
    pub fn spawn_with(blocks: Vec<(Vec<f32>, UpdateFactory, SupervisorConfig)>) -> Self {
        Self {
            servers: blocks
                .into_iter()
                .enumerate()
                .map(|(i, (p, f, cfg))| SupervisedPs::spawn_shard(p, f, cfg, i as u32))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// True when the bank holds no shards.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Access to one supervised shard.
    pub fn server(&self, idx: usize) -> &SupervisedPs {
        &self.servers[idx]
    }

    /// Posts one op per shard, then collects. A shard whose first
    /// attempt fails drops into the respawn + backoff retry loop on its
    /// own; the others are unaffected. Every shard is settled before the
    /// first error (if any) is returned.
    fn fork_join(&self, context: &'static str, ops: Vec<PsOp>) -> CommResult<Vec<PsReply>> {
        let shards = || self.servers.iter().zip(&ops);
        shards().try_for_each(|(s, op)| s.check(context, op))?;
        let posted: Vec<Posted> = shards().map(|(s, op)| s.post(op)).collect();
        let settled: Vec<CommResult<PsReply>> = shards()
            .zip(posted)
            .map(|((s, op), first)| s.finish(context, op, first))
            .collect();
        settled.into_iter().collect()
    }

    /// Updates every shard with its gradient — dense `Vec<f32>`s (copied
    /// once into the message) or already-built [`PsUpdate`]s (shared, not
    /// copied) — failing over dead shards as needed.
    pub fn update_all<M>(&self, grads: &[M]) -> CommResult<Vec<PsReply>>
    where
        M: Clone + Into<PsUpdate>,
    {
        if grads.len() != self.servers.len() {
            return Err(CommError::SizeMismatch {
                context: "supervised PS bank update",
                expected: self.servers.len(),
                got: grads.len(),
            });
        }
        self.fork_join(
            UPDATE,
            grads
                .iter()
                .map(|g| PsOp::Update(g.clone().into()))
                .collect(),
        )
    }

    /// Fetches every shard.
    pub fn fetch_all(&self) -> CommResult<Vec<PsReply>> {
        self.fork_join(FETCH, self.servers.iter().map(|_| PsOp::Fetch).collect())
    }

    /// Total failovers across all shards.
    pub fn total_respawns(&self) -> u64 {
        self.servers.iter().map(|s| s.respawns()).sum()
    }

    /// Stops every shard, returning per-shard update counts.
    pub fn shutdown(self) -> CommResult<Vec<u64>> {
        self.servers.into_iter().map(|s| s.shutdown()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sgd_factory(lr: f32) -> UpdateFactory {
        Box::new(move || {
            Box::new(move |p: &mut [f32], g: &[f32]| {
                for (pi, gi) in p.iter_mut().zip(g) {
                    *pi -= lr * gi;
                }
            })
        })
    }

    #[test]
    fn survives_injected_crash() {
        let cfg = SupervisorConfig {
            inject_crash_after: Some(5),
        };
        let ps = SupervisedPs::spawn(vec![0.0], sgd_factory(1.0), cfg);
        for _ in 0..20 {
            ps.update(vec![-1.0]).unwrap();
        }
        assert!(ps.respawns() >= 1, "crash injection never fired a failover");
        let f = ps.fetch().unwrap();
        // At most one in-flight update may be lost per crash; with a
        // snapshot on every reply and a single client nothing is lost here.
        assert!(
            f.params[0] >= 19.0,
            "lost more than one update: {}",
            f.params[0]
        );
    }

    #[test]
    fn explicit_crash_recovers_from_snapshot() {
        let ps = SupervisedPs::spawn(vec![10.0], sgd_factory(1.0), SupervisorConfig::default());
        ps.update(vec![1.0]).unwrap(); // 9.0, snapshot taken
        ps.crash();
        // Next op detects the death and fails over from the snapshot.
        let r = ps.update(vec![1.0]).unwrap();
        assert_eq!(r.params, vec![8.0]);
        assert_eq!(r.version, 2, "versions must stay monotonic across failover");
        assert_eq!(ps.respawns(), 1);
    }

    #[test]
    fn repeated_crashes_still_make_progress() {
        let ps = Arc::new(SupervisedPs::spawn(
            vec![0.0],
            sgd_factory(1.0),
            SupervisorConfig::default(),
        ));
        for i in 0..30 {
            if i % 7 == 3 {
                ps.crash();
            }
            ps.update(vec![-1.0]).unwrap();
        }
        let f = ps.fetch().unwrap();
        assert!(ps.respawns() >= 3);
        // Every update either applied or was lost to a crash it raced;
        // with one client the retry re-applies it, so none are lost.
        assert_eq!(f.params, vec![30.0]);
        assert_eq!(f.version, 30);
    }

    #[test]
    fn concurrent_clients_survive_crashes_without_double_respawn_storms() {
        let ps = Arc::new(SupervisedPs::spawn(
            vec![0.0],
            sgd_factory(1.0),
            SupervisorConfig::default(),
        ));
        let clients: Vec<_> = (0..4)
            .map(|c| {
                let ps = Arc::clone(&ps);
                std::thread::spawn(move || {
                    for i in 0..25 {
                        if c == 0 && i == 10 {
                            ps.crash();
                        }
                        ps.update(vec![-1.0]).unwrap();
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        let f = ps.fetch().unwrap();
        // 100 updates were issued; each crash can drop the handful that
        // were in flight. The run must complete and keep the vast
        // majority — conservation is checked exactly in the proptests.
        assert!(
            f.params[0] >= 90.0,
            "too many updates lost: {}",
            f.params[0]
        );
        assert!(f.params[0] <= 100.0);
        assert!(ps.respawns() >= 1);
    }

    #[test]
    fn exhausted_retries_surface_as_error() {
        // A factory whose servers die instantly: every incarnation's
        // update rule panics on its first update, so the server thread
        // exits before it can answer, every respawn dies the same way,
        // and each update runs out of retries — whatever the scheduler
        // does, since nothing races the update.
        let dying: UpdateFactory =
            Box::new(|| Box::new(|_: &mut [f32], _: &[f32]| panic!("server dies on update")));
        let ps = SupervisedPs::spawn(vec![0.0], dying, SupervisorConfig::default());
        for op in 1..=3u64 {
            match ps.update(vec![1.0]) {
                Err(CommError::RetriesExhausted { attempts, .. }) => {
                    assert_eq!(attempts, MAX_RETRIES)
                }
                other => panic!("update {op} should exhaust its retries, got {other:?}"),
            }
            // Each update finds a dead server and replaces it before
            // each of its retries.
            assert_eq!(ps.respawns(), op * u64::from(MAX_RETRIES - 1));
        }
        // A fetch never runs the update rule: the next incarnation
        // answers, from a snapshot no failed update touched.
        let f = ps.fetch().unwrap();
        assert_eq!((f.params, f.version), (vec![0.0], 0));
    }

    #[test]
    fn compressed_failover_neither_drops_nor_double_applies_residuals() {
        use crate::compress::{Compression, ErrorFeedback};
        // Two runs over the same gradient stream — one with injected PS
        // crashes, one without. Residuals live in the worker-side
        // ErrorFeedback, so the encoded message stream is identical in
        // both runs; with a single client the supervisor re-applies a
        // lost in-flight update exactly once, so final params, versions
        // AND worker residuals must match exactly.
        let run = |inject: Option<u64>| {
            let cfg = SupervisorConfig {
                inject_crash_after: inject,
            };
            let ps = SupervisedPs::spawn(vec![1.0; 16], sgd_factory(0.1), cfg);
            let mut ef = ErrorFeedback::new(Compression::TopK { density: 0.25 });
            for step in 0..24u64 {
                let mut grad: Vec<f32> = (0..16)
                    .map(|i| ((step * 16 + i) % 13) as f32 * 0.05 - 0.3)
                    .collect();
                let msg = ef.encode(&mut grad);
                ps.update(msg).unwrap();
            }
            let f = ps.fetch().unwrap();
            let crashes = ps.respawns();
            (f.params, f.version, ef.residual().to_vec(), crashes)
        };
        let (p_faulty, v_faulty, r_faulty, crashes) = run(Some(7));
        let (p_clean, v_clean, r_clean, _) = run(None);
        assert!(crashes >= 1, "crash injection never fired");
        assert_eq!(p_faulty, p_clean, "failover changed the applied updates");
        assert_eq!(v_faulty, v_clean, "an update was dropped or double-applied");
        assert_eq!(
            r_faulty, r_clean,
            "failover perturbed worker-local residuals"
        );
    }

    #[test]
    fn bank_failover_and_counts() {
        let bank = SupervisedPsBank::spawn(
            vec![
                (vec![0.0], sgd_factory(1.0)),
                (vec![100.0], sgd_factory(1.0)),
            ],
            SupervisorConfig::default(),
        );
        bank.update_all(&[vec![-1.0], vec![1.0]]).unwrap();
        bank.server(1).crash();
        let replies = bank.update_all(&[vec![-1.0], vec![1.0]]).unwrap();
        assert_eq!(replies[0].params, vec![2.0]);
        assert_eq!(replies[1].params, vec![98.0]);
        assert_eq!(bank.total_respawns(), 1);
        let counts = bank.shutdown().unwrap();
        assert_eq!(counts[0], 2);
    }

    #[test]
    fn bank_rejects_wrong_block_count_and_wrong_block_length() {
        let bank = SupervisedPsBank::spawn(
            vec![
                (vec![0.0], sgd_factory(1.0)),
                (vec![0.0, 0.0], sgd_factory(1.0)),
            ],
            SupervisorConfig::default(),
        );
        let err = bank.update_all(&[vec![1.0]]).unwrap_err();
        assert!(matches!(
            err,
            CommError::SizeMismatch {
                expected: 2,
                got: 1,
                ..
            }
        ));
        // A bad length on the *last* shard is caught before anything is
        // posted: no shard applies a partial exchange, none is respawned.
        let err = bank.update_all(&[vec![1.0], vec![1.0]]).unwrap_err();
        assert!(matches!(
            err,
            CommError::SizeMismatch {
                expected: 2,
                got: 1,
                ..
            }
        ));
        assert_eq!(bank.total_respawns(), 0);
        assert!(bank.fetch_all().unwrap().iter().all(|r| r.version == 0));
    }

    #[test]
    fn bank_exchange_is_a_fork_join_not_a_walk() {
        // Fig. 4: every shard is posted before any is awaited, so two
        // shards that each take 40 ms cost one 40 ms, not 80.
        let slow: fn() -> UpdateFactory = || {
            Box::new(|| {
                Box::new(|p: &mut [f32], g: &[f32]| {
                    std::thread::sleep(Duration::from_millis(40));
                    p[0] -= g[0];
                })
            })
        };
        let bank = SupervisedPsBank::spawn(
            vec![(vec![0.0], slow()), (vec![0.0], slow())],
            SupervisorConfig::default(),
        );
        let t = std::time::Instant::now();
        let replies = bank.update_all(&[vec![-1.0], vec![-2.0]]).unwrap();
        let took = t.elapsed();
        assert_eq!((replies[0].params[0], replies[1].params[0]), (1.0, 2.0));
        assert!(
            took < Duration::from_millis(70),
            "shards were walked one by one: {took:?}"
        );
    }

    #[test]
    fn bank_failover_under_concurrent_clients_answers_every_exchange() {
        // 3 clients × 20 rounds against 4 shards, shard 2 killed after 7
        // successes. The guarantees of the shard-by-shard walk carry
        // over: every exchange returns one reply per shard, untouched
        // shards apply every update exactly once, the dead shard is
        // respawned, and nothing deadlocks (a watchdog, not a hang, fails
        // the test).
        let (clients, rounds, shards) = (3u64, 20u64, 4usize);
        let bank = Arc::new(SupervisedPsBank::spawn_with(
            (0..shards)
                .map(|i| {
                    let cfg = SupervisorConfig {
                        inject_crash_after: (i == 2).then_some(7),
                    };
                    (vec![0.0], sgd_factory(1.0), cfg)
                })
                .collect(),
        ));
        let (done_tx, done_rx) = crossbeam::channel::unbounded();
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let bank = Arc::clone(&bank);
                let done = done_tx.clone();
                std::thread::spawn(move || {
                    let ok = (0..rounds)
                        .filter(|_| {
                            let grads = vec![vec![-1.0]; shards];
                            matches!(bank.update_all(&grads), Ok(r) if r.len() == shards)
                        })
                        .count() as u64;
                    let _ = done.send(ok);
                })
            })
            .collect();
        for _ in 0..clients {
            let ok = done_rx
                .recv_timeout(Duration::from_secs(60))
                .expect("watchdog: a client never finished its exchanges");
            assert_eq!(ok, rounds, "an exchange failed or came back short");
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            bank.total_respawns() >= 1,
            "crash injection never fired a failover"
        );
        let finals = bank.fetch_all().unwrap();
        for i in [0, 1, 3] {
            assert_eq!(
                finals[i].version,
                clients * rounds,
                "shard {i} lost or repeated an update"
            );
            assert_eq!(finals[i].params, vec![(clients * rounds) as f32]);
        }
        // The crashed shard keeps its bounded-loss contract: updates in
        // flight at the crash may be gone, never more than one per client.
        assert!(finals[2].version + clients >= clients * rounds);
    }
}
