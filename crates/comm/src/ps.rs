//! Per-layer parameter servers (Sec. III-E(c)).
//!
//! Each trainable parameter block gets a dedicated server thread that
//! owns that shard of the model. Compute groups send gradient updates;
//! the server applies them *in arrival order* with its own solver state
//! and replies with the fresh shard plus a version counter, making
//! staleness directly measurable (`version_at_apply − version_sent_with`).
//!
//! The update rule is injected as a boxed closure so the same server
//! runs SGD-with-momentum, ADAM, or anything else the engines configure —
//! the server does not depend on `scidl-nn`.
//!
//! Every client-facing operation returns [`CommResult`]: a dead or hung
//! server surfaces as a [`CommError`] instead of a panic, which is what
//! lets the [`crate::supervisor`] respawn crashed shards mid-run
//! (Sec. VIII-A). [`PsServer::crash`] injects an abrupt server death for
//! fault-injection tests; [`PsServer::spawn_at`] restarts a shard from a
//! snapshot while keeping its version counter monotonic.

use crate::compress::CompressedGrad;
use crate::error::{CommError, CommResult};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use std::thread::JoinHandle;

/// Update rule applied by a PS: `(params, grad)` in, params mutated.
pub type UpdateFn = Box<dyn FnMut(&mut [f32], &[f32]) + Send>;

/// Reply to an update or fetch.
#[derive(Clone, Debug)]
pub struct PsReply {
    /// Fresh parameter shard after the update.
    pub params: Vec<f32>,
    /// Server version after applying (number of updates ever applied).
    pub version: u64,
}

enum PsRequest {
    Update { grad: Vec<f32>, reply: Sender<PsReply> },
    /// Compressed update: decompressed server-side into a reusable
    /// buffer, then applied exactly like a dense update. The worker's
    /// error-feedback residual never travels — it is worker-local state.
    UpdateCompressed { msg: CompressedGrad, reply: Sender<PsReply> },
    Fetch { reply: Sender<PsReply> },
    /// Fault injection: the server thread exits abruptly — no drain, no
    /// reply, pending requests lost (models a killed PS node).
    Crash,
    Shutdown,
}

/// Handle to one parameter-server thread owning one parameter block.
pub struct PsServer {
    tx: Sender<PsRequest>,
    handle: Option<JoinHandle<u64>>,
    param_len: usize,
}

impl PsServer {
    /// Spawns a server owning `params`, applying `update` to each
    /// arriving gradient.
    pub fn spawn(params: Vec<f32>, update: UpdateFn) -> Self {
        Self::spawn_at(params, 0, update)
    }

    /// Spawns a server from a snapshot taken at `initial_version` —
    /// the respawn path of the supervisor. Versions stay monotonic
    /// across the crash: the new incarnation continues counting from
    /// the snapshot, so staleness accounting survives a failover.
    pub fn spawn_at(params: Vec<f32>, initial_version: u64, update: UpdateFn) -> Self {
        Self::spawn_shard(params, initial_version, u32::MAX, update)
    }

    /// [`PsServer::spawn_at`] with a shard label for tracing: server-side
    /// update spans land on trace lane `shard` so per-layer PS service
    /// time is attributable in the timeline. `u32::MAX` = unlabelled.
    pub fn spawn_shard(
        params: Vec<f32>,
        initial_version: u64,
        shard: u32,
        mut update: UpdateFn,
    ) -> Self {
        let param_len = params.len();
        let track = if shard == u32::MAX { 0 } else { shard as u64 };
        let (tx, rx): (Sender<PsRequest>, Receiver<PsRequest>) = unbounded();
        let handle = std::thread::spawn(move || {
            // A shard serialises small solver steps; the CPUs belong to
            // the ranks.
            scidl_tensor::par::set_width(1);
            let mut params = params;
            let mut version: u64 = initial_version;
            // Reusable decompression buffer for compressed updates.
            let mut decode: Vec<f32> = Vec::new();
            while let Ok(req) = rx.recv() {
                match req {
                    PsRequest::Update { grad, reply } => {
                        if grad.len() != params.len() {
                            // Defensive: the client validates before
                            // sending, so this only triggers on a raw
                            // misuse. Drop the reply sender — the client
                            // observes ChannelClosed — and keep serving.
                            continue;
                        }
                        let tr = scidl_trace::TraceHandle::current();
                        let t0 = tr.now();
                        update(&mut params, &grad);
                        version += 1;
                        tr.span(
                            track,
                            t0,
                            scidl_trace::EventKind::PsService { shard: shard as u64, version },
                        );
                        // The requester may have gone away; ignore send
                        // failures (a dead group, Sec. VIII-A).
                        let _ = reply.send(PsReply { params: params.clone(), version });
                    }
                    PsRequest::UpdateCompressed { msg, reply } => {
                        if msg.len() != params.len() {
                            continue; // same defensive contract as Update
                        }
                        let tr = scidl_trace::TraceHandle::current();
                        let t0 = tr.now();
                        decode.resize(params.len(), 0.0);
                        msg.decompress_into(&mut decode);
                        update(&mut params, &decode);
                        version += 1;
                        tr.span(
                            track,
                            t0,
                            scidl_trace::EventKind::PsService { shard: shard as u64, version },
                        );
                        let _ = reply.send(PsReply { params: params.clone(), version });
                    }
                    PsRequest::Fetch { reply } => {
                        let _ = reply.send(PsReply { params: params.clone(), version });
                    }
                    PsRequest::Crash => return version,
                    PsRequest::Shutdown => break,
                }
            }
            version
        });
        Self { tx, handle: Some(handle), param_len }
    }

    /// Length of the parameter shard this server owns.
    pub fn param_len(&self) -> usize {
        self.param_len
    }

    fn check_len(&self, grad: &[f32]) -> CommResult<()> {
        if grad.len() != self.param_len {
            return Err(CommError::SizeMismatch {
                context: "PS update",
                expected: self.param_len,
                got: grad.len(),
            });
        }
        Ok(())
    }

    /// Sends a gradient and blocks for the fresh parameters.
    pub fn update(&self, grad: Vec<f32>) -> CommResult<PsReply> {
        let rrx = self.update_async(grad)?;
        rrx.recv()
            .map_err(|_| CommError::ChannelClosed { context: "PS update reply" })
    }

    /// Sends a gradient without blocking; the reply arrives on the
    /// returned receiver (used by the endpoint overlap path).
    pub fn update_async(&self, grad: Vec<f32>) -> CommResult<Receiver<PsReply>> {
        self.check_len(&grad)?;
        let (rtx, rrx) = bounded(1);
        self.tx
            .send(PsRequest::Update { grad, reply: rtx })
            .map_err(|_| CommError::ChannelClosed { context: "PS update" })?;
        Ok(rrx)
    }

    /// Sends a compressed gradient and blocks for the fresh parameters.
    /// The server decompresses into a reusable buffer and applies the
    /// same update rule as a dense [`PsServer::update`].
    pub fn update_compressed(&self, msg: CompressedGrad) -> CommResult<PsReply> {
        let rrx = self.update_compressed_async(msg)?;
        rrx.recv()
            .map_err(|_| CommError::ChannelClosed { context: "PS update reply" })
    }

    /// Posts a compressed gradient without blocking; the reply arrives
    /// on the returned receiver.
    pub fn update_compressed_async(&self, msg: CompressedGrad) -> CommResult<Receiver<PsReply>> {
        if msg.len() != self.param_len {
            return Err(CommError::SizeMismatch {
                context: "PS update",
                expected: self.param_len,
                got: msg.len(),
            });
        }
        let (rtx, rrx) = bounded(1);
        self.tx
            .send(PsRequest::UpdateCompressed { msg, reply: rtx })
            .map_err(|_| CommError::ChannelClosed { context: "PS update" })?;
        Ok(rrx)
    }

    /// Fetches the current parameters without updating.
    pub fn fetch(&self) -> CommResult<PsReply> {
        let rrx = self.fetch_async()?;
        rrx.recv()
            .map_err(|_| CommError::ChannelClosed { context: "PS fetch reply" })
    }

    /// Posts a fetch without blocking; the reply arrives on the returned
    /// receiver (lets the supervisor wait with a timeout).
    pub fn fetch_async(&self) -> CommResult<Receiver<PsReply>> {
        let (rtx, rrx) = bounded(1);
        self.tx
            .send(PsRequest::Fetch { reply: rtx })
            .map_err(|_| CommError::ChannelClosed { context: "PS fetch" })?;
        Ok(rrx)
    }

    /// Fault injection: makes the server thread die abruptly, losing any
    /// queued requests — the PS-node kill of Sec. VIII-A. Safe to call on
    /// an already-dead server.
    pub fn crash(&self) {
        let _ = self.tx.send(PsRequest::Crash);
    }

    /// Stops the server, returning the total number of updates applied.
    pub fn shutdown(mut self) -> CommResult<u64> {
        let _ = self.tx.send(PsRequest::Shutdown);
        self.handle
            .take()
            .ok_or(CommError::ChannelClosed { context: "PS shutdown" })?
            .join()
            .map_err(|_| CommError::ServerPanicked { context: "PS shutdown" })
    }

    /// Drops the handle without joining — used by the supervisor when it
    /// replaces a hung server whose thread can never be joined.
    pub fn abandon(mut self) {
        self.handle.take(); // detach
        // Dropping `tx` afterwards closes the request channel.
    }
}

impl Drop for PsServer {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = self.tx.send(PsRequest::Shutdown);
            let _ = handle.join();
        }
    }
}

/// A bank of per-block parameter servers — one per trainable layer block,
/// the paper's design for avoiding PS saturation (Fig. 4).
pub struct PsBank {
    servers: Vec<PsServer>,
}

impl PsBank {
    /// Spawns one server per `(initial params, update rule)` pair.
    pub fn spawn(blocks: Vec<(Vec<f32>, UpdateFn)>) -> Self {
        Self {
            servers: blocks
                .into_iter()
                .map(|(p, u)| PsServer::spawn(p, u))
                .collect(),
        }
    }

    /// Number of servers (= parameter blocks).
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// True when the bank is empty.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Access to an individual server.
    pub fn server(&self, idx: usize) -> &PsServer {
        &self.servers[idx]
    }

    /// Synchronous update of every block; returns per-block replies.
    pub fn update_all(&self, grads: Vec<Vec<f32>>) -> CommResult<Vec<PsReply>> {
        if grads.len() != self.servers.len() {
            return Err(CommError::SizeMismatch {
                context: "PS bank update",
                expected: self.servers.len(),
                got: grads.len(),
            });
        }
        // Post everything first (the per-layer parallelism of Fig. 4),
        // then collect.
        let pending: Vec<_> = self
            .servers
            .iter()
            .zip(grads)
            .map(|(s, g)| s.update_async(g))
            .collect::<CommResult<_>>()?;
        pending
            .into_iter()
            .map(|rx| {
                rx.recv()
                    .map_err(|_| CommError::ChannelClosed { context: "PS bank update reply" })
            })
            .collect()
    }

    /// Synchronous compressed update of every block (post-all-then-
    /// collect, like [`PsBank::update_all`]); each server decompresses
    /// its message before applying.
    pub fn update_all_compressed(&self, msgs: Vec<CompressedGrad>) -> CommResult<Vec<PsReply>> {
        if msgs.len() != self.servers.len() {
            return Err(CommError::SizeMismatch {
                context: "PS bank update",
                expected: self.servers.len(),
                got: msgs.len(),
            });
        }
        let pending: Vec<_> = self
            .servers
            .iter()
            .zip(msgs)
            .map(|(s, m)| s.update_compressed_async(m))
            .collect::<CommResult<_>>()?;
        pending
            .into_iter()
            .map(|rx| {
                rx.recv()
                    .map_err(|_| CommError::ChannelClosed { context: "PS bank update reply" })
            })
            .collect()
    }

    /// Fetches every block's current parameters.
    pub fn fetch_all(&self) -> CommResult<Vec<PsReply>> {
        self.servers.iter().map(|s| s.fetch()).collect()
    }

    /// Shuts every server down, returning per-server update counts.
    pub fn shutdown(self) -> CommResult<Vec<u64>> {
        self.servers.into_iter().map(|s| s.shutdown()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn sgd(lr: f32) -> UpdateFn {
        Box::new(move |p, g| {
            for (pi, gi) in p.iter_mut().zip(g) {
                *pi -= lr * gi;
            }
        })
    }

    #[test]
    fn update_applies_rule_and_bumps_version() {
        let ps = PsServer::spawn(vec![1.0, 2.0], sgd(0.5));
        let r = ps.update(vec![2.0, 2.0]).unwrap();
        assert_eq!(r.params, vec![0.0, 1.0]);
        assert_eq!(r.version, 1);
        let r2 = ps.update(vec![0.0, 2.0]).unwrap();
        assert_eq!(r2.params, vec![0.0, 0.0]);
        assert_eq!(r2.version, 2);
        assert_eq!(ps.shutdown().unwrap(), 2);
    }

    #[test]
    fn fetch_does_not_bump_version() {
        let ps = PsServer::spawn(vec![5.0], sgd(1.0));
        assert_eq!(ps.fetch().unwrap().version, 0);
        ps.update(vec![1.0]).unwrap();
        let f = ps.fetch().unwrap();
        assert_eq!(f.version, 1);
        assert_eq!(f.params, vec![4.0]);
    }

    #[test]
    fn updates_from_concurrent_groups_all_apply() {
        let ps = PsServer::spawn(vec![0.0], sgd(1.0));
        let ps = std::sync::Arc::new(ps);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let ps = std::sync::Arc::clone(&ps);
                thread::spawn(move || {
                    for _ in 0..50 {
                        ps.update(vec![-1.0]).unwrap(); // param += 1 each update
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let f = ps.fetch().unwrap();
        assert_eq!(f.version, 400);
        assert_eq!(f.params, vec![400.0]);
    }

    #[test]
    fn versions_measure_staleness() {
        let ps = PsServer::spawn(vec![0.0], sgd(1.0));
        let v0 = ps.fetch().unwrap().version;
        // Another "group" applies 3 updates behind our back.
        for _ in 0..3 {
            ps.update(vec![0.0]).unwrap();
        }
        let r = ps.update(vec![0.0]).unwrap();
        // Our update was computed against v0 but applied at r.version;
        // staleness = (version before our apply) − v0.
        let staleness = r.version - 1 - v0;
        assert_eq!(staleness, 3);
    }

    #[test]
    fn bank_updates_blocks_independently() {
        let bank = PsBank::spawn(vec![
            (vec![1.0], sgd(1.0)),
            (vec![10.0, 20.0], sgd(0.1)),
        ]);
        assert_eq!(bank.len(), 2);
        let replies = bank.update_all(vec![vec![1.0], vec![10.0, 10.0]]).unwrap();
        assert_eq!(replies[0].params, vec![0.0]);
        assert_eq!(replies[1].params, vec![9.0, 19.0]);
        let counts = bank.shutdown().unwrap();
        assert_eq!(counts, vec![1, 1]);
    }

    #[test]
    fn async_update_overlaps() {
        let ps = PsServer::spawn(vec![0.0], sgd(1.0));
        let rx = ps.update_async(vec![-5.0]).unwrap();
        // Do "compute" here, then collect.
        let r = rx.recv().unwrap();
        assert_eq!(r.params, vec![5.0]);
    }

    #[test]
    fn rejects_wrong_gradient_length() {
        let ps = PsServer::spawn(vec![0.0, 0.0], sgd(1.0));
        let err = ps.update(vec![1.0]).unwrap_err();
        assert_eq!(
            err,
            CommError::SizeMismatch { context: "PS update", expected: 2, got: 1 }
        );
        // The server is still alive and serving.
        assert_eq!(ps.update(vec![1.0, 1.0]).unwrap().version, 1);
    }

    #[test]
    fn crash_kills_the_server_without_panicking_clients() {
        let ps = PsServer::spawn(vec![0.0], sgd(1.0));
        ps.update(vec![-1.0]).unwrap();
        ps.crash();
        // Wait for the thread to actually exit, then every operation
        // reports a closed channel instead of aborting the process.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            match ps.update(vec![-1.0]) {
                Err(CommError::ChannelClosed { .. }) => break,
                Ok(_) | Err(_) => {
                    assert!(std::time::Instant::now() < deadline, "crash never took effect");
                    std::thread::yield_now();
                }
            }
        }
        assert!(matches!(ps.fetch(), Err(CommError::ChannelClosed { .. })));
    }

    #[test]
    fn compressed_update_matches_dense_after_decompression() {
        use crate::compress::{Compression, ErrorFeedback};
        // Encode a gradient, send it compressed; a twin server receiving
        // the decompressed (sent) values densely must end bit-identical.
        let mut ef = ErrorFeedback::new(Compression::Int8);
        let mut sent = vec![0.25, -1.5, 0.75, 2.0];
        let msg = ef.encode(&mut sent); // `sent` now holds the sent values
        let ps_c = PsServer::spawn(vec![1.0; 4], sgd(0.5));
        let ps_d = PsServer::spawn(vec![1.0; 4], sgd(0.5));
        let rc = ps_c.update_compressed(msg).unwrap();
        let rd = ps_d.update(sent).unwrap();
        assert_eq!(rc.params, rd.params);
        assert_eq!(rc.version, rd.version);
    }

    #[test]
    fn compressed_identity_policy_is_bitwise_dense() {
        use crate::compress::CompressedGrad;
        let grad = vec![0.1f32, -0.2, 0.3];
        let ps_c = PsServer::spawn(vec![0.0; 3], sgd(1.0));
        let ps_d = PsServer::spawn(vec![0.0; 3], sgd(1.0));
        let rc = ps_c.update_compressed(CompressedGrad::Dense(grad.clone())).unwrap();
        let rd = ps_d.update(grad).unwrap();
        assert_eq!(rc.params, rd.params);
    }

    #[test]
    fn compressed_rejects_wrong_length() {
        use crate::compress::CompressedGrad;
        let ps = PsServer::spawn(vec![0.0, 0.0], sgd(1.0));
        let err = ps.update_compressed(CompressedGrad::Dense(vec![1.0])).unwrap_err();
        assert!(matches!(err, CommError::SizeMismatch { .. }));
        // Server still alive.
        assert_eq!(ps.update(vec![1.0, 1.0]).unwrap().version, 1);
    }

    #[test]
    fn bank_compressed_updates_blocks_independently() {
        use crate::compress::CompressedGrad;
        let bank = PsBank::spawn(vec![(vec![1.0], sgd(1.0)), (vec![10.0, 20.0], sgd(0.1))]);
        let replies = bank
            .update_all_compressed(vec![
                CompressedGrad::Dense(vec![1.0]),
                CompressedGrad::Dense(vec![10.0, 10.0]),
            ])
            .unwrap();
        assert_eq!(replies[0].params, vec![0.0]);
        assert_eq!(replies[1].params, vec![9.0, 19.0]);
    }

    #[test]
    fn spawn_at_preserves_version_monotonicity() {
        let ps = PsServer::spawn_at(vec![7.0], 41, sgd(1.0));
        assert_eq!(ps.fetch().unwrap().version, 41);
        let r = ps.update(vec![1.0]).unwrap();
        assert_eq!(r.version, 42);
        assert_eq!(r.params, vec![6.0]);
    }
}
