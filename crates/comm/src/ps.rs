//! Per-layer parameter servers (Sec. III-E(c)).
//!
//! Each trainable parameter block gets a dedicated server thread that
//! owns that shard of the model. Compute groups send gradient updates;
//! the server applies them *in arrival order* with its own solver state
//! and replies with the fresh shard plus a version counter, making
//! staleness directly measurable (`version_at_apply − version_sent_with`).
//!
//! There is one update message, [`PsUpdate`]: a shared
//! [`CompressedGrad`]. A dense gradient is the `Dense` variant and is
//! applied straight from the message; any other variant is decompressed
//! server-side into a reusable buffer first. The bank of servers — the
//! fork-join of Fig. 4 — lives in [`crate::supervisor`].
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
use std::sync::Arc;
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

/// The one update message a shard accepts: an encoded gradient behind an
/// `Arc`, so the client's failover retry resends the identical message
/// (never re-encoded, never copied) and the worker's error-feedback
/// residual — which is *not* part of the message — stays consistent
/// across a respawn. Built without copying from an owned dense gradient
/// or an [`ErrorFeedback::encode`](crate::compress::ErrorFeedback::encode)
/// result; cloning one shares the payload.
#[derive(Clone, Debug)]
pub struct PsUpdate(pub(crate) Arc<CompressedGrad>);

impl From<CompressedGrad> for PsUpdate {
    fn from(msg: CompressedGrad) -> Self {
        Self(Arc::new(msg))
    }
}

impl From<Vec<f32>> for PsUpdate {
    fn from(grad: Vec<f32>) -> Self {
        CompressedGrad::Dense(grad).into()
    }
}

enum PsRequest {
    Update {
        msg: PsUpdate,
        reply: Sender<PsReply>,
    },
    Fetch {
        reply: Sender<PsReply>,
    },
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
            // Reusable decompression buffer for non-dense updates.
            let mut decode: Vec<f32> = Vec::new();
            while let Ok(req) = rx.recv() {
                match req {
                    PsRequest::Update { msg, reply } => {
                        if msg.0.len() != params.len() {
                            // Defensive: the client validates before
                            // sending, so this only triggers on a raw
                            // misuse. Drop the reply sender — the client
                            // observes ChannelClosed — and keep serving.
                            continue;
                        }
                        let tr = scidl_trace::TraceHandle::current();
                        let t0 = tr.now();
                        let grad: &[f32] = match &*msg.0 {
                            CompressedGrad::Dense(g) => g,
                            encoded => {
                                decode.resize(params.len(), 0.0);
                                encoded.decompress_into(&mut decode);
                                &decode
                            }
                        };
                        update(&mut params, grad);
                        version += 1;
                        tr.span(
                            track,
                            t0,
                            scidl_trace::EventKind::PsService {
                                shard: shard as u64,
                                version,
                            },
                        );
                        // The requester may have gone away; ignore send
                        // failures (a dead group, Sec. VIII-A).
                        let _ = reply.send(PsReply {
                            params: params.clone(),
                            version,
                        });
                    }
                    PsRequest::Fetch { reply } => {
                        let _ = reply.send(PsReply {
                            params: params.clone(),
                            version,
                        });
                    }
                    PsRequest::Crash => return version,
                    PsRequest::Shutdown => break,
                }
            }
            version
        });
        Self {
            tx,
            handle: Some(handle),
            param_len,
        }
    }

    /// Length of the parameter shard this server owns.
    pub fn param_len(&self) -> usize {
        self.param_len
    }

    /// Sends a gradient (dense or encoded) and blocks for the fresh
    /// parameters.
    pub fn update(&self, grad: impl Into<PsUpdate>) -> CommResult<PsReply> {
        let rrx = self.update_async(grad)?;
        rrx.recv().map_err(|_| CommError::ChannelClosed {
            context: "PS update reply",
        })
    }

    /// Posts a gradient without blocking; the reply arrives on the
    /// returned receiver (how the supervised bank forks over its shards
    /// and waits with a timeout).
    pub fn update_async(&self, grad: impl Into<PsUpdate>) -> CommResult<Receiver<PsReply>> {
        let msg = grad.into();
        if msg.0.len() != self.param_len {
            return Err(CommError::SizeMismatch {
                context: "PS update",
                expected: self.param_len,
                got: msg.0.len(),
            });
        }
        let (rtx, rrx) = bounded(1);
        self.tx
            .send(PsRequest::Update { msg, reply: rtx })
            .map_err(|_| CommError::ChannelClosed {
                context: "PS update",
            })?;
        Ok(rrx)
    }

    /// Fetches the current parameters without updating.
    pub fn fetch(&self) -> CommResult<PsReply> {
        let rrx = self.fetch_async()?;
        rrx.recv().map_err(|_| CommError::ChannelClosed {
            context: "PS fetch reply",
        })
    }

    /// Posts a fetch without blocking; the reply arrives on the returned
    /// receiver (lets the supervisor wait with a timeout).
    pub fn fetch_async(&self) -> CommResult<Receiver<PsReply>> {
        let (rtx, rrx) = bounded(1);
        self.tx
            .send(PsRequest::Fetch { reply: rtx })
            .map_err(|_| CommError::ChannelClosed {
                context: "PS fetch",
            })?;
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
            .ok_or(CommError::ChannelClosed {
                context: "PS shutdown",
            })?
            .join()
            .map_err(|_| CommError::ServerPanicked {
                context: "PS shutdown",
            })
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

    fn sgd_factory(lr: f32) -> crate::supervisor::UpdateFactory {
        Box::new(move || sgd(lr))
    }

    fn two_block_bank() -> crate::supervisor::SupervisedPsBank {
        crate::supervisor::SupervisedPsBank::spawn(
            vec![
                (vec![1.0], sgd_factory(1.0)),
                (vec![10.0, 20.0], sgd_factory(0.1)),
            ],
            Default::default(),
        )
    }

    #[test]
    fn bank_updates_blocks_independently() {
        let bank = two_block_bank();
        assert_eq!(bank.len(), 2);
        let replies = bank.update_all(&[vec![1.0], vec![10.0, 10.0]]).unwrap();
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
            CommError::SizeMismatch {
                context: "PS update",
                expected: 2,
                got: 1
            }
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
                    assert!(
                        std::time::Instant::now() < deadline,
                        "crash never took effect"
                    );
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
        let rc = ps_c.update(msg).unwrap();
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
        let rc = ps_c.update(CompressedGrad::Dense(grad.clone())).unwrap();
        let rd = ps_d.update(grad).unwrap();
        assert_eq!(rc.params, rd.params);
    }

    #[test]
    fn compressed_rejects_wrong_length() {
        use crate::compress::CompressedGrad;
        let ps = PsServer::spawn(vec![0.0, 0.0], sgd(1.0));
        let err = ps.update(CompressedGrad::Dense(vec![1.0])).unwrap_err();
        assert!(matches!(err, CommError::SizeMismatch { .. }));
        // Server still alive.
        assert_eq!(ps.update(vec![1.0, 1.0]).unwrap().version, 1);
    }

    #[test]
    fn bank_compressed_updates_blocks_independently() {
        use crate::compress::CompressedGrad;
        let bank = two_block_bank();
        let msgs: [PsUpdate; 2] = [
            CompressedGrad::Dense(vec![1.0]).into(),
            CompressedGrad::TopK {
                len: 2,
                indices: vec![0, 1],
                values: vec![10.0, 10.0],
            }
            .into(),
        ];
        let replies = bank.update_all(&msgs).unwrap();
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
