//! The supervised serving worker pool: threads that pull batches from
//! the [`BatchQueue`](crate::queue::BatchQueue), run the active model's
//! inference-only forward path, and scatter per-request results back to
//! waiting clients — under a supervisor that keeps the pool alive when
//! workers panic, hang or straggle.
//!
//! ## Resilience model
//!
//! * **Panics are contained.** Each worker runs under `catch_unwind`; a
//!   panicking worker reports to the supervisor instead of silently
//!   shrinking the pool. Its in-flight batch is recovered from the
//!   shared in-flight table and re-queued at the head of the line (up to
//!   the policy core's re-queue budget of 2 per request, so a poison
//!   request cannot crash-loop the pool forever), and the slot is
//!   respawned with exponential backoff.
//! * **Hangs are detected.** Workers stamp a heartbeat per batch; a
//!   worker that has held its batch past
//!   [`SupervisorConfig::heartbeat_timeout`] while requests are waiting
//!   gets a replacement spawned beside it (the stuck thread cannot be
//!   killed, but the pool regains capacity). An idle worker holds no
//!   batch and is never replaced.
//! * **Every request gets exactly one terminal outcome.** A reply
//!   (`Ok`), a typed shed ([`ServeError::DeadlineExceeded`] for
//!   requests that expire in the queue, [`ServeError::Shed`] at
//!   admission), or a dropped reply channel, which the client observes
//!   as [`ServeError::WorkerLost`]. When the last worker dies and no
//!   respawn remains, the supervisor closes and drains the queue so no
//!   request is stranded behind a consumer that will never come.
//!
//! Replies travel over rendezvous `std::sync::mpsc::sync_channel(1)`
//! pairs, so a slow client never blocks a worker (the send buffers one
//! result and returns).
//!
//! Fault injection: a [`FaultPlan`] with serving events (worker crashes,
//! slow workers) drives deterministic chaos through the *same* code
//! paths real failures take — an injected crash is a real `panic!` mid-
//! batch, recovered by the real supervisor. Which dispatch crashes and
//! which batch straggles is decided by the server's one
//! `policy::DispatchSchedule`, shared by every worker incarnation, the
//! same schedule a `sim` replica holds: a slow window counts the slot's
//! served batches across respawns and replacements.

use crate::policy::{retry_after, DispatchSchedule, Recovery, MAX_REQUEUES};
use crate::queue::{BatchPolicy, BatchQueue, SubmitError};
use crate::registry::ModelRegistry;
use scidl_cluster::faults::FaultPlan;
use scidl_core::metrics::LatencyRecorder;
use scidl_nn::InferScratch;
use scidl_tensor::{Shape4, Tensor};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A single inference request travelling through the queue.
pub struct ServeRequest {
    /// Input tensor with batch dimension 1: shape `(1, c, h, w)`.
    pub input: Tensor,
    /// Absolute deadline after which serving this request is pointless.
    deadline: Option<Instant>,
    /// How many times this request has been re-queued after a worker
    /// died holding it.
    attempts: u32,
    reply: SyncSender<Result<InferResult, ServeError>>,
}

/// The answer a client receives for one request.
#[derive(Clone, Debug)]
pub struct InferResult {
    /// Raw output logits for this request.
    pub logits: Vec<f32>,
    /// Time the request sat in the queue before its batch formed (the
    /// wait since its last (re-)queueing, for retried requests).
    pub queue_wait: Duration,
    /// Wall time of the batched forward pass that served it.
    pub compute: Duration,
    /// Size of the batch this request was served in.
    pub batch_size: usize,
    /// Training iteration of the model snapshot that answered.
    pub model_iteration: u64,
}

/// Why a request could not be served. Every accepted request ends in
/// exactly one terminal outcome: an [`InferResult`] or one of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control shed the request: the queue (or, through a
    /// router, the request's priority class's share of the fleet's
    /// queues) was full. `retry_after` is the server's backoff hint.
    Shed {
        /// Queue depth observed at rejection.
        depth: usize,
        /// Suggested wait before retrying.
        retry_after: Duration,
    },
    /// The server is shutting down (or lost its last worker); the
    /// request was rejected at admission.
    Closed,
    /// The request's deadline expired while it waited in the queue; it
    /// was shed before compute.
    DeadlineExceeded,
    /// The worker serving this request died and the request exhausted
    /// its re-queue attempts (or the pool was lost); the reply channel
    /// was dropped without an answer.
    WorkerLost,
    /// The input did not have batch dimension 1.
    BadInput(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Shed { depth, retry_after } => write!(
                f,
                "request shed: queue depth {depth} reached the admission bound (retry after {retry_after:?})"
            ),
            ServeError::Closed => write!(f, "server closed: request rejected at admission"),
            ServeError::DeadlineExceeded => write!(f, "deadline expired while queued"),
            ServeError::WorkerLost => write!(f, "worker died holding the request"),
            ServeError::BadInput(m) => write!(f, "bad input: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// How often the supervisor wakes to check worker heartbeats.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(10);
/// First respawn backoff; doubles per consecutive respawn of a slot.
const RESPAWN_BACKOFF_BASE: Duration = Duration::from_millis(1);
/// Upper bound on the exponential respawn backoff.
const RESPAWN_BACKOFF_CAP: Duration = Duration::from_millis(100);

/// The backoff before a slot's respawn after `doublings` consecutive
/// ones: the base doubled that many times, capped.
fn respawn_backoff(doublings: u32) -> Duration {
    RESPAWN_BACKOFF_BASE
        .saturating_mul(1 << doublings.min(16))
        .min(RESPAWN_BACKOFF_CAP)
}

/// Supervisor tuning: the hang timeout and the respawn budget. (The
/// re-queue budget of a request recovered from a dead worker is the
/// policy core's, shared with the virtual-time replica.)
#[derive(Clone, Copy, Debug)]
pub struct SupervisorConfig {
    /// A worker holding one batch this long while requests wait is
    /// presumed hung; a replacement is spawned beside it.
    pub heartbeat_timeout: Duration,
    /// Respawns allowed per worker slot before it is abandoned.
    pub max_respawns: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            heartbeat_timeout: Duration::from_millis(500),
            max_respawns: 8,
        }
    }
}

/// Worker-pool configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Number of worker threads pulling batches.
    pub workers: usize,
    /// Bound on the request queue; submissions beyond it are shed.
    pub queue_capacity: usize,
    /// Batch-formation policy.
    pub policy: BatchPolicy,
    /// Deterministic chaos: serving events of this plan (worker
    /// crashes, slow workers) are injected into the pool.
    pub faults: FaultPlan,
    /// Supervisor tuning.
    pub supervisor: SupervisorConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            queue_capacity: 64,
            policy: BatchPolicy::dynamic(8, Duration::from_millis(10)),
            faults: FaultPlan::none(),
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// What the resilience machinery did over a server's lifetime.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerReport {
    /// Requests answered with logits.
    pub served: u64,
    /// Requests shed at admission (queue full).
    pub shed: u64,
    /// Requests shed in the queue because their deadline expired.
    pub expired: u64,
    /// Worker panics the supervisor contained.
    pub panics: u64,
    /// Worker slots respawned after a panic.
    pub respawns: u64,
    /// Replacement workers spawned beside unresponsive slots.
    pub replacements: u64,
    /// In-flight requests recovered from dead workers and re-queued.
    pub requeued: u64,
    /// Requests abandoned (client saw [`ServeError::WorkerLost`]):
    /// re-queue budget exhausted or the whole pool was lost.
    pub worker_lost: u64,
}

#[derive(Default)]
struct Counters {
    served: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    panics: AtomicU64,
    respawns: AtomicU64,
    replacements: AtomicU64,
    requeued: AtomicU64,
    worker_lost: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ServerReport {
        ServerReport {
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            respawns: self.respawns.load(Ordering::Relaxed),
            replacements: self.replacements.load(Ordering::Relaxed),
            requeued: self.requeued.load(Ordering::Relaxed),
            worker_lost: self.worker_lost.load(Ordering::Relaxed),
        }
    }
}

/// State shared by clients, workers and the supervisor.
struct Shared {
    queue: BatchQueue<ServeRequest>,
    registry: Arc<ModelRegistry>,
    policy: BatchPolicy,
    /// Which dispatch crashes and which batch straggles, shared by every
    /// incarnation of every slot.
    schedule: Mutex<DispatchSchedule>,
    /// In-flight batches by worker incarnation: a worker parks its
    /// batch here before compute and takes it back to reply, so the
    /// supervisor can recover the requests from a dead incarnation.
    inflight: Mutex<HashMap<u64, Vec<ServeRequest>>>,
    /// Last sign of life per live incarnation.
    heartbeats: Mutex<HashMap<u64, Instant>>,
    /// Thread budget of each worker (first spawn or respawn): the CPUs
    /// [`Server::start`] was allowed, split between the configured workers.
    threads_per_worker: usize,
    /// Latency account of everything served. Shared (rather than
    /// per-worker, merged at exit) so a panicking worker cannot lose the
    /// samples of batches it already answered.
    recorder: Mutex<LatencyRecorder>,
    counters: Counters,
}

enum WorkerEvent {
    Exited { incarnation: u64 },
    Panicked { slot: usize, incarnation: u64 },
}

/// Handle for submitting requests to a running [`Server`]. Cheap to
/// clone; clones share the same bounded queue.
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
}

/// The receiver a [`Client::submit`] hands back: one terminal outcome
/// per request. A `RecvError` on it means the reply channel was dropped
/// — map it to [`ServeError::WorkerLost`], as [`Client::infer`] does.
pub type ReplyReceiver = Receiver<Result<InferResult, ServeError>>;

impl Client {
    /// Submits `input` (shape `(1, c, h, w)`) without waiting for the
    /// answer and with no deadline. Sheds with [`ServeError::Shed`] when
    /// the queue is full.
    pub fn submit(&self, input: Tensor) -> Result<ReplyReceiver, ServeError> {
        self.submit_with_deadline(input, None)
    }

    /// Submits `input` with a relative `deadline`: if the request is
    /// still queued when it lapses, it is shed before compute and the
    /// receiver yields [`ServeError::DeadlineExceeded`].
    pub fn submit_with_deadline(
        &self,
        input: Tensor,
        deadline: Option<Duration>,
    ) -> Result<ReplyReceiver, ServeError> {
        if input.shape().n != 1 {
            return Err(ServeError::BadInput(format!(
                "expected batch dimension 1, got shape {:?}",
                input.shape()
            )));
        }
        let deadline = deadline.map(|d| Instant::now() + d);
        let (reply, rx) = sync_channel(1);
        let req = ServeRequest {
            input,
            deadline,
            attempts: 0,
            reply,
        };
        match self.shared.queue.submit_with_deadline(req, deadline) {
            Ok(()) => Ok(rx),
            Err(SubmitError::Full { depth, .. }) => {
                self.shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                let tr = scidl_trace::TraceHandle::current();
                if tr.enabled() {
                    tr.instant(
                        u64::MAX,
                        scidl_trace::EventKind::Shed {
                            worker: u64::MAX,
                            count: 1,
                            depth: depth as u64,
                            reason: "watermark",
                        },
                    );
                }
                let retry_after = retry_after(&self.shared.policy, depth);
                Err(ServeError::Shed { depth, retry_after })
            }
            Err(SubmitError::Closed(_)) => Err(ServeError::Closed),
        }
    }

    /// Submits `input` and blocks until its terminal outcome arrives. A
    /// dropped reply channel (worker death with the re-queue budget
    /// exhausted, or pool loss) surfaces as [`ServeError::WorkerLost`].
    pub fn infer(&self, input: Tensor) -> Result<InferResult, ServeError> {
        self.infer_with_deadline(input, None)
    }

    /// [`Client::infer`] with a relative queueing deadline.
    pub fn infer_with_deadline(
        &self,
        input: Tensor,
        deadline: Option<Duration>,
    ) -> Result<InferResult, ServeError> {
        let rx = self.submit_with_deadline(input, deadline)?;
        rx.recv().map_err(|_| ServeError::WorkerLost)?
    }
}

/// A running supervised worker pool bound to a [`ModelRegistry`].
pub struct Server {
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<LatencyRecorder>>,
}

impl Server {
    /// Spawns `cfg.workers` supervised threads serving the registry's
    /// active model. Hot-swapping the registry redirects the *next*
    /// batch of every worker; in-flight batches finish on the snapshot
    /// they started with.
    pub fn start(registry: Arc<ModelRegistry>, cfg: ServerConfig) -> Self {
        assert!(cfg.workers >= 1, "need at least one worker");
        install_quiet_panic_hook();
        let shared = Arc::new(Shared {
            queue: BatchQueue::new(cfg.queue_capacity),
            registry,
            policy: cfg.policy,
            schedule: Mutex::new(DispatchSchedule::new(&cfg.faults, 0, cfg.workers)),
            inflight: Mutex::new(HashMap::new()),
            heartbeats: Mutex::new(HashMap::new()),
            threads_per_worker: scidl_tensor::par::budget(cfg.workers),
            recorder: Mutex::new(LatencyRecorder::new()),
            counters: Counters::default(),
        });
        let (tx, rx) = std::sync::mpsc::channel();
        let mut live = HashMap::new();
        for slot in 0..cfg.workers {
            let incarnation = slot as u64;
            let handle = spawn_worker(&shared, slot, incarnation, tx.clone());
            live.insert(incarnation, (slot, handle));
        }
        let sup_shared = Arc::clone(&shared);
        let sup_cfg = cfg.supervisor;
        let next_incarnation = cfg.workers as u64;
        let supervisor = std::thread::Builder::new()
            .name("scidl-serve-supervisor".into())
            .spawn(move || {
                scidl_tensor::par::set_width(1);
                supervisor_loop(sup_shared, sup_cfg, rx, tx, live, next_incarnation)
            })
            .expect("spawn supervisor");
        Self {
            shared,
            supervisor: Some(supervisor),
        }
    }

    /// A handle for submitting requests.
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Number of requests currently queued (not yet batched).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Live snapshot of the resilience counters.
    pub fn report(&self) -> ServerReport {
        self.shared.counters.snapshot()
    }

    /// Stops admitting requests, drains the queue, joins the pool and
    /// returns the merged latency account of everything served.
    pub fn shutdown(self) -> LatencyRecorder {
        self.shutdown_with_report().0
    }

    /// [`Server::shutdown`], also returning the final resilience report.
    pub fn shutdown_with_report(mut self) -> (LatencyRecorder, ServerReport) {
        self.shared.queue.close();
        let recorder = self
            .supervisor
            .take()
            .expect("shutdown called once")
            .join()
            .expect("supervisor panicked");
        (recorder, self.shared.counters.snapshot())
    }
}

// ---------------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------------

fn supervisor_loop(
    shared: Arc<Shared>,
    cfg: SupervisorConfig,
    rx: Receiver<WorkerEvent>,
    tx: Sender<WorkerEvent>,
    mut live: HashMap<u64, (usize, JoinHandle<()>)>,
    mut next_incarnation: u64,
) -> LatencyRecorder {
    let tr = scidl_trace::TraceHandle::current();
    let mut respawns_per_slot: HashMap<usize, u32> = HashMap::new();
    let mut suspected: HashSet<u64> = HashSet::new();
    loop {
        match rx.recv_timeout(HEARTBEAT_INTERVAL) {
            Ok(WorkerEvent::Exited { incarnation }) => {
                if let Some((_, handle)) = live.remove(&incarnation) {
                    let _ = handle.join();
                }
                shared.heartbeats.lock().unwrap().remove(&incarnation);
                if live.is_empty() && shared.queue.is_closed() {
                    break;
                }
            }
            Ok(WorkerEvent::Panicked { slot, incarnation }) => {
                shared.counters.panics.fetch_add(1, Ordering::Relaxed);
                if let Some((_, handle)) = live.remove(&incarnation) {
                    let _ = handle.join();
                }
                shared.heartbeats.lock().unwrap().remove(&incarnation);
                suspected.remove(&incarnation);
                // Recover the dead incarnation's in-flight batch: each
                // request either goes back to the head of the queue or,
                // once its re-queue budget is spent, is abandoned (its
                // client observes WorkerLost via the dropped reply).
                let body = shared
                    .inflight
                    .lock()
                    .unwrap()
                    .remove(&incarnation)
                    .unwrap_or_default();
                let mut requeue = Vec::new();
                for mut req in body {
                    req.attempts += 1;
                    // A pool has no sibling to reroute to (the router
                    // does that, a level up): reroute budget 0.
                    match Recovery::after_crash(req.attempts, MAX_REQUEUES, 0, 0) {
                        Recovery::Requeue => {
                            shared.counters.requeued.fetch_add(1, Ordering::Relaxed);
                            let deadline = req.deadline;
                            requeue.push((req, deadline));
                        }
                        _ => {
                            // Dropping `req` drops its reply SyncSender.
                            shared.counters.worker_lost.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                let recovered = requeue.len() as u64;
                shared.queue.requeue_front(requeue);

                let n = respawns_per_slot.entry(slot).or_insert(0);
                if *n < cfg.max_respawns {
                    let backoff = respawn_backoff(*n);
                    *n += 1;
                    std::thread::sleep(backoff);
                    let incarnation = next_incarnation;
                    next_incarnation += 1;
                    // Counted before the spawn: the new incarnation may
                    // serve work before this thread runs again, and a
                    // report must never show that work without it.
                    shared.counters.respawns.fetch_add(1, Ordering::Relaxed);
                    let handle = spawn_worker(&shared, slot, incarnation, tx.clone());
                    live.insert(incarnation, (slot, handle));
                    if tr.enabled() {
                        tr.instant(
                            slot as u64,
                            scidl_trace::EventKind::WorkerRespawn {
                                worker: slot as u64,
                                incarnation,
                                backoff_s: backoff.as_secs_f64(),
                                requeued: recovered,
                            },
                        );
                    }
                } else if live.is_empty() {
                    // The whole pool is gone and no respawn remains:
                    // close the front door and fail everything still
                    // queued rather than strand it.
                    shared.queue.close();
                    let stranded = shared.queue.drain_all();
                    shared
                        .counters
                        .worker_lost
                        .fetch_add(stranded.len() as u64, Ordering::Relaxed);
                    drop(stranded);
                    break;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                // Heartbeat sweep: a worker that has held a batch past
                // the timeout while work is waiting is presumed hung —
                // spawn one replacement beside it (threads cannot be
                // killed; the pool regains capacity and the straggler
                // is absorbed when it eventually finishes). A worker
                // parked in the batch former holds no batch and is
                // healthy however old its last heartbeat is.
                if shared.queue.is_empty() {
                    continue;
                }
                let now = Instant::now();
                let stale: Vec<(u64, usize)> = {
                    let hb = shared.heartbeats.lock().unwrap();
                    let inflight = shared.inflight.lock().unwrap();
                    live.iter()
                        .filter(|(inc, _)| {
                            inflight.contains_key(inc)
                                && hb
                                    .get(inc)
                                    .is_some_and(|t| now.duration_since(*t) > cfg.heartbeat_timeout)
                        })
                        .map(|(inc, (slot, _))| (*inc, *slot))
                        .collect()
                };
                for (inc, slot) in stale {
                    if !suspected.insert(inc) {
                        continue; // already replaced once
                    }
                    let incarnation = next_incarnation;
                    next_incarnation += 1;
                    shared.counters.replacements.fetch_add(1, Ordering::Relaxed);
                    let handle = spawn_worker(&shared, slot, incarnation, tx.clone());
                    live.insert(incarnation, (slot, handle));
                    if tr.enabled() {
                        tr.instant(
                            slot as u64,
                            scidl_trace::EventKind::WorkerRespawn {
                                worker: slot as u64,
                                incarnation,
                                backoff_s: 0.0,
                                requeued: 0,
                            },
                        );
                    }
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    std::mem::take(&mut *shared.recorder.lock().unwrap())
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn spawn_worker(
    shared: &Arc<Shared>,
    slot: usize,
    incarnation: u64,
    tx: Sender<WorkerEvent>,
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("scidl-serve-worker-{slot}-{incarnation}"))
        .spawn(move || {
            scidl_tensor::par::set_width(shared.threads_per_worker);
            QUIET_PANIC.with(|q| q.set(true));
            shared
                .heartbeats
                .lock()
                .unwrap()
                .insert(incarnation, Instant::now());
            let result = catch_unwind(AssertUnwindSafe(|| worker_loop(&shared, slot, incarnation)));
            match result {
                Ok(()) => {
                    let _ = tx.send(WorkerEvent::Exited { incarnation });
                }
                Err(_) => {
                    let _ = tx.send(WorkerEvent::Panicked { slot, incarnation });
                }
            }
        })
        .expect("spawn worker")
}

fn worker_loop(shared: &Shared, slot: usize, incarnation: u64) {
    let mut scratch = InferScratch::new();
    // Attach to whichever trace run the embedding process started; each
    // worker slot gets its own lane, each dispatched batch one span + row.
    let tr = scidl_trace::TraceHandle::current();
    while let Some(popped) = shared.queue.pop_expiring(&shared.policy) {
        shared
            .heartbeats
            .lock()
            .unwrap()
            .insert(incarnation, Instant::now());
        if !popped.expired.is_empty() {
            // Deadline shed: answer before any compute is spent.
            let n = popped.expired.len() as u64;
            shared.counters.expired.fetch_add(n, Ordering::Relaxed);
            if tr.enabled() {
                tr.instant(
                    slot as u64,
                    scidl_trace::EventKind::Shed {
                        worker: slot as u64,
                        count: n,
                        depth: shared.queue.len() as u64,
                        reason: "deadline",
                    },
                );
            }
            for req in popped.expired {
                let _ = req.reply.send(Err(ServeError::DeadlineExceeded));
            }
        }
        if popped.batch.is_empty() {
            continue;
        }
        let model = shared.registry.current();
        let (reqs, waits): (Vec<ServeRequest>, Vec<Duration>) = popped.batch.into_iter().unzip();
        let b = reqs.len();
        let item_shape = reqs[0].input.shape();
        let mut x = Tensor::zeros(Shape4::new(b, item_shape.c, item_shape.h, item_shape.w));
        for (i, req) in reqs.iter().enumerate() {
            assert_eq!(
                req.input.shape(),
                item_shape,
                "all requests in a batch must share the model's input shape"
            );
            x.item_mut(i).copy_from_slice(req.input.item(0));
        }
        // Park the batch where the supervisor can find it, then take the
        // schedule's decision: a chaos crash is a real panic mid-batch,
        // recovered through the same path a genuine bug would take. The
        // guard drops with the statement, before any panic, so the
        // schedule's lock is never poisoned.
        shared.inflight.lock().unwrap().insert(incarnation, reqs);
        let d = shared.schedule.lock().unwrap().dispatch(slot);
        if d.crash.is_some() {
            panic!("injected worker crash: slot {slot} batch {}", d.batch);
        }
        let span_t = tr.now();
        let t0 = Instant::now();
        // Route through the model wrapper so a quantized sidecar (when
        // one was published via the guarded int8 swap) serves the batch.
        let y = model.infer_with(&x, &mut scratch);
        // Chaos straggler: stretch this batch's wall time.
        if d.slow > 1.0 {
            std::thread::sleep(t0.elapsed().mul_f64(d.slow - 1.0));
        }
        let compute = t0.elapsed();
        let reqs = shared
            .inflight
            .lock()
            .unwrap()
            .remove(&incarnation)
            .expect("worker's own in-flight batch present");
        if tr.enabled() {
            // The head request waited longest; report its wait as the
            // batch's queue component.
            let queue_s = waits.iter().map(|w| w.as_secs_f64()).fold(0.0f64, f64::max);
            let (wu, compute_s) = (slot as u64, compute.as_secs_f64());
            let (span, row) = crate::batch_trace(wu, d.batch, span_t, queue_s, compute_s, b as u64);
            tr.span(wu, span_t, span);
            tr.row(row);
        }
        shared
            .counters
            .served
            .fetch_add(b as u64, Ordering::Relaxed);
        {
            let mut rec = shared.recorder.lock().unwrap();
            for w in &waits {
                rec.push(w.as_secs_f64(), compute.as_secs_f64());
            }
        }
        for (i, (req, queue_wait)) in reqs.into_iter().zip(waits).enumerate() {
            // A client that dropped its receiver just loses the answer.
            let _ = req.reply.send(Ok(InferResult {
                logits: y.item(i).to_vec(),
                queue_wait,
                compute,
                batch_size: b,
                model_iteration: model.iteration,
            }));
        }
    }
}

// ---------------------------------------------------------------------------
// Quiet panic hook for supervised workers
// ---------------------------------------------------------------------------

thread_local! {
    static QUIET_PANIC: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Supervised workers panic by design under chaos plans; silencing the
/// default hook's backtrace spew for *worker threads only* keeps test
/// and benchmark output readable. Every other thread's panics print as
/// usual.
fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANIC.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ModelRegistry, ServingModel};
    use scidl_nn::arch::hep_small;
    use scidl_tensor::TensorRng;

    fn registry(seed: u64, iteration: u64) -> Arc<ModelRegistry> {
        let mut rng = TensorRng::new(seed);
        Arc::new(ModelRegistry::new(ServingModel::new(
            hep_small(&mut rng),
            iteration,
            seed,
        )))
    }

    fn probe(seed: u64) -> Tensor {
        let mut rng = TensorRng::new(seed);
        rng.uniform_tensor(Shape4::new(1, 3, 32, 32), -1.0, 1.0)
    }

    #[test]
    fn served_logits_match_direct_inference() {
        let reg = registry(31, 5);
        let server = Server::start(Arc::clone(&reg), ServerConfig::default());
        let client = server.client();
        let x = probe(1);
        let want = reg.current().network.infer(&x);
        let got = client.infer(x).unwrap();
        assert_eq!(
            got.logits,
            want.item(0),
            "served logits must be bit-identical"
        );
        assert_eq!(got.model_iteration, 5);
        let rec = server.shutdown();
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn batched_requests_each_get_their_own_logits() {
        let reg = registry(32, 0);
        let cfg = ServerConfig {
            policy: BatchPolicy::dynamic(4, Duration::from_millis(200)),
            ..ServerConfig::default()
        };
        let server = Server::start(Arc::clone(&reg), cfg);
        let client = server.client();
        let inputs: Vec<Tensor> = (0..4).map(|i| probe(100 + i)).collect();
        let rxs: Vec<_> = inputs
            .iter()
            .map(|x| client.submit(x.clone()).unwrap())
            .collect();
        for (x, rx) in inputs.iter().zip(rxs) {
            let got = rx.recv().unwrap().unwrap();
            let want = reg.current().network.infer(x);
            assert_eq!(got.logits, want.item(0));
        }
        let rec = server.shutdown();
        assert_eq!(rec.len(), 4);
    }

    #[test]
    fn rejects_bad_batch_dimension() {
        let reg = registry(33, 0);
        let server = Server::start(reg, ServerConfig::default());
        let client = server.client();
        let mut rng = TensorRng::new(2);
        let x = rng.uniform_tensor(Shape4::new(2, 3, 32, 32), -1.0, 1.0);
        assert!(matches!(client.infer(x), Err(ServeError::BadInput(_))));
        server.shutdown();
    }

    #[test]
    fn hot_swap_redirects_subsequent_requests() {
        let reg = registry(34, 1);
        let server = Server::start(Arc::clone(&reg), ServerConfig::default());
        let client = server.client();
        assert_eq!(client.infer(probe(3)).unwrap().model_iteration, 1);
        let mut rng = TensorRng::new(35);
        reg.swap(ServingModel::new(hep_small(&mut rng), 2, 35));
        assert_eq!(client.infer(probe(3)).unwrap().model_iteration, 2);
        server.shutdown();
    }

    #[test]
    fn shutdown_merges_latency_accounts_across_workers() {
        let reg = registry(36, 0);
        let cfg = ServerConfig {
            workers: 2,
            policy: BatchPolicy::batch1(),
            ..Default::default()
        };
        let server = Server::start(reg, cfg);
        let client = server.client();
        let rxs: Vec<_> = (0..6)
            .map(|i| client.submit(probe(200 + i)).unwrap())
            .collect();
        for rx in rxs {
            rx.recv().unwrap().unwrap();
        }
        let (rec, report) = server.shutdown_with_report();
        assert_eq!(rec.len(), 6);
        assert_eq!(report.served, 6);
        assert_eq!(report.panics, 0);
        let total = rec.total_summary().unwrap();
        assert!(total.min >= 0.0 && total.count == 6);
    }

    #[test]
    fn injected_crash_is_respawned_and_requests_survive() {
        let reg = registry(40, 0);
        let cfg = ServerConfig {
            workers: 1,
            policy: BatchPolicy::batch1(),
            faults: FaultPlan::none().with_worker_crash(0, 1, 0.0),
            ..Default::default()
        };
        let server = Server::start(reg, cfg);
        let client = server.client();
        // Sequential round-trips: batch 0 serves normally, batch 1 kills
        // the worker mid-request; the supervisor re-queues the in-flight
        // request and respawns the slot, so the client still gets logits.
        for i in 0..4 {
            let r = client.infer(probe(300 + i)).unwrap();
            assert_eq!(r.logits.len(), scidl_nn::arch::HEP_CLASSES);
        }
        let (rec, report) = server.shutdown_with_report();
        assert_eq!(rec.len(), 4, "all four requests served despite the crash");
        assert_eq!(report.panics, 1);
        assert_eq!(report.respawns, 1);
        assert_eq!(report.requeued, 1);
        assert_eq!(report.worker_lost, 0);
    }

    #[test]
    fn pool_exhaustion_fails_requests_instead_of_hanging() {
        let reg = registry(41, 0);
        let cfg = ServerConfig {
            workers: 1,
            policy: BatchPolicy::batch1(),
            // Crash on every batch; two respawns allowed: the first request
            // dies three times, one more than its two re-queues, and after
            // the third crash the pool is gone for good.
            faults: FaultPlan::none()
                .with_worker_crash(0, 0, 0.0)
                .with_worker_crash(0, 0, 0.0)
                .with_worker_crash(0, 0, 0.0),
            supervisor: SupervisorConfig {
                max_respawns: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let server = Server::start(reg, cfg);
        let client = server.client();
        let mut outcomes = Vec::new();
        for i in 0..4 {
            outcomes.push(client.infer(probe(400 + i)));
            std::thread::sleep(Duration::from_millis(5));
        }
        // Every request terminated (this test completing proves no
        // hang); the thrice-crashed one sees WorkerLost and
        // post-exhaustion submissions are rejected at admission.
        assert!(outcomes.iter().all(|o| matches!(
            o,
            Err(ServeError::WorkerLost) | Err(ServeError::Closed) | Ok(_)
        )));
        assert!(
            outcomes
                .iter()
                .any(|o| matches!(o, Err(ServeError::WorkerLost))),
            "{outcomes:?}"
        );
        let (_, report) = server.shutdown_with_report();
        assert_eq!((report.panics, report.requeued), (3, 2));
        assert!(report.worker_lost >= 1);
    }

    #[test]
    fn deadline_expires_in_queue_as_typed_shed() {
        let reg = registry(42, 0);
        // One worker kept busy by a big first request batch window: use
        // a long batch-former delay so the queued request's deadline
        // fires first.
        let cfg = ServerConfig {
            policy: BatchPolicy::dynamic(32, Duration::from_millis(250)),
            ..Default::default()
        };
        let server = Server::start(reg, cfg);
        let client = server.client();
        let err = client
            .infer_with_deadline(probe(7), Some(Duration::from_millis(10)))
            .unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded);
        let (rec, report) = server.shutdown_with_report();
        assert_eq!(rec.len(), 0);
        assert_eq!(report.expired, 1);
        assert_eq!(report.served, 0);
    }

    #[test]
    fn watermark_sheds_with_retry_hint() {
        let reg = registry(43, 0);
        let cfg = ServerConfig {
            workers: 1,
            queue_capacity: 2,
            // Huge batch window: nothing dispatches while we overfill.
            policy: BatchPolicy::dynamic(64, Duration::from_secs(30)),
            ..Default::default()
        };
        let server = Server::start(reg, cfg);
        let client = server.client();
        let _a = client.submit(probe(1)).unwrap();
        let _b = client.submit(probe(2)).unwrap();
        match client.submit(probe(3)) {
            Err(ServeError::Shed { depth, retry_after }) => {
                assert_eq!(depth, 2);
                assert!(retry_after > Duration::ZERO);
            }
            other => panic!("expected Shed, got {other:?}"),
        }
        assert_eq!(server.report().shed, 1);
        server.shutdown();
    }

    /// Six sequential batch-1 requests under a crash at dispatch 2 and a
    /// 40× window over the slot's served batch 2: the server's schedule
    /// advanced exactly as a fresh one driven through the same seven
    /// dispatches, the crashed one included, so the respawned
    /// incarnation's first batch was the slot's 3rd served and took the
    /// 40× factor. Asserts the decision; reads no clock.
    #[test]
    fn slow_worker_fault_stretches_compute() {
        let plan = FaultPlan::none()
            .with_worker_crash(0, 2, 0.0)
            .with_slow_worker(0, 2, 3, 40.0);
        let cfg = ServerConfig {
            workers: 1,
            policy: BatchPolicy::batch1(),
            faults: plan.clone(),
            ..Default::default()
        };
        let server = Server::start(registry(45, 0), cfg);
        let client = server.client();
        for i in 0..6 {
            client.infer(probe(i)).unwrap();
        }
        let mut want = DispatchSchedule::new(&plan, 0, 1);
        let served: Vec<f64> = (0..7)
            .map(|_| want.dispatch(0))
            .filter(|d| d.crash.is_none())
            .map(|d| d.slow)
            .collect();
        assert_eq!(
            served,
            [1.0, 1.0, 40.0, 1.0, 1.0, 1.0],
            "the 3rd served batch straggles"
        );
        assert_eq!(*server.shared.schedule.lock().unwrap(), want);
        let (rec, report) = server.shutdown_with_report();
        assert_eq!((rec.len(), report.panics, report.requeued), (6, 1, 1));
    }

    /// Regression: the sweep used to compare every live worker's last
    /// heartbeat with the timeout whenever the queue was non-empty, but
    /// a worker only heartbeats when the batch former hands it a batch —
    /// so after an idle spell the first request, waiting out `max_delay`
    /// in the queue, got its healthy parked worker "replaced".
    #[test]
    fn idle_worker_is_not_replaced_when_traffic_resumes() {
        let reg = registry(47, 0);
        let cfg = ServerConfig {
            workers: 1,
            // The head waits 40 ms in the queue: four sweeps see a
            // non-empty queue behind a worker silent for 4× the timeout.
            policy: BatchPolicy::dynamic(8, Duration::from_millis(40)),
            supervisor: SupervisorConfig {
                heartbeat_timeout: Duration::from_millis(50),
                ..Default::default()
            },
            ..Default::default()
        };
        let server = Server::start(reg, cfg);
        let client = server.client();
        std::thread::sleep(Duration::from_millis(200));
        let rxs: Vec<_> = (0..4)
            .map(|i| client.submit(probe(500 + i)).unwrap())
            .collect();
        for rx in rxs {
            rx.recv().unwrap().unwrap();
        }
        let report = server.report();
        assert_eq!(
            report.replacements, 0,
            "an idle worker is healthy: {report:?}"
        );
        assert_eq!(server.shutdown_with_report().1.served, 4);
    }

    #[test]
    fn stuck_batch_with_work_waiting_gets_exactly_one_replacement() {
        let reg = registry(48, 0);
        let cfg = ServerConfig {
            workers: 1,
            policy: BatchPolicy::dynamic(8, Duration::from_millis(5)),
            // The slot's second batch is stretched far past the timeout
            // (the straggler sleeps (factor − 1)× its own compute time).
            // The replacement continues the slot's count of served
            // batches: the stuck batch is slot batch 1, so the
            // replacement's first is slot batch 2 and healthy.
            faults: FaultPlan::none().with_slow_worker(0, 1, 2, 3000.0),
            supervisor: SupervisorConfig {
                heartbeat_timeout: Duration::from_millis(50),
                ..Default::default()
            },
            ..Default::default()
        };
        let server = Server::start(reg, cfg);
        let client = server.client();
        client.infer(probe(599)).unwrap();
        let stuck = client.submit(probe(600)).unwrap();
        // Once the worker holds the stuck batch, queue work behind it:
        // only a replacement can serve these before the batch ends.
        while server.queue_depth() > 0 {
            std::thread::yield_now();
        }
        let waiting: Vec<_> = (0..3)
            .map(|i| client.submit(probe(601 + i)).unwrap())
            .collect();
        for rx in waiting {
            rx.recv().unwrap().unwrap();
        }
        assert!(
            stuck.try_recv().is_err(),
            "the stuck batch must outlast the work behind it"
        );
        assert_eq!(
            server.report().replacements,
            1,
            "one hung incarnation, one replacement"
        );
        stuck.recv().unwrap().unwrap();
        let (rec, report) = server.shutdown_with_report();
        assert_eq!((rec.len(), report.served, report.replacements), (5, 5, 1));
    }
}
