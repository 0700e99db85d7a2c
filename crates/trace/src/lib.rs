#![warn(missing_docs)]
//! # scidl-trace
//!
//! Structured tracing and numeric-health telemetry for the scidl stack.
//!
//! The paper's evaluation is built on *measurements* — per-layer time
//! profiles (Fig. 5), peak vs sustained windows (Sec. VI-B3), straggler
//! and staleness effects (Figs. 6–8). This crate is the substrate those
//! measurements flow through: a [`TraceSink`] collects typed spans and
//! events ([`EventKind`]) from the engines, the communication layer and
//! the serving stack, plus numeric-health alerts ([`HealthAlert`]) from
//! non-finite sentinels, and exports them as
//!
//! * Chrome `trace_event` JSON ([`TraceSink::chrome_json`]) — load the
//!   file in `chrome://tracing` / Perfetto for a zoomable timeline, and
//! * a per-iteration CSV ([`TraceSink::iteration_csv`]) with the
//!   compute/comm/PS/queue split, staleness and loss of every iteration.
//!
//! ## Design
//!
//! * **Lock-cheap.** The disabled fast path is a single relaxed atomic
//!   load ([`is_enabled`]); no allocation, no lock. When enabled, events
//!   are appended under a short-lived mutex at span granularity (one
//!   push per span, not per sample), which is far off every hot loop's
//!   critical path.
//! * **Deterministic.** Virtual-time producers (the simulation engine,
//!   the serving simulator) record explicit timestamps via
//!   [`TraceHandle::event_at`], so a seeded run emits a bit-identical
//!   trace. Wall-clock producers stamp real elapsed time since the sink
//!   was created.
//! * **Global install.** Engines and kernels discover the sink through
//!   [`install`]/[`active`]; the [`TraceHandle`] wrapper makes call
//!   sites one-liners that compile to no-ops when tracing is off.
//! * **Bounded.** The sink caps its event buffer and counts drops
//!   instead of growing without bound on long runs.
//!
//! This crate is a dependency *leaf* (std only) so that every layer —
//! `scidl-tensor`, `scidl-comm`, `scidl-core`, `scidl-serve` — can feed
//! it. `scidl-core` re-exports it as `scidl_core::trace`.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default cap on buffered events before the sink starts dropping (and
/// counting) instead of growing without bound.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

// ---------------------------------------------------------------------------
// Event model
// ---------------------------------------------------------------------------

/// What a span or instant event describes. Durations live on the
/// enclosing [`TraceEvent`]; the kind carries the typed payload.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// One full engine iteration of a compute group.
    Iteration {
        /// Compute-group id.
        group: u64,
        /// Iteration number within the run.
        iter: u64,
    },
    /// Forward+backward gradient computation within an iteration.
    Compute {
        /// Compute-group id.
        group: u64,
        /// Iteration number within the run.
        iter: u64,
    },
    /// An all-reduce collective over `elems` f32 elements.
    Allreduce {
        /// Number of f32 elements reduced.
        elems: u64,
        /// Bytes a real wire would carry for this rank's contribution
        /// (smaller than `4 * elems` when gradient compression is on).
        bytes: u64,
    },
    /// Parameter-server exchange (update + fetch) as seen by a group,
    /// with the gradient staleness the reply revealed.
    PsExchange {
        /// Compute-group id.
        group: u64,
        /// Updates applied between this group's fetch and its gradient.
        staleness: u64,
        /// Bytes-on-wire for the update leg (compressed when gradient
        /// compression is on; the fetch leg is always dense).
        bytes: u64,
    },
    /// Server-side application of one PS update on a shard.
    PsService {
        /// Shard index (`u32::MAX` → unlabelled server).
        shard: u64,
        /// Parameter version after the update.
        version: u64,
    },
    /// A parameter-server shard respawn after a failure (instant).
    PsRespawn {
        /// Shard index.
        shard: u64,
    },
    /// Waiting on the slowest node after a group's compute: a scheduled
    /// straggler window and, in simulated time, the barrier's jitter.
    Straggler {
        /// Compute-group id.
        group: u64,
        /// Stretched over nominal compute time.
        factor: f64,
    },
    /// A checkpoint write.
    Checkpoint {
        /// Iteration the checkpoint captures.
        iter: u64,
        /// Serialized size in bytes.
        bytes: u64,
    },
    /// A dispatched inference batch with its queue/compute split.
    BatchDispatch {
        /// Worker id that ran the batch.
        worker: u64,
        /// Number of requests in the batch.
        batch: u64,
        /// Mean time the batch's requests waited in the queue (s).
        queue_s: f64,
        /// Model compute time for the batch (s).
        compute_s: f64,
    },
    /// One backward pass with bucketed gradient communication overlapped
    /// behind it (the MLSL-style overlap of Sec. V / Das et al.). Span
    /// duration is the backward+drain window; `hidden_s` is the part of
    /// the communication that ran concurrently with backward compute.
    Overlap {
        /// Number of gradient buckets the flat gradient was split into.
        buckets: u64,
        /// Communication time hidden behind backward compute (s).
        hidden_s: f64,
    },
    /// Requests shed by serving admission control or deadline expiry
    /// (instant).
    Shed {
        /// Worker (expiry) or client lane (admission) the shed happened on.
        worker: u64,
        /// Number of requests shed in this event.
        count: u64,
        /// Queue depth at the moment of the shed.
        depth: u64,
        /// `"watermark"`, `"queue_full"`, `"deadline"` or `"closed"`.
        reason: &'static str,
    },
    /// A serving worker slot respawned by the supervisor after a crash
    /// or hang (instant).
    WorkerRespawn {
        /// Worker slot that was respawned.
        worker: u64,
        /// Incarnation number of the replacement (1 = first respawn).
        incarnation: u64,
        /// Exponential backoff the supervisor waited before respawning (s).
        backoff_s: f64,
        /// In-flight requests recovered and re-queued from the dead body.
        requeued: u64,
    },
    /// A hot-swap attempt rejected before publication (instant).
    SwapReject {
        /// `"checksum"`, `"roundtrip"`, `"nonfinite"` or `"breaker_open"`.
        reason: &'static str,
        /// Consecutive rejected swaps so far (the breaker's counter).
        failures: u64,
    },
    /// The hot-swap circuit breaker changing state (instant).
    Breaker {
        /// True when the breaker opened, false when it closed.
        open: bool,
        /// Consecutive failures at the transition.
        failures: u64,
    },
    /// A fleet router dispatch decision (instant).
    Route {
        /// Replica id the request was sent to.
        replica: u64,
        /// Queue depth of the chosen replica at dispatch time.
        depth: u64,
        /// `"round-robin"`, `"least-loaded"`, `"p2c"` or `"canary"`.
        policy: &'static str,
    },
    /// The autoscaler adding a replica (instant).
    ScaleUp {
        /// Live replica count *after* the scale-up.
        replicas: u64,
        /// Total fleet backlog that triggered the decision.
        backlog: u64,
    },
    /// The autoscaler draining and retiring a replica (instant).
    ScaleDown {
        /// Live replica count *after* the scale-down.
        replicas: u64,
        /// Total fleet backlog at the decision.
        backlog: u64,
    },
    /// A canary rollout transition (instant).
    Canary {
        /// `"begin"`, `"promote"` or `"rollback"`.
        action: &'static str,
        /// Canary replica id.
        replica: u64,
        /// Traffic fraction routed to the canary.
        fraction: f64,
    },
    /// A numeric-health alert (instant).
    Health(HealthAlert),
}

impl EventKind {
    /// Chrome trace-event `name` for this kind.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Iteration { .. } => "iteration",
            EventKind::Compute { .. } => "compute",
            EventKind::Allreduce { .. } => "allreduce",
            EventKind::PsExchange { .. } => "ps_exchange",
            EventKind::PsService { .. } => "ps_service",
            EventKind::PsRespawn { .. } => "ps_respawn",
            EventKind::Straggler { .. } => "straggler",
            EventKind::Checkpoint { .. } => "checkpoint",
            EventKind::BatchDispatch { .. } => "batch_dispatch",
            EventKind::Overlap { .. } => "overlap",
            EventKind::Shed { .. } => "shed",
            EventKind::WorkerRespawn { .. } => "worker_respawn",
            EventKind::SwapReject { .. } => "swap_reject",
            EventKind::Breaker { .. } => "breaker",
            EventKind::Route { .. } => "route",
            EventKind::ScaleUp { .. } => "scale_up",
            EventKind::ScaleDown { .. } => "scale_down",
            EventKind::Canary { .. } => "canary",
            EventKind::Health(_) => "nonfinite",
        }
    }

    /// Chrome trace-event `cat` (category) for this kind.
    pub fn category(&self) -> &'static str {
        match self {
            EventKind::Iteration { .. }
            | EventKind::Compute { .. }
            | EventKind::Straggler { .. } => "engine",
            EventKind::Allreduce { .. }
            | EventKind::Overlap { .. }
            | EventKind::PsExchange { .. }
            | EventKind::PsService { .. }
            | EventKind::PsRespawn { .. } => "comm",
            EventKind::Checkpoint { .. } => "io",
            EventKind::BatchDispatch { .. }
            | EventKind::Shed { .. }
            | EventKind::WorkerRespawn { .. }
            | EventKind::SwapReject { .. }
            | EventKind::Breaker { .. }
            | EventKind::Route { .. }
            | EventKind::ScaleUp { .. }
            | EventKind::ScaleDown { .. }
            | EventKind::Canary { .. } => "serve",
            EventKind::Health(_) => "health",
        }
    }

    fn write_args(&self, out: &mut String) {
        match self {
            EventKind::Iteration { group, iter } | EventKind::Compute { group, iter } => {
                push_kv_u64(out, "group", *group, true);
                push_kv_u64(out, "iter", *iter, false);
            }
            EventKind::Allreduce { elems, bytes } => {
                push_kv_u64(out, "elems", *elems, true);
                push_kv_u64(out, "bytes", *bytes, false);
            }
            EventKind::PsExchange {
                group,
                staleness,
                bytes,
            } => {
                push_kv_u64(out, "group", *group, true);
                push_kv_u64(out, "staleness", *staleness, false);
                push_kv_u64(out, "bytes", *bytes, false);
            }
            EventKind::PsService { shard, version } => {
                push_kv_u64(out, "shard", *shard, true);
                push_kv_u64(out, "version", *version, false);
            }
            EventKind::PsRespawn { shard } => push_kv_u64(out, "shard", *shard, true),
            EventKind::Straggler { group, factor } => {
                push_kv_u64(out, "group", *group, true);
                push_kv_f64(out, "factor", *factor, false);
            }
            EventKind::Checkpoint { iter, bytes } => {
                push_kv_u64(out, "iter", *iter, true);
                push_kv_u64(out, "bytes", *bytes, false);
            }
            EventKind::BatchDispatch {
                worker,
                batch,
                queue_s,
                compute_s,
            } => {
                push_kv_u64(out, "worker", *worker, true);
                push_kv_u64(out, "batch", *batch, false);
                push_kv_f64(out, "queue_s", *queue_s, false);
                push_kv_f64(out, "compute_s", *compute_s, false);
            }
            EventKind::Overlap { buckets, hidden_s } => {
                push_kv_u64(out, "buckets", *buckets, true);
                push_kv_f64(out, "hidden_s", *hidden_s, false);
            }
            EventKind::Shed {
                worker,
                count,
                depth,
                reason,
            } => {
                push_kv_u64(out, "worker", *worker, true);
                push_kv_u64(out, "count", *count, false);
                push_kv_u64(out, "depth", *depth, false);
                push_kv_str(out, "reason", reason, false);
            }
            EventKind::WorkerRespawn {
                worker,
                incarnation,
                backoff_s,
                requeued,
            } => {
                push_kv_u64(out, "worker", *worker, true);
                push_kv_u64(out, "incarnation", *incarnation, false);
                push_kv_f64(out, "backoff_s", *backoff_s, false);
                push_kv_u64(out, "requeued", *requeued, false);
            }
            EventKind::SwapReject { reason, failures } => {
                push_kv_str(out, "reason", reason, true);
                push_kv_u64(out, "failures", *failures, false);
            }
            EventKind::Breaker { open, failures } => {
                out.push_str(if *open {
                    "\"open\":true"
                } else {
                    "\"open\":false"
                });
                push_kv_u64(out, "failures", *failures, false);
            }
            EventKind::Route {
                replica,
                depth,
                policy,
            } => {
                push_kv_u64(out, "replica", *replica, true);
                push_kv_u64(out, "depth", *depth, false);
                push_kv_str(out, "policy", policy, false);
            }
            EventKind::ScaleUp { replicas, backlog }
            | EventKind::ScaleDown { replicas, backlog } => {
                push_kv_u64(out, "replicas", *replicas, true);
                push_kv_u64(out, "backlog", *backlog, false);
            }
            EventKind::Canary {
                action,
                replica,
                fraction,
            } => {
                push_kv_str(out, "action", action, true);
                push_kv_u64(out, "replica", *replica, false);
                push_kv_f64(out, "fraction", *fraction, false);
            }
            EventKind::Health(alert) => {
                push_kv_str(out, "source", alert.source, true);
                if let Some(layer) = &alert.layer {
                    push_kv_str(out, "layer", layer, false);
                }
                push_kv_u64(out, "first_index", alert.first_index as u64, false);
                push_kv_u64(out, "count", alert.count, false);
                push_kv_f64(out, "value", alert.value as f64, false);
                if let Some(iter) = alert.iter {
                    push_kv_u64(out, "iter", iter, false);
                }
            }
        }
    }
}

/// One recorded span (`dur_s > 0`) or instant event (`dur_s == 0`).
///
/// Timestamps are seconds — real elapsed time since the sink's creation
/// for wall-clock producers, virtual simulation time for deterministic
/// producers. `run` separates sequential engine runs sharing one sink
/// (it becomes the Chrome `pid`); `track` is the lane within a run —
/// group, worker or shard id (the Chrome `tid`).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Run id from [`TraceSink::begin_run`] (Chrome `pid`).
    pub run: u32,
    /// Lane within the run: group / worker / shard id (Chrome `tid`).
    pub track: u64,
    /// Start time in seconds.
    pub ts_s: f64,
    /// Duration in seconds; `0.0` renders as an instant event.
    pub dur_s: f64,
    /// Typed payload.
    pub kind: EventKind,
}

/// A numeric-health alert raised by a non-finite sentinel.
///
/// `first_index` points at the first offending element in the scanned
/// slice; when the slice is a flat parameter/gradient vector, `layer`
/// attributes it to the owning parameter block.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthAlert {
    /// Which sentinel fired: `"gradient"`, `"loss"`, `"quantize_i8"`,
    /// `"clip_norm"`, …
    pub source: &'static str,
    /// Name of the parameter block owning the first offender, when the
    /// scanned slice had block structure (e.g. `"conv1.weight"`).
    pub layer: Option<String>,
    /// Index of the first non-finite element in the scanned slice.
    pub first_index: usize,
    /// Total number of non-finite elements found.
    pub count: u64,
    /// The first offending value (NaN or ±Inf).
    pub value: f32,
    /// Iteration the alert was raised in, when known.
    pub iter: Option<u64>,
}

/// One row of the per-iteration CSV: where each iteration's time went,
/// plus the staleness/loss it observed. Training rows have
/// `kind == "train"` (track = group), the same on both training drivers;
/// serving rows have `kind == "serve"` (track = worker, `iter` = batch
/// sequence number).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IterRow {
    /// Run id from [`TraceSink::begin_run`].
    pub run: u32,
    /// `"train"` or `"serve"`.
    pub kind: &'static str,
    /// Group (train) or worker (serve) id.
    pub track: u64,
    /// Iteration (train) or batch sequence (serve) number.
    pub iter: u64,
    /// Start time in seconds (same clock as the run's events).
    pub start_s: f64,
    /// Train: forward + backward compute, straggler wait included.
    /// Serve: the batch's model compute (s).
    pub compute_s: f64,
    /// Train: all-reduce time left exposed by the overlap. 0 for serving (s).
    pub comm_s: f64,
    /// Train: all-reduce end to the fresh model on every node (delay, PS
    /// exchange, broadcast; no checkpoint). 0 for serving (s).
    pub ps_s: f64,
    /// Queue wait (s); serving only, 0 for training.
    pub queue_s: f64,
    /// Gradient staleness observed (updates); 0 when synchronous.
    pub staleness: u64,
    /// Train: the group's loss this iteration. 0 for serving.
    pub loss: f64,
    /// Batch size processed.
    pub batch: u64,
}

/// Column order of [`TraceSink::iteration_csv`].
pub const ITER_CSV_HEADER: &str =
    "run,kind,track,iter,start_s,compute_s,comm_s,ps_s,queue_s,staleness,loss,batch";

// ---------------------------------------------------------------------------
// Sink
// ---------------------------------------------------------------------------

struct SinkState {
    events: Vec<TraceEvent>,
    rows: Vec<IterRow>,
    alerts: Vec<HealthAlert>,
    run_labels: Vec<(u32, &'static str)>,
}

/// Collects typed trace events, per-iteration rows and health alerts,
/// and renders them as Chrome `trace_event` JSON / CSV.
pub struct TraceSink {
    epoch: Instant,
    state: Mutex<SinkState>,
    next_run: AtomicU32,
    current_run: AtomicU32,
    capacity: usize,
    dropped: AtomicU64,
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink {
    /// A sink with the default event capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A sink that buffers at most `capacity` events (further events are
    /// dropped and counted in [`TraceSink::dropped`]).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceSink {
            epoch: Instant::now(),
            state: Mutex::new(SinkState {
                events: Vec::new(),
                rows: Vec::new(),
                alerts: Vec::new(),
                run_labels: Vec::new(),
            }),
            next_run: AtomicU32::new(0),
            current_run: AtomicU32::new(0),
            capacity,
            dropped: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SinkState> {
        // The sink is telemetry: a panic while holding the lock must not
        // wedge the traced program, so poisoning is ignored.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Seconds of real time since this sink was created.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Starts a new labelled run (e.g. one engine invocation) and
    /// returns its id. The id becomes the Chrome `pid`, so sequential
    /// runs sharing one sink stay visually separate; it is also what
    /// context-free producers (the comm layer) attach their events to,
    /// via [`TraceSink::current_run`].
    pub fn begin_run(&self, label: &'static str) -> u32 {
        let id = self.next_run.fetch_add(1, Ordering::Relaxed);
        self.current_run.store(id, Ordering::Relaxed);
        self.lock().run_labels.push((id, label));
        id
    }

    /// The most recently started run id (0 if none was started).
    pub fn current_run(&self) -> u32 {
        self.current_run.load(Ordering::Relaxed)
    }

    /// Records an event with an explicit timestamp and duration
    /// (seconds). This is the deterministic entry point: virtual-time
    /// producers pass simulation time.
    pub fn event_at(&self, run: u32, track: u64, ts_s: f64, dur_s: f64, kind: EventKind) {
        let mut st = self.lock();
        if st.events.len() >= self.capacity {
            drop(st);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        st.events.push(TraceEvent {
            run,
            track,
            ts_s,
            dur_s,
            kind,
        });
    }

    /// Records a wall-clock span that started at `start_s` (a value
    /// previously obtained from [`TraceSink::now`]) and ends now.
    pub fn span_since(&self, run: u32, track: u64, start_s: f64, kind: EventKind) {
        let dur = (self.now() - start_s).max(0.0);
        self.event_at(run, track, start_s, dur, kind);
    }

    /// Records an instant event stamped with the current real time.
    pub fn instant(&self, run: u32, track: u64, kind: EventKind) {
        let t = self.now();
        self.event_at(run, track, t, 0.0, kind);
    }

    /// Appends one per-iteration CSV row.
    pub fn push_row(&self, row: IterRow) {
        let mut st = self.lock();
        if st.rows.len() >= self.capacity {
            drop(st);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        st.rows.push(row);
    }

    /// Records a health alert: stored for queries ([`TraceSink::health_alerts`])
    /// and mirrored into the event stream as an instant event at real
    /// time `now` on the current run.
    pub fn health(&self, alert: HealthAlert) {
        let run = self.current_run();
        let t = self.now();
        let mut st = self.lock();
        st.alerts.push(alert.clone());
        if st.events.len() < self.capacity {
            st.events.push(TraceEvent {
                run,
                track: 0,
                ts_s: t,
                dur_s: 0.0,
                kind: EventKind::Health(alert),
            });
        }
    }

    /// Snapshot of all recorded events.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().events.clone()
    }

    /// Snapshot of all per-iteration rows.
    pub fn rows(&self) -> Vec<IterRow> {
        self.lock().rows.clone()
    }

    /// Snapshot of all health alerts.
    pub fn health_alerts(&self) -> Vec<HealthAlert> {
        self.lock().alerts.clone()
    }

    /// Number of events/rows dropped because the capacity cap was hit.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Renders all events as Chrome `trace_event` JSON. Events are
    /// sorted by `(run, ts, track)` before rendering, so a
    /// deterministic producer yields a bit-identical file. Load the
    /// output in `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn chrome_json(&self) -> String {
        let st = self.lock();
        let mut order: Vec<usize> = (0..st.events.len()).collect();
        order.sort_by(|&a, &b| {
            let ea = &st.events[a];
            let eb = &st.events[b];
            (ea.run, ea.ts_s, ea.track)
                .partial_cmp(&(eb.run, eb.ts_s, eb.track))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut out = String::with_capacity(st.events.len() * 128 + 256);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for (id, label) in &st.run_labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{id},\"tid\":0,\
                 \"args\":{{\"name\":\"{label}\"}}}}"
            ));
        }
        for &i in &order {
            let e = &st.events[i];
            if !first {
                out.push(',');
            }
            first = false;
            let ph = if e.dur_s > 0.0 { "X" } else { "i" };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{:.3},",
                e.kind.name(),
                e.kind.category(),
                ph,
                e.ts_s * 1e6
            ));
            if e.dur_s > 0.0 {
                out.push_str(&format!("\"dur\":{:.3},", e.dur_s * 1e6));
            } else {
                out.push_str("\"s\":\"g\",");
            }
            out.push_str(&format!(
                "\"pid\":{},\"tid\":{},\"args\":{{",
                e.run, e.track
            ));
            e.kind.write_args(&mut out);
            out.push_str("}}");
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Renders the per-iteration rows as CSV (header
    /// [`ITER_CSV_HEADER`]), sorted by `(run, track, iter)`.
    pub fn iteration_csv(&self) -> String {
        let st = self.lock();
        let mut order: Vec<usize> = (0..st.rows.len()).collect();
        order.sort_by_key(|&i| (st.rows[i].run, st.rows[i].track, st.rows[i].iter));
        let mut out = String::with_capacity(st.rows.len() * 96 + 128);
        out.push_str(ITER_CSV_HEADER);
        out.push('\n');
        for &i in &order {
            let r = &st.rows[i];
            out.push_str(&format!(
                "{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{},{},{}\n",
                r.run,
                r.kind,
                r.track,
                r.iter,
                r.start_s,
                r.compute_s,
                r.comm_s,
                r.ps_s,
                r.queue_s,
                r.staleness,
                fmt_f64(r.loss),
                r.batch
            ));
        }
        out
    }

    /// Writes [`TraceSink::chrome_json`] to `path`.
    pub fn write_chrome_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_json())
    }

    /// Writes [`TraceSink::iteration_csv`] to `path`.
    pub fn write_iteration_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.iteration_csv())
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else if v.is_nan() {
        "NaN".into()
    } else if v > 0.0 {
        "Inf".into()
    } else {
        "-Inf".into()
    }
}

fn push_kv_u64(out: &mut String, k: &str, v: u64, first: bool) {
    if !first {
        out.push(',');
    }
    out.push_str(&format!("\"{k}\":{v}"));
}

fn push_kv_f64(out: &mut String, k: &str, v: f64, first: bool) {
    if !first {
        out.push(',');
    }
    // NaN/Inf are not valid JSON numbers; quote them.
    if v.is_finite() {
        out.push_str(&format!("\"{k}\":{v:.6}"));
    } else {
        out.push_str(&format!("\"{k}\":\"{}\"", fmt_f64(v)));
    }
}

fn push_kv_str(out: &mut String, k: &str, v: &str, first: bool) {
    if !first {
        out.push(',');
    }
    out.push('"');
    out.push_str(k);
    out.push_str("\":\"");
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Global install
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

fn global() -> &'static Mutex<Option<Arc<TraceSink>>> {
    static GLOBAL: OnceLock<Mutex<Option<Arc<TraceSink>>>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(None))
}

/// Installs `sink` as the process-global trace sink. Subsequent engine
/// runs, comm calls and sentinels will record into it until
/// [`uninstall`] is called.
pub fn install(sink: Arc<TraceSink>) {
    let mut g = global().lock().unwrap_or_else(|e| e.into_inner());
    *g = Some(sink);
    ENABLED.store(true, Ordering::Release);
}

/// Removes and returns the global sink, disabling tracing.
pub fn uninstall() -> Option<Arc<TraceSink>> {
    let mut g = global().lock().unwrap_or_else(|e| e.into_inner());
    ENABLED.store(false, Ordering::Release);
    g.take()
}

/// Whether a sink is installed — a single relaxed atomic load, the
/// entire cost of tracing on every disabled hot path.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The installed sink, if any. Checks the atomic flag before touching
/// the lock, so the disabled path stays lock-free.
#[inline]
pub fn active() -> Option<Arc<TraceSink>> {
    if !is_enabled() {
        return None;
    }
    global().lock().unwrap_or_else(|e| e.into_inner()).clone()
}

// ---------------------------------------------------------------------------
// Handle — one-liner call sites for producers
// ---------------------------------------------------------------------------

/// A producer-side handle binding the active sink to a run id. All
/// methods are no-ops (and `now()` returns 0) when tracing is off, so
/// instrumented code needs no `Option` plumbing.
#[derive(Clone)]
pub struct TraceHandle {
    inner: Option<(Arc<TraceSink>, u32)>,
}

impl TraceHandle {
    /// Begins a new labelled run on the active sink (no-op handle when
    /// tracing is off). One engine/server invocation = one run.
    pub fn begin(label: &'static str) -> Self {
        TraceHandle {
            inner: active().map(|s| {
                let run = s.begin_run(label);
                (s, run)
            }),
        }
    }

    /// Binds to the active sink's *current* run without starting a new
    /// one — for context-free producers (the comm layer) whose events
    /// belong to whichever run is in flight.
    pub fn current() -> Self {
        TraceHandle {
            inner: active().map(|s| {
                let run = s.current_run();
                (s, run)
            }),
        }
    }

    /// A handle that records nothing.
    pub fn off() -> Self {
        TraceHandle { inner: None }
    }

    /// Whether this handle records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Real seconds since sink creation (0.0 when off). Pair with
    /// [`TraceHandle::span`] to time a wall-clock region.
    pub fn now(&self) -> f64 {
        match &self.inner {
            Some((s, _)) => s.now(),
            None => 0.0,
        }
    }

    /// Records a wall-clock span from `start_s` (from
    /// [`TraceHandle::now`]) to now on lane `track`.
    pub fn span(&self, track: u64, start_s: f64, kind: EventKind) {
        if let Some((s, run)) = &self.inner {
            s.span_since(*run, track, start_s, kind);
        }
    }

    /// Records an event with explicit (e.g. virtual) timestamps.
    pub fn event_at(&self, track: u64, ts_s: f64, dur_s: f64, kind: EventKind) {
        if let Some((s, run)) = &self.inner {
            s.event_at(*run, track, ts_s, dur_s, kind);
        }
    }

    /// Records an instant event at the current real time.
    pub fn instant(&self, track: u64, kind: EventKind) {
        if let Some((s, run)) = &self.inner {
            s.instant(*run, track, kind);
        }
    }

    /// Appends a per-iteration CSV row (the handle fills in `run`).
    pub fn row(&self, mut row: IterRow) {
        if let Some((s, run)) = &self.inner {
            row.run = *run;
            s.push_row(row);
        }
    }

    /// Raises a health alert on the bound sink.
    pub fn health(&self, alert: HealthAlert) {
        if let Some((s, _)) = &self.inner {
            s.health(alert);
        }
    }

    /// The training-step sentinel both engines run: a non-finite `loss`
    /// raises a `"loss"` alert, and the first non-finite element of the
    /// gradient — one slice per parameter block, named by `names` — a
    /// `"gradient"` alert attributed to its block (see [`scan_blocks`]).
    pub fn check_step(&self, iter: u64, loss: f32, grad: &[&[f32]], names: &[String]) {
        if !self.enabled() {
            return;
        }
        if !loss.is_finite() {
            self.health(HealthAlert {
                source: "loss",
                layer: None,
                first_index: 0,
                count: 1,
                value: loss,
                iter: Some(iter),
            });
        }
        if let Some(alert) = scan_blocks("gradient", grad, names, Some(iter)) {
            self.health(alert);
        }
    }
}

// ---------------------------------------------------------------------------
// Numeric-health sentinels
// ---------------------------------------------------------------------------

/// Scans `data` for non-finite values; returns `(first_index, count,
/// first_value)` when any exist.
pub fn scan_nonfinite(data: &[f32]) -> Option<(usize, u64, f32)> {
    let mut first = None;
    let mut count = 0u64;
    for (i, &x) in data.iter().enumerate() {
        if !x.is_finite() {
            count += 1;
            if first.is_none() {
                first = Some((i, x));
            }
        }
    }
    first.map(|(i, v)| (i, count, v))
}

/// Scans named parameter blocks (`blocks[i]` is block `names[i]`, in
/// the engines' flat order) and attributes the first non-finite element
/// to its owning block. `first_index` is that element's offset in the
/// blocks' concatenation; `count` totals every block.
pub fn scan_blocks(
    source: &'static str,
    blocks: &[&[f32]],
    names: &[String],
    iter: Option<u64>,
) -> Option<HealthAlert> {
    let mut first: Option<(usize, f32, Option<String>)> = None;
    let (mut count, mut offset) = (0u64, 0usize);
    for (i, block) in blocks.iter().enumerate() {
        if let Some((at, n, value)) = scan_nonfinite(block) {
            count += n;
            if first.is_none() {
                first = Some((offset + at, value, names.get(i).cloned()));
            }
        }
        offset += block.len();
    }
    let (first_index, value, layer) = first?;
    Some(HealthAlert {
        source,
        layer,
        first_index,
        count,
        value,
        iter,
    })
}

/// Low-level sentinel hook for kernels (`quantize_i8`, `clip_norm`):
/// raises an unattributed alert on the active sink. Costs one relaxed
/// atomic load when tracing is off.
pub fn nonfinite_hook(source: &'static str, first_index: usize, count: u64, value: f32) {
    if !is_enabled() {
        return;
    }
    if let Some(s) = active() {
        s.health(HealthAlert {
            source,
            layer: None,
            first_index,
            count,
            value,
            iter: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global-install tests share process state; serialize them.
    fn with_global_lock<R>(f: impl FnOnce() -> R) -> R {
        static LOCK: Mutex<()> = Mutex::new(());
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        f()
    }

    #[test]
    fn span_and_instant_record() {
        let sink = TraceSink::new();
        let run = sink.begin_run("test");
        let t0 = sink.now();
        sink.span_since(
            run,
            3,
            t0,
            EventKind::Allreduce {
                elems: 128,
                bytes: 512,
            },
        );
        sink.instant(run, 3, EventKind::PsRespawn { shard: 1 });
        let ev = sink.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(
            ev[0].kind,
            EventKind::Allreduce {
                elems: 128,
                bytes: 512
            }
        );
        assert!(ev[0].dur_s >= 0.0);
        assert_eq!(ev[1].dur_s, 0.0);
        assert_eq!(ev[1].track, 3);
    }

    #[test]
    fn chrome_json_shape_and_determinism() {
        let sink = TraceSink::new();
        let run = sink.begin_run("sim");
        sink.event_at(
            run,
            0,
            0.5,
            0.25,
            EventKind::Iteration { group: 0, iter: 1 },
        );
        sink.event_at(run, 0, 0.5, 0.1, EventKind::Compute { group: 0, iter: 1 });
        sink.event_at(run, 1, 0.2, 0.0, EventKind::PsRespawn { shard: 7 });
        let j1 = sink.chrome_json();
        let j2 = sink.chrome_json();
        assert_eq!(j1, j2, "export must be deterministic");
        assert!(j1.starts_with("{\"traceEvents\":["));
        assert!(j1.ends_with("\"displayTimeUnit\":\"ms\"}"));
        assert!(j1.contains("\"name\":\"iteration\""));
        assert!(j1.contains("\"ph\":\"X\""));
        assert!(j1.contains("\"ph\":\"i\""));
        assert!(j1.contains("\"process_name\""));
        // sorted by ts: respawn (0.2s) precedes iteration (0.5s)
        assert!(j1.find("ps_respawn").unwrap() < j1.find("iteration").unwrap());
        // ts in microseconds
        assert!(j1.contains("\"ts\":500000.000"));
        assert_eq!(j1.matches('{').count(), j1.matches('}').count());
    }

    #[test]
    fn iteration_csv_rows_sorted_and_formatted() {
        let sink = TraceSink::new();
        let run = sink.begin_run("eng");
        for iter in [2u64, 0, 1] {
            sink.push_row(IterRow {
                run,
                kind: "train",
                track: 0,
                iter,
                start_s: iter as f64,
                compute_s: 0.5,
                comm_s: 0.1,
                ps_s: 0.05,
                queue_s: 0.0,
                staleness: iter,
                loss: 1.0 / (iter + 1) as f64,
                batch: 32,
            });
        }
        let csv = sink.iteration_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], ITER_CSV_HEADER);
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with(&format!("{run},train,0,0,")));
        assert!(lines[3].starts_with(&format!("{run},train,0,2,")));
        assert!(lines[1].split(',').count() == ITER_CSV_HEADER.split(',').count());
    }

    #[test]
    fn nan_loss_renders_as_text_not_json_breaking() {
        let sink = TraceSink::new();
        let run = sink.begin_run("x");
        sink.push_row(IterRow {
            run,
            kind: "train",
            track: 0,
            iter: 0,
            start_s: 0.0,
            compute_s: 0.0,
            comm_s: 0.0,
            ps_s: 0.0,
            queue_s: 0.0,
            staleness: 0,
            loss: f64::NAN,
            batch: 1,
        });
        assert!(sink.iteration_csv().contains(",NaN,"));
        sink.health(HealthAlert {
            source: "loss",
            layer: None,
            first_index: 0,
            count: 1,
            value: f32::NAN,
            iter: Some(0),
        });
        let j = sink.chrome_json();
        assert!(
            j.contains("\"value\":\"NaN\""),
            "non-finite args must be quoted: {j}"
        );
    }

    #[test]
    fn serving_resilience_kinds_render_as_valid_trace_json() {
        let sink = TraceSink::new();
        let run = sink.begin_run("chaos");
        sink.event_at(
            run,
            0,
            0.1,
            0.0,
            EventKind::Shed {
                worker: 0,
                count: 3,
                depth: 64,
                reason: "watermark",
            },
        );
        sink.event_at(
            run,
            1,
            0.3,
            0.0,
            EventKind::WorkerRespawn {
                worker: 1,
                incarnation: 1,
                backoff_s: 0.001,
                requeued: 4,
            },
        );
        sink.event_at(
            run,
            0,
            0.4,
            0.0,
            EventKind::SwapReject {
                reason: "roundtrip",
                failures: 2,
            },
        );
        sink.event_at(
            run,
            0,
            0.5,
            0.0,
            EventKind::Breaker {
                open: true,
                failures: 3,
            },
        );
        let j = sink.chrome_json();
        for name in ["shed", "worker_respawn", "swap_reject", "breaker"] {
            assert!(
                j.contains(&format!("\"name\":\"{name}\"")),
                "{name} missing: {j}"
            );
        }
        assert!(j.contains("\"reason\":\"watermark\""));
        assert!(j.contains("\"open\":true"));
        assert!(j.contains("\"requeued\":4"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn capacity_cap_drops_and_counts() {
        let sink = TraceSink::with_capacity(2);
        let run = sink.begin_run("cap");
        for i in 0..5 {
            sink.event_at(run, 0, i as f64, 0.0, EventKind::PsRespawn { shard: i });
        }
        assert_eq!(sink.events().len(), 2);
        assert_eq!(sink.dropped(), 3);
    }

    #[test]
    fn scan_blocks_attributes_first_offender() {
        let mut flat = [0.0f32; 10];
        flat[4] = f32::NAN;
        flat[9] = f32::INFINITY;
        let (a, rest) = flat.split_at(3);
        let (b, c) = rest.split_at(4);
        let names = vec![
            "conv1.weight".to_string(),
            "fc1.weight".to_string(),
            "fc1.bias".to_string(),
        ];
        let alert = scan_blocks("gradient", &[a, b, c], &names, Some(7)).unwrap();
        assert_eq!(alert.layer.as_deref(), Some("fc1.weight"));
        assert_eq!(alert.first_index, 4);
        assert_eq!(alert.count, 2);
        assert!(alert.value.is_nan());
        assert_eq!(alert.iter, Some(7));
        assert!(scan_blocks("gradient", &[&[1.0, 2.0]], &names, None).is_none());
        // Empty blocks before the offender shift nothing; an offender in
        // the last block names it with its flat offset.
        let alert = scan_blocks(
            "gradient",
            &[&[], a, &[], &c[..2], &[f32::NEG_INFINITY]],
            &[],
            None,
        );
        let alert = alert.unwrap();
        assert_eq!((alert.layer, alert.first_index, alert.count), (None, 5, 1));
        let alert = scan_blocks("gradient", &[a, &b[2..], &[1.0, f32::NAN]], &names, None).unwrap();
        assert_eq!(
            (alert.layer.as_deref(), alert.first_index, alert.count),
            (Some("fc1.bias"), 6, 1)
        );
    }

    #[test]
    fn global_install_round_trip() {
        with_global_lock(|| {
            assert!(!is_enabled());
            assert!(TraceHandle::begin("off").inner.is_none());
            let sink = Arc::new(TraceSink::new());
            install(sink.clone());
            assert!(is_enabled());
            let h = TraceHandle::begin("run");
            assert!(h.enabled());
            let t = h.now();
            h.span(
                0,
                t,
                EventKind::Allreduce {
                    elems: 4,
                    bytes: 16,
                },
            );
            nonfinite_hook("clip_norm", 2, 1, f32::INFINITY);
            let back = uninstall().expect("sink was installed");
            assert!(!is_enabled());
            assert!(Arc::ptr_eq(&back, &sink));
            assert_eq!(sink.events().len(), 2); // span + mirrored health
            let alerts = sink.health_alerts();
            assert_eq!(alerts.len(), 1);
            assert_eq!(alerts[0].source, "clip_norm");
            nonfinite_hook("clip_norm", 0, 1, f32::NAN); // disabled: no-op
            assert_eq!(sink.health_alerts().len(), 1);
        })
    }

    #[test]
    fn handle_off_is_inert() {
        let h = TraceHandle::off();
        assert!(!h.enabled());
        assert_eq!(h.now(), 0.0);
        h.span(0, 0.0, EventKind::Allreduce { elems: 1, bytes: 4 });
        h.instant(0, EventKind::PsRespawn { shard: 0 });
        h.health(HealthAlert {
            source: "loss",
            layer: None,
            first_index: 0,
            count: 1,
            value: f32::NAN,
            iter: None,
        });
    }

    #[test]
    fn check_step_flags_loss_and_attributes_gradient() {
        with_global_lock(|| {
            let sink = Arc::new(TraceSink::new());
            install(sink.clone());
            let h = TraceHandle::begin("step");
            let names = vec!["a".to_string(), "b".to_string()];
            h.check_step(3, 0.5, &[&[0.0], &[1.0, 2.0]], &names);
            h.check_step(4, f32::NAN, &[&[0.0], &[f32::INFINITY, 2.0]], &names);
            uninstall();
            let alerts = sink.health_alerts();
            assert_eq!(alerts.len(), 2, "a healthy step raises nothing");
            assert_eq!((alerts[0].source, alerts[0].iter), ("loss", Some(4)));
            assert_eq!(
                (alerts[1].source, alerts[1].layer.as_deref()),
                ("gradient", Some("b"))
            );
        })
    }

    #[test]
    fn current_binds_to_latest_run() {
        with_global_lock(|| {
            let sink = Arc::new(TraceSink::new());
            install(sink.clone());
            let _r0 = TraceHandle::begin("first");
            let h1 = TraceHandle::begin("second");
            let c = TraceHandle::current();
            c.instant(0, EventKind::PsRespawn { shard: 0 });
            uninstall();
            let ev = sink.events();
            assert_eq!(ev.len(), 1);
            assert_eq!(ev[0].run, h1.inner.as_ref().unwrap().1);
        })
    }
}
