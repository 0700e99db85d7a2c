//! `serve_hep`: the HEP network at 32×32 behind `Server` (1 worker,
//! `BatchPolicy::dynamic(8, 10 ms)`, queue 256) and `Router`.
//!
//! Phases: warm-up; **open-loop** Poisson arrivals (users are
//! independent) from one generator thread at the fixed rates `lo`/`mid`/
//! `hi`, latency timed from each request's *due* time; a saturation run
//! that keeps the queue full (f32, then the int8 sidecar); then `Router`
//! (2 replicas × 1 worker, power-of-two-choices) under 2 **closed-loop**
//! clients, because `Router::infer` blocks its caller.
//!
//! The only workload where queueing, batch forming, supervision and
//! routing — not arithmetic — decide the result, and where latency rises
//! before throughput stops rising.

use crate::host::{self, Threads};
use crate::report::{Metric, Outcome};
use crate::span::{self, Layer};
use crate::stats::median;
use crate::workloads::Workload;
use scidl_data::{HepConfig, HepDataset};
use scidl_nn::Network;
use scidl_serve::fleet::{DispatchPolicy, FleetConfig};
use scidl_serve::{
    BatchPolicy, Client, InferResult, ModelRegistry, PoissonArrivals, ReplyReceiver, Router,
    ServeError, Server, ServerConfig, ServingModel, SupervisorConfig,
};
use scidl_tensor::ops::argmax;
use scidl_tensor::{Tensor, TensorRng};
use std::sync::mpsc::TryRecvError;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAME: &str = "serve_hep";
pub const WHY: &str = "request path under open-loop load: queue, batch former, supervisor and router overheads, latency rising before throughput";

pub const IMAGE: usize = 32;
pub const POOL: usize = 256;
pub const MODEL_SEED: u64 = 0x5E_12E;
pub const MAX_BATCH: usize = 8;
pub const MAX_DELAY: Duration = Duration::from_millis(10);
pub const QUEUE: usize = 256;
/// `(label, offered req/s, tail percentile)`: fixed rates, never derived
/// at run time. Capacity on the reference box moves between ≈ 250 and
/// ≈ 320 req/s with the host's state; the rates are ≈ 35 % / 60 % / 85 %
/// of its low end, so `hi` is loaded but not overloaded on a slow day.
/// The tail percentile is the highest one the phase's request count
/// supports at the default run length (≥ 10 samples beyond it): 200
/// requests carry a p95, 1 000 a p99.
pub const RATES: [(&str, f64, f64); 3] = [
    ("lo", 90.0, 95.0),
    ("mid", 150.0, 95.0),
    ("hi", 210.0, 99.0),
];
/// Latency limit on each rate's tail percentile.
pub const SLO_MS: f64 = 100.0;
/// Generator lateness (p99) the open loop aims to stay under. Missing it
/// prints a warning and does not fail the run: on the shared reference box
/// a contended host, not the generator, produces 2–30 ms on bad minutes.
pub const LATE_TARGET_MS: f64 = 1.0;
/// Share of the measured seconds each phase gets.
const SHARE_OPEN: [f64; 3] = [0.19, 0.12, 0.40];
const SHARE_SATURATE: f64 = 0.10;
const SHARE_ROUTER: f64 = 0.09;
/// Requests kept outstanding by the saturation run: enough for full
/// batches, below the queue bound so nothing is shed.
const WINDOW: usize = 64;
const ROUTER_CLIENTS: usize = 2;
/// Completion polling and generator sleep granularity.
const POLL: Duration = Duration::from_micros(250);
/// Completions per throughput sample.
const CHUNK: usize = 32;

pub struct Env {
    pub registry: Arc<ModelRegistry>,
    pub server: Server,
    pub pool: Vec<Tensor>,
    /// `Network::infer` on every pool input, what each reply is checked
    /// against; filled on first use so set-up times only the system.
    pub refs: Vec<Vec<f32>>,
}

pub struct ServeHep;

impl Workload for ServeHep {
    type Env = Env;
    const NAME: &'static str = NAME;
    const WHY: &'static str = WHY;

    fn threads() -> Threads {
        Threads {
            ranks: 0,
            workers: 1,
            clients: 1,
        }
    }

    /// Set-up: request inputs from the seed, model, registry, server start.
    fn setup(seed: u64) -> Env {
        let ds = HepDataset::generate(
            HepConfig {
                image_size: IMAGE,
                ..HepConfig::paper()
            },
            POOL,
            seed,
        );
        let pool = (0..POOL).map(|i| ds.gather(&[i]).0).collect();
        let registry = Arc::new(ModelRegistry::new(ServingModel::new(
            build(),
            0,
            MODEL_SEED,
        )));
        // The worker and its supervisor inherit the first CPU; the load
        // generator takes the second (`generator_cpu`).
        let server = {
            let _first_cpu = host::Pin::nth(0);
            Server::start(Arc::clone(&registry), server_config())
        };
        Env {
            registry,
            server,
            pool,
            refs: Vec::new(),
        }
    }

    fn teardown(env: Env) {
        env.server.shutdown();
    }

    fn measure(env: &mut Env, seed: u64, seconds: f64) -> Outcome {
        env.fill_refs();
        let env = &*env;
        let mut out = Outcome::default();
        warm_up(env);

        let mut late: Vec<f64> = Vec::new();
        let mut max_rate = 0.0f64;
        for (i, (label, rate, tail)) in RATES.iter().enumerate() {
            let n = (rate * SHARE_OPEN[i] * seconds).ceil() as usize;
            let p = open_loop(env, *rate, n, seed.wrapping_add(i as u64));
            if *label != "mid" {
                out.push(Metric::median_of(
                    format!("lat_ms_p50_{label}"),
                    "ms",
                    &p.lat_ms,
                ));
                out.push(Metric::percentile_of(
                    format!("lat_ms_p{tail}_{label}"),
                    "ms",
                    &p.lat_ms,
                    *tail,
                ));
            }
            if within_slo(&p, *tail) {
                max_rate = max_rate.max(*rate);
            }
            late.extend(&p.late_ms);
            account(&mut out, ["open_lo", "open_mid", "open_hi"][i], &p, true);
        }
        out.push(Metric::value("max_rate_in_slo_rps", "1/s", max_rate));
        let late = Metric::percentile_of("loadgen_late_ms_p99", "ms", &late, 99.0);
        if late.value >= LATE_TARGET_MS {
            println!(
                "  WARNING: generator lateness p99 {:.3} ms misses the {LATE_TARGET_MS} ms target: the host was busy, \
                 open-loop latencies of this run include the generator's own delay",
                late.value
            );
        }
        out.push(late);

        let f32_run = saturate(env, SHARE_SATURATE * seconds, seed);
        out.push(Metric::median_of(
            "capacity_rps",
            "1/s",
            &f32_run.rate_samples(),
        ));
        account(&mut out, "saturate_f32", &f32_run, true);

        env.registry
            .swap(ServingModel::new(build(), 1, MODEL_SEED).with_quantized());
        let i8_run = saturate(env, SHARE_SATURATE * seconds, seed);
        env.registry.swap(ServingModel::new(build(), 0, MODEL_SEED));
        out.push(Metric::median_of(
            "capacity_rps_int8",
            "1/s",
            &i8_run.rate_samples(),
        ));
        let disagree = i8_run.flips as f64 / i8_run.ok.max(1) as f64;
        out.check(
            "int8_argmax_agrees",
            disagree <= 0.01,
            format!(
                "{} of {} int8 replies flip the f32 argmax ({:.2} %)",
                i8_run.flips,
                i8_run.ok,
                disagree * 100.0
            ),
        );
        // int8 logits are approximate: compared by argmax above, not to 1e-5.
        account(&mut out, "saturate_int8", &i8_run, false);
        let report = env.server.report();
        out.check(
            "server_report_clean",
            report.panics == 0
                && report.worker_lost == 0
                && report.expired == 0
                && report.replacements == 0,
            format!("{report:?}"),
        );

        let routed = router_closed(&env.pool, &env.refs, SHARE_ROUTER * seconds, seed);
        out.push(Metric::median_of(
            "router_closed_rps",
            "1/s",
            &routed.rate_samples(),
        ));
        account(&mut out, "router_closed", &routed, true);
        out
    }

    /// A short `mid`-rate open-loop phase with a span per submit and one per
    /// request in flight; returns answered req/s.
    fn traced_section(env: &mut Env, seed: u64) -> f64 {
        env.fill_refs();
        let env = &*env;
        span::span(Layer::Harness, "harness.open_loop.mid", || {
            let t = Instant::now();
            let p = open_loop(env, RATES[1].1, 300, seed);
            p.ok as f64 / t.elapsed().as_secs_f64()
        })
    }
}

impl Env {
    pub fn fill_refs(&mut self) {
        if self.refs.is_empty() {
            let net = build();
            self.refs = self
                .pool
                .iter()
                .map(|x| net.infer(x).data().to_vec())
                .collect();
        }
    }
}

pub fn build() -> Network {
    scidl_nn::arch::hep_network(&mut TensorRng::new(MODEL_SEED))
}

/// One worker, and it stays one: with the default 500 ms heartbeat
/// timeout an *idle* worker counts as hung (it only heartbeats when it
/// pops a batch), so the first request after a pause makes the supervisor
/// spawn a second worker beside it for good and capacity doubles on this
/// 2-core host. The timeout is raised so the pool is what the workload
/// says; `server_report_clean` checks no replacement happened.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        queue_capacity: QUEUE,
        policy: BatchPolicy::dynamic(MAX_BATCH, MAX_DELAY),
        supervisor: SupervisorConfig {
            heartbeat_timeout: Duration::from_secs(3600),
            ..SupervisorConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// Outcome counts and samples of one phase.
#[derive(Default)]
pub struct Phase {
    pub sent: u64,
    pub ok: u64,
    pub shed: u64,
    pub expired: u64,
    pub lost: u64,
    /// `Ok` replies whose logits differ from the reference by more than 1e-5.
    pub wrong: u64,
    /// `Ok` replies whose argmax differs from the reference's.
    pub flips: u64,
    pub lat_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub compute_ms: Vec<f64>,
    pub batch: Vec<f64>,
    /// Seconds since phase start of each `Ok` completion.
    pub done_s: Vec<f64>,
    pub end_depth: usize,
}

impl Phase {
    fn settle(&mut self, r: Result<InferResult, ServeError>, want: &[f32], lat_ms: f64, at_s: f64) {
        match r {
            Ok(res) => {
                self.ok += 1;
                if res.logits.len() != want.len()
                    || res
                        .logits
                        .iter()
                        .zip(want)
                        .any(|(a, b)| (a - b).abs() > 1e-5)
                {
                    self.wrong += 1;
                }
                if argmax(&res.logits) != argmax(want) {
                    self.flips += 1;
                }
                self.lat_ms.push(lat_ms);
                self.queue_wait_ms.push(res.queue_wait.as_secs_f64() * 1e3);
                self.compute_ms.push(res.compute.as_secs_f64() * 1e3);
                self.batch.push(res.batch_size as f64);
                self.done_s.push(at_s);
            }
            Err(ServeError::Shed { .. }) => self.shed += 1,
            Err(ServeError::DeadlineExceeded) => self.expired += 1,
            Err(_) => self.lost += 1,
        }
    }

    /// The counts and samples of two client threads' phases, added up.
    fn merged(mut self, p: Phase) -> Phase {
        self.sent += p.sent;
        self.ok += p.ok;
        self.shed += p.shed;
        self.expired += p.expired;
        self.lost += p.lost;
        self.wrong += p.wrong;
        self.flips += p.flips;
        self.lat_ms.extend(p.lat_ms);
        self.done_s.extend(p.done_s);
        self
    }

    pub fn accounted(&self) -> bool {
        self.sent == self.ok + self.shed + self.expired + self.lost
    }

    /// Completions per second, one sample per [`CHUNK`] completions (one
    /// sample over the whole phase when it completed fewer).
    pub fn rate_samples(&self) -> Vec<f64> {
        let mut t = self.done_s.clone();
        t.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        if t.len() < CHUNK {
            return vec![t.len() as f64 / t.last().copied().unwrap_or(f64::INFINITY)];
        }
        t.chunks_exact(CHUNK)
            .scan(0.0, |prev, c| {
                let rate = CHUNK as f64 / (c[CHUNK - 1] - *prev);
                *prev = c[CHUNK - 1];
                Some(rate)
            })
            .collect()
    }
}

struct Pending {
    rx: ReplyReceiver,
    item: usize,
    due: Instant,
}

/// Polls until every pending reply has settled.
fn drain(pending: &mut Vec<Pending>, refs: &[Vec<f32>], start: Instant, phase: &mut Phase) {
    while !pending.is_empty() {
        poll(pending, refs, start, phase);
        std::thread::sleep(POLL);
    }
}

/// Polls every pending reply once; settled ones leave the list.
fn poll(pending: &mut Vec<Pending>, refs: &[Vec<f32>], start: Instant, phase: &mut Phase) {
    pending.retain(|p| match p.rx.try_recv() {
        Err(TryRecvError::Empty) => true,
        got => {
            let now = Instant::now();
            let lat_ms = now.duration_since(p.due).as_secs_f64() * 1e3;
            let r = got.unwrap_or(Err(ServeError::WorkerLost));
            phase.settle(
                r,
                &refs[p.item],
                lat_ms,
                now.duration_since(start).as_secs_f64(),
            );
            false
        }
    });
}

fn submit(
    client: &Client,
    env: &Env,
    item: usize,
    due: Instant,
    pending: &mut Vec<Pending>,
    phase: &mut Phase,
) {
    phase.sent += 1;
    let sent = span::span(Layer::Serve, "serve.client.submit", || {
        client.submit_with_deadline(env.pool[item].clone(), None)
    });
    match sent {
        Ok(rx) => pending.push(Pending { rx, item, due }),
        Err(e) => phase.settle(Err(e), &[], 0.0, 0.0),
    }
}

/// Open loop: `n` Poisson arrivals at `rate` from this one thread. Each
/// request is timed from its due time, so a late generator or a stalled
/// server lengthens the latencies of the requests behind it.
pub fn open_loop(env: &Env, rate: f64, n: usize, seed: u64) -> Phase {
    let _generator_cpu = host::Pin::nth(1);
    let (client, refs) = (env.server.client(), &env.refs);
    let mut order = TensorRng::new(seed ^ 0x0DE2);
    let mut phase = Phase::default();
    let mut pending: Vec<Pending> = Vec::new();
    let start = Instant::now();
    for at in PoissonArrivals::new(seed, rate, n) {
        let due = start + Duration::from_secs_f64(at);
        loop {
            poll(&mut pending, refs, start, &mut phase);
            let now = Instant::now();
            if now >= due {
                break;
            }
            // Sleep, never spin: on a host whose two CPUs share a core a
            // spinning generator slows the worker it is measuring.
            std::thread::sleep(POLL.min(due - now));
        }
        phase
            .late_ms
            .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        submit(
            &client,
            env,
            order.below(env.pool.len()),
            due,
            &mut pending,
            &mut phase,
        );
    }
    phase.end_depth = env.server.queue_depth();
    drain(&mut pending, refs, start, &mut phase);
    phase
}

/// Saturation: keeps [`WINDOW`] requests outstanding for `secs` seconds,
/// then drains. The worker never idles and every batch is full, so the
/// completion rate is the server's capacity.
pub fn saturate(env: &Env, secs: f64, seed: u64) -> Phase {
    let _generator_cpu = host::Pin::nth(1);
    let (client, refs) = (env.server.client(), &env.refs);
    let mut order = TensorRng::new(seed ^ 0x5A7);
    let mut phase = Phase::default();
    let mut pending: Vec<Pending> = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < secs {
        while pending.len() < WINDOW {
            submit(
                &client,
                env,
                order.below(env.pool.len()),
                Instant::now(),
                &mut pending,
                &mut phase,
            );
        }
        std::thread::sleep(POLL);
        poll(&mut pending, refs, start, &mut phase);
    }
    phase.end_depth = env.server.queue_depth();
    drain(&mut pending, refs, start, &mut phase);
    phase
}

/// Overload: `n` requests sent back to back. The queue bound sheds what
/// the worker cannot take; used by the layer suite, never by `measure`.
pub fn burst(env: &Env, n: usize, seed: u64) -> Phase {
    let _generator_cpu = host::Pin::nth(1);
    let (client, refs) = (env.server.client(), &env.refs);
    let mut order = TensorRng::new(seed ^ 0xB0);
    let mut phase = Phase::default();
    let mut pending: Vec<Pending> = Vec::new();
    let start = Instant::now();
    for _ in 0..n {
        submit(
            &client,
            env,
            order.below(env.pool.len()),
            Instant::now(),
            &mut pending,
            &mut phase,
        );
    }
    drain(&mut pending, refs, start, &mut phase);
    phase
}

/// Closed loop through the router: each of [`ROUTER_CLIENTS`] threads
/// sends its next request when the previous one returns.
pub fn router_closed(pool: &[Tensor], refs: &[Vec<f32>], secs: f64, seed: u64) -> Phase {
    let registry = Arc::new(ModelRegistry::new(ServingModel::new(
        build(),
        0,
        MODEL_SEED,
    )));
    let mut cfg = FleetConfig::new(2, server_config(), DispatchPolicy::PowerOfTwoChoices);
    cfg.seed = seed;
    let router = Router::start(registry, cfg);
    let start = Instant::now();
    let phases: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ROUTER_CLIENTS)
            .map(|c| {
                let router = &router;
                s.spawn(move || {
                    let mut order = TensorRng::new(seed ^ (0xC0 + c as u64));
                    let mut phase = Phase::default();
                    while start.elapsed().as_secs_f64() < secs {
                        let item = order.below(pool.len());
                        let t = Instant::now();
                        phase.sent += 1;
                        let r = router.infer(pool[item].clone());
                        let lat_ms = t.elapsed().as_secs_f64() * 1e3;
                        phase.settle(r, &refs[item], lat_ms, start.elapsed().as_secs_f64());
                    }
                    phase
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("router client"))
            .collect()
    });
    router.shutdown_with_report();
    phases.into_iter().fold(Phase::default(), Phase::merged)
}

fn warm_up(env: &Env) {
    let client = env.server.client();
    for x in env.pool.iter().take(32) {
        client.infer(x.clone()).expect("warm-up request");
    }
}

/// Whether a rate meets the limit: tail ≤ SLO, ≥ 99 % of sent answered
/// `Ok`, and no backlog beyond one batch when the last arrival was sent.
pub fn within_slo(p: &Phase, tail_percentile: f64) -> bool {
    let tail = crate::stats::percentile(&p.lat_ms, tail_percentile);
    tail <= SLO_MS && p.ok as f64 >= 0.99 * p.sent as f64 && p.end_depth <= MAX_BATCH
}

/// Counts the phase's operations and checks its books: every request
/// ends in exactly one outcome and (f32 phases) every `Ok` reply carries
/// the logits `Network::infer` gives.
fn account(out: &mut Outcome, label: &'static str, p: &Phase, exact_logits: bool) {
    out.ops(p.sent, p.sent - p.ok);
    out.check(
        label,
        p.accounted() && p.sent > 0 && (p.wrong == 0 || !exact_logits),
        format!(
            "sent {} = ok {} + shed {} + expired {} + lost {}{}",
            p.sent,
            p.ok,
            p.shed,
            p.expired,
            p.lost,
            if exact_logits {
                format!("; {} replies off Network::infer by >1e-5", p.wrong)
            } else {
                String::new()
            }
        ),
    );
}

/// Median per-phase numbers the layer suite reports from `InferResult`.
pub fn phase_layer_metrics(out: &mut Outcome, label: &str, p: &Phase) {
    out.push(Metric::value(
        format!("serve.batch.mean_size_{label}"),
        "count",
        p.batch.iter().sum::<f64>() / p.batch.len().max(1) as f64,
    ));
    out.push(Metric::value(
        format!("serve.queue_wait_ms_p50_{label}"),
        "ms",
        median(&p.queue_wait_ms),
    ));
    out.push(Metric::value(
        format!("serve.compute_ms_p50_{label}"),
        "ms",
        median(&p.compute_ms),
    ));
}
