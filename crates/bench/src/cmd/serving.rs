//! Serving benchmark — the latency/throughput frontier of dynamic
//! batching versus batch-1 on one KNL node running the HEP classifier,
//! plus the resilience degradation frontier under chaos.
//!
//! Sweeps offered load (open-loop Poisson arrivals at fractions and
//! multiples of the node's batch-32 saturated rate) × batching policy
//! through the deterministic virtual-time simulator
//! (`scidl-serve::sim`), so a fixed seed reproduces every number bit for
//! bit. Each point is run twice: clean, and under a standard serving
//! chaos plan (worker crash + straggler window, 250 ms deadlines), so
//! the frontier carries shed-rate and p99-under-chaos columns. Emits the
//! frontier as a markdown table on stdout and as `results/serving.csv`.
//!
//! The acceptance check: at saturating offered load, dynamic batching
//! must sustain ≥2× the throughput of batch-1 (the small-batch
//! efficiency cliff of Sec. II-A, exploited instead of suffered), with
//! p99 latency reported for both policies.
//!
//! `serving_chaos` sweeps offered load × fault severity (clean → light →
//! heavy → storm) on a two-worker pool instead and reports goodput, p99
//! and shed rate per cell — the degradation frontier — written to
//! `results/serving_chaos.csv`. Acceptance there: every cell resolves
//! all of its requests (exactly-once accounting), goodput stays positive
//! under every fault level, and the storm cell replays bit-identically.
//!
//! `serving_fleet` sweeps the *fleet tier*: offered load × replica count
//! × dispatch policy through the virtual-time fleet simulator
//! (`scidl-serve::fleet`), under a skewed-load plan (every worker of
//! replica 0 is a 4× straggler). Each cell reports throughput, p99, shed
//! rate and replica-seconds cost, written to `results/serving_fleet.csv`.
//! Acceptance there: at the saturating load factor, power-of-two-choices
//! p99 must not exceed round-robin p99 for every fleet size — the depth
//! probes must steer around the hot replica.
//!
//! `--fast` runs 400 requests per point or cell instead of 2,000.

use crate::report::{csv, fnum, markdown_table, write_result};
use crate::Args;
use scidl_cluster::faults::FaultPlan;
use scidl_serve::fleet::{
    simulate_fleet, CanaryGate, DispatchPolicy, FleetSimConfig, ScalingBand, SimAutoscaler,
    SimCanary,
};
use scidl_serve::queue::BatchPolicy;
use scidl_serve::sim::{simulate, ServiceModel, SimConfig, SimOutcome};
use scidl_serve::PoissonArrivals;
use std::time::Duration;

const SEED: u64 = 4242;
/// Relative deadline attached to every request in chaos runs.
const CHAOS_DEADLINE_S: f64 = 0.25;

/// The standard single-node chaos plan the frontier's "under chaos"
/// columns are measured against: one mid-batch crash early in the run
/// and a 3× straggler window.
fn frontier_chaos() -> FaultPlan {
    FaultPlan::none()
        .with_worker_crash(0, 3, 0.05)
        .with_slow_worker(0, 10, 20, 3.0)
}

struct Point {
    offered: f64,
    policy: &'static str,
    completed: usize,
    rejected: usize,
    throughput: f64,
    p50_ms: f64,
    p99_ms: f64,
    queue_share: f64,
    shed_rate: f64,
    chaos_p99_ms: f64,
    chaos_shed_rate: f64,
}

fn run_point(
    model: &ServiceModel,
    policy: BatchPolicy,
    policy_name: &'static str,
    offered: f64,
    n: usize,
    seed: u64,
) -> Point {
    let arrivals: Vec<f64> = PoissonArrivals::new(seed, offered, n).collect();
    let cfg = SimConfig::new(1, 128, policy);
    let out = simulate(model, &arrivals, &cfg);
    let total = out
        .recorder
        .total_summary()
        .expect("at least one request served");

    // The same schedule under the standard chaos plan, with deadlines so
    // overload degrades into typed sheds instead of unbounded queueing.
    let mut chaos_cfg = cfg.clone();
    chaos_cfg.faults = frontier_chaos();
    chaos_cfg.deadline_secs = Some(CHAOS_DEADLINE_S);
    let chaos = simulate(model, &arrivals, &chaos_cfg);
    assert_eq!(chaos.offered(), n, "chaos run must resolve every request");
    let chaos_p99_ms = chaos
        .recorder
        .total_summary()
        .map_or(f64::NAN, |s| s.p99 * 1e3);

    Point {
        offered,
        policy: policy_name,
        completed: out.completed,
        rejected: out.rejected,
        throughput: out.throughput(),
        p50_ms: total.p50 * 1e3,
        p99_ms: total.p99 * 1e3,
        queue_share: out.recorder.queue_share().unwrap_or(0.0),
        shed_rate: out.shed_rate(),
        chaos_p99_ms,
        chaos_shed_rate: chaos.shed_rate(),
    }
}

/// The HEP classifier's cost model and the requests per point or cell.
fn setup(args: &Args) -> (ServiceModel, usize) {
    (ServiceModel::hep(), if args.fast { 400 } else { 2000 })
}

pub fn frontier(args: &Args) {
    let (model, n) = setup(args);
    let model = &model;
    let r1 = model.saturated_rate(1);
    let r32 = model.saturated_rate(32);
    println!(
        "serving frontier: HEP classifier on one KNL node (seed {SEED}, {n} requests/point)\n"
    );
    println!(
        "node capacity: batch-1 {} req/s ({} ms/image), batch-32 {} req/s ({} ms/image)",
        fnum(r1, 1),
        fnum(1e3 / r1, 2),
        fnum(r32, 1),
        fnum(1e3 / r32, 2)
    );
    println!(
        "chaos columns: worker crash after 3 batches (50 ms respawn) + 3x straggler \
         (batches 10..20), {} ms deadlines\n",
        fnum(CHAOS_DEADLINE_S * 1e3, 0)
    );

    let dynamic = BatchPolicy::dynamic(32, Duration::from_millis(10));
    let policies = [(BatchPolicy::batch1(), "batch-1"), (dynamic, "dynamic-32")];
    // Offered load from well under batch-1 capacity to 2× the batch-32
    // saturated rate (where even perfect batching must shed load).
    let load_factors = [0.5, 0.9, 1.5, 2.5, 4.0, 8.0];

    let mut points = Vec::new();
    for (li, &f) in load_factors.iter().enumerate() {
        for (policy, name) in policies {
            points.push(run_point(model, policy, name, f * r1, n, SEED + li as u64));
        }
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{} req/s", fnum(p.offered, 0)),
                p.policy.to_string(),
                p.completed.to_string(),
                p.rejected.to_string(),
                format!("{} req/s", fnum(p.throughput, 1)),
                format!("{} ms", fnum(p.p50_ms, 2)),
                format!("{} ms", fnum(p.p99_ms, 2)),
                format!("{}%", fnum(100.0 * p.queue_share, 0)),
                format!("{}%", fnum(100.0 * p.shed_rate, 1)),
                format!("{} ms", fnum(p.chaos_p99_ms, 2)),
                format!("{}%", fnum(100.0 * p.chaos_shed_rate, 1)),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "offered",
                "policy",
                "served",
                "shed",
                "throughput",
                "p50",
                "p99",
                "queue share",
                "shed rate",
                "p99 chaos",
                "shed chaos",
            ],
            &rows
        )
    );

    let csv_rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                fnum(p.offered, 3),
                p.policy.to_string(),
                p.completed.to_string(),
                p.rejected.to_string(),
                fnum(p.throughput, 3),
                fnum(p.p50_ms, 4),
                fnum(p.p99_ms, 4),
                fnum(p.queue_share, 4),
                fnum(p.shed_rate, 4),
                fnum(p.chaos_p99_ms, 4),
                fnum(p.chaos_shed_rate, 4),
            ]
        })
        .collect();
    let csv_text = csv(
        &[
            "offered_rps",
            "policy",
            "served",
            "shed",
            "throughput_rps",
            "p50_ms",
            "p99_ms",
            "queue_share",
            "shed_rate",
            "chaos_p99_ms",
            "chaos_shed_rate",
        ],
        &csv_rows,
    );
    write_result("serving.csv", &csv_text, "frontier written to");

    // --- acceptance: dynamic ≥2× batch-1 at saturating offered load ----
    let saturating = *load_factors.last().unwrap() * r1;
    let at_sat = |name: &str| {
        points
            .iter()
            .find(|p| p.policy == name && (p.offered - saturating).abs() < 1e-9)
            .unwrap()
    };
    let b1 = at_sat("batch-1");
    let dy = at_sat("dynamic-32");
    let speedup = dy.throughput / b1.throughput;
    println!(
        "\nat saturating load ({} req/s offered):",
        fnum(saturating, 0)
    );
    println!(
        "  batch-1    sustains {} req/s, p99 {} ms",
        fnum(b1.throughput, 1),
        fnum(b1.p99_ms, 2)
    );
    println!(
        "  dynamic-32 sustains {} req/s, p99 {} ms",
        fnum(dy.throughput, 1),
        fnum(dy.p99_ms, 2)
    );
    println!("  dynamic batching speedup: {}x", fnum(speedup, 2));
    assert!(
        speedup >= 2.0,
        "acceptance: dynamic batching must sustain ≥2× batch-1 at saturation, got {speedup:.2}×"
    );
    println!("  acceptance: ≥2× sustained throughput — PASS");
}

/// One fault-severity level of the degradation frontier: its chaos plan
/// on a two-worker pool, plus the swap schedule it replays.
fn fault_level(name: &'static str) -> (FaultPlan, Vec<f64>) {
    match name {
        "clean" => (FaultPlan::none(), Vec::new()),
        "light" => (FaultPlan::none().with_worker_crash(0, 3, 0.05), Vec::new()),
        "heavy" => (
            FaultPlan::none()
                .with_worker_crash(0, 3, 0.05)
                .with_worker_crash(1, 6, 0.1)
                .with_slow_worker(0, 5, 15, 3.0),
            Vec::new(),
        ),
        "storm" => (
            FaultPlan::none()
                .with_worker_crash(0, 2, 0.1)
                .with_worker_crash(1, 4, 0.1)
                .with_worker_crash(0, 8, 0.2)
                .with_slow_worker(0, 3, 12, 4.0)
                .with_slow_worker(1, 6, 18, 3.0)
                .with_corrupt_swap(0)
                .with_corrupt_swap(1)
                .with_corrupt_swap(2),
            vec![0.05, 0.1, 0.15, 0.2, 0.25],
        ),
        other => unreachable!("unknown fault level {other}"),
    }
}

fn chaos_cell(model: &ServiceModel, offered: f64, level: &'static str, n: usize) -> SimOutcome {
    let arrivals: Vec<f64> = PoissonArrivals::new(SEED, offered, n).collect();
    let (faults, swap_schedule) = fault_level(level);
    let mut cfg = SimConfig::new(2, 128, BatchPolicy::dynamic(32, Duration::from_millis(10)));
    cfg.deadline_secs = Some(CHAOS_DEADLINE_S);
    cfg.breaker_threshold = 3;
    cfg.faults = faults;
    cfg.swap_schedule = swap_schedule;
    simulate(model, &arrivals, &cfg)
}

pub fn chaos(args: &Args) {
    let (model, n) = setup(args);
    let model = &model;
    let r1 = model.saturated_rate(1);
    println!(
        "serving degradation frontier: offered load x fault severity, 2 workers, \
         dynamic-32, {} ms deadlines (seed {SEED}, {n} requests/cell)\n",
        fnum(CHAOS_DEADLINE_S * 1e3, 0)
    );

    let levels = ["clean", "light", "heavy", "storm"];
    let load_factors = [0.5, 1.5, 4.0];

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for &f in &load_factors {
        let offered = f * r1;
        for level in levels {
            let out = chaos_cell(model, offered, level, n);
            assert_eq!(
                out.offered(),
                n,
                "every request must resolve exactly once ({level} @ {offered:.0} req/s)"
            );
            assert!(
                out.throughput() > 0.0,
                "goodput must stay positive under {level} @ {offered:.0} req/s"
            );
            let p99_ms = out
                .recorder
                .total_summary()
                .map_or(f64::NAN, |s| s.p99 * 1e3);
            rows.push(vec![
                format!("{} req/s", fnum(offered, 0)),
                level.to_string(),
                out.completed.to_string(),
                format!("{}%", fnum(100.0 * out.shed_rate(), 1)),
                out.crashes.to_string(),
                out.requeued.to_string(),
                out.lost.to_string(),
                format!("{} req/s", fnum(out.throughput(), 1)),
                format!("{} ms", fnum(p99_ms, 2)),
                if out.breaker_opened {
                    "open".into()
                } else {
                    "-".into()
                },
            ]);
            csv_rows.push(vec![
                fnum(offered, 3),
                level.to_string(),
                out.completed.to_string(),
                out.rejected.to_string(),
                out.expired.to_string(),
                out.lost.to_string(),
                out.crashes.to_string(),
                out.requeued.to_string(),
                fnum(out.throughput(), 3),
                fnum(p99_ms, 4),
                fnum(out.shed_rate(), 4),
                (out.breaker_opened as u8).to_string(),
            ]);
        }
    }
    println!(
        "{}",
        markdown_table(
            &[
                "offered",
                "faults",
                "served",
                "shed rate",
                "crashes",
                "requeued",
                "lost",
                "goodput",
                "p99",
                "breaker",
            ],
            &rows
        )
    );

    let csv_text = csv(
        &[
            "offered_rps",
            "fault_level",
            "served",
            "rejected",
            "expired",
            "lost",
            "crashes",
            "requeued",
            "goodput_rps",
            "p99_ms",
            "shed_rate",
            "breaker_opened",
        ],
        &csv_rows,
    );
    write_result(
        "serving_chaos.csv",
        &csv_text,
        "degradation frontier written to",
    );

    // --- acceptance: chaos is deterministic and never zeroes goodput ---
    let a = chaos_cell(model, 1.5 * r1, "storm", n);
    let b = chaos_cell(model, 1.5 * r1, "storm", n);
    assert_eq!(
        a.served_ids, b.served_ids,
        "storm cell must replay bit-identically"
    );
    assert_eq!(a.lost_ids, b.lost_ids);
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    assert!(
        a.breaker_opened,
        "three corrupt swaps at threshold 3 must open the breaker"
    );
    println!(
        "\n  acceptance: exactly-once accounting, positive goodput, deterministic storm — PASS"
    );
}

/// Per-replica base config of every fleet cell: two workers, a deep
/// queue (so the watermark does not truncate round-robin's tail under
/// skew), dynamic-8 batching.
fn fleet_base() -> SimConfig {
    SimConfig::new(2, 512, BatchPolicy::dynamic(8, Duration::from_millis(5)))
}

/// Skewed-load chaos plan for a fleet cell: every worker of replica 0
/// (global workers `0..wpr`) is a 4× straggler for its whole life.
fn fleet_skew(base: &SimConfig) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for w in 0..base.workers {
        plan = plan.with_slow_worker(w, 0, u64::MAX, 4.0);
    }
    plan
}

fn fleet_cell(
    model: &ServiceModel,
    replicas: usize,
    dispatch: DispatchPolicy,
    offered: f64,
    n: usize,
) -> scidl_serve::fleet::FleetSimOutcome {
    let arrivals: Vec<f64> = PoissonArrivals::new(SEED, offered, n).collect();
    let mut base = fleet_base();
    base.faults = fleet_skew(&base);
    let mut cfg = FleetSimConfig::new(replicas, base, dispatch);
    cfg.seed = SEED;
    simulate_fleet(model, &arrivals, &cfg)
}

pub fn fleet(args: &Args) {
    let (model, n) = setup(args);
    let model = &model;
    let base = fleet_base();
    let per_rep = base.workers as f64 * model.saturated_rate(base.policy.max_batch);
    println!(
        "fleet serving frontier: offered load x replicas x dispatch policy, \
         {} workers/replica, dynamic-{}, skewed load (replica 0 is a 4x straggler) \
         (seed {SEED}, {n} requests/cell)\n",
        base.workers, base.policy.max_batch
    );
    println!("per-replica nominal capacity: {} req/s\n", fnum(per_rep, 1));

    let policies = [
        DispatchPolicy::RoundRobin,
        DispatchPolicy::LeastLoaded,
        DispatchPolicy::PowerOfTwoChoices,
    ];
    let replica_counts = [2usize, 3, 4];
    // Fraction of the fleet's *nominal* capacity (the skewed replica
    // actually delivers a quarter of its share, so 0.8 saturates).
    let load_factors = [0.4, 0.8];
    const SATURATING: f64 = 0.8;

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    let mut cells: Vec<(usize, f64, &'static str, f64)> = Vec::new();
    for &replicas in &replica_counts {
        for &f in &load_factors {
            let offered = f * replicas as f64 * per_rep;
            for d in policies {
                let out = fleet_cell(model, replicas, d, offered, n);
                assert_eq!(
                    out.offered(),
                    n,
                    "every request must resolve exactly once ({} r{replicas} @ {offered:.0})",
                    d.name()
                );
                let p99_ms = out.p99() * 1e3;
                cells.push((replicas, f, d.name(), out.p99()));
                rows.push(vec![
                    format!("{} req/s", fnum(offered, 0)),
                    replicas.to_string(),
                    d.name().to_string(),
                    out.completed.to_string(),
                    format!("{} req/s", fnum(out.throughput(), 1)),
                    format!("{} ms", fnum(p99_ms, 2)),
                    format!("{}%", fnum(100.0 * out.shed_rate(), 1)),
                    format!("{} s", fnum(out.replica_seconds, 2)),
                ]);
                csv_rows.push(vec![
                    fnum(offered, 3),
                    replicas.to_string(),
                    d.name().to_string(),
                    out.completed.to_string(),
                    fnum(out.throughput(), 3),
                    fnum(p99_ms, 4),
                    fnum(out.shed_rate(), 4),
                    fnum(out.replica_seconds, 4),
                ]);
            }
        }
    }
    println!(
        "{}",
        markdown_table(
            &[
                "offered",
                "replicas",
                "policy",
                "served",
                "throughput",
                "p99",
                "shed rate",
                "replica-seconds",
            ],
            &rows
        )
    );

    let csv_text = csv(
        &[
            "offered_rps",
            "replicas",
            "policy",
            "served",
            "throughput_rps",
            "p99_ms",
            "shed_rate",
            "replica_seconds",
        ],
        &csv_rows,
    );
    write_result("serving_fleet.csv", &csv_text, "fleet frontier written to");

    // --- acceptance: p2c p99 ≤ round-robin p99 under skewed load -------
    println!("\nat the saturating load factor ({SATURATING} of nominal):");
    for &replicas in &replica_counts {
        let p99_of = |name: &str| {
            cells
                .iter()
                .find(|(r, f, p, _)| *r == replicas && (*f - SATURATING).abs() < 1e-9 && *p == name)
                .map(|(_, _, _, p99)| *p99)
                .unwrap()
        };
        let rr = p99_of("round-robin");
        let p2c = p99_of("p2c");
        println!(
            "  {replicas} replicas: round-robin p99 {} ms, p2c p99 {} ms",
            fnum(rr * 1e3, 2),
            fnum(p2c * 1e3, 2)
        );
        assert!(
            p2c <= rr,
            "acceptance: p2c p99 ({:.4}s) must not exceed round-robin p99 ({:.4}s) \
             under skewed load at {replicas} replicas",
            p2c,
            rr
        );
    }
    println!("  acceptance: p2c beats round-robin p99 under skew — PASS");

    // --- autoscaler + canary demonstration (virtual time) --------------
    let burst_rate = 3.0 * per_rep;
    let mut arrivals: Vec<f64> = PoissonArrivals::new(SEED, burst_rate, n).collect();
    let burst_end = *arrivals.last().unwrap();
    for i in 0..40 {
        arrivals.push(burst_end + 0.5 + i as f64 * 0.5);
    }
    let mut cfg = FleetSimConfig::new(1, fleet_base(), DispatchPolicy::LeastLoaded);
    cfg.seed = SEED;
    cfg.autoscaler = Some(SimAutoscaler {
        band: ScalingBand {
            min_replicas: 1,
            max_replicas: 6,
            scale_down_backlog: 4,
            ..Default::default()
        },
        tick_secs: 0.2,
        startup_secs: 0.02,
    });
    cfg.canary = Some(SimCanary {
        gate: CanaryGate {
            fraction: 0.2,
            regression_tol: 0.25,
        },
        start_secs: burst_end * 0.1,
        decide_secs: burst_end * 0.9,
        service_factor: 1.0,
        candidate_iteration: 9000,
    });
    let out = simulate_fleet(model, &arrivals, &cfg);
    println!(
        "\nautoscaler + canary demo (burst at 3 replicas' load, then quiet): \
         {} scale-ups, {} scale-downs, final {} replicas; canary {} \
         (model iteration {}), {} canary-served requests",
        out.scale_ups,
        out.scale_downs,
        out.final_replicas,
        if out.canary_promoted {
            "promoted"
        } else {
            "rolled back"
        },
        out.final_iteration,
        out.canary_served
    );
}
