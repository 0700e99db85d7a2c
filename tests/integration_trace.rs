//! End-to-end tests of the structured-tracing subsystem: a hybrid
//! thread-engine run, a simulated-time run and a serving-simulator run
//! must each land spans and per-iteration rows in an installed
//! [`scidl_trace::TraceSink`]; a poisoned gradient must be caught by the
//! numeric-health sentinel and attributed to the offending layer; and
//! both training drivers must trace one fault plan alike.
//!
//! The sink is process-global, so every test takes `trace_lock()` before
//! installing one.

use scidl_core::faults::FaultPlan;
use scidl_core::sim_engine::{SimEngine, SimEngineConfig, SolverKind};
use scidl_core::thread_engine::{ThreadEngine, ThreadEngineConfig};
use scidl_core::workloads::hep_workload;
use scidl_data::{HepConfig, HepDataset};
use scidl_serve::queue::BatchPolicy;
use scidl_serve::sim::{simulate, ServiceModel, SimConfig};
use scidl_serve::PoissonArrivals;
use scidl_tensor::TensorRng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Serialises tests that install the process-global trace sink.
fn trace_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn fresh_sink() -> Arc<scidl_trace::TraceSink> {
    scidl_trace::uninstall();
    let sink = Arc::new(scidl_trace::TraceSink::new());
    scidl_trace::install(Arc::clone(&sink));
    sink
}

#[test]
fn hybrid_thread_engine_run_emits_spans_and_rows() {
    let _g = trace_lock();
    let sink = fresh_sink();

    let ds = Arc::new(HepDataset::generate(HepConfig::small(), 64, 11));
    let mut cfg = ThreadEngineConfig::new(2, 2, 8);
    cfg.iterations = 5;
    cfg.seed = 0x71;
    let run = ThreadEngine::run(&cfg, ds);
    scidl_trace::uninstall();

    assert!(run.final_params.iter().all(|p| p.is_finite()));
    let events = sink.events();
    let names: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
    for want in ["iteration", "compute", "allreduce", "ps_exchange"] {
        assert!(names.contains(&want), "missing {want} span; got {names:?}");
    }

    // One row per group iteration, all on the training track.
    let rows = sink.rows();
    assert_eq!(rows.len(), cfg.groups * cfg.iterations);
    assert!(rows.iter().all(|r| r.kind == "train"));
    assert!(rows.iter().all(|r| r.compute_s >= 0.0 && r.comm_s >= 0.0));
    assert!(rows.iter().any(|r| r.loss.is_finite()));

    // Exports are loadable artifacts, not just in-memory state.
    let json = sink.chrome_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"ps_exchange\""));
    assert!(json.contains("\"staleness\""));
    let csv = sink.iteration_csv();
    assert!(csv.starts_with(scidl_trace::ITER_CSV_HEADER));
    assert_eq!(csv.lines().count(), 1 + rows.len());
}

#[test]
fn sim_engine_trace_is_deterministic_and_attributes_time() {
    let _g = trace_lock();
    let ds = HepDataset::generate(HepConfig::small(), 32, 1);
    let mut cfg = SimEngineConfig::fig8(4, 2, 8, hep_workload());
    cfg.iterations = 4;
    cfg.solver = SolverKind::Sgd { momentum: 0.7 };

    let mut artifacts = Vec::new();
    for _ in 0..2 {
        let sink = fresh_sink();
        let mut model = scidl_nn::arch::hep_small(&mut TensorRng::new(3));
        SimEngine::run(&cfg, &mut model, &ds);
        scidl_trace::uninstall();
        artifacts.push((sink.chrome_json(), sink.iteration_csv(), sink.rows()));
    }
    // Virtual timestamps: the whole trace is bit-identical run to run.
    assert_eq!(artifacts[0].0, artifacts[1].0);
    assert_eq!(artifacts[0].1, artifacts[1].1);

    let rows = &artifacts[0].2;
    assert_eq!(rows.len(), cfg.groups * cfg.iterations);
    // Hybrid (2 groups): every iteration pays compute, all-reduce AND a
    // PS exchange; some update must observe staleness from the other
    // group.
    assert!(rows
        .iter()
        .all(|r| r.compute_s > 0.0 && r.comm_s > 0.0 && r.ps_s > 0.0));
    assert!(rows.iter().any(|r| r.staleness > 0));
    assert!(artifacts[0].0.contains("\"ps_exchange\""));
}

/// Per `(group, iter)`: the names of the iteration's spans, and the
/// durations of its exposed all-reduce and PS exchange. A span belongs
/// to the iteration on its lane whose `[start, end)` holds its start;
/// the comm layer's own spans (per-bucket ring all-reduces and overlap
/// windows on rank lanes, PS service) are not the iteration's, and a
/// ring bucket is told from the whole-gradient all-reduce by its length.
type Parts = BTreeMap<(u64, u64), (BTreeSet<&'static str>, f64, f64)>;

fn iteration_parts(sink: &scidl_trace::TraceSink, params: u64) -> Parts {
    use scidl_trace::EventKind;
    let events = sink.events();
    let mut parts = Parts::new();
    let mut spans = Vec::new();
    for e in &events {
        if let EventKind::Iteration { group, iter } = e.kind {
            parts.insert((group, iter), (BTreeSet::from(["iteration"]), 0.0, 0.0));
            spans.push((e.track, e.ts_s, e.ts_s + e.dur_s, (group, iter)));
        }
    }
    for e in &events {
        let owned = match e.kind {
            EventKind::Allreduce { elems, .. } => elems == params,
            EventKind::Compute { .. }
            | EventKind::Straggler { .. }
            | EventKind::PsExchange { .. }
            | EventKind::Checkpoint { .. } => true,
            _ => false,
        };
        if !owned {
            continue;
        }
        let &(.., key) = spans
            .iter()
            .find(|s| s.0 == e.track && s.1 <= e.ts_s && e.ts_s < s.2)
            .unwrap_or_else(|| panic!("{e:?} lies outside every iteration of its lane"));
        let part = parts.get_mut(&key).unwrap();
        part.0.insert(e.kind.name());
        match e.kind {
            EventKind::Allreduce { .. } => part.1 = e.dur_s,
            EventKind::PsExchange { .. } => part.2 = e.dur_s,
            _ => {}
        }
    }
    parts
}

/// One fault plan — a straggler window on group 1 and a message delay on
/// group 0 — through both training drivers, two groups of two nodes
/// each: every group-iteration carries the same spans on both, straggler
/// spans appear exactly in the planned window, and the rows' columns
/// mean the same thing (`comm_s` the exposed all-reduce, `ps_s` the PS
/// leg with the delay and the broadcast).
#[test]
fn thread_and_sim_engines_trace_one_fault_plan_alike() {
    let _g = trace_lock();
    let (groups, iterations, delay) = (2usize, 4usize, 0.02);
    let plan = FaultPlan::none()
        .with_straggler(1, 1, 3, 2.0)
        .with_message_delay(0, 2, delay);
    let in_window = |&(g, i): &(u64, u64)| g == 1 && (1..3).contains(&i);
    let ds = Arc::new(HepDataset::generate(HepConfig::small(), 64, 5));

    let thread_sink = fresh_sink();
    let mut tcfg = ThreadEngineConfig::new(groups, 2, 8);
    (tcfg.iterations, tcfg.faults, tcfg.bucket_bytes) = (iterations, plan.clone(), 4096);
    ThreadEngine::run(&tcfg, Arc::clone(&ds));
    scidl_trace::uninstall();

    let sim_sink = fresh_sink();
    let mut scfg = SimEngineConfig::fig8(2 * groups, groups, 8, hep_workload());
    scfg.sim = scfg.sim.clone().ideal();
    (scfg.iterations, scfg.faults) = (iterations, plan);
    SimEngine::run(
        &scfg,
        &mut scidl_nn::arch::hep_small(&mut TensorRng::new(1)),
        &ds,
    );
    scidl_trace::uninstall();

    use scidl_nn::network::Model;
    let params = scidl_nn::arch::hep_small(&mut TensorRng::new(0)).num_params() as u64;
    let threads = iteration_parts(&thread_sink, params);
    let sim = iteration_parts(&sim_sink, scfg.workload.params);
    assert_eq!(threads.len(), groups * iterations);
    let names = |p: &Parts| p.iter().map(|(k, v)| (*k, v.0.clone())).collect::<Vec<_>>();
    assert_eq!(
        names(&threads),
        names(&sim),
        "the same spans per group-iteration"
    );
    for (key, (names, ..)) in &sim {
        assert_eq!(
            names.contains("straggler"),
            in_window(key),
            "{key:?}: {names:?}"
        );
    }
    for (sink, parts) in [(&thread_sink, &threads), (&sim_sink, &sim)] {
        let rows = sink.rows();
        assert_eq!(rows.len(), groups * iterations);
        for r in &rows {
            let (_, allreduce, ps) = parts[&(r.track, r.iter)];
            assert_eq!(r.comm_s, allreduce, "comm_s is the exposed all-reduce");
            assert_eq!(r.ps_s, ps, "ps_s is the PS leg");
            if (r.track, r.iter) == (0, 2) {
                assert!(
                    r.ps_s >= delay,
                    "the message delay is booked under ps_s: {r:?}"
                );
            }
        }
    }
}

#[test]
fn serving_sim_emits_batch_dispatch_rows_with_queue_compute_split() {
    let _g = trace_lock();
    let model = ServiceModel::hep();
    // Offer ~2× the batch-8 saturated rate so batches queue up.
    let arrivals: Vec<f64> = PoissonArrivals::new(7, 2.0 * model.saturated_rate(8), 120).collect();
    let cfg = SimConfig::new(2, 256, BatchPolicy::dynamic(8, Duration::from_millis(2)));

    let mut jsons = Vec::new();
    let mut rows = Vec::new();
    for _ in 0..2 {
        let sink = fresh_sink();
        let out = simulate(&model, &arrivals, &cfg);
        scidl_trace::uninstall();
        assert_eq!(sink.rows().len(), out.batch_sizes.len());
        jsons.push(sink.chrome_json());
        rows = sink.rows();
    }
    assert_eq!(
        jsons[0], jsons[1],
        "seeded serving trace must be bit-identical"
    );

    assert!(rows.iter().all(|r| r.kind == "serve" && r.compute_s > 0.0));
    assert!(
        rows.iter().any(|r| r.queue_s > 0.0),
        "overloaded pool must show queue wait"
    );
    assert!(
        rows.iter().any(|r| r.batch > 1),
        "load must form multi-request batches"
    );
    assert!(jsons[0].contains("\"batch_dispatch\""));
}

/// Trace parity: the fleet simulator runs the same replica, so it emits
/// one `serve` row per dispatched batch too, on global-worker lanes.
#[test]
fn fleet_sim_emits_one_serve_row_per_dispatched_batch() {
    use scidl_serve::fleet::{simulate_fleet, DispatchPolicy, FleetSimConfig};
    let _g = trace_lock();
    let model = ServiceModel::hep();
    let arrivals: Vec<f64> = PoissonArrivals::new(7, 4.0 * model.saturated_rate(8), 200).collect();
    let base = SimConfig::new(2, 256, BatchPolicy::dynamic(8, Duration::from_millis(2)));
    let cfg = FleetSimConfig::new(2, base, DispatchPolicy::RoundRobin);

    let sink = fresh_sink();
    let out = simulate_fleet(&model, &arrivals, &cfg);
    scidl_trace::uninstall();
    let rows = sink.rows();
    assert_eq!(rows.len(), out.batch_sizes.len());
    assert!(rows.iter().all(|r| r.kind == "serve" && r.compute_s > 0.0));
    assert!(
        rows.iter()
            .zip(&out.batch_sizes)
            .all(|(r, &b)| r.batch == b as u64),
        "rows follow dispatch order"
    );
    assert!(
        rows.iter().any(|r| r.track >= 2),
        "replica 1 owns global workers 2 and 3"
    );
}

#[test]
fn poisoned_gradient_is_caught_and_attributed_to_layer() {
    let _g = trace_lock();

    // Pick a block to poison and remember its name + flat offset.
    let probe = scidl_nn::arch::hep_small(&mut TensorRng::new(0x99));
    use scidl_nn::network::Model;
    let blocks = probe.param_blocks();
    assert!(
        blocks.len() >= 3,
        "need a few blocks to make attribution meaningful"
    );
    let target = 2usize;
    let target_name = blocks[target].name.clone();
    let poison_at: usize =
        blocks[..target].iter().map(|b| b.len()).sum::<usize>() + blocks[target].len() / 2;

    let sink = fresh_sink();
    let ds = HepDataset::generate(HepConfig::small(), 32, 13);
    let ds_len = ds.len();
    let mut cfg = ThreadEngineConfig::new(1, 2, 4);
    cfg.iterations = 3;
    cfg.seed = 0x99;
    ThreadEngine::run_with(
        &cfg,
        ds_len,
        |seed| scidl_nn::arch::hep_small(&mut TensorRng::new(seed)),
        move |model: &mut scidl_nn::network::Network, indices: &[usize]| {
            let (loss, mut g) = scidl_core::task::hep_gradient(model, &ds, indices);
            g[poison_at] = f32::NAN;
            (loss, g)
        },
    );
    scidl_trace::uninstall();

    let alerts = sink.health_alerts();
    let grad_alert = alerts
        .iter()
        .find(|a| a.source == "gradient")
        .expect("poisoned gradient must raise a health alert");
    assert_eq!(
        grad_alert.layer.as_deref(),
        Some(target_name.as_str()),
        "alert must name the poisoned layer"
    );
    // The engine scans the model's grad blocks; the alert's index is the
    // offset in their concatenation, the flat gradient's.
    assert_eq!(grad_alert.first_index, poison_at);
    assert!(grad_alert.value.is_nan());
    assert!(grad_alert.iter.is_some());
    // The alert is also visible in the exported timeline.
    assert!(sink.chrome_json().contains("\"nonfinite\""));
}
