//! Serving-tier resilience under chaos — the acceptance criterion of the
//! serving resilience work: one declarative `FaultPlan` (worker crash +
//! straggling worker + corrupt hot-swaps) drives BOTH the threaded server
//! and the virtual-time simulator, and in both the run completes with no
//! deadlock, no lost reply channels (every request gets exactly one
//! terminal outcome), the corrupt checkpoint rejected while the previous
//! model keeps serving (breaker span emitted), and bounded p99.
//!
//! Plus the exactly-once property under chaos, proptested across random
//! plans, loads and policies in both backends.

use proptest::prelude::*;
use scidl_cluster::faults::FaultPlan;
use scidl_core::checkpoint::Checkpoint;
use scidl_core::faults::serving_chaos;
use scidl_serve::queue::BatchPolicy;
use scidl_serve::sim::{simulate, ServiceModel, SimConfig};
use scidl_serve::{
    ModelRegistry, PoissonArrivals, ServeError, Server, ServerConfig, ServingModel, SwapError,
};
use scidl_tensor::{Shape4, Tensor, TensorRng};
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

fn probe(seed: u64) -> Tensor {
    let mut rng = TensorRng::new(seed);
    rng.uniform_tensor(Shape4::new(1, 3, 32, 32), -1.0, 1.0)
}

/// The acceptance run: `scidl_core::faults::serving_chaos()` — crash
/// the slot dispatching the fourth batch mid-batch, 3× straggler window
/// on worker 1, corrupt swap attempt 0 — plus corrupt swap attempts 1
/// and 2, so three rejections in a row open the breaker, against real
/// threads, then the virtual-time sim.
#[test]
fn one_fault_plan_drives_threaded_server_and_sim_through_chaos() {
    let _g = trace_lock();
    let plan = serving_chaos().with_corrupt_swap(1).with_corrupt_swap(2);

    // ---------------- threaded half ----------------
    let sink = fresh_sink();
    let mut rng = TensorRng::new(71);
    let trained = scidl_nn::arch::hep_small(&mut rng);
    let mut ckpt = std::env::temp_dir();
    ckpt.push(format!("scidl_it_chaos_{}.ckpt", std::process::id()));
    Checkpoint::capture(&trained, 900, 71).save(&ckpt).unwrap();

    let mut rng0 = TensorRng::new(72);
    let registry = Arc::new(
        ModelRegistry::new(ServingModel::new(
            scidl_nn::arch::hep_small(&mut rng0),
            1,
            0,
        ))
        .with_faults(plan.clone()),
    );
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            policy: BatchPolicy::dynamic(4, Duration::from_millis(2)),
            faults: plan.clone(),
            ..Default::default()
        },
    );

    // Concurrent producers with deadlines, enough traffic for the
    // injected crash (the server's fourth dispatched batch) to fire
    // mid-run.
    let mut producers = Vec::new();
    for p in 0..4u64 {
        let client = server.client();
        producers.push(std::thread::spawn(move || {
            let mut outcomes = Vec::new();
            for i in 0..12u64 {
                outcomes.push(client.infer_with_deadline(
                    probe(100 + p * 64 + i),
                    Some(Duration::from_millis(500)),
                ));
            }
            outcomes
        }));
    }

    // Mid-run hot-swaps: attempts 0-2 are corrupt per the plan —
    // rejected, previous model keeps serving; the third consecutive
    // rejection opens the breaker.
    for want_open in [false, false, true] {
        let mut arch_rng = TensorRng::new(73);
        let err = registry
            .load_and_swap_guarded(
                &ckpt,
                scidl_nn::arch::hep_small(&mut arch_rng),
                &probe(7),
                Some(&trained),
            )
            .unwrap_err();
        assert!(
            matches!(err, SwapError::Load(_)),
            "corrupt checkpoint must be rejected: {err}"
        );
        assert_eq!(
            registry.current().iteration,
            1,
            "previous model keeps serving"
        );
        assert_eq!(registry.breaker_open(), want_open);
    }

    // Operator resets; the (healthy) checkpoint then publishes.
    registry.reset_breaker();
    let mut arch_rng2 = TensorRng::new(74);
    registry
        .load_and_swap_guarded(
            &ckpt,
            scidl_nn::arch::hep_small(&mut arch_rng2),
            &probe(7),
            Some(&trained),
        )
        .expect("healthy checkpoint publishes after reset");
    std::fs::remove_file(&ckpt).ok();
    assert_eq!(registry.current().iteration, 900);

    // Every request resolved with exactly one terminal outcome — the
    // joins completing is the no-deadlock/no-lost-reply-channel proof.
    let mut ok = 0u64;
    let mut typed_sheds = 0u64;
    for h in producers {
        for outcome in h.join().expect("producer panicked") {
            match outcome {
                Ok(r) => {
                    assert!(r.logits.iter().all(|v| v.is_finite()), "corrupted response");
                    assert_eq!(r.logits.len(), scidl_nn::arch::HEP_CLASSES);
                    ok += 1;
                }
                Err(
                    ServeError::Shed { .. }
                    | ServeError::DeadlineExceeded
                    | ServeError::WorkerLost
                    | ServeError::Closed,
                ) => typed_sheds += 1,
                Err(e) => panic!("non-terminal outcome {e}"),
            }
        }
    }
    assert_eq!(ok + typed_sheds, 48);

    let (recorder, report) = server.shutdown_with_report();
    scidl_trace::uninstall();
    assert_eq!(report.served, ok, "every served request reached its client");
    assert_eq!(recorder.len() as u64, ok);
    assert!(
        report.panics >= 1,
        "the injected crash must fire: {report:?}"
    );
    assert!(
        report.respawns >= 1,
        "the crashed slot must respawn: {report:?}"
    );
    // Bounded p99: the 500 ms deadline caps queue wait, compute is a few
    // ms even under the 3× straggler.
    let p99 = recorder.total_summary().expect("some requests served").p99;
    assert!(p99 < 2.0, "p99 must stay bounded under chaos, got {p99}s");

    // Resilience spans all present: shed/respawn from the pool,
    // swap-reject + breaker transitions from the registry.
    let names: Vec<&str> = sink.events().iter().map(|e| e.kind.name()).collect();
    for want in ["worker_respawn", "swap_reject", "breaker"] {
        assert!(names.contains(&want), "missing {want} span; got {names:?}");
    }

    // ---------------- sim half, same plan ----------------
    let model = ServiceModel::hep();
    let arrivals: Vec<f64> = PoissonArrivals::new(9, 1.5 * model.saturated_rate(8), 400).collect();
    let mut cfg = SimConfig::new(2, 64, BatchPolicy::dynamic(8, Duration::from_millis(5)));
    cfg.faults = plan.clone();
    cfg.deadline_secs = Some(0.5);
    cfg.swap_schedule = vec![0.05, 0.1, 0.15, 0.2];
    let out = simulate(&model, &arrivals, &cfg);
    assert_eq!(out.crashes, 1, "the same crash event fires in virtual time");
    assert_eq!(out.offered(), 400, "exactly-once accounting under chaos");
    assert_eq!(out.recorder.len(), out.completed);
    assert!(out.breaker_opened, "three rejections open the sim breaker");
    // Attempts 0-2 are corrupt (rejected), and with no operator reset in
    // virtual time the open breaker fail-fasts the fourth scheduled swap
    // without consuming an ordinal: nothing publishes.
    assert_eq!(out.swap_rejects, 4);
    assert_eq!(
        out.swap_attempts, 3,
        "fail-fast must not consume a swap ordinal"
    );
    assert_eq!(out.swap_published, 0);
    let p99 = out
        .recorder
        .total_summary()
        .expect("sim served requests")
        .p99;
    let bound = 0.5 + 3.0 * model.batch_secs(8) + 1e-9;
    assert!(
        p99 <= bound,
        "sim p99 {p99}s must stay under deadline+straggler bound {bound}s"
    );
}

/// The schedule that once skipped the acceptance run's crash: worker 0
/// dispatches at most one batch (a 30× straggler window on its first
/// keeps it asleep while worker 1 serves the rest). The crash is keyed
/// on the server's dispatch count, not on worker 0's, so it still fires.
#[test]
fn serving_chaos_crash_fires_when_worker_0_serves_one_batch() {
    let plan = serving_chaos().with_slow_worker(0, 0, 1, 30.0);
    let mut rng = TensorRng::new(75);
    let registry = Arc::new(ModelRegistry::new(ServingModel::new(
        scidl_nn::arch::hep_small(&mut rng),
        1,
        0,
    )));
    let server = Server::start(
        registry,
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            policy: BatchPolicy::dynamic(4, Duration::from_millis(2)),
            faults: plan,
            ..Default::default()
        },
    );
    let producers: Vec<_> = (0..4u64)
        .map(|p| {
            let client = server.client();
            std::thread::spawn(move || {
                (0..6u64)
                    .filter(|i| client.infer(probe(500 + p * 8 + i)).is_ok())
                    .count()
            })
        })
        .collect();
    let ok: usize = producers
        .into_iter()
        .map(|h| h.join().expect("producer panicked"))
        .sum();
    let (_, report) = server.shutdown_with_report();
    assert_eq!(ok, 24, "every request is served: {report:?}");
    assert!(
        report.panics >= 1,
        "the injected crash must fire: {report:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Exactly-once under chaos, real threads: concurrent producers,
    /// random crash/straggler plans, deadlines, shedding at a small queue
    /// capacity and a racing shutdown — every submitted request gets exactly one
    /// terminal outcome (reply, typed shed, or worker-lost), and the
    /// test completing at all proves no reply channel was stranded.
    #[test]
    fn threaded_chaos_yields_one_terminal_outcome_per_request(
        producers in 1usize..4,
        per_producer in 1usize..10,
        crash_after in 0u64..4,
        max_batch in 1usize..5,
        deadline_ms in 5u64..80,
        capacity in 2usize..16,
        shutdown_early in any::<bool>(),
    ) {
        let plan = FaultPlan::none()
            .with_worker_crash(0, crash_after, 0.0)
            .with_slow_worker(1, 0, 2, 2.0);
        let mut rng = TensorRng::new(81);
        let registry = Arc::new(ModelRegistry::new(ServingModel::new(
            scidl_nn::arch::hep_small(&mut rng), 1, 0,
        )));
        let server = Server::start(registry, ServerConfig {
            workers: 2,
            queue_capacity: capacity,
            policy: BatchPolicy::dynamic(max_batch, Duration::from_millis(1)),
            faults: plan,
            ..Default::default()
        });

        let total = producers * per_producer;
        let mut handles = Vec::new();
        for p in 0..producers as u64 {
            let client = server.client();
            let per = per_producer as u64;
            handles.push(std::thread::spawn(move || {
                let mut outcomes = Vec::new();
                for i in 0..per {
                    outcomes.push(client.infer_with_deadline(
                        probe(500 + p * 128 + i),
                        Some(Duration::from_millis(deadline_ms)),
                    ));
                }
                outcomes
            }));
        }
        if shutdown_early {
            // Race shutdown against live producers: close-side rejections
            // must be typed, never hangs.
            std::thread::sleep(Duration::from_millis(deadline_ms / 2));
        } else {
            // Let the traffic drain first.
            for _ in 0..50 {
                if server.queue_depth() == 0 { break; }
                std::thread::sleep(Duration::from_millis(2));
            }
        }

        let mut ok = 0u64;
        let mut shed = 0u64;
        for h in handles {
            for outcome in h.join().expect("producer panicked") {
                match outcome {
                    Ok(r) => {
                        prop_assert!(r.logits.iter().all(|v| v.is_finite()));
                        ok += 1;
                    }
                    Err(
                        ServeError::Shed { .. }
                        | ServeError::DeadlineExceeded
                        | ServeError::WorkerLost
                        | ServeError::Closed,
                    ) => shed += 1,
                    Err(e) => prop_assert!(false, "non-terminal outcome {}", e),
                }
            }
        }
        prop_assert_eq!(ok + shed, total as u64, "exactly one outcome per request");

        let (recorder, report) = server.shutdown_with_report();
        prop_assert_eq!(report.served, ok, "served counter == delivered replies");
        prop_assert_eq!(recorder.len() as u64, ok);
    }

    /// Exactly-once under chaos, virtual time: across random plans (one
    /// to three crashes at one point, so a batch may outlive its two
    /// re-queues and be lost), loads, deadlines and queue capacities,
    /// served + rejected + expired + lost ids partition the arrivals
    /// exactly, and the outcome is bit-reproducible.
    #[test]
    fn sim_chaos_partitions_arrivals_exactly_once(
        seed in 0u64..500,
        n in 1usize..250,
        rate in 50.0f64..3000.0,
        max_batch in 1usize..32,
        delay_ms in 0u64..20,
        capacity in 1usize..64,
        workers in 1usize..4,
        crash_slot in 0usize..4,
        crash_after in 0u64..6,
        respawn_ms in 0u64..100,
        slow_factor in 1.0f64..8.0,
        deadline_ms in 1u64..200,
        crashes in 1usize..4,
    ) {
        let model = ServiceModel::hep();
        let arrivals: Vec<f64> = PoissonArrivals::new(seed, rate, n).collect();
        let mut cfg = SimConfig::new(
            workers,
            capacity,
            BatchPolicy::dynamic(max_batch, Duration::from_millis(delay_ms)),
        );
        let slot = crash_slot % workers;
        cfg.faults = (0..crashes)
            .fold(FaultPlan::none(), |p, _| {
                p.with_worker_crash(slot, crash_after, respawn_ms as f64 * 1e-3)
            })
            .with_slow_worker(slot, 1, 4, slow_factor);
        cfg.deadline_secs = Some(deadline_ms as f64 * 1e-3);
        let out = simulate(&model, &arrivals, &cfg);

        let mut all: Vec<usize> = out
            .served_ids.iter()
            .chain(&out.rejected_ids)
            .chain(&out.expired_ids)
            .chain(&out.lost_ids)
            .copied()
            .collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>(), "ids must partition the arrivals");
        prop_assert_eq!(out.offered(), n);
        prop_assert_eq!(out.recorder.len(), out.completed);
        prop_assert!(out.batch_sizes.iter().all(|&b| b >= 1 && b <= max_batch));
        prop_assert_eq!(out.batch_sizes.iter().sum::<usize>(), out.completed);

        let again = simulate(&model, &arrivals, &cfg);
        prop_assert_eq!(out.served_ids, again.served_ids, "chaos must be deterministic");
        prop_assert_eq!(out.lost_ids, again.lost_ids);
        prop_assert_eq!(out.makespan.to_bits(), again.makespan.to_bits());
    }
}
