//! `scidl-trace`: what the existing sink costs — a span site with no sink
//! installed, an event with one, and the slowdown of a short `hep_train`
//! and `serve_hep` section under `scidl_trace::install`. The sink's
//! events are not consumed; this is the budget for instrumenting the
//! crates later.

use super::median_secs;
use crate::catalogue::Better::Lower;
use crate::report::{Metric, Outcome};
use crate::stats::median;
use crate::train;
use crate::workloads::Workload;
use crate::workloads::{hep_train, serve_hep};
use scidl_core::task::HepGradTask;
use scidl_core::thread_engine::ThreadEngine;
use scidl_trace::{EventKind, TraceHandle, TraceSink};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// `(name, unit, better)` of every metric this section reports.
pub const NAMES: &[super::Def] = &[
    ("trace.disabled.ns_per_site", "ns", Lower),
    ("trace.enabled.ns_per_event", "ns", Lower),
    ("trace.overhead_pct.hep_train", "%", Lower),
    ("trace.overhead_pct.serve_hep", "%", Lower),
];

const SITES: usize = 1_000_000;
const EVENTS: usize = 200_000;

fn site() {
    let tr = TraceHandle::current();
    let t = tr.now();
    tr.span(0, t, EventKind::Compute { group: 0, iter: 0 });
    black_box(tr.enabled());
}

/// Iterations of the short `hep_train` engine run (one fewer gaps).
const HEP_ITERATIONS: usize = 4;
const SERVE_SECONDS: f64 = 0.8;

pub fn run(out: &mut Outcome, seed: u64) {
    assert!(
        !scidl_trace::is_enabled(),
        "no sink may be installed while measuring"
    );
    let off = median_secs(1, 5, || (0..SITES).for_each(|_| site()));
    out.push(Metric::value(
        "trace.disabled.ns_per_site",
        "ns",
        off * 1e9 / SITES as f64,
    ));

    scidl_trace::install(Arc::new(TraceSink::with_capacity(EVENTS)));
    let t = Instant::now();
    (0..EVENTS).for_each(|_| site());
    let on = t.elapsed().as_secs_f64();
    scidl_trace::uninstall();
    out.push(Metric::value(
        "trace.enabled.ns_per_event",
        "ns",
        on * 1e9 / EVENTS as f64,
    ));

    // The same short section without a sink and, straight after, with
    // one: a difference of two short measurements, so a few percent
    // either way is the host, not the sink.
    let env = hep_train::HepTrain::setup(seed);
    let cfg = hep_train::config(seed, hep_train::RANKS, HEP_ITERATIONS);
    let iter_ms = || {
        let run = ThreadEngine::run_with(
            &cfg,
            env.ds.len(),
            |_| hep_train::build(),
            HepGradTask::new(Arc::clone(&env.ds)),
        );
        median(&train::curve_gaps_ms(&run))
    };
    let plain = iter_ms();
    scidl_trace::install(Arc::new(TraceSink::new()));
    let traced = iter_ms();
    scidl_trace::uninstall();
    out.push(Metric::value(
        "trace.overhead_pct.hep_train",
        "%",
        (traced / plain - 1.0) * 100.0,
    ));

    let mut env = serve_hep::ServeHep::setup(seed);
    env.fill_refs();
    let capacity = |env: &serve_hep::Env| {
        median(&serve_hep::saturate(env, SERVE_SECONDS, seed).rate_samples())
    };
    let plain = capacity(&env);
    scidl_trace::install(Arc::new(TraceSink::new()));
    let traced = capacity(&env);
    scidl_trace::uninstall();
    env.server.shutdown();
    out.push(Metric::value(
        "trace.overhead_pct.serve_hep",
        "%",
        (plain / traced - 1.0) * 100.0,
    ));
}
