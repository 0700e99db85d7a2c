//! The per-layer suite of the traced run. The layers are the crates; each
//! metric times, from here, the named public call of one crate on shapes
//! derived from the workloads' own layer dimensions — median of a fixed
//! number of repetitions after warm-up.
//!
//! The suite does not depend on the workload: `trace` runs it once after
//! the five workloads' span sections. A `--workload W --trace 1` run also
//! measures all of it, because the outside driver wants every per-layer
//! metric from every traced run. `README.md` records which end-to-end
//! metric each one should move.

use crate::catalogue::Better;
use crate::json::Json;
use crate::report::Outcome;
use crate::span::{Layer, Span};
use crate::stats::median;
use std::time::Instant;

mod cluster;
mod comm;
mod core;
mod data;
mod nn;
mod serve;
mod tensor;
mod trace;

/// Seconds of each of `reps` calls of `f`, after `warm` untimed calls.
pub fn time_reps(warm: usize, reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    for _ in 0..warm {
        f();
    }
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Median seconds of `reps` calls of `f` after `warm` untimed calls.
pub fn median_secs(warm: usize, reps: usize, f: impl FnMut()) -> f64 {
    median(&time_reps(warm, reps, f))
}

/// Values one layer's section measures that a later section needs.
#[derive(Default)]
pub struct Shared {
    /// Best GEMM rate of any measured shape, the roofline the conv rows are
    /// held against.
    pub peak_gflops: f64,
    /// Seconds of the raw conv2 forward GEMM and im2col for one image.
    pub conv2_gemm_s: f64,
    pub conv2_im2col_s: f64,
}

/// Runs the whole suite. Returns its metrics and the spans its replayed
/// training steps recorded.
pub fn run_all(seed: u64) -> (Outcome, Vec<Span>) {
    let mut out = Outcome::default();
    let mut shared = Shared::default();
    let t = Instant::now();
    let section = |name: &str, t0: Instant| {
        println!("  suite: {name:<8} {:>6.2} s", t0.elapsed().as_secs_f64());
    };
    let t0 = Instant::now();
    tensor::run(&mut out, &mut shared);
    section("tensor", t0);
    let t0 = Instant::now();
    nn::run(&mut out, &shared, seed);
    section("nn", t0);
    let t0 = Instant::now();
    data::run(&mut out, seed);
    section("data", t0);
    let t0 = Instant::now();
    comm::run(&mut out);
    section("comm", t0);
    let t0 = Instant::now();
    let spans = core::run(&mut out, seed);
    section("core", t0);
    let t0 = Instant::now();
    serve::run(&mut out, seed);
    section("serve", t0);
    let t0 = Instant::now();
    cluster::run(&mut out, seed);
    section("cluster", t0);
    let t0 = Instant::now();
    trace::run(&mut out, seed);
    section("trace", t0);
    println!("  suite: total    {:>6.2} s", t.elapsed().as_secs_f64());
    (out, spans)
}

/// `(name, unit, better)` of one per-layer metric.
pub type Def = (&'static str, &'static str, Better);

/// The per-layer metrics a traced run reports (`per_layer` in
/// `BENCHMARK.json`), in report order: the span shares of the workload's
/// traced section, then the suite.
pub fn per_layer_defs() -> Vec<(String, &'static str, Better)> {
    let mut defs: Vec<_> = Layer::ALL
        .iter()
        .map(|l| {
            (
                format!("span.{}.self_share", l.name()),
                "share",
                Better::Lower,
            )
        })
        .collect();
    defs.push(("trace.harness_overhead_pct".into(), "%", Better::Lower));
    for list in [
        tensor::NAMES,
        nn::NAMES,
        data::NAMES,
        comm::NAMES,
        core::NAMES,
        serve::NAMES,
        cluster::NAMES,
        trace::NAMES,
    ] {
        defs.extend(list.iter().map(|&(n, u, b)| (n.to_string(), u, b)));
    }
    defs
}

/// The last line of a traced run: every per-layer metric, by name.
pub fn contract_line(outcome: &Outcome) -> Result<Json, String> {
    let mut metrics = Json::obj();
    for (name, unit, _) in per_layer_defs() {
        let m = outcome
            .get(&name)
            .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
        if m.unit != unit {
            return Err(format!(
                "per-layer metric {name} is measured in {}, listed in {unit}",
                m.unit
            ));
        }
        metrics = metrics.with(&name, Json::obj().with("value", m.value).with("unit", unit));
    }
    Ok(Json::obj()
        .with("correct", outcome.correct())
        .with("attempted", outcome.attempted.max(1))
        .with("failed", outcome.failed)
        .with("metrics", metrics))
}
