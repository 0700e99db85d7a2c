//! The five workloads. Names are fixed; later issues cite them.

use crate::host::Threads;
use crate::report::Outcome;

pub mod climate_train;
pub mod hep_train;
pub mod serve_hep;
pub mod sim_suite;
pub mod wide_train;

/// What the driver needs from a workload. Everything a workload feeds the
/// program under test is generated from `seed`; model initialisation uses
/// the workload's own fixed seed.
pub trait Workload {
    type Env;
    const NAME: &'static str;
    /// One line: why the workload exists.
    const WHY: &'static str;

    fn threads() -> Threads;

    /// What a user pays before the first operation: dataset generation,
    /// model build, server start.
    fn setup(seed: u64) -> Self::Env;

    /// Stops what `setup` started.
    fn teardown(env: Self::Env) {
        drop(env);
    }

    /// Measures for about `seconds` with tracing off and checks outputs.
    fn measure(env: &mut Self::Env, seed: u64, seconds: f64) -> Outcome;

    /// A short fixed section of the workload with a span around every
    /// call into a layer; returns its throughput in operations per
    /// second. Run twice, spans off then on.
    fn traced_section(env: &mut Self::Env, seed: u64) -> f64;
}

/// Repeats `one` (a fixed amount of work; it is told its repetition
/// index) until about `seconds` have been measured: at least twice,
/// stopping when the next repetition would overshoot by more than half
/// its length.
pub fn repeat_for<T>(seconds: f64, mut one: impl FnMut(usize) -> T) -> Vec<T> {
    let start = std::time::Instant::now();
    let mut reps = Vec::new();
    loop {
        let result = one(reps.len());
        reps.push(result);
        let spent = start.elapsed().as_secs_f64();
        if reps.len() >= 2 && spent + 0.5 * spent / reps.len() as f64 > seconds {
            return reps;
        }
    }
}
