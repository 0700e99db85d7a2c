//! Host-measured performance ledger for the scidl workspace.
//!
//! ```text
//! scidl-benchmarks --workload NAME --seed N --seconds S --trace 0|1   one workload, one JSON line
//! scidl-benchmarks run     [--seed N] [--seconds S] [--workload NAME]  ledger table, tracing off
//! scidl-benchmarks trace   [--seed N] [--workload NAME]                per-layer metrics + span files
//! scidl-benchmarks compare A.json B.json                               A/B table against the bounds
//! ```
//!
//! Every number printed here is wall-clock on this host (`host-measured`),
//! never the KNL model's. See `benchmarks/README.md`.

mod alloc;
mod catalogue;
mod compare;
mod host;
mod json;
mod layers;
mod report;
mod span;
mod stats;
mod train;
mod workloads;

use catalogue::Bound;
use json::Json;
use report::{Metric, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Seconds one run measures when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
/// Set-up is repeated and its median reported, so one slow page-cache or
/// allocator warm-up does not decide `setup_s`: at least this often, and
/// on while the repetitions have taken less than a second (a 25 ms set-up
/// needs more than three samples for a steady median), up to the cap.
const SETUP_REPS: std::ops::RangeInclusive<usize> = 3..=15;

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Opts {
    /// The workloads `run`/`trace` cover: the one named, else all five.
    fn names(&self) -> Vec<&str> {
        match &self.workload {
            Some(w) => vec![w.as_str()],
            None => catalogue::WORKLOADS.map(|w| w.name).to_vec(),
        }
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &o.workload {
        if catalogue::workload(w).is_none() {
            let names = catalogue::WORKLOADS.map(|w| w.name);
            return Err(format!("unknown workload {w}; one of {names:?}"));
        }
    }
    Ok(o)
}

const USAGE: &str = "usage:
  scidl-benchmarks --workload NAME --seed N --seconds S --trace 0|1
  scidl-benchmarks run   [--seed N] [--seconds S] [--workload NAME]
  scidl-benchmarks trace [--seed N] [--workload NAME]
  scidl-benchmarks compare A.json B.json";

/// Calls the generic function `$f::<W>` for the workload named `$name`.
macro_rules! for_workload {
    ($name:expr, $f:ident($($arg:expr),*)) => {
        match $name {
            workloads::hep_train::NAME => $f::<workloads::hep_train::HepTrain>($($arg),*),
            workloads::wide_train::NAME => $f::<workloads::wide_train::WideTrain>($($arg),*),
            workloads::climate_train::NAME => {
                $f::<workloads::climate_train::ClimateTrain>($($arg),*)
            }
            workloads::serve_hep::NAME => $f::<workloads::serve_hep::ServeHep>($($arg),*),
            workloads::sim_suite::NAME => $f::<workloads::sim_suite::SimSuite>($($arg),*),
            other => unreachable!("parse_opts lets only catalogued workloads through: {other}"),
        }
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_opts(&args[1..]).and_then(|o| run_set(&o)),
        Some("trace") => parse_opts(&args[1..]).and_then(|o| trace_set(&o)),
        Some("compare") => compare::main(&args[1..]),
        Some(f) if f.starts_with("--") => {
            parse_opts(&args).and_then(|o| match o.workload.clone() {
                Some(w) => for_workload!(w.as_str(), drive(&o)),
                None => Err("--workload is required".into()),
            })
        }
        _ => Err(USAGE.into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// Where a workload's full result goes.
fn result_path(name: &str, seed: u64, trace: bool) -> PathBuf {
    host::out_dir().join(format!("{name}_seed{seed}_trace{}.json", trace as u8))
}

fn header<W: Workload>(o: &Opts, trace: bool) {
    let length = if trace {
        "traced, fixed repetitions".to_string()
    } else {
        format!("{} s, tracing off", o.seconds)
    };
    println!(
        "== {} (seed {}, {length}) — {} ==",
        W::NAME,
        o.seed,
        host::LABEL
    );
    println!("   why: {}", W::WHY);
    host::warn_if_single_core();
}

/// Prints the outcome, writes the full result and returns it.
fn finish(
    name: &str,
    threads: host::Threads,
    o: &Opts,
    trace: bool,
    outcome: &Outcome,
) -> Result<Json, String> {
    report::print_metrics(&outcome.metrics);
    report::print_checks(&outcome.checks);
    println!(
        "  ops attempted {}  failed {}",
        outcome.attempted, outcome.failed
    );
    let path = result_path(name, o.seed, trace);
    let full = result_json(name, threads, o, trace, outcome);
    std::fs::write(&path, full.render()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("  result: {}", path.display());
    Ok(full)
}

/// Runs one workload in this process and prints, as the last line of
/// standard output, `{"correct", "attempted", "failed", "metrics"}`: the
/// contract view with tracing off; with it on, the workload's span rows
/// and the whole per-layer suite (the outside driver wants every
/// per-layer metric from every traced run).
fn drive<W: Workload>(o: &Opts) -> Result<bool, String> {
    header::<W>(o, o.trace);
    let (outcome, line) = if o.trace {
        let mut outcome = span_section::<W>(o);
        outcome.absorb(layer_suite(o.seed));
        let line = layers::contract_line(&outcome)?;
        (outcome, line)
    } else {
        let outcome = untraced::<W>(o);
        let line = contract_line(W::NAME, &outcome);
        (outcome, line)
    };
    finish(W::NAME, W::threads(), o, o.trace, &outcome)?;
    println!("{}", line.render());
    Ok(outcome.correct())
}

/// The end-to-end run: set-up timed several times, the measured seconds
/// with tracing off, memory and steal readings.
fn untraced<W: Workload>(o: &Opts) -> Outcome {
    let mut setup_s = Vec::new();
    let mut env = W::setup(o.seed);
    loop {
        W::teardown(env);
        let t = Instant::now();
        env = W::setup(o.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        let enough = setup_s.len() >= *SETUP_REPS.start() && setup_s.iter().sum::<f64>() >= 1.0;
        if enough || setup_s.len() == *SETUP_REPS.end() {
            break;
        }
    }
    let (busy0, stolen0) = host::cpu_jiffies();
    let mut outcome = W::measure(&mut env, o.seed, o.seconds);
    W::teardown(env);
    outcome.push(Metric::median_of("setup_s", "s", &setup_s));
    outcome.push(Metric::value("peak_heap_mb", "MiB", alloc::peak_heap_mib()));
    // Informational: includes what the system allocator retains.
    outcome.push(Metric::value("peak_rss_mb", "MiB", host::peak_rss_mib()));
    // Informational: how much of the CPU time this machine wanted the
    // hypervisor gave to someone else while the run measured.
    let (busy1, stolen1) = host::cpu_jiffies();
    let steal = 100.0 * (stolen1 - stolen0) as f64 / (busy1 - busy0).max(1) as f64;
    if steal > 1.0 {
        println!("  WARNING: the hypervisor stole {steal:.1} % of this run's CPU time; timings are disturbed");
    }
    outcome.push(Metric::value("host_steal_pct", "%", steal));
    outcome
}

/// A short fixed section of the workload after a warm-up pass: spans off,
/// then on. Reports each layer's share of the span self time and the
/// harness's own tracing overhead, and writes the span file. End-to-end
/// numbers never come from this run.
fn span_section<W: Workload>(o: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut env = W::setup(o.seed);
    W::traced_section(&mut env, o.seed); // warm-up: caches, pools, first-touch pages
    let plain = W::traced_section(&mut env, o.seed);
    span::enable();
    let spanned = W::traced_section(&mut env, o.seed);
    span::disable();
    W::teardown(env);
    let spans = span::drain();
    let self_ns = span::self_time_ns(&spans);
    let total: u64 = self_ns.iter().map(|(_, ns)| ns).sum();
    for &(layer, ns) in &self_ns {
        out.push(Metric::value(
            format!("span.{}.self_share", layer.name()),
            "share",
            ns as f64 / total.max(1) as f64,
        ));
    }
    out.push(Metric::value("span.count", "count", spans.len() as f64));
    out.push(Metric::value("span.section_ops_per_s", "1/s", spanned));
    out.push(Metric::value(
        "trace.harness_overhead_pct",
        "%",
        (plain / spanned - 1.0) * 100.0,
    ));
    if W::NAME == workloads::sim_suite::NAME {
        // Kernel PRs must leave this workload flat: the benchmark makes no
        // call into `tensor` from it, and the `nn` time of part (c) sits
        // under `core.sim_engine.run_with`.
        let tensor = out.value("span.tensor.self_share");
        out.check(
            "sim_suite_bypasses_tensor",
            tensor < 0.05,
            format!("span.tensor.self_share {tensor:.3} < 0.05 of the cycle's span time"),
        );
    }
    write_spans(&mut out, W::NAME, &spans);
    out
}

fn write_spans(out: &mut Outcome, section: &str, spans: &[span::Span]) {
    let path = host::out_dir().join(format!("trace_{section}.json"));
    match span::write_chrome(&path, section, spans) {
        Ok(()) => println!("  spans: {} ({} spans)", path.display(), spans.len()),
        Err(e) => out.check(
            "span_file_written",
            false,
            format!("{}: {e}", path.display()),
        ),
    }
}

/// The per-layer suite (`layers::run_all`), the separation the training
/// workloads were chosen for checked on today's code, and the span file
/// of the suite's replayed training steps.
fn layer_suite(seed: u64) -> Outcome {
    let (mut out, spans) = layers::run_all(seed);
    let share = |w: &str| {
        out.value(&format!("core.{w}.comm_share")) + out.value(&format!("core.{w}.ps_share"))
    };
    let (hep, wide) = (share("hep"), share("wide"));
    out.check(
        "hep_train_is_compute_bound",
        hep < 0.10,
        format!("core.hep comm + PS share {hep:.3} < 0.10"),
    );
    out.check(
        "wide_train_is_comm_bound",
        wide > 0.40,
        format!("core.wide comm + PS share {wide:.3} > 0.40"),
    );
    write_spans(&mut out, "suite", &spans);
    out
}

/// The four metrics every workload reports under one name.
fn contract_line(workload: &str, outcome: &Outcome) -> Json {
    let w = catalogue::workload(workload).expect("catalogued workload");
    let mut metrics = Json::obj();
    for m in catalogue::CONTRACT {
        let source = match m.name {
            "throughput_per_s" => w.throughput,
            "op_ms_p50" => w.op_ms,
            name => name,
        };
        metrics = metrics.with(
            m.name,
            Json::obj()
                .with("value", outcome.value(source))
                .with("unit", m.unit),
        );
    }
    Json::obj()
        .with("correct", outcome.correct())
        .with("attempted", outcome.attempted.max(1))
        .with("failed", outcome.failed)
        .with("metrics", metrics)
}

/// The full result: fingerprint, every metric with its spread and bound,
/// checks, and operation counts.
fn result_json(
    section: &str,
    threads: host::Threads,
    o: &Opts,
    trace: bool,
    outcome: &Outcome,
) -> Json {
    // The per-layer suite is no workload and has no ledger metrics.
    let ledger = catalogue::workload(section)
        .map(catalogue::Workload::ledger)
        .unwrap_or_default();
    let mut metrics = Json::obj();
    for m in &outcome.metrics {
        let mut j = m.to_json();
        if let Some(def) = ledger.iter().find(|d| d.name == m.name) {
            j = j.with("better", def.better.name()).with(
                "bound",
                match def.bound {
                    Bound::Share(s) => Json::Num(s),
                    Bound::Exact => Json::Str("exact".into()),
                    Bound::Report => Json::Str("not gated".into()),
                },
            );
        }
        metrics = metrics.with(&m.name, j);
    }
    let checks: Vec<Json> = outcome
        .checks
        .iter()
        .map(|c| {
            Json::obj()
                .with("name", c.name)
                .with("ok", c.ok)
                .with("detail", c.detail.as_str())
        })
        .collect();
    Json::obj()
        .with("label", host::LABEL)
        .with("claim", Json::Null)
        .with("workload", section)
        .with("seconds", o.seconds)
        .with("trace", trace)
        .with("host", host::fingerprint(o.seed, threads))
        .with("correct", outcome.correct())
        .with("ops_attempted", outcome.attempted)
        .with("ops_failed", outcome.failed)
        .with("checks", checks)
        .with("metrics", metrics)
}

/// `run`: re-executes this binary once per workload (fresh allocator,
/// per-workload memory high-water marks), then prints the ledger table
/// and writes the combined result.
fn run_set(o: &Opts) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    let mut all_ok = true;
    for name in o.names() {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string(), "--trace", "0"])
            .status()
            .map_err(|e| format!("spawn {name}: {e}"))?;
        all_ok &= status.success();
        let path = result_path(name, o.seed, false);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        results.push(Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    compare::print_ledger(&results);
    write_combined(o, false, results)?;
    Ok(all_ok)
}

/// `trace`: each workload's span section, then the per-layer suite once.
fn trace_set(o: &Opts) -> Result<bool, String> {
    fn section<W: Workload>(o: &Opts) -> Result<(bool, Json), String> {
        header::<W>(o, true);
        let outcome = span_section::<W>(o);
        Ok((
            outcome.correct(),
            finish(W::NAME, W::threads(), o, true, &outcome)?,
        ))
    }
    let mut results = Vec::new();
    let mut all_ok = true;
    for name in o.names() {
        let (ok, result) = for_workload!(name, section(o))?;
        all_ok &= ok;
        results.push(result);
    }
    println!("== per-layer suite (seed {}) — {} ==", o.seed, host::LABEL);
    let suite = layer_suite(o.seed);
    all_ok &= suite.correct();
    results.push(finish("suite", host::Threads::default(), o, true, &suite)?);
    write_combined(o, true, results)?;
    Ok(all_ok)
}

fn write_combined(o: &Opts, trace: bool, results: Vec<Json>) -> Result<(), String> {
    let combined = Json::obj()
        .with("label", host::LABEL)
        .with("claim", Json::Null)
        .with("seed", o.seed)
        .with("seconds", o.seconds)
        .with("trace", trace)
        .with("workloads", results);
    let path = host::out_dir().join(format!(
        "{}_seed{}.json",
        if trace { "trace" } else { "run" },
        o.seed
    ));
    std::fs::write(&path, combined.render())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("combined result: {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &Json) -> Vec<String> {
        list.items()
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    /// `BENCHMARK.json` is written by hand; it must say what the code does.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let b = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        assert_eq!(
            b.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        assert_eq!(
            names(b.get("workloads").unwrap()),
            catalogue::WORKLOADS.map(|w| w.name)
        );
        let e2e = b.get("end_to_end").unwrap();
        assert_eq!(names(e2e), catalogue::CONTRACT.map(|m| m.name));
        for (j, m) in e2e.items().iter().zip(catalogue::CONTRACT) {
            assert_eq!(
                j.get("unit").and_then(Json::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(m.better.name()),
                "{}",
                m.name
            );
            let Bound::Share(bound) = m.bound else {
                panic!("contract bounds are shares")
            };
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(bound),
                "{}",
                m.name
            );
        }
        let per_layer = b.get("per_layer").unwrap().items();
        let defs = layers::per_layer_defs();
        assert!(defs.len() <= 128);
        assert_eq!(per_layer.len(), defs.len());
        for (j, (name, unit, better)) in per_layer.iter().zip(defs) {
            let field = |k| j.get(k).and_then(Json::as_str);
            assert_eq!(field("name"), Some(name.as_str()));
            assert_eq!(field("unit"), Some(unit), "{name}");
            assert_eq!(field("better"), Some(better.name()), "{name}");
        }
    }

    #[test]
    fn contract_aliases_name_ledger_metrics() {
        for w in &catalogue::WORKLOADS {
            let ledger = w.ledger();
            assert!(ledger.iter().any(|m| m.name == w.throughput), "{}", w.name);
            assert!(ledger.iter().any(|m| m.name == w.op_ms), "{}", w.name);
        }
    }

    #[test]
    fn options_are_checked_where_they_enter() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let o = parse_opts(&args("--workload serve_hep --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.trace),
            (Some("serve_hep"), 7, 3.0, true)
        );
        assert!(parse_opts(&args("--workload nope")).is_err());
        assert!(parse_opts(&args("--seconds 0")).is_err());
        assert!(parse_opts(&args("--trace 2")).is_err());
        assert!(parse_opts(&args("--seed")).is_err());
    }
}
