//! Host fingerprint and process-level measurements (`VmHWM`, CPU time).

use crate::json::Json;
use std::path::{Path, PathBuf};

/// Label carried by every result: numbers here are wall-clock on this
/// machine, never the KNL model's.
pub const LABEL: &str = "host-measured";

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Directory holding `benchmarks/`: the working directory when run from
/// the repository root, else the parent of the package this was built in.
pub fn repo_root() -> PathBuf {
    if Path::new("benchmarks/Cargo.toml").is_file() {
        PathBuf::from(".")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }
}

/// Where result, span and temporary files go (`benchmarks/out/`).
pub fn out_dir() -> PathBuf {
    let dir = repo_root().join("benchmarks").join("out");
    std::fs::create_dir_all(&dir).expect("create benchmarks/out");
    dir
}

/// Commit of the checkout read from `.git` (no process is spawned);
/// `unknown` in an exported tree.
fn git_sha() -> String {
    let git = repo_root().join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(git.join("packed-refs")).map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split(' ').next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// Thread counts a workload runs with.
#[derive(Clone, Copy, Debug, Default)]
pub struct Threads {
    /// Training rank threads (groups × ranks).
    pub ranks: usize,
    /// Serving worker threads.
    pub workers: usize,
    /// Load-generating client threads.
    pub clients: usize,
}

/// Fingerprint recorded in every JSON result.
pub fn fingerprint(seed: u64, threads: Threads) -> Json {
    Json::obj()
        .with("label", LABEL)
        .with("git_sha", git_sha())
        .with("nproc", nproc())
        .with("cpu_model", cpu_model())
        .with("isa", scidl_tensor::Isa::active().name())
        .with("rank_threads", threads.ranks)
        .with("worker_threads", threads.workers)
        .with("client_threads", threads.clients)
        .with("seed", seed)
}

/// Printed when the benchmark cannot leave a CPU to the rest of the
/// machine (README, "Threads and CPUs").
pub fn warn_if_single_core() {
    if nproc() < 2 {
        println!(
            "WARNING: nproc = {} < 2: the benchmark shares its only CPU with everything \
             else the machine runs; only counts (wire bytes, events, updates) are \
             meaningful, timings are not",
            nproc()
        );
    }
}

fn status_kib(field: &str) -> Option<f64> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map(|k| k / 1024.0).unwrap_or(f64::NAN)
}

/// Jiffies `(busy, stolen)` summed over all CPUs since boot (`/proc/stat`):
/// `stolen` is time the hypervisor ran something else while this machine
/// wanted the CPU.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let at = |i: usize| fields.get(i).copied().unwrap_or(0);
    // user + nice + system + irq + softirq + steal; steal.
    (at(0) + at(1) + at(2) + at(5) + at(6) + at(7), at(7))
}

/// `cpu_set_t` of glibc: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn affinity() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed; pid 0
    // is the calling thread.
    let r = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    (r == 0).then_some(set)
}

#[cfg(target_os = "linux")]
fn set_affinity(set: &CpuSet) -> bool {
    // SAFETY: `set` is a readable buffer of exactly the size passed; pid 0
    // is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn affinity() -> Option<CpuSet> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set_affinity(_: &CpuSet) -> bool {
    false
}

/// While it lives, the calling thread — and every thread it spawns, which
/// inherit the mask — runs only on one of the CPUs it was allowed before.
/// Dropping it restores the previous mask for the calling thread.
///
/// `serve_hep` uses it to keep the load generator off the server worker's
/// CPU: left to the scheduler the two often share one, and the generator
/// then runs a timer tick (≈ 4 ms) late.
pub struct Pin {
    previous: CpuSet,
}

impl Pin {
    /// Pins to the `n`-th allowed CPU; `None` (nothing changes) when there
    /// are not that many or the platform refuses.
    pub fn nth(n: usize) -> Option<Pin> {
        let previous = affinity()?;
        let cpu = (0..1024)
            .filter(|c| previous[c / 64] >> (c % 64) & 1 == 1)
            .nth(n)?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        set_affinity(&one).then_some(Pin { previous })
    }

    /// Pins to the last allowed CPU and so leaves the others to the rest
    /// of the machine. The two-thread training workloads measure under it:
    /// on a 2-CPU box the shell or driver that started the benchmark is a
    /// third runnable thread now and then, and two threads that need both
    /// CPUs then lose 27–58 % of their speed for as long as it runs
    /// (README, "Threads and CPUs"). Taking turns on one CPU they lose
    /// nothing to it.
    pub fn last() -> Option<Pin> {
        let allowed = affinity()?
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>();
        Pin::nth(allowed.checked_sub(1)?)
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        // Nothing to do about a refusal here; the mask stays narrower.
        set_affinity(&self.previous);
    }
}
