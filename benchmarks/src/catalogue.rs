//! The end-to-end metric catalogue: names, units, direction and the bound
//! by which each may worsen before a change counts as a regression.
//!
//! Two views of the same run:
//!
//! * the **ledger** view — the workload's own metrics by the names the
//!   issues use (`images_per_s`, `lat_ms_p99_hi`, …), printed by `run`,
//!   written to `benchmarks/out/` and gated by `compare`/`aa.sh`;
//! * the **contract** view — the four metrics every workload reports
//!   under one name (`BENCHMARK.json`, last line of standard output),
//!   because the outside driver wants every metric from every workload.
//!   `throughput_per_s` and `op_ms_p50` are aliases of one ledger metric
//!   per workload ([`Workload::throughput`], [`Workload::op_ms`]).

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// May worsen by this share of the baseline's median.
    Share(f64),
    /// A count: must repeat exactly.
    Exact,
    /// Reported and stored, never gated by `compare`: it cannot repeat
    /// within a tenth on the reference box (the issue's rule for demoting
    /// a metric).
    Report,
}

#[derive(Clone, Copy, Debug)]
pub struct E2e {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
}

const fn e(name: &'static str, unit: &'static str, better: Better, bound: Bound) -> E2e {
    E2e {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};
use Bound::{Exact, Report, Share};

// Bounds follow the issue's rule on the reference box's A/A spread
// (README, "A/A spread": three sets of ten 20 s runs on ten seeds, IQR /
// median, the largest of the three):
// bound = max(the issue's starting value, 3 × spread), at most the
// contract's ceiling of 25 %; a metric whose spread exceeds a tenth is
// `Report`ed, not gated loosely. The spread is noted beside each bound.

/// Reported by every workload. 3–10 % on the three larger set-ups, up to
/// 12 % and 16 % on the 21 ms and 37 ms of `serve_hep` and `hep_train`.
const SETUP_S: E2e = e("setup_s", "s", Lower, Share(0.25));
/// High-water mark of live heap bytes, not `VmHWM` (see `alloc.rs`):
/// 0.0–0.2 %. On two CPUs `wide_train` had two modes 4 % apart (whether
/// both ranks' transient buffers are alive at once).
const PEAK_HEAP_MB: E2e = e("peak_heap_mb", "MiB", Lower, Share(0.12));

pub struct Workload {
    pub name: &'static str,
    /// Ledger metrics beyond `setup_s` and `peak_heap_mb`.
    pub metrics: &'static [E2e],
    /// Ledger metric reported as `throughput_per_s` in the contract view.
    pub throughput: &'static str,
    /// Ledger metric reported as `op_ms_p50` in the contract view.
    pub op_ms: &'static str,
}

const HEP: [E2e; 4] = [
    e("images_per_s", "1/s", Higher, Share(0.19)), // 6.3 %
    e("iter_ms_p50", "ms", Lower, Share(0.20)),    // 6.7 %
    e("wire_bytes", "B", Lower, Exact),
    e("final_loss", "loss", Lower, Exact),
];

// Memory-bound by design, so the host's slow minutes show in full:
// 3–4 % in two sets, 14–15 % in the third.
const WIDE: [E2e; 4] = [
    e("images_per_s", "1/s", Higher, Report), // 15.1 %
    e("iter_ms_p50", "ms", Lower, Report),    // 13.8 %
    e("wire_bytes", "B", Lower, Exact),
    e("final_loss", "loss", Lower, Exact),
];

const CLIMATE: [E2e; 3] = [
    e("images_per_s", "1/s", Higher, Share(0.25)), // 2.8 % twice, then 8.5 %
    e("iter_ms_p50", "ms", Lower, Share(0.25)),    // 8.2 %
    e("wire_bytes", "B", Lower, Exact),
];

const SERVE: [E2e; 8] = [
    e("lat_ms_p50_lo", "ms", Lower, Share(0.16)), // 5.2 %
    e("lat_ms_p95_lo", "ms", Lower, Report),      // 15 %
    e("lat_ms_p50_hi", "ms", Lower, Report),      // 8 % twice, then 19 %
    e("lat_ms_p99_hi", "ms", Lower, Report),      // 27–152 %
    // Decided by `lat_ms_p99_hi` against the limit: 210 in the twenty
    // runs of two sets, 150 in four runs of the third, where something
    // else on the generator's CPU made it 20–37 ms late. It cannot be
    // held exact.
    e("max_rate_in_slo_rps", "1/s", Higher, Report),
    e("capacity_rps", "1/s", Higher, Share(0.18)), // 6.1 %
    e("capacity_rps_int8", "1/s", Higher, Share(0.24)), // 8.1 %
    e("router_closed_rps", "1/s", Higher, Share(0.18)), // 6.0 %
];

const SIM: [E2e; 4] = [
    e("cluster_events_per_s", "1/s", Higher, Share(0.12)), // 3.9 %
    e("fleet_sim_requests_per_s", "1/s", Higher, Share(0.14)), // 4.6 %
    e("sim_engine_updates_per_s", "1/s", Higher, Share(0.10)), // 3.4 %
    e("suite_cycle_ms_p50", "ms", Lower, Share(0.16)),     // 5.2 %
];

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "hep_train",
        metrics: &HEP,
        throughput: "images_per_s",
        op_ms: "iter_ms_p50",
    },
    Workload {
        name: "wide_train",
        metrics: &WIDE,
        throughput: "images_per_s",
        op_ms: "iter_ms_p50",
    },
    Workload {
        name: "climate_train",
        metrics: &CLIMATE,
        throughput: "images_per_s",
        op_ms: "iter_ms_p50",
    },
    Workload {
        name: "serve_hep",
        metrics: &SERVE,
        throughput: "capacity_rps",
        op_ms: "lat_ms_p50_lo",
    },
    Workload {
        name: "sim_suite",
        metrics: &SIM,
        throughput: "cluster_events_per_s",
        op_ms: "suite_cycle_ms_p50",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Every ledger metric of the workload, the two common ones first.
    pub fn ledger(&self) -> Vec<E2e> {
        [SETUP_S, PEAK_HEAP_MB]
            .into_iter()
            .chain(self.metrics.iter().copied())
            .collect()
    }
}

/// The contract view: reported by every workload under these names. One
/// bound serves all five workloads, so the two aliases carry the ceiling:
/// the outside gate is looser than the ledger's on the steady workloads
/// and is the only gate on a metric the ledger merely reports.
pub const CONTRACT: [E2e; 4] = [
    SETUP_S,
    PEAK_HEAP_MB,
    e("throughput_per_s", "1/s", Higher, Share(0.25)),
    e("op_ms_p50", "ms", Lower, Share(0.25)),
];
