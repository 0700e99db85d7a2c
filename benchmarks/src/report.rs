//! What one workload run produces: named metrics with their samples,
//! correctness checks and the count of operations attempted and failed.

use crate::json::Json;
use crate::stats::{percentile, summarize, Summary, MIN_BEYOND};

/// One measured number. `summary` holds the spread of the samples the
/// value is the median of; exact counts and single readings have none.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Option<Summary>,
}

impl Metric {
    /// A single reading or an exact count.
    pub fn value(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            summary: None,
        }
    }

    /// The median of `samples`, with their spread.
    pub fn median_of(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Self {
        let s = summarize(samples);
        Self {
            name: name.into(),
            unit,
            value: s.median,
            summary: Some(s),
        }
    }

    /// Percentile `p` of `samples`. With fewer than ten samples beyond it
    /// the value is still reported, and said to be unsupported.
    pub fn percentile_of(
        name: impl Into<String>,
        unit: &'static str,
        samples: &[f64],
        p: f64,
    ) -> Self {
        let name = name.into();
        let s = summarize(samples);
        if s.top.is_none_or(|(top, _)| top < p) {
            println!(
                "  note: {name}: {} samples leave fewer than {MIN_BEYOND} beyond p{p}; run longer for a supported tail",
                s.n
            );
        }
        Self {
            name,
            unit,
            value: percentile(samples, p),
            summary: Some(s),
        }
    }

    pub fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .with("value", self.value)
            .with("unit", self.unit);
        if let Some(s) = &self.summary {
            j = j
                .with("n", s.n)
                .with("min", s.min)
                .with("q1", s.q1)
                .with("median", s.median)
                .with("q3", s.q3)
                .with("max", s.max);
            if let Some((p, v)) = s.top {
                j = j.with("top_percentile", p).with("top_value", v);
            }
        }
        j
    }
}

/// One output check; a failed check fails the run.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn push(&mut self, m: Metric) {
        assert!(
            self.metrics.iter().all(|x| x.name != m.name),
            "metric {} reported twice",
            m.name
        );
        self.metrics.push(m);
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn value(&self, name: &str) -> f64 {
        self.get(name)
            .unwrap_or_else(|| panic!("metric {name} not measured"))
            .value
    }

    /// Adds every metric and check of `other`.
    pub fn absorb(&mut self, other: Outcome) {
        for m in other.metrics {
            self.push(m);
        }
        self.checks.extend(other.checks);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Four decimals, scientific outside [0.01, 1e7).
pub fn fmt_value(v: f64) -> String {
    if v == 0.0 || (v.abs() >= 0.01 && v.abs() < 1e7) {
        format!("{v:.4}")
    } else {
        format!("{v:.4e}")
    }
}

/// Prints one aligned row per metric: value, unit, sample count, quartiles
/// and the highest supported percentile.
pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        let spread = match &m.summary {
            None => String::new(),
            Some(s) => {
                let top = match s.top {
                    Some((p, v)) => format!(" p{p}={}", fmt_value(v)),
                    None => String::new(),
                };
                format!(
                    "  n={} q1={} med={} q3={}{top}",
                    s.n,
                    fmt_value(s.q1),
                    fmt_value(s.median),
                    fmt_value(s.q3)
                )
            }
        };
        println!(
            "  {:<44} {:>14} {:<8}{spread}",
            m.name,
            fmt_value(m.value),
            m.unit
        );
    }
}

pub fn print_checks(checks: &[Check]) {
    for c in checks {
        println!(
            "  check {:<34} {}  {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
}
