//! The ledger table and the A/B comparison against the catalogue's bounds.

use crate::catalogue::{self, Better, Bound};
use crate::json::Json;
use crate::report::fmt_value as short;

fn metric<'a>(result: &'a Json, name: &str) -> Option<&'a Json> {
    result.get("metrics").and_then(|m| m.get(name))
}

fn num(j: Option<&Json>, key: &str) -> Option<f64> {
    j.and_then(|m| m.get(key)).and_then(Json::as_f64)
}

fn bound_text(b: Bound) -> String {
    match b {
        Bound::Share(s) => format!("{:.0} %", s * 100.0),
        Bound::Exact => "exact".into(),
        Bound::Report => "none".into(),
    }
}

/// One row per (workload, ledger metric): value, unit, sample count,
/// quartiles, highest supported percentile and bound.
pub fn print_ledger(results: &[Json]) {
    println!(
        "\n{:<14} {:<26} {:>13} {:<6} {:>6} {:>12} {:>12} {:>16} {:>7}",
        "workload", "metric", "value", "unit", "n", "q1", "q3", "top percentile", "bound"
    );
    for r in results {
        let name = r.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(w) = catalogue::workload(name) else {
            continue;
        };
        for def in w.ledger() {
            let m = metric(r, def.name);
            let Some(value) = num(m, "value") else {
                println!("{name:<14} {:<26} {:>13}", def.name, "missing");
                continue;
            };
            let opt = |k: &str| num(m, k).map(short).unwrap_or_else(|| "-".into());
            let top = match (num(m, "top_percentile"), num(m, "top_value")) {
                (Some(p), Some(v)) => format!("p{p}={}", short(v)),
                _ => "-".into(),
            };
            println!(
                "{name:<14} {:<26} {:>13} {:<6} {:>6} {:>12} {:>12} {:>16} {:>7}",
                def.name,
                short(value),
                def.unit,
                opt("n"),
                opt("q1"),
                opt("q3"),
                top,
                bound_text(def.bound)
            );
        }
        let ok = r.get("correct").and_then(Json::as_bool).unwrap_or(false);
        println!(
            "{name:<14} checks {}   ops attempted {} failed {}",
            if ok { "ok" } else { "FAILED" },
            num(Some(r), "ops_attempted").unwrap_or(f64::NAN),
            num(Some(r), "ops_failed").unwrap_or(f64::NAN)
        );
    }
    println!();
}

/// By how much `b` is worse than `a`, as a share of `a` (negative = better).
pub fn worsened(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Higher => (a - b) / a.abs(),
        Better::Lower => (b - a) / a.abs(),
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `compare A.json B.json`: A is the base. One row per (workload, ledger
/// metric) with both medians and the ratio B/A; `Ok(false)` when any pair
/// worsens by more than its bound or an exact count differs.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: scidl-benchmarks compare A.json B.json".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("A (base) = {a_path}\nB        = {b_path}");
    println!(
        "\n{:<14} {:<26} {:>13} {:>13} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A (A=1)", "worse by", "bound"
    );
    let mut ok = true;
    let empty = Json::Arr(Vec::new());
    for ra in a.get("workloads").unwrap_or(&empty).items() {
        let name = ra.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(w) = catalogue::workload(name) else {
            continue;
        };
        let rb = b
            .get("workloads")
            .unwrap_or(&empty)
            .items()
            .iter()
            .find(|r| r.get("workload").and_then(Json::as_str) == Some(name));
        let Some(rb) = rb else {
            println!("{name:<14} missing from B");
            ok = false;
            continue;
        };
        for def in w.ledger() {
            let (va, vb) = (
                num(metric(ra, def.name), "value"),
                num(metric(rb, def.name), "value"),
            );
            let (Some(va), Some(vb)) = (va, vb) else {
                println!("{name:<14} {:<26} missing", def.name);
                ok = false;
                continue;
            };
            let worse = worsened(def.better, va, vb);
            let pass = match def.bound {
                Bound::Share(s) => worse <= s,
                Bound::Exact => va == vb,
                Bound::Report => true,
            };
            ok &= pass;
            println!(
                "{name:<14} {:<26} {:>13} {:>13} {:>12.4} {:>8.2}% {:>7}  {}",
                def.name,
                short(va),
                short(vb),
                vb / va,
                worse * 100.0,
                bound_text(def.bound),
                match (def.bound, pass) {
                    (Bound::Report, _) => "not gated",
                    (_, true) => "within",
                    (_, false) => "REGRESSED",
                }
            );
        }
        for (side, r) in [("A", ra), ("B", rb)] {
            if r.get("correct").and_then(Json::as_bool) != Some(true) {
                println!("{name:<14} output checks failed in {side}");
                ok = false;
            }
        }
    }
    println!(
        "\n{}",
        if ok {
            "all pairs within their bounds"
        } else {
            "at least one pair outside its bound"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsened_follows_the_direction() {
        assert!((worsened(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsened(Better::Higher, 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!((worsened(Better::Lower, 50.0, 55.0) - 0.10).abs() < 1e-12);
        assert!((worsened(Better::Lower, 50.0, 45.0) + 0.10).abs() < 1e-12);
    }

    fn run_file(dir: &std::path::Path, name: &str, iter_ms: f64, wire: f64) -> String {
        let m = |v: f64| Json::obj().with("value", v);
        let metrics = Json::obj()
            .with("setup_s", m(0.1))
            .with("peak_heap_mb", m(100.0))
            .with("images_per_s", m(16e3 / iter_ms))
            .with("iter_ms_p50", m(iter_ms))
            .with("wire_bytes", m(wire))
            .with("final_loss", m(0.5));
        let w = Json::obj()
            .with("workload", "hep_train")
            .with("correct", true)
            .with("metrics", metrics);
        let path = dir.join(name);
        std::fs::write(&path, Json::obj().with("workloads", vec![w]).render()).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn compare_flags_regressions_and_exact_mismatches() {
        let dir = crate::host::out_dir().join(format!("test_compare_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = run_file(&dir, "a.json", 100.0, 4096.0);
        let same = run_file(&dir, "b.json", 103.0, 4096.0);
        let slow = run_file(&dir, "c.json", 130.0, 4096.0);
        let wire = run_file(&dir, "d.json", 100.0, 4100.0);
        assert_eq!(main(&[base.clone(), same]), Ok(true));
        assert_eq!(main(&[base.clone(), slow]), Ok(false));
        assert_eq!(main(&[base.clone(), wire]), Ok(false));
        assert!(main(&[base]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
