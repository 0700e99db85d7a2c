#![warn(missing_docs)]
//! # scidl-bench
//!
//! The harness that regenerates every table and figure of the paper's
//! evaluation section. Each binary corresponds to one artifact (see
//! DESIGN.md's per-experiment index):
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table I — dataset characteristics |
//! | `table2` | Table II — architecture specifications |
//! | `fig5` | Fig. 5 — single-node per-layer time & FLOP rate |
//! | `fig6` | Fig. 6 — strong scaling |
//! | `fig7` | Fig. 7 — weak scaling |
//! | `fig8` | Fig. 8 — loss vs wall-clock, sync vs hybrid |
//! | `overall` | Sec. VI-B3 — full-system peak/sustained PFLOP/s |
//! | `hep_science` | Sec. VII-A — TPR at fixed FPR vs the cut baseline |
//! | `climate_science` | Sec. VII-B / Fig. 9 — detections + rendering |
//! | `ablation_ps` | per-layer PS vs single PS |
//! | `ablation_momentum` | momentum × asynchrony grid |
//! | `resilience` | Sec. VIII-A — failure behaviour |
//! | `serving` | dynamic-batching latency/throughput frontier (`scidl-serve`) |
//! | `kernels` | per-node kernel GFLOP/s (packed GEMM vs seed baseline) |
//!
//! This library crate holds the small table/CSV formatting helpers the
//! binaries share.

/// Parses `--trace <out.json>` from `std::env::args()`. When the flag is
/// present, installs a fresh global [`scidl_trace::TraceSink`] — so every
/// instrumented layer (engines, comm, serving) starts recording — and
/// returns the output path for [`finish_trace`].
pub fn trace_from_args() -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--trace" {
            let path = args.next().expect("--trace requires an output path, e.g. --trace out.json");
            scidl_trace::install(std::sync::Arc::new(scidl_trace::TraceSink::new()));
            return Some(path.into());
        }
    }
    None
}

/// Uninstalls the global trace sink and writes what it collected: Chrome
/// `trace_event` JSON at `path` (load it at `chrome://tracing` or
/// <https://ui.perfetto.dev>) plus the per-iteration CSV next to it
/// (same stem, `.csv` extension). Health alerts, if any, go to stderr.
pub fn finish_trace(path: &std::path::Path) {
    let Some(sink) = scidl_trace::uninstall() else { return };
    match sink.write_chrome_json(path) {
        Ok(()) => println!("trace: {} events -> {}", sink.events().len(), path.display()),
        Err(e) => println!("(could not write {}: {e})", path.display()),
    }
    let csv_path = path.with_extension("csv");
    match sink.write_iteration_csv(&csv_path) {
        Ok(()) => println!("trace: {} iteration rows -> {}", sink.rows().len(), csv_path.display()),
        Err(e) => println!("(could not write {}: {e})", csv_path.display()),
    }
    if sink.dropped() > 0 {
        eprintln!("trace: {} events dropped (sink at capacity)", sink.dropped());
    }
    for a in sink.health_alerts() {
        eprintln!(
            "trace: numeric-health alert: {}{}: {} non-finite value(s), first at [{}] = {}",
            a.source,
            a.layer.as_deref().map(|l| format!(" / layer {l}")).unwrap_or_default(),
            a.count,
            a.first_index,
            a.value
        );
    }
}

/// Renders rows as a GitHub-flavoured markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncol = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncol, "row arity mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {cell:<w$} |"));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(headers.iter().map(|s| s.to_string()).collect(), &widths));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{:-<width$}|", "", width = w + 2));
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
    }
    out
}

/// Renders rows as CSV (comma-separated, no quoting — callers keep cells
/// comma-free).
pub fn csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = headers.join(",");
    out.push('\n');
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row arity mismatch");
        for cell in row {
            assert!(!cell.contains(','), "CSV cells must not contain commas");
        }
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Formats a float with the given precision, normalising `-0.00…` to
/// `0.00…`.
pub fn fnum(v: f64, prec: usize) -> String {
    let s = format!("{v:.prec$}");
    if s.starts_with("-0.") && s[3..].bytes().all(|b| b == b'0') {
        s[1..].to_string()
    } else {
        s
    }
}

/// An ASCII scatter chart for quick terminal visualisation of series
/// (used by `fig8` to sketch loss curves).
pub fn ascii_chart(series: &[(&str, &[(f64, f32)])], width: usize, height: usize) -> String {
    let mut xmax = f64::MIN;
    let mut ymin = f32::MAX;
    let mut ymax = f32::MIN;
    for (_, pts) in series {
        for &(x, y) in *pts {
            xmax = xmax.max(x);
            ymin = ymin.min(y);
            ymax = ymax.max(y);
        }
    }
    if !xmax.is_finite() || ymin > ymax {
        return String::from("(no data)\n");
    }
    let span = (ymax - ymin).max(1e-9);
    let mut grid = vec![vec![' '; width]; height];
    let marks = ['s', 'S', '2', '4', '8', '*'];
    for (si, (_, pts)) in series.iter().enumerate() {
        let m = marks[si % marks.len()];
        for &(x, y) in *pts {
            let cx = ((x / xmax.max(1e-12)) * (width - 1) as f64).round() as usize;
            let cy = (((ymax - y) / span) * (height - 1) as f32).round() as usize;
            grid[cy.min(height - 1)][cx.min(width - 1)] = m;
        }
    }
    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{ymax:>8.3} |")
        } else if i == height - 1 {
            format!("{ymin:>8.3} |")
        } else {
            String::from("         |")
        };
        out.push_str(&label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("          0 … {xmax:.1}s\n"));
    for (si, (name, _)) in series.iter().enumerate() {
        out.push_str(&format!("  [{}] {}\n", marks[si % marks.len()], name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_aligns_columns() {
        let t = markdown_table(
            &["a", "long-header"],
            &[vec!["1".into(), "2".into()], vec!["100".into(), "x".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert!(lines[1].starts_with("|--"));
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    fn csv_joins_rows() {
        let c = csv(&["x", "y"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(c, "x,y\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn csv_rejects_ragged_rows() {
        let _ = csv(&["x", "y"], &[vec!["1".into()]]);
    }

    #[test]
    fn fnum_formats() {
        assert_eq!(fnum(1.23456, 2), "1.23");
        assert_eq!(fnum(-0.0001, 2), "0.00");
    }

    #[test]
    fn ascii_chart_renders_series() {
        let a: Vec<(f64, f32)> = vec![(0.0, 1.0), (5.0, 0.5), (10.0, 0.1)];
        let s = ascii_chart(&[("sync", &a)], 30, 8);
        assert!(s.contains('s'));
        assert!(s.lines().count() >= 9);
    }

    #[test]
    fn ascii_chart_handles_empty() {
        let s = ascii_chart(&[], 10, 4);
        assert!(s.contains("no data"));
    }
}
