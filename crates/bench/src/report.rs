//! The output helpers every subcommand shares: markdown/CSV tables,
//! number formatting, an ASCII chart, the `results/` writer, and the two
//! tables `fig6` and `fig7` both print.

use scidl_core::experiments::ScalingRow;

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
    out.push_str(&fmt_row(
        headers.iter().map(|s| s.to_string()).collect(),
        &widths,
    ));
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
/// (`fig8` sketches its loss curves with it).
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

/// Writes `contents` to `results/<name>` and reports it on stdout as
/// `<done> results/<name>` — committed captures hold those lines, so each
/// caller passes its own wording.
pub fn write_result(name: &str, contents: &str, done: &str) {
    let path = format!("results/{name}");
    std::fs::create_dir_all("results").ok();
    match std::fs::write(&path, contents) {
        Ok(()) => println!("{done} {path}"),
        Err(e) => println!("(could not write {path}: {e})"),
    }
}

/// Prints scaling `rows` pivoted to one line per node count and one
/// speedup column per group count (`sync` for one group, `-` where a
/// point is missing).
pub fn print_speedups(rows: &[ScalingRow], nodes: &[usize], groups: &[usize]) {
    let mut headers = vec![String::from("nodes")];
    headers.extend(groups.iter().map(|&g| {
        if g == 1 {
            "sync".into()
        } else {
            format!("hybrid-{g}")
        }
    }));
    let table: Vec<Vec<String>> = nodes
        .iter()
        .map(|&n| {
            let mut row = vec![n.to_string()];
            row.extend(groups.iter().map(|&g| {
                rows.iter()
                    .find(|r| r.nodes == n && r.groups == g)
                    .map_or_else(|| "-".into(), |r| fnum(r.speedup, 0))
            }));
            row
        })
        .collect();
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    println!("{}", markdown_table(&headers, &table));
}

/// Prints the flat-placed ring vs hierarchical collective table from
/// `(nodes, flat img/s, hierarchical img/s)` points and asserts its
/// acceptance: both collectives deliver, and hierarchical never loses at
/// 2,048 nodes or more.
pub fn print_collectives(points: &[(usize, f64, f64)]) {
    let table: Vec<Vec<String>> = points
        .iter()
        .map(|&(n, flat, hier)| {
            vec![
                n.to_string(),
                fnum(flat, 0),
                fnum(hier, 0),
                fnum(hier / flat, 3),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &["nodes", "flat ring (img/s)", "hierarchical (img/s)", "gain"],
            &table
        )
    );
    for &(n, flat, hier) in points {
        assert!(
            hier > 0.0 && flat > 0.0,
            "both collectives must produce throughput at {n} nodes"
        );
        assert!(
            n < 2048 || hier >= flat,
            "acceptance: hierarchical ({hier}) must beat the flat ring ({flat}) at {n} nodes"
        );
    }
    if points.iter().any(|p| p.0 >= 2048) {
        println!("\nacceptance: hierarchical >= flat ring at every point >= 2048 nodes — PASS");
    }
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
