//! Event-simulator scaling benchmark: wall-clock cost of simulating the
//! paper's full machine. The tentpole target is 10⁴ nodes × 10³
//! iterations in (low single-digit) seconds; the index-based group
//! state, precomputed iteration bases, O(1) max-of-n jitter sampling and
//! preallocated timeline/queue make each simulated group-iteration O(1)
//! regardless of node count.
//!
//! Writes `results/sim_scale.{csv,txt}` and asserts both the wall-clock
//! ceiling at 9,688 × 1,000 and an events/second floor.

use crate::report::{csv, fnum, markdown_table, write_result};
use crate::Args;
use scidl_cluster::{ClusterSim, CollectiveKind, SimConfig, TopologyConfig};
use scidl_core::workloads::hep_workload;
use std::time::Instant;

/// Wall-clock ceiling for the headline 9,688-node × 1,000-iteration
/// configuration (single-threaded).
const HEADLINE_WALL_CEILING_SECS: f64 = 10.0;
/// Every configuration must process at least this many simulator events
/// per wall-clock second.
const EVENTS_PER_SEC_FLOOR: f64 = 50_000.0;

struct Row {
    nodes: usize,
    groups: usize,
    iterations: usize,
    wall_secs: f64,
    events: u64,
    events_per_sec: f64,
    group_iters_per_sec: f64,
    sim_secs: f64,
}

fn run_point(nodes: usize, groups: usize, iterations: usize) -> Row {
    let w = hep_workload();
    let mut cfg = SimConfig::new(w, nodes, groups, 8 * (nodes / groups));
    cfg.iterations = iterations;
    cfg.seed = 0x51CA1E ^ (nodes as u64);
    cfg.topology = Some(TopologyConfig::packed(CollectiveKind::Hierarchical));
    let sim = ClusterSim::new(cfg);
    let start = Instant::now();
    let r = sim.run();
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    Row {
        nodes,
        groups,
        iterations,
        wall_secs: wall,
        events: r.events_processed,
        events_per_sec: r.events_processed as f64 / wall,
        group_iters_per_sec: (groups * iterations) as f64 / wall,
        sim_secs: r.total_time,
    }
}

pub fn run(args: &Args) {
    let grid: &[(usize, usize, usize)] = if args.fast {
        &[(1024, 4, 200), (4096, 8, 500), (9688, 8, 1000)]
    } else {
        &[
            (1024, 4, 1000),
            (2048, 4, 1000),
            (4096, 8, 1000),
            (9688, 8, 1000),
            (19376, 16, 1000),
        ]
    };

    println!(
        "Simulator scaling: HEP workload, batch 8/node, packed placement + hierarchical collective\n"
    );

    let rows: Vec<Row> = grid.iter().map(|&(n, g, i)| run_point(n, g, i)).collect();

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.nodes.to_string(),
                r.groups.to_string(),
                r.iterations.to_string(),
                format!("{} ms", fnum(r.wall_secs * 1e3, 1)),
                r.events.to_string(),
                fnum(r.events_per_sec, 0),
                fnum(r.group_iters_per_sec, 0),
                fnum(r.sim_secs, 1),
            ]
        })
        .collect();
    let headers = [
        "nodes",
        "groups",
        "iterations",
        "wall",
        "events",
        "events/s",
        "group-iters/s",
        "simulated s",
    ];
    let md = markdown_table(&headers, &table);
    println!("{md}");

    // --- acceptance -----------------------------------------------------
    let headline = rows
        .iter()
        .find(|r| r.nodes == 9688 && r.iterations == 1000)
        .expect("grid must include the 9688-node x 1000-iteration headline point");
    assert!(
        headline.wall_secs <= HEADLINE_WALL_CEILING_SECS,
        "acceptance: 9688 x 1000 took {:.3} s wall > {HEADLINE_WALL_CEILING_SECS} s ceiling",
        headline.wall_secs
    );
    println!(
        "acceptance: 9688 nodes x 1000 iterations in {} s (ceiling {HEADLINE_WALL_CEILING_SECS} s) — PASS",
        fnum(headline.wall_secs, 3)
    );
    for r in &rows {
        assert!(
            r.events_per_sec >= EVENTS_PER_SEC_FLOOR,
            "acceptance: {} nodes processed {:.0} events/s < {EVENTS_PER_SEC_FLOOR} floor",
            r.nodes,
            r.events_per_sec
        );
    }
    println!("acceptance: all points above {EVENTS_PER_SEC_FLOOR:.0} events/s — PASS");

    let csv_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.nodes.to_string(),
                r.groups.to_string(),
                r.iterations.to_string(),
                format!("{:.6}", r.wall_secs),
                r.events.to_string(),
                format!("{:.0}", r.events_per_sec),
                format!("{:.0}", r.group_iters_per_sec),
                format!("{:.3}", r.sim_secs),
            ]
        })
        .collect();
    let csv_text = csv(
        &["nodes", "groups", "iterations", "wall_secs", "events", "events_per_sec", "group_iters_per_sec", "sim_secs"],
        &csv_rows,
    );
    write_result("sim_scale.csv", &csv_text, "written to");
    let txt = format!(
        "Simulator scaling (HEP workload, batch 8/node, hierarchical collective)\n\
         mode: {}\n\n{md}\n\
         acceptance: 9688 x 1000 wall {} s <= {HEADLINE_WALL_CEILING_SECS} s; \
         all points >= {EVENTS_PER_SEC_FLOOR:.0} events/s\n",
        if args.fast { "--fast" } else { "full" },
        fnum(headline.wall_secs, 3),
    );
    write_result("sim_scale.txt", &txt, "written to");
}
