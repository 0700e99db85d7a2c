//! ASCII Gantt chart of simulated group iterations — makes the paper's
//! central mechanism visible: a synchronous run is one serialized lane
//! with straggler-stretched iterations, while hybrid groups overlap
//! freely and slide past each other (the asynchrony that removes the
//! batch-size limit and the straggler barrier, Sec. II-B2).

use crate::Args;
use scidl_cluster::sim::{ClusterSim, SimConfig};
use scidl_core::workloads::hep_workload;

const WIDTH: usize = 100;

fn gantt(timeline: &[(usize, f64, f64)], groups: usize, total: f64) -> String {
    let mut rows = vec![vec![' '; WIDTH]; groups];
    let marks = ['#', '=', '*', '+', 'o', '%', '@', '~'];
    for &(g, start, end) in timeline {
        let a = ((start / total) * WIDTH as f64) as usize;
        let b = (((end / total) * WIDTH as f64) as usize).min(WIDTH - 1);
        for (i, cell) in rows[g][a..=b].iter_mut().enumerate() {
            // Alternate the glyph at interval boundaries so adjacent
            // iterations stay distinguishable.
            *cell = if i == 0 { '|' } else { marks[g % marks.len()] };
        }
    }
    let mut out = String::new();
    for (g, row) in rows.iter().enumerate() {
        out.push_str(&format!("group {g:>2} "));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "         0 {:>width$.2}s\n",
        total,
        width = WIDTH - 2
    ));
    out
}

pub fn run(_: &Args) {
    let w = hep_workload();
    for (label, groups) in [("synchronous (1 group)", 1usize), ("hybrid (4 groups)", 4)] {
        let mut cfg = SimConfig::new(w.clone(), 64, groups, 512);
        cfg.iterations = 8;
        cfg.seed = 0x71;
        let r = ClusterSim::new(cfg).run();
        println!("{label}: 64 nodes, batch 512/group, 8 iterations/group\n");
        println!("{}", gantt(&r.timeline, groups, r.total_time));
        println!(
            "throughput {:.0} img/s, mean staleness {:.2}\n",
            r.images_per_sec(),
            r.mean_staleness
        );
    }
    println!("'|' marks iteration starts; hybrid groups overlap and drift apart —");
    println!("no global barrier — while the synchronous lane serializes everything.");
}
