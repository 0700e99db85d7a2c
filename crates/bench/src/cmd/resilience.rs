//! Regenerates the **resilience observation of Sec. VIII-A**: "even a
//! single node failure can cause complete failure of synchronous runs;
//! hybrid runs are much more resilient since only one of the compute
//! groups gets affected."

use crate::report::markdown_table;
use crate::Args;
use scidl_core::experiments::resilience;
use scidl_core::workloads::hep_workload;

pub fn run(_: &Args) {
    println!("Sec. VIII-A: failure resilience under an aggressive failure rate\n");
    let mut table = Vec::new();
    for (nodes, groups) in [(256usize, 4usize), (1024, 8)] {
        let r = resilience(&hep_workload(), nodes, groups, 0xF41);
        table.push(vec![
            format!("{nodes} nodes / sync"),
            if r.sync_failed {
                "DIED".into()
            } else {
                "survived".into()
            },
            r.sync_iterations_done.to_string(),
            "0".into(),
            "-".into(),
        ]);
        table.push(vec![
            format!("{nodes} nodes / hybrid-{groups}"),
            format!("{}/{} groups alive", r.hybrid_live_groups, groups),
            r.hybrid_iterations_done.to_string(),
            "0".into(),
            format!(
                "{}x more work done",
                if r.sync_iterations_done > 0 {
                    format!(
                        "{:.1}",
                        r.hybrid_iterations_done as f64 / r.sync_iterations_done as f64
                    )
                } else {
                    "∞".into()
                }
            ),
        ]);
        table.push(vec![
            format!("{nodes} nodes / hybrid-{groups} + recovery"),
            format!("{}/{} groups alive", r.recovery_live_groups, groups),
            r.recovery_iterations_done.to_string(),
            r.recovered_iterations.to_string(),
            "crashed group rejoins from the PS bank".into(),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "configuration",
                "outcome",
                "iterations completed",
                "recovered iterations",
                "note"
            ],
            &table
        )
    );
}
