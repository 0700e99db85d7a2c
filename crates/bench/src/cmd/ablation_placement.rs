//! Ablation of **topology-aware placement** (Fig. 3): the ideal layout
//! packs each compute group into whole electrical groups of the Aries
//! dragonfly; a topology-oblivious scheduler scatters it across the
//! machine, paying optical-hop latency and shared-global-link contention
//! on every all-reduce.

use crate::report::{fnum, markdown_table};
use crate::Args;
use scidl_core::experiments::placement_ablation;

pub fn run(_: &Args) {
    println!("Placement ablation (Fig. 3): 1024-node compute group on a 9688-node dragonfly\n");
    for (name, bytes) in [
        ("HEP (2.3 MiB model)", 2_411_724u64),
        ("Climate (306 MiB model)", 321_120_352u64),
    ] {
        let rows = placement_ablation(1024, 9688, bytes, 0xF163);
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.label.to_string(),
                    r.groups_spanned.to_string(),
                    format!("{} ms", fnum(r.allreduce_secs * 1e3, 3)),
                    format!("{} ms", fnum(r.hierarchical_secs * 1e3, 3)),
                ]
            })
            .collect();
        println!("{name}:");
        println!(
            "{}",
            markdown_table(
                &[
                    "placement",
                    "electrical groups spanned",
                    "flat ring",
                    "hierarchical"
                ],
                &table
            )
        );
        let penalty = rows[1].allreduce_secs / rows[0].allreduce_secs;
        let recovered = rows[1].allreduce_secs / rows[1].hierarchical_secs;
        println!(
            "scattered-placement penalty: {}x (hierarchical claws back {}x of it)\n",
            fnum(penalty, 2),
            fnum(recovered, 2)
        );
    }
}
