//! Ablation of the paper's **architecture design rule** (Sec. I): "to
//! not use layers with large dense weights such as batch normalization
//! or fully connected units". Compares the published HEP head (global
//! average pooling + a 128→2 dense layer) against a VGG-style flattened
//! dense head on the same convolutional stack: what every all-reduce and
//! PS exchange would have to move, and what that does to weak scaling.

use crate::report::{fnum, markdown_table};
use crate::Args;
use scidl_core::experiments::arch_ablation;

pub fn run(args: &Args) {
    let iters = if args.fast { 6 } else { 12 };

    println!("Architecture-rule ablation: HEP conv stack with two heads\n");
    let rows = arch_ablation(iters, 0xA2C);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                r.params.to_string(),
                format!("{} MiB", fnum(r.model_mib, 1)),
                format!("{} ms", fnum(r.allreduce_secs * 1e3, 2)),
                fnum(r.images_per_sec_1024, 0),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "head design",
                "params",
                "model size",
                "all-reduce @1024",
                "img/s @1024 (hybrid-4, b=8/node)"
            ],
            &table
        )
    );
    println!("\nthe paper's rule keeps the model all-reduce-sized; the dense head");
    println!("multiplies communication volume by ~170x and costs scaling.");
}
