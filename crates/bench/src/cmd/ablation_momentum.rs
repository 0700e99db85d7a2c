//! Ablation of **momentum vs asynchrony** (Sec. II-B2a / VI-B4,
//! following Mitliagkas et al. [31], "asynchrony begets momentum"): for
//! each group count, sweep the explicit SGD momentum and report the best
//! smoothed training loss within a fixed update budget. More groups →
//! more implicit momentum → lower optimal explicit momentum, and high
//! explicit momentum actively destabilises highly asynchronous runs.

use crate::report::{fnum, markdown_table};
use crate::Args;
use scidl_core::experiments::momentum_ablation;
use scidl_nn::solver::asynchrony_adjusted_momentum;

pub fn run(args: &Args) {
    let (groups, updates): (&[usize], usize) = if args.fast {
        (&[1, 8], 80)
    } else {
        (&[1, 2, 4, 8], 150)
    };
    let momenta = [0.0f32, 0.7, 0.9, 0.95];
    let (batch, events) = (64, 1024);

    println!("Momentum x asynchrony grid ({updates} updates, total batch {batch})\n");
    let rows = momentum_ablation(groups, &momenta, updates, batch, events, 5);

    let mut table = Vec::new();
    for &g in groups {
        let mut row = vec![g.to_string()];
        let mut best: Option<(f32, f32)> = None;
        for &mu in &momenta {
            let r = rows
                .iter()
                .find(|r| r.groups == g && (r.momentum - mu).abs() < 1e-6)
                .unwrap();
            row.push(fnum(r.best_loss as f64, 4));
            if best.is_none() || r.best_loss < best.unwrap().1 {
                best = Some((mu, r.best_loss));
            }
        }
        row.push(fnum(best.unwrap().0 as f64, 2));
        row.push(fnum(asynchrony_adjusted_momentum(0.95, g) as f64, 2));
        table.push(row);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "groups",
                "mu=0.0",
                "mu=0.7",
                "mu=0.9",
                "mu=0.95",
                "best mu",
                "theory mu* (target 0.95)"
            ],
            &table
        )
    );
    println!("\npaper: sync uses momentum 0.9; hybrid runs tune over {{0.0, 0.4, 0.7}} to");
    println!("compensate the implicit momentum contributed by asynchrony [31]. Expected:");
    println!("the best explicit momentum falls as the group count rises.");
}
