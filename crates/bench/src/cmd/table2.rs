//! Regenerates **Table II** — specification of the DNN architectures —
//! directly from the real networks.

use crate::report::{fnum, markdown_table};
use crate::Args;
use scidl_nn::arch::{self, ClimateNet};
use scidl_nn::network::Model;
use scidl_tensor::TensorRng;

pub fn run(_: &Args) {
    let mut rng = TensorRng::new(1);
    let hep = arch::hep_network(&mut rng);
    let climate = ClimateNet::full(&mut rng);

    let hep_convs = hep.layers().iter().filter(|l| l.name().starts_with("conv")).count();
    let hep_fc = hep.layers().iter().filter(|l| l.name().starts_with("fc")).count();
    let enc = climate.encoder.layers().iter().filter(|l| l.name().starts_with("enc") && !l.name().contains("relu")).count();
    let dec = climate.decoder.layers().iter().filter(|l| l.name().starts_with("dec") && !l.name().contains("relu")).count();

    println!("Table II: specification of DNN architectures\n");
    let rows = vec![
        vec![
            "Supervised HEP".to_string(),
            format!("{}x{}x{}", arch::HEP_INPUT.h, arch::HEP_INPUT.w, arch::HEP_INPUT.c),
            format!("{hep_convs}xconv-pool, {hep_fc}xfully-connected"),
            "class probability".to_string(),
            format!("{} MiB ({} params)", fnum(hep.param_bytes() as f64 / (1024.0 * 1024.0), 2), hep.num_params()),
        ],
        vec![
            "Semi-sup. Climate".to_string(),
            format!("{}x{}x{}", arch::CLIMATE_INPUT.h, arch::CLIMATE_INPUT.w, arch::CLIMATE_INPUT.c),
            format!("{enc}xconv, {dec}xdeconv + 3 score heads"),
            "coordinates, class, confidence".to_string(),
            format!("{} MiB ({} params)", fnum(climate.param_bytes() as f64 / (1024.0 * 1024.0), 1), climate.num_params()),
        ],
    ];
    println!(
        "{}",
        markdown_table(&["architecture", "input", "layer details", "output", "parameters size"], &rows)
    );
    println!("paper reports: HEP 224x224x3, 5xconv-pool + 1xFC, 2.3 MiB");
    println!("               Climate 768x768x16, 9xconv + 5xdeconv, 302.1 MiB\n");

    println!("HEP layer stack:");
    let mut s = arch::HEP_INPUT;
    for l in hep.layers() {
        let o = l.out_shape(s);
        println!("  {:8} {:>14} -> {:>14}", l.name(), format!("{s}"), format!("{o}"));
        s = o;
    }
    println!("\nClimate encoder/decoder stacks:");
    let mut s = arch::CLIMATE_INPUT;
    for l in climate.encoder.layers() {
        let o = l.out_shape(s);
        println!("  {:10} {:>14} -> {:>14}", l.name(), format!("{s}"), format!("{o}"));
        s = o;
    }
    let feat = s;
    for l in climate.decoder.layers() {
        let o = l.out_shape(s);
        println!("  {:10} {:>14} -> {:>14}", l.name(), format!("{s}"), format!("{o}"));
        s = o;
    }
    println!("  (+3 scoring heads on the {feat} feature grid)");
}
