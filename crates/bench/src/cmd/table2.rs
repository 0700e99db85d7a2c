//! Regenerates **Table II** — specification of the DNN architectures —
//! directly from the networks' layer specs.

use crate::report::{fnum, markdown_table};
use crate::Args;
use scidl_nn::arch::{self, ClimateNet};
use scidl_nn::{LayerSpec, NetSpec};
use scidl_tensor::Shape4;

pub fn run(_: &Args) {
    let hep = arch::hep_network_spec();
    let climate = ClimateNet::full_spec();

    let count = |net: &NetSpec, kind: fn(&LayerSpec) -> bool| {
        net.layers.iter().filter(|(_, l)| kind(l)).count()
    };
    let hep_convs = count(&hep, |l| matches!(l, LayerSpec::Conv(_)));
    let hep_fc = count(&hep, |l| matches!(l, LayerSpec::Dense { .. }));
    let enc = count(&climate.encoder, |l| matches!(l, LayerSpec::Conv(_)));
    let dec = count(&climate.decoder, |l| matches!(l, LayerSpec::Deconv(_)));
    let mib = |params: usize| (params * std::mem::size_of::<f32>()) as f64 / (1024.0 * 1024.0);

    println!("Table II: specification of DNN architectures\n");
    let rows = vec![
        vec![
            "Supervised HEP".to_string(),
            format!(
                "{}x{}x{}",
                arch::HEP_INPUT.h,
                arch::HEP_INPUT.w,
                arch::HEP_INPUT.c
            ),
            format!("{hep_convs}xconv-pool, {hep_fc}xfully-connected"),
            "class probability".to_string(),
            format!(
                "{} MiB ({} params)",
                fnum(mib(hep.num_params()), 2),
                hep.num_params()
            ),
        ],
        vec![
            "Semi-sup. Climate".to_string(),
            format!(
                "{}x{}x{}",
                arch::CLIMATE_INPUT.h,
                arch::CLIMATE_INPUT.w,
                arch::CLIMATE_INPUT.c
            ),
            format!("{enc}xconv, {dec}xdeconv + 3 score heads"),
            "coordinates, class, confidence".to_string(),
            format!(
                "{} MiB ({} params)",
                fnum(mib(climate.num_params()), 1),
                climate.num_params()
            ),
        ],
    ];
    println!(
        "{}",
        markdown_table(
            &[
                "architecture",
                "input",
                "layer details",
                "output",
                "parameters size"
            ],
            &rows
        )
    );
    println!("paper reports: HEP 224x224x3, 5xconv-pool + 1xFC, 2.3 MiB");
    println!("               Climate 768x768x16, 9xconv + 5xdeconv, 302.1 MiB\n");

    let print_stack = |net: &NetSpec, input: Shape4, width: usize| {
        for (name, l, s) in net.walk(input) {
            println!(
                "  {name:width$} {:>14} -> {:>14}",
                format!("{s}"),
                format!("{}", l.out_shape(s))
            );
        }
    };
    println!("HEP layer stack:");
    print_stack(&hep, arch::HEP_INPUT, 8);
    println!("\nClimate encoder/decoder stacks:");
    print_stack(&climate.encoder, arch::CLIMATE_INPUT, 10);
    let feat = climate.encoder.out_shape(arch::CLIMATE_INPUT);
    print_stack(&climate.decoder, feat, 10);
    println!("  (+3 scoring heads on the {feat} feature grid)");
}
