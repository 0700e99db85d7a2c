//! # scidl-bench
//!
//! One program regenerating every table and figure of the paper's
//! evaluation section: `scidl-bench <subcommand> [flags]`, one subcommand
//! per artifact (DESIGN.md's per-experiment index). [`COMMANDS`] is both
//! the dispatcher and the `--help` text. Flags are parsed once, against
//! the subcommand's own list: an unknown subcommand or flag, a flag the
//! subcommand does not take, a missing value or a bad `--compress` spec
//! prints usage and exits 2. Every subcommand takes `--trace PATH`: the
//! driver installs the global trace sink before it runs and writes what
//! the sink collected after.

mod report;
mod cmd {
    pub mod ablation_arch;
    pub mod ablation_momentum;
    pub mod ablation_placement;
    pub mod ablation_ps;
    pub mod climate_science;
    pub mod fig5;
    pub mod fig6;
    pub mod fig7;
    pub mod fig8;
    pub mod hep_science;
    pub mod kernels;
    pub mod overall;
    pub mod paper;
    pub mod resilience;
    pub mod serving;
    pub mod table1;
    pub mod table2;
    pub mod timeline;
}

use scidl_comm::Compression;
use std::path::{Path, PathBuf};

/// The parsed flags; a subcommand reads only those its table row lists.
#[derive(Debug, Default)]
pub struct Args {
    /// `--fast`: the reduced-scale variant (the CI smoke).
    pub fast: bool,
    /// `--full`: the extended variant (paper-scale points; with `--real`,
    /// `fig5` profiles the full 224 px network).
    pub full: bool,
    /// `--real`: `fig5` also times the real kernels on this host.
    pub real: bool,
    /// `--overlap`: `fig8` trains with the backward-overlapped all-reduce.
    pub overlap: bool,
    /// `--compress SPEC`: `fig8`'s gradient compression policy.
    pub compress: Compression,
    /// `--trace PATH`: where the driver writes the Chrome trace (and the
    /// per-iteration CSV beside it).
    pub trace: Option<PathBuf>,
}

/// One row of the subcommand table.
#[derive(Debug)]
struct Command {
    name: &'static str,
    /// Flags besides the global `--trace PATH`; a flag that takes a value
    /// names it after a space.
    flags: &'static [&'static str],
    about: &'static str,
    run: fn(&Args),
}

const TRACE_FLAG: &str = "--trace PATH";

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "table1", flags: &[], about: "Table I: dataset characteristics", run: cmd::table1::run },
    Command { name: "table2", flags: &[], about: "Table II: architecture specifications", run: cmd::table2::run },
    Command { name: "fig5", flags: &["--real", "--full"], about: "Fig. 5: single-node per-layer time and FLOP rate (--real: host kernels too)", run: cmd::fig5::run },
    Command { name: "fig6", flags: &["--fast", "--full"], about: "Fig. 6: strong scaling + flat vs hierarchical collective", run: cmd::fig6::run },
    Command { name: "fig7", flags: &["--fast", "--full"], about: "Fig. 7: weak scaling + flat vs hierarchical collective", run: cmd::fig7::run },
    Command { name: "fig8", flags: &["--fast", "--overlap", "--compress SPEC"], about: "Fig. 8: loss vs wall-clock, sync vs hybrid; writes results/fig8_compress.*", run: cmd::fig8::run },
    Command { name: "overall", flags: &["--fast"], about: "Sec. VI-B3: full-system peak/sustained PFLOP/s", run: cmd::overall::run },
    Command { name: "hep_science", flags: &["--fast"], about: "Sec. VII-A: TPR at fixed FPR, CNN vs the cut baseline", run: cmd::hep_science::run },
    Command { name: "climate_science", flags: &["--fast"], about: "Sec. VII-B / Fig. 9: semi-supervised detections + rendering", run: cmd::climate_science::run },
    Command { name: "paper", flags: &[], about: "every experiment at reduced scale, paper vs ours", run: cmd::paper::run },
    Command { name: "timeline", flags: &[], about: "ASCII Gantt of group iterations: sync barrier vs hybrid overlap", run: cmd::timeline::run },
    Command { name: "resilience", flags: &[], about: "Sec. VIII-A: failure behaviour, sync vs hybrid", run: cmd::resilience::run },
    Command { name: "ablation_ps", flags: &["--fast"], about: "per-layer PS vs single PS", run: cmd::ablation_ps::run },
    Command { name: "ablation_momentum", flags: &["--fast"], about: "momentum x asynchrony grid", run: cmd::ablation_momentum::run },
    Command { name: "ablation_arch", flags: &["--fast"], about: "the no-large-dense-layers rule: GAP head vs dense head", run: cmd::ablation_arch::run },
    Command { name: "ablation_placement", flags: &[], about: "Fig. 3: packed vs scattered dragonfly placement", run: cmd::ablation_placement::run },
    Command { name: "serving", flags: &["--fast"], about: "dynamic-batching latency/throughput frontier; writes results/serving.csv", run: cmd::serving::frontier },
    Command { name: "serving_chaos", flags: &["--fast"], about: "serving degradation frontier under faults; writes results/serving_chaos.csv", run: cmd::serving::chaos },
    Command { name: "serving_fleet", flags: &["--fast"], about: "fleet frontier, dispatch policy x replicas; writes results/serving_fleet.csv", run: cmd::serving::fleet },
    Command { name: "kernels", flags: &["--fast"], about: "host-measured kernel GFLOP/s per ISA; writes results/kernels.*", run: cmd::kernels::run },
];

fn usage() -> String {
    let mut out = String::from("usage: scidl-bench <subcommand> [flags]\n\n");
    for c in COMMANDS {
        out.push_str(&format!(
            "  {:<18} {:<33} {}\n",
            c.name,
            c.flags.join(" "),
            c.about
        ));
    }
    out.push_str(&format!(
        "\nevery subcommand also takes {TRACE_FLAG} (Chrome trace JSON + per-iteration CSV)\n"
    ));
    out
}

/// Parses `argv` (without the program name): `Ok(None)` asks for help.
fn parse(argv: &[String]) -> Result<Option<(&'static Command, Args)>, String> {
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(None);
    }
    let (name, rest) = argv.split_first().ok_or("missing subcommand")?;
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown subcommand `{name}`"))?;
    let mut args = Args::default();
    let mut rest = rest.iter();
    while let Some(flag) = rest.next() {
        let spec = cmd
            .flags
            .iter()
            .chain([&TRACE_FLAG])
            .find(|s| s.split(' ').next() == Some(flag.as_str()))
            .ok_or_else(|| format!("`{name}` does not take `{flag}`"))?;
        let value = if spec.contains(' ') {
            Some(
                rest.next()
                    .ok_or_else(|| format!("`{spec}` is missing its value"))?,
            )
        } else {
            None
        };
        match (flag.as_str(), value) {
            ("--fast", _) => args.fast = true,
            ("--full", _) => args.full = true,
            ("--real", _) => args.real = true,
            ("--overlap", _) => args.overlap = true,
            ("--compress", Some(v)) => {
                args.compress = Compression::parse(v).map_err(|e| format!("--compress: {e}"))?
            }
            ("--trace", Some(v)) => args.trace = Some(v.into()),
            _ => unreachable!("flag `{spec}` in the table has no parser arm"),
        }
    }
    Ok(Some((cmd, args)))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Ok(Some((cmd, args))) => {
            if args.trace.is_some() {
                scidl_trace::install(std::sync::Arc::new(scidl_trace::TraceSink::new()));
            }
            (cmd.run)(&args);
            if let Some(path) = &args.trace {
                finish_trace(path);
            }
        }
        Ok(None) => print!("{}", usage()),
        Err(e) => {
            eprint!("scidl-bench: {e}\n\n{}", usage());
            std::process::exit(2);
        }
    }
}

/// Uninstalls the global trace sink and writes what it collected: Chrome
/// `trace_event` JSON at `path` (load it at `chrome://tracing` or
/// <https://ui.perfetto.dev>) plus the per-iteration CSV next to it
/// (same stem, `.csv` extension). Health alerts, if any, go to stderr.
fn finish_trace(path: &Path) {
    let Some(sink) = scidl_trace::uninstall() else {
        return;
    };
    match sink.write_chrome_json(path) {
        Ok(()) => println!(
            "trace: {} events -> {}",
            sink.events().len(),
            path.display()
        ),
        Err(e) => println!("(could not write {}: {e})", path.display()),
    }
    let csv_path = path.with_extension("csv");
    match sink.write_iteration_csv(&csv_path) {
        Ok(()) => println!(
            "trace: {} iteration rows -> {}",
            sink.rows().len(),
            csv_path.display()
        ),
        Err(e) => println!("(could not write {}: {e})", csv_path.display()),
    }
    if sink.dropped() > 0 {
        eprintln!(
            "trace: {} events dropped (sink at capacity)",
            sink.dropped()
        );
    }
    for a in sink.health_alerts() {
        eprintln!(
            "trace: numeric-health alert: {}{}: {} non-finite value(s), first at [{}] = {}",
            a.source,
            a.layer
                .as_deref()
                .map(|l| format!(" / layer {l}"))
                .unwrap_or_default(),
            a.count,
            a.first_index,
            a.value
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Option<(&'static Command, Args)>, String> {
        parse(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    fn run_args(line: &str) -> Args {
        parse_str(line)
            .expect("parses")
            .expect("not a help request")
            .1
    }

    #[test]
    fn every_subcommand_parses_with_no_flags_and_with_trace() {
        for c in COMMANDS {
            let (cmd, args) = parse_str(c.name).unwrap().unwrap();
            assert_eq!(cmd.name, c.name);
            assert!(!args.fast && !args.full && args.trace.is_none());
            let traced = run_args(&format!("{} --trace t.json", c.name));
            assert_eq!(
                traced.trace.as_deref(),
                Some(Path::new("t.json")),
                "{}",
                c.name
            );
        }
    }

    #[test]
    fn every_listed_flag_has_a_parser_arm() {
        for c in COMMANDS {
            for spec in c.flags {
                let line = format!("{} {}", c.name, spec.replace("SPEC", "int8"));
                assert!(parse_str(&line).is_ok(), "{line}");
            }
        }
    }

    #[test]
    fn a_misspelt_flag_is_an_error_not_the_default_table() {
        // A typo must not silently regenerate the non-`--full` table.
        let err = parse_str("fig6 --ful").unwrap_err();
        assert!(err.contains("--ful"), "{err}");
        assert!(run_args("fig6 --full").full);
    }

    #[test]
    fn serving_modes_are_subcommands_not_flags() {
        // One invocation runs one sweep; the old mode flags are refused.
        assert!(parse_str("serving --faults --fleet").is_err());
        assert!(parse_str("serving --smoke").is_err());
        assert!(run_args("serving_chaos --fast").fast);
        assert!(run_args("serving_fleet").trace.is_none());
    }

    #[test]
    fn a_flag_another_subcommand_takes_is_refused() {
        assert!(parse_str("fig6 --overlap")
            .unwrap_err()
            .contains("`fig6` does not take"));
        assert!(parse_str("table1 --fast").is_err());
    }

    #[test]
    fn timeline_honours_trace() {
        // The driver installs the sink for whatever subcommand the table
        // dispatches, so a subcommand with no flags of its own traces too.
        let args = run_args("timeline --trace t.json");
        assert_eq!(args.trace, Some(PathBuf::from("t.json")));
    }

    #[test]
    fn a_missing_value_is_an_error_not_a_panic() {
        assert!(parse_str("fig8 --trace")
            .unwrap_err()
            .contains("missing its value"));
        assert!(parse_str("fig8 --compress").is_err());
    }

    #[test]
    fn compress_spec_is_validated_at_parse_time() {
        assert!(parse_str("fig8 --compress bogus")
            .unwrap_err()
            .starts_with("--compress"));
        assert_eq!(
            run_args("fig8 --compress topk:0.1").compress,
            Compression::TopK { density: 0.1 }
        );
        assert_eq!(run_args("fig8").compress, Compression::None);
    }

    #[test]
    fn unknown_or_missing_subcommand_is_an_error_and_help_is_not() {
        assert!(parse_str("fig9")
            .unwrap_err()
            .contains("unknown subcommand"));
        assert!(parse_str("").is_err());
        assert!(parse_str("--help").unwrap().is_none());
        assert!(parse_str("fig6 -h").unwrap().is_none());
    }

    #[test]
    fn usage_lists_every_subcommand_with_its_flags() {
        let u = usage();
        for c in COMMANDS {
            let line = u
                .lines()
                .find(|l| l.split_whitespace().next() == Some(c.name))
                .unwrap();
            assert!(c.flags.iter().all(|f| line.contains(f)), "{line}");
        }
        assert!(u.contains(TRACE_FLAG));
    }
}
