//! Experiment runner: regenerate any table or figure of the paper.
//!
//! ```text
//! experiments all              # every table and figure
//! experiments table4           # one experiment
//! experiments fig3a --json     # machine-readable output
//! experiments all --md         # markdown tables
//! ```
//!
//! `--help` prints the usage, which lists every experiment name, on
//! standard output. An unknown name or flag is a usage error (exit 2) that
//! names it, before any experiment runs. Standard output that a closed pipe
//! no longer reads is dropped, and the runner still exits 0.

use sf_bench::cli::{self, FlagCheck, Stdout};
use sf_bench::{experiments, Experiment};

/// The function that computes one experiment.
type Generate = fn() -> Experiment;

/// Every experiment the runner looks up by name, in the order the usage
/// lists them. `all` runs every one in the paper's order
/// (`experiments::all`).
const EXPERIMENTS: [(&str, Generate); 19] = [
    ("table1", experiments::table1),
    ("table2", experiments::table2),
    ("table3", experiments::table3),
    ("table4", experiments::table4),
    ("table5", experiments::table5),
    ("table6", experiments::table6),
    ("fig3a", experiments::fig3a),
    ("fig3b", experiments::fig3b),
    ("fig3c", experiments::fig3c),
    ("fig4a", experiments::fig4a),
    ("fig4b", experiments::fig4b),
    ("fig4c", experiments::fig4c),
    ("fig5a", experiments::fig5a),
    ("fig5b", experiments::fig5b),
    ("model-accuracy", experiments::model_accuracy),
    ("ablation-precision", experiments::ablation_precision),
    ("ablation-overheads", experiments::ablation_overheads),
    ("energy-summary", experiments::energy_summary),
    ("ablation-device-scaling", experiments::ablation_device_scaling),
];

/// The output switches: JSON, or markdown tables instead of text.
const SWITCHES: [&str; 2] = ["--json", "--md"];

/// The usage, built from [`EXPERIMENTS`] and [`SWITCHES`].
fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    let switches: Vec<String> = SWITCHES.iter().map(|s| format!("[{s}]")).collect();
    format!("usage: experiments <all|{}> {}", names.join("|"), switches.join(" "))
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\n{}", usage());
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = Stdout::default();
    // any number of names, each checked against the table below
    match cli::check_flags(&args, &[], &[], &SWITCHES, usize::MAX) {
        FlagCheck::Run => {}
        FlagCheck::Help => {
            out.write(format_args!("{}\n", usage()));
            return;
        }
        // the runner reads no valued flag, so every flag error is an unknown flag
        FlagCheck::Unknown(flag) | FlagCheck::MissingValue(flag) | FlagCheck::Repeated(flag) => {
            fail(&format!("unknown flag '{flag}'"))
        }
        FlagCheck::Stray(name) => fail(&format!("unknown experiment '{name}'")),
    }
    let names: Vec<&str> =
        args.iter().map(String::as_str).filter(|a| !a.starts_with("--")).collect();
    if names.is_empty() {
        fail("missing experiment");
    }
    let exps: Vec<Experiment> = if names.contains(&"all") {
        experiments::all()
    } else {
        let runs: Vec<Generate> = names
            .iter()
            .map(|&name| match EXPERIMENTS.iter().find(|&&(known, _)| known == name) {
                Some(&(_, run)) => run,
                None => fail(&format!("unknown experiment '{name}'")),
            })
            .collect();
        runs.iter().map(|run| run()).collect()
    };
    if args.iter().any(|a| a == "--json") {
        let json = serde_json::to_string_pretty(&exps).expect("serializable");
        out.write(format_args!("{json}\n"));
    } else {
        let md = args.iter().any(|a| a == "--md");
        for e in &exps {
            let text = if md { e.to_markdown() } else { e.render() };
            out.write(format_args!("{text}\n"));
        }
    }
}
