//! Argument-parsing helpers shared by the command-line front ends.

use sf_fpga::design::Workload;
use sf_kernels::StencilSpec;

/// What a command line asks for, judged against the flags its command
/// reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlagCheck {
    /// Every flag is one the command reads.
    Run,
    /// `--help` or `-h`: print the usage and exit 0.
    Help,
    /// The first `--flag` the command does not read.
    Unknown(String),
    /// The first valued flag followed by nothing or by another `--flag`.
    MissingValue(String),
    /// The first valued flag given a second time, though it does not repeat.
    Repeated(String),
    /// The first token that is neither a flag nor a flag's value, past the
    /// positional arguments the command takes.
    Stray(String),
}

/// Check `argv` against the flags a command reads, before any work starts.
/// A flag in `valued` takes the next token as its value, which must be
/// there and must not start with `--`; it is given at most once unless it
/// is also in `repeating`, where each occurrence adds a value. A flag in
/// `switches` takes no value. The first `positional` tokens that are
/// neither flags nor values (a store path) are the command's arguments;
/// any further one is stray.
pub fn check_flags(
    argv: &[String],
    valued: &[&str],
    repeating: &[&str],
    switches: &[&str],
    positional: usize,
) -> FlagCheck {
    let mut tokens = argv.iter().map(String::as_str).peekable();
    let mut given = Vec::new();
    let mut arguments = 0;
    while let Some(tok) = tokens.next() {
        if valued.contains(&tok) {
            if tokens.next_if(|value| !value.starts_with("--")).is_none() {
                return FlagCheck::MissingValue(tok.to_string());
            }
            if given.contains(&tok) && !repeating.contains(&tok) {
                return FlagCheck::Repeated(tok.to_string());
            }
            given.push(tok);
        } else if tok == "--help" || tok == "-h" {
            return FlagCheck::Help;
        } else if tok.starts_with("--") {
            if !switches.contains(&tok) {
                return FlagCheck::Unknown(tok.to_string());
            }
        } else if arguments == positional {
            return FlagCheck::Stray(tok.to_string());
        } else {
            arguments += 1;
        }
    }
    FlagCheck::Run
}

/// The tokens of `argv` that are neither flags nor the value of a flag in
/// `valued`, as [`check_flags`] reads them: a command's positional
/// arguments.
pub fn positionals<'a>(argv: &'a [String], valued: &[&str]) -> Vec<&'a str> {
    let mut tokens = argv.iter().map(String::as_str).peekable();
    let mut found = Vec::new();
    while let Some(tok) = tokens.next() {
        if valued.contains(&tok) {
            tokens.next_if(|value| !value.starts_with("--"));
        } else if !tok.starts_with("--") && tok != "-h" {
            found.push(tok);
        }
    }
    found
}

/// Standard output as the command-line front ends write it. Once the
/// reader has gone (a closed pipe, as `| head` leaves it) every later write
/// is dropped, so the command finishes and exits with the status its result
/// gives instead of panicking; any other write error is reported once on
/// standard error.
#[derive(Debug, Default)]
pub struct Stdout {
    gone: bool,
}

impl Stdout {
    /// Write `text`, unless standard output has gone.
    pub fn write(&mut self, text: std::fmt::Arguments<'_>) {
        use std::io::Write;
        if self.gone {
            return;
        }
        if let Err(e) = std::io::stdout().lock().write_fmt(text) {
            self.gone = true;
            if e.kind() != std::io::ErrorKind::BrokenPipe {
                eprintln!("error: cannot write standard output: {e}");
            }
        }
    }
}

/// Resolve an application name.
pub fn parse_app(name: &str) -> Result<StencilSpec, String> {
    match name {
        "poisson" => Ok(StencilSpec::poisson()),
        "jacobi" => Ok(StencilSpec::jacobi()),
        "rtm" => Ok(StencilSpec::rtm()),
        other => Err(format!("unknown app '{other}' (expected poisson|jacobi|rtm)")),
    }
}

/// Parse a `NXxNY[xNZ]` mesh string into a workload for an app of
/// `dims` dimensions, with a batch factor.
pub fn parse_mesh(dims: usize, mesh: &str, batch: usize) -> Result<Workload, String> {
    if batch == 0 {
        return Err("batch must be positive".into());
    }
    let parts: Result<Vec<usize>, _> = mesh.split('x').map(|s| s.parse::<usize>()).collect();
    let parts = parts.map_err(|_| format!("bad mesh '{mesh}'"))?;
    if parts.contains(&0) {
        return Err(format!("mesh '{mesh}' has a zero dimension"));
    }
    let wl = match (dims, parts.as_slice()) {
        (2, [nx, ny]) => Workload::D2 { nx: *nx, ny: *ny, batch },
        (3, [nx, ny, nz]) => Workload::D3 { nx: *nx, ny: *ny, nz: *nz, batch },
        (d, p) => return Err(format!("{d}D app needs a {d}-component mesh, got {}", p.len())),
    };
    // reject sizes whose cell count overflows before they reach the cycle
    // model's u64 arithmetic
    let total: u128 = parts.iter().map(|&d| d as u128).product::<u128>() * batch as u128;
    if total > u64::MAX as u128 / 1024 {
        return Err(format!("mesh '{mesh}' x batch {batch} overflows the cell budget"));
    }
    Ok(wl)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_are_checked_against_the_command_table() {
        let check_with = |args: &[&str], positional| {
            let argv: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            check_flags(&argv, &["--app", "--out", "--rate"], &["--rate"], &["--json"], positional)
        };
        let check = |args: &[&str]| check_with(args, 1);
        assert_eq!(check(&["profile", "--app", "rtm", "--json"]), FlagCheck::Run);
        assert_eq!(check(&["runs.jsonl", "--out", "r.md"]), FlagCheck::Run);
        assert_eq!(check(&["--app", "x", "--bogus"]), FlagCheck::Unknown("--bogus".into()));
        assert_eq!(check(&["--json", "--help", "--bogus"]), FlagCheck::Help);
        assert_eq!(check(&["profile", "-h"]), FlagCheck::Help);
        // a flag's value is never another flag, nor missing
        assert_eq!(check(&["--out", "--help"]), FlagCheck::MissingValue("--out".into()));
        assert_eq!(check(&["--app", "--bogus"]), FlagCheck::MissingValue("--app".into()));
        assert_eq!(check(&["profile", "--app"]), FlagCheck::MissingValue("--app".into()));
        assert_eq!(check(&["--out", "-h"]), FlagCheck::Run);
        // a valued flag is given once, unless it repeats
        let twice = ["profile", "--app", "rtm", "--json", "--app", "jacobi"];
        assert_eq!(check(&twice), FlagCheck::Repeated("--app".into()));
        assert_eq!(check(&["--out", "a", "--out", "b"]), FlagCheck::Repeated("--out".into()));
        assert_eq!(check(&["--out", "a", "--out"]), FlagCheck::MissingValue("--out".into()));
        assert_eq!(check(&["--json", "--json"]), FlagCheck::Run);
        assert_eq!(check(&["--rate", "5", "--app", "x", "--rate", "7"]), FlagCheck::Run);
        // a token past the command's positional arguments is stray; a
        // flag's value is not one of them
        let stray = |tok: &str| FlagCheck::Stray(tok.into());
        assert_eq!(check(&["runs.jsonl", "nosuch.jsonl", "--json"]), stray("nosuch.jsonl"));
        assert_eq!(check(&["--app", "rtm", "runs.jsonl", "x", "--bogus"]), stray("x"));
        assert_eq!(check_with(&["--app", "rtm", "stray", "--json"], 0), stray("stray"));
        assert_eq!(check_with(&["--app", "rtm", "--out", "-h", "--json"], 0), FlagCheck::Run);
        assert_eq!(check_with(&["--json", "-x"], 0), stray("-x"));
        assert_eq!(check_with(&["a", "b", "c"], usize::MAX), FlagCheck::Run);
    }

    #[test]
    fn positionals_skip_flags_and_their_values() {
        let positionals = |args: &[&str]| -> Vec<String> {
            let argv: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            positionals(&argv, &["--app", "--out"]).iter().map(|a| a.to_string()).collect()
        };
        assert_eq!(positionals(&["runs.jsonl", "--json"]), ["runs.jsonl"]);
        assert_eq!(positionals(&["--json", "runs.jsonl"]), ["runs.jsonl"]);
        assert_eq!(positionals(&["--out", "r.md", "runs.jsonl", "x"]), ["runs.jsonl", "x"]);
        assert_eq!(positionals(&["--app", "rtm", "--out", "-h", "-h"]), Vec::<String>::new());
        assert_eq!(positionals(&["--out", "--json", "runs.jsonl"]), ["runs.jsonl"]);
    }

    #[test]
    fn app_names_resolve() {
        assert_eq!(parse_app("poisson").unwrap().dims, 2);
        assert_eq!(parse_app("jacobi").unwrap().dims, 3);
        assert_eq!(parse_app("rtm").unwrap().stages, 4);
        assert!(parse_app("fft").unwrap_err().contains("unknown app"));
    }

    #[test]
    fn mesh_strings_parse() {
        assert_eq!(
            parse_mesh(2, "400x300", 1).unwrap(),
            Workload::D2 { nx: 400, ny: 300, batch: 1 }
        );
        assert_eq!(
            parse_mesh(3, "50x50x16", 40).unwrap(),
            Workload::D3 { nx: 50, ny: 50, nz: 16, batch: 40 }
        );
    }

    #[test]
    fn mesh_errors_are_specific() {
        assert!(parse_mesh(2, "400", 1).unwrap_err().contains("2-component"));
        assert!(parse_mesh(3, "4x4", 1).unwrap_err().contains("3-component"));
        assert!(parse_mesh(2, "4xzebra", 1).unwrap_err().contains("bad mesh"));
        assert!(parse_mesh(2, "4x0", 1).unwrap_err().contains("zero dimension"));
        assert!(parse_mesh(2, "4x4", 0).unwrap_err().contains("batch"));
    }

    #[test]
    fn overflowing_meshes_are_rejected_up_front() {
        let huge = format!("{0}x{0}", u64::MAX / 2);
        assert!(parse_mesh(2, &huge, 1).unwrap_err().contains("overflows"));
        assert!(parse_mesh(2, "1000000x1000000", usize::MAX).unwrap_err().contains("overflows"));
        // a large-but-sane mesh still parses
        assert!(parse_mesh(3, "4000x4000x1000", 1).is_ok());
    }
}
