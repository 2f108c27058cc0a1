//! `sfstencil` — the design workflow as a command-line tool.
//!
//! ```text
//! sfstencil feasibility --app jacobi --mesh 200x200x200 [--json]
//! sfstencil dse         --app poisson --mesh 400x400 --iters 60000 [--top 5] [--json]
//! sfstencil compare     --app rtm --mesh 50x50x50 --batch 40 --iters 180
//! sfstencil report      --app poisson --mesh 400x400 --v 8 --p 60 \
//!                       [--mem hbm|ddr4] [--tile M[xN]] [--json]
//! sfstencil explain     --app rtm --mesh 32x32x32 --iters 1800
//! sfstencil profile     --app poisson --mesh 200x100 --iters 100 \
//!                       [--devices K] [--link aurora|pcie] \
//!                       [--trace-out trace.json] [--json]
//! sfstencil check       --app poisson --mesh 400x400 [--v 8 --p 60] \
//!                       [--mem hbm|ddr4] [--tile M[xN]] [--fifo-depth D] \
//!                       [--window-units U] [--assume-order D] \
//!                       [--assume-gdsp N] [--json]
//! sfstencil check       --explain SFC-K05
//! sfstencil faults      [--app poisson2d|jacobi3d|rtm3d] [--seed 42] \
//!                       [--rate PPM]... [--trials N] [--kind NAME]... \
//!                       [--recovery rerun|rollback] [--checkpoint-every N]... \
//!                       [--max-retries N] [--json]
//! sfstencil report      runs.jsonl [--json|--md|--html] [--out FILE] \
//!                       [--compare baseline.json] [--max-regress 5%]
//! ```
//!
//! Each command reads its own flags, those shown for it here and below;
//! any other flag is a usage error (exit 2) that names the flag. So is a
//! valued flag given twice, except `faults`' repeating flags (`...`), and
//! a token that is no flag's value: only `report` takes a positional
//! argument, its one run store, before, among or after its flags.
//! `check --explain` reads no other flag.
//! `sfstencil <command> --help` prints the usage of that command, built
//! from the same flag table. Standard output that a closed pipe no longer
//! reads is dropped, and the command still exits with its own status.
//!
//! `dse`, `profile` and `faults` additionally accept `--jobs N` to fan
//! their work (candidate evaluation, batched meshes, fault trials) across
//! N worker threads. Output is byte-identical for any N; the default is
//! `SF_JOBS` or the machine's available parallelism.
//!
//! `profile` and `faults` accept `--exec scalar|fast` to pick the
//! execution engine the behavioral pipeline streams through (default
//! `fast`, the lane-parallel path). Both engines are bit-exact, so every
//! output byte is identical either way; `scalar` exists to cross-check
//! the fast path and for differential debugging.
//!
//! `profile`, `dse` and `faults` accept `--devices K` to shard the mesh
//! across K simulated accelerator cards (1D slab decomposition, halo
//! exchange at every pass barrier — see `sf_fpga::driver::Run`), with
//! `--link aurora|pcie` picking the inter-device link model. `profile --devices K`
//! runs the sharded executors (bit-exact vs. single-device) and surfaces
//! exposed exchange in the stall attribution; `dse --devices K` sweeps
//! device counts 1,2,4,…,K alongside V/p; `faults --devices K` validates
//! the sharded campaign designs against the SFC-X legality rule and
//! stamps the device count into run records (trials stream each app's
//! fixed single-card configuration so fault seeds stay comparable).
//! `compare`, `explain` and `check` (without `--v`/`--p`) take the best
//! design of the same device sweep.
//! `--devices 0`, shards narrower than the halo depth, and unknown link
//! names are usage errors (exit 2).
//!
//! `check` runs the `sf-check` static design-rule analyzer — window-buffer
//! sizing, FIFO deadlock-freedom, loop-carried RAW hazards, tile/halo and
//! vectorization legality, per-SLR resource budgets — plus the `sf-absint`
//! kernel-analysis rules (`SFC-K01`…`SFC-K05`: probed footprint vs declared
//! reach, counted ops vs declared `G_dsp`, interval NaN/overflow/
//! div-by-zero hazards, von Neumann stability) — without executing
//! anything. With explicit `--v`/`--p` it verifies exactly that
//! configuration (plus any seeded `--fifo-depth`/`--window-units`
//! overrides); otherwise it verifies the best design of a DSE over the
//! `--mem` memory, and `--tile` is a usage error.
//! `--assume-order`/`--assume-gdsp` override the spec's declared order /
//! DSP cost on the checked design, seeding kernel-rule violations the same
//! way `--fifo-depth` seeds FIFO ones. Exits 1 if any error-severity
//! diagnostic fires. `check --explain SFC-XXX` prints the catalogue entry
//! for any rule (severity, what it governs, how to fix it) and exits 0;
//! unknown codes list the catalogue and exit 2.
//!
//! `profile` runs the best design with telemetry enabled and reports the
//! stall attribution (compute vs memory vs backpressure) and the
//! predicted-vs-simulated cycle divergence. `--trace-out` writes a Chrome
//! trace-event file loadable in Perfetto / `chrome://tracing`.
//!
//! `faults` runs the deterministic fault-injection campaign (see
//! `sf_bench::faults`): seeded datapath faults swept over every fault kind
//! and rate, each trial classified by how it was detected (watchdog,
//! checksum, AXI retry, divergence, ABFT) and recovered. `--recovery
//! rollback` switches detected faults from clean re-execution to
//! checkpoint/rollback recovery (`sf_fpga::recovery`): state is
//! checkpointed every `--checkpoint-every` passes (repeatable — multiple
//! values sweep the overhead-vs-MTTR tradeoff), silent corruption is
//! caught in-run by ABFT block checksums, and a rollback replays only the
//! lost passes, giving up after `--max-retries` attempts per segment.
//! `--kind` (repeatable) restricts the fault kinds swept without changing
//! the surviving kinds' seeds. Exits non-zero if any injected fault goes
//! unaccounted.
//!
//! `profile`, `dse` and `faults` accept `--record-out FILE` to append a
//! durable, schema-versioned run record (git sha, design point, predicted
//! vs measured cycles, stall breakdown, fault counters) to a JSONL run
//! store. `report <store.jsonl>` aggregates such a store into the
//! cross-run report — roofline gap attribution against the paper's
//! analytic ceilings (eqs. 4/6/12) — and with `--compare baseline.json`
//! gates median cycles against a committed baseline (see
//! `sf_bench::reportcmd`). The per-design estimate form `report --app ...
//! --v V --p P` is unchanged.

use sf_core::prelude::*;
use sf_fpga::design::synthesize;
use sf_telemetry::{chrome, metrics, StallClass};

use sf_bench::cli::{FlagCheck, Stdout};

/// The commands, in the order the usage lists them.
const COMMANDS: [&str; 8] =
    ["feasibility", "dse", "compare", "report", "explain", "profile", "check", "faults"];

/// The valued flags that may be given more than once, each occurrence
/// adding a value to `faults`' sweep; any other valued flag is given once.
const REPEATING: [&str; 3] = ["--rate", "--kind", "--checkpoint-every"];

/// `print!` through a command's [`Stdout`].
macro_rules! out {
    ($out:expr, $($arg:tt)*) => { $out.write(format_args!($($arg)*)) };
}

/// `println!` through a command's [`Stdout`].
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => { $out.write(format_args!("{}\n", format_args!($($arg)*))) };
}

/// How the usage shows the value of `flag` for `cmd`.
fn value_hint(cmd: &str, flag: &str) -> &'static str {
    match flag {
        "--app" if cmd == "faults" => "<poisson2d|jacobi3d|rtm3d>",
        "--app" => "<poisson|jacobi|rtm>",
        "--mesh" => "<NXxNY[xNZ]>",
        "--batch" => "B",
        "--top" | "--devices" => "K",
        "--v" => "V",
        "--p" => "P",
        "--mem" => "hbm|ddr4",
        "--tile" => "M[xN]",
        "--fifo-depth" | "--assume-order" => "D",
        "--window-units" => "U",
        "--exec" => "scalar|fast",
        "--link" => "aurora|pcie",
        "--recovery" => "rerun|rollback",
        "--rate" => "PPM",
        "--kind" => "NAME",
        "--trace-out" | "--record-out" => "FILE",
        _ => "N",
    }
}

/// The usage lines of `cmd`, built from the flags it reads
/// ([`command_flags`]): `--app` and `--mesh` are required except by
/// `faults`, and the [`REPEATING`] flags are marked `...`.
fn command_usage(cmd: &str) -> Option<String> {
    let (valued, switches) = command_flags(cmd)?;
    let mut line = format!("sfstencil {cmd}");
    for &flag in valued {
        let arg = format!("{flag} {}", value_hint(cmd, flag));
        if cmd != "faults" && matches!(flag, "--app" | "--mesh") {
            line += &format!(" {arg}");
        } else if REPEATING.contains(&flag) {
            line += &format!(" [{arg}]...");
        } else {
            line += &format!(" [{arg}]");
        }
    }
    for switch in switches {
        line += &format!(" [{switch}]");
    }
    match cmd {
        "check" => line += "\n       sfstencil check --explain SFC-XXX",
        "report" => line = format!("{}\n       {line}", sf_bench::reportcmd::USAGE),
        _ => {}
    }
    Some(line)
}

/// The usage of the command this process was asked to run, or of every
/// command when it names none of them.
fn usage() -> String {
    let cmd = std::env::args().nth(1);
    let lines = match cmd.as_deref().and_then(command_usage) {
        Some(lines) => lines,
        None => {
            COMMANDS.iter().filter_map(|c| command_usage(c)).collect::<Vec<_>>().join("\n       ")
        }
    };
    format!("usage: {lines}")
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{}", usage());
    std::process::exit(2);
}

fn help() -> ! {
    outln!(Stdout::default(), "{}", usage());
    std::process::exit(0);
}

/// Check the arguments after the command `cmd` against the flags it reads,
/// before any work starts. No command takes a positional argument here.
fn check_flags(argv: &[String], cmd: &str) {
    let Some((valued, switches)) = command_flags(cmd) else {
        let asks_help = |a: &str| a == "--help" || a == "-h";
        if asks_help(cmd) || argv.iter().any(|a| asks_help(a)) {
            help();
        }
        fail(&format!("unknown command '{cmd}'"));
    };
    act_on(sf_bench::cli::check_flags(argv, valued, &REPEATING, switches, 0), cmd);
}

/// Act on the flag check of `cmd`'s arguments: `--help`/`-h` prints the
/// command's usage on stdout and exits 0, and a flag the command does not
/// read, a valued flag without its value, one given twice that does not
/// repeat, or a stray token, is a usage error that names it.
fn act_on(check: FlagCheck, cmd: &str) {
    match check {
        FlagCheck::Run => {}
        FlagCheck::Help => help(),
        FlagCheck::Unknown(flag) => fail(&format!("unknown flag '{flag}' for {cmd}")),
        FlagCheck::MissingValue(flag) => fail(&format!("flag '{flag}' needs a value")),
        FlagCheck::Repeated(flag) => fail(&format!("flag '{flag}' given more than once")),
        FlagCheck::Stray(token) => fail(&format!("unexpected argument '{token}' for {cmd}")),
    }
}

/// The flags each command reads: its valued flags and its switches. The
/// usage of each command is built from them.
fn command_flags(cmd: &str) -> Option<(&'static [&'static str], &'static [&'static str])> {
    const JSON: &[&str] = &["--json"];
    Some(match cmd {
        "feasibility" => (&["--app", "--mesh"], JSON),
        "dse" => (
            &[
                "--app",
                "--mesh",
                "--batch",
                "--iters",
                "--top",
                "--jobs",
                "--devices",
                "--link",
                "--record-out",
            ],
            JSON,
        ),
        "compare" | "explain" => {
            (&["--app", "--mesh", "--batch", "--iters", "--devices", "--link"], &[])
        }
        "report" => {
            (&["--app", "--mesh", "--batch", "--iters", "--v", "--p", "--mem", "--tile"], JSON)
        }
        "profile" => (
            &[
                "--app",
                "--mesh",
                "--batch",
                "--iters",
                "--jobs",
                "--exec",
                "--devices",
                "--link",
                "--trace-out",
                "--record-out",
            ],
            JSON,
        ),
        "check" => (
            &[
                "--app",
                "--mesh",
                "--batch",
                "--iters",
                "--v",
                "--p",
                "--mem",
                "--tile",
                "--fifo-depth",
                "--window-units",
                "--assume-order",
                "--assume-gdsp",
                "--devices",
                "--link",
            ],
            JSON,
        ),
        "faults" => (
            &[
                "--app",
                "--seed",
                "--rate",
                "--trials",
                "--kind",
                "--recovery",
                "--checkpoint-every",
                "--max-retries",
                "--jobs",
                "--exec",
                "--devices",
                "--record-out",
            ],
            JSON,
        ),
        _ => return None,
    })
}

struct Args {
    cmd: String,
    app: StencilSpec,
    wl: Workload,
    iters: u64,
    top: usize,
    v: usize,
    p: usize,
    mem: MemKind,
    tile: Option<(usize, Option<usize>)>,
    fifo_depth: Option<usize>,
    window_units: Option<usize>,
    assume_order: Option<usize>,
    assume_gdsp: Option<usize>,
    jobs: usize,
    exec: sf_fpga::ExecEngine,
    devices: usize,
    link: sf_fpga::LinkModel,
    json: bool,
    trace_out: Option<String>,
    record_out: Option<String>,
}

fn parse() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        fail("missing command");
    }
    let cmd = argv[0].clone();
    check_flags(&argv[1..], &cmd);
    let get = |flag: &str| -> Option<String> {
        argv.iter().position(|a| a == flag).and_then(|i| argv.get(i + 1).cloned())
    };
    // every numeric flag is validated up front: zero and non-numeric values
    // are rejected with the flag name before any work starts
    let positive = |flag: &str, s: String| -> usize {
        match s.parse::<usize>() {
            Ok(0) | Err(_) => fail(&format!("{flag} must be a positive integer (got '{s}')")),
            Ok(n) => n,
        }
    };
    let app = sf_bench::cli::parse_app(&get("--app").unwrap_or_else(|| fail("--app required")))
        .unwrap_or_else(|e| fail(&e));
    let mesh = get("--mesh").unwrap_or_else(|| fail("--mesh required"));
    let batch: usize = get("--batch").map(|s| positive("--batch", s)).unwrap_or(1);
    let wl = sf_bench::cli::parse_mesh(app.dims, &mesh, batch).unwrap_or_else(|e| fail(&e));
    let mem = match get("--mem").as_deref() {
        None | Some("hbm") => MemKind::Hbm,
        Some("ddr4") => MemKind::Ddr4,
        Some(other) => fail(&format!("--mem must be hbm or ddr4 (got '{other}')")),
    };
    let tile = get("--tile").map(|s| {
        let parts: Vec<&str> = s.split('x').collect();
        match parts.as_slice() {
            [m] => (positive("--tile", m.to_string()), None),
            [m, n] => (positive("--tile", m.to_string()), Some(positive("--tile", n.to_string()))),
            _ => fail(&format!("--tile must be M or MxN (got '{s}')")),
        }
    });
    Args {
        cmd,
        app,
        wl,
        iters: get("--iters").map(|s| positive("--iters", s) as u64).unwrap_or(1000),
        top: get("--top").map(|s| positive("--top", s)).unwrap_or(5),
        v: get("--v").map(|s| positive("--v", s)).unwrap_or(0),
        p: get("--p").map(|s| positive("--p", s)).unwrap_or(0),
        mem,
        tile,
        fifo_depth: get("--fifo-depth").map(|s| positive("--fifo-depth", s)),
        window_units: get("--window-units").map(|s| positive("--window-units", s)),
        // order 0 is a legal override (it seeds an SFC-K01 footprint
        // violation on any kernel with reach), so plain parse, not positive
        assume_order: get("--assume-order").map(|s| {
            s.parse::<usize>().unwrap_or_else(|_| {
                fail(&format!("--assume-order must be a non-negative integer (got '{s}')"))
            })
        }),
        assume_gdsp: get("--assume-gdsp").map(|s| match s.parse::<usize>() {
            Ok(n) if n >= 2 => n,
            _ => fail(&format!("--assume-gdsp must be an integer >= 2 (got '{s}')")),
        }),
        jobs: sf_par::resolve_jobs(get("--jobs").map(|s| positive("--jobs", s))),
        exec: match get("--exec") {
            None => sf_fpga::ExecEngine::default(),
            Some(s) => sf_fpga::ExecEngine::parse(&s)
                .unwrap_or_else(|| fail(&format!("--exec must be scalar or fast (got '{s}')"))),
        },
        // `--devices 0` is a usage error like `--checkpoint-every 0`: there
        // is no zero-card deployment to degrade to, so fail loudly (exit 2)
        // rather than silently running one device.
        devices: get("--devices").map(|s| positive("--devices", s)).unwrap_or(1),
        link: match get("--link") {
            None => sf_fpga::LinkModel::default(),
            Some(s) => sf_fpga::LinkModel::parse(&s)
                .unwrap_or_else(|| fail(&format!("--link must be aurora or pcie (got '{s}')"))),
        },
        json: argv.iter().any(|a| a == "--json"),
        trace_out: get("--trace-out"),
        record_out: get("--record-out"),
    }
}

/// Append a run record to the store named by `--record-out`, stamping the
/// host wall time of the invocation (stored but never reported, so
/// reports stay byte-reproducible).
fn write_record(path: &str, mut rec: sf_report::RunRecord, started: std::time::Instant) {
    rec.wall_ms = Some(started.elapsed().as_secs_f64() * 1e3);
    sf_report::append_record(std::path::Path::new(path), &rec)
        .unwrap_or_else(|e| fail(&format!("{e}")));
    eprintln!("run record appended to {path}");
}

/// `check --explain SFC-XXX`: print one rule's catalogue entry and exit 0;
/// unknown codes list every rule and exit 2 (a usage error, like any other
/// malformed flag). It reads no other flag, and `--explain` is given once.
fn run_explain(argv: &[String], out: &mut Stdout) -> ! {
    let check = sf_bench::cli::check_flags(argv, &["--explain"], &[], &[], 0);
    if check == FlagCheck::MissingValue("--explain".into()) {
        fail("--explain needs a rule code (e.g. --explain SFC-K05)");
    }
    act_on(check, "check --explain");
    let code = argv.iter().skip_while(|a| *a != "--explain").nth(1).map_or("", String::as_str);
    match sf_check::RuleId::from_code(code) {
        Some(rule) => {
            out!(out, "{}", rule.explain());
            std::process::exit(0);
        }
        None => {
            eprintln!("error: unknown rule '{code}'");
            eprintln!("known rules:");
            for r in sf_check::RuleId::ALL {
                eprintln!("  {:<8} {}", r.code(), r.summary());
            }
            std::process::exit(2);
        }
    }
}

/// The execution mode of an explicit `--v/--p` design (`check`, `report`):
/// tiled with `--tile`, batched with `--batch`, baseline otherwise.
fn explicit_mode(a: &Args) -> ExecMode {
    match (a.tile, a.app.dims) {
        (Some((m, None)), 2) => ExecMode::Tiled1D { tile_m: m },
        (Some((m, n)), 3) => ExecMode::Tiled2D { tile_m: m, tile_n: n.unwrap_or(m) },
        (Some((_, Some(_))), _) => fail("--tile MxN is for 3D apps; 2D tiling takes one M"),
        (None, _) if a.wl.batch() > 1 => ExecMode::Batched { b: a.wl.batch() },
        (None, _) => ExecMode::Baseline,
        (Some(_), d) => fail(&format!("--tile unsupported for a {d}D app")),
    }
}

/// The `check` subcommand: static design-rule analysis, no execution.
fn run_check(a: &Args, wf: &mut Workflow, out: &mut Stdout) {
    let (design, source) = if a.v > 0 || a.p > 0 {
        if a.v == 0 || a.p == 0 {
            fail("check needs both --v and --p (or neither, for the DSE-selected design)");
        }
        let mode = explicit_mode(a);
        let mut d = sf_check::Design::new(a.app, a.v, a.p, mode, a.mem, a.wl);
        d.fifo_depth = a.fifo_depth;
        d.window_units = a.window_units;
        (d, format!("explicit V={} p={} {mode:?} {:?}", a.v, a.p, a.mem))
    } else {
        if a.tile.is_some() {
            fail("--tile needs --v and --p: without them the DSE picks the design and its tiling");
        }
        // the DSE sweeps designs over the requested memory
        wf.opts.mem = a.mem;
        let best = wf.best_design(&a.app, &a.wl, a.iters).unwrap_or_else(|e| fail(&format!("{e}")));
        let mut d = sf_check::Design::from_synthesized(&best.design, &a.wl);
        d.fifo_depth = a.fifo_depth;
        d.window_units = a.window_units;
        let src = format!(
            "DSE-selected V={} p={} {:?} {:?}",
            best.design.v, best.design.p, best.design.mode, best.design.mem
        );
        (d, src)
    };
    // seeded spec drift: override the declared order / per-cell ops on the
    // checked design (the DSE above, if any, ran on the clean spec) so the
    // kernel-analysis rules have something to catch
    let mut design = design;
    if let Some(order) = a.assume_order {
        design.spec.order = order;
    }
    if let Some(gdsp) = a.assume_gdsp {
        // a synthetic OpCount whose fp32 DSP cost is exactly `gdsp`
        // (adds cost 2; one mul costs 3 covers odd targets)
        design.spec.ops = if gdsp % 2 == 0 {
            sf_kernels::OpCount::new(gdsp / 2, 0, 0)
        } else {
            sf_kernels::OpCount::new((gdsp - 3) / 2, 1, 0)
        };
    }
    let mut rep = sf_check::check(&wf.device, &design);
    // the kernel-analysis rules (SFC-K01..K05) ride on every check run
    rep.extend_diagnostics(sf_absint::app_diagnostics(&design.spec, design.p));
    if a.json {
        outln!(out, "{}", serde_json::to_string_pretty(&rep).unwrap());
    } else {
        outln!(out, "design             : {source}");
        out!(out, "{}", rep.render());
    }
    if rep.has_errors() {
        std::process::exit(1);
    }
}

/// The `faults` subcommand has its own flag set (no `--mesh`: campaign
/// workloads are fixed so seeds stay comparable across runs).
fn run_faults(argv: &[String], started: std::time::Instant, out: &mut Stdout) {
    use sf_bench::faults::{run_campaign, CampaignApp, CampaignConfig, RecoveryMode};
    check_flags(argv, "faults");
    let get = |flag: &str| -> Option<String> {
        argv.iter().position(|a| a == flag).and_then(|i| argv.get(i + 1).cloned())
    };
    // Collect every value of a repeatable flag, in command-line order.
    let get_all = |flag: &str| -> Vec<String> {
        argv.iter()
            .enumerate()
            .filter(|(_, a)| a.as_str() == flag)
            .map(|(i, _)| {
                argv.get(i + 1).cloned().unwrap_or_else(|| fail(&format!("{flag} needs a value")))
            })
            .collect()
    };
    let apps: Vec<CampaignApp> = match get("--app") {
        None => CampaignApp::ALL.to_vec(),
        Some(name) => match CampaignApp::parse(&name) {
            Some(a) => vec![a],
            None => fail(&format!("unknown app '{name}' (expected poisson2d|jacobi3d|rtm3d)")),
        },
    };
    let seed: u64 = match get("--seed") {
        None => 42,
        Some(s) => {
            s.parse().unwrap_or_else(|_| fail(&format!("--seed must be an integer (got '{s}')")))
        }
    };
    let mut cfg = CampaignConfig { seed, ..CampaignConfig::default() };
    let rates: Vec<u32> = get_all("--rate")
        .into_iter()
        .map(|s| match s.parse::<u32>() {
            Ok(0) | Err(_) => fail(&format!("--rate must be a positive ppm count (got '{s}')")),
            Ok(r) => r,
        })
        .collect();
    if !rates.is_empty() {
        cfg.rates_ppm = rates;
    }
    if let Some(s) = get("--trials") {
        cfg.trials_per_cell = match s.parse::<u32>() {
            Ok(0) | Err(_) => fail(&format!("--trials must be a positive integer (got '{s}')")),
            Ok(n) => n,
        };
    }
    cfg.jobs = sf_par::resolve_jobs(get("--jobs").map(|s| match s.parse::<usize>() {
        Ok(0) | Err(_) => fail(&format!("--jobs must be a positive integer (got '{s}')")),
        Ok(n) => n,
    }));
    if let Some(s) = get("--recovery") {
        cfg.recovery = RecoveryMode::parse(&s)
            .unwrap_or_else(|| fail(&format!("--recovery must be rerun or rollback (got '{s}')")));
    }
    if let Some(s) = get("--exec") {
        cfg.engine = sf_fpga::ExecEngine::parse(&s)
            .unwrap_or_else(|| fail(&format!("--exec must be scalar or fast (got '{s}')")));
    }
    // Like `--checkpoint-every 0`, a zero device count is a
    // misconfiguration, rejected up front rather than silently clamped.
    if let Some(s) = get("--devices") {
        cfg.devices = match s.parse::<usize>() {
            Ok(0) | Err(_) => fail(&format!("--devices must be a positive integer (got '{s}')")),
            Ok(n) => n,
        };
    }
    // A zero interval would mean "never checkpoint" — under rollback that
    // is a misconfiguration (nothing to restore), so it is rejected up
    // front rather than silently clamped.
    let intervals: Vec<usize> = get_all("--checkpoint-every")
        .into_iter()
        .map(|s| match s.parse::<usize>() {
            Ok(0) | Err(_) => {
                fail(&format!("--checkpoint-every must be a positive pass count (got '{s}')"))
            }
            Ok(n) => n,
        })
        .collect();
    if !intervals.is_empty() {
        cfg.checkpoint_every = intervals;
    }
    if let Some(s) = get("--max-retries") {
        // u32 parse rejects negatives and values beyond u32::MAX with the
        // bound spelled out, so a typo'd retry budget cannot wrap around.
        cfg.max_retries = s.parse::<u32>().unwrap_or_else(|_| {
            fail(&format!("--max-retries must be an integer in 0..={} (got '{s}')", u32::MAX))
        });
    }
    let kinds: Vec<sf_fpga::FaultKind> = get_all("--kind")
        .into_iter()
        .map(|s| {
            sf_fpga::FaultKind::parse(&s).unwrap_or_else(|| {
                fail(&format!(
                    "unknown fault kind '{s}' (expected bitflip|fifo-drop|fifo-dup|fifo-corrupt|axi-delay|axi-fail)"
                ))
            })
        })
        .collect();
    if !kinds.is_empty() {
        cfg.kinds = kinds;
    }
    // Mandatory static pre-flight of every campaign design, reported (on
    // stderr, so --json stdout stays machine-parseable) before a single
    // trial executes: any later detection is attributable to the injected
    // fault, not a latent design-rule violation.
    for (app, rep) in sf_bench::faults::preflight_devices(&apps, cfg.devices) {
        if rep.diagnostics.is_empty() {
            eprintln!("preflight {}: ok — no design-rule diagnostics", app.name());
        } else {
            eprintln!("preflight {}:", app.name());
            eprint!("{}", rep.render());
        }
        // A sharding the SFC-X rule rejects (shard narrower than the halo
        // depth) is a usage error, same exit code as `--devices 0`.
        if cfg.devices > 1 && rep.has_errors() {
            fail(&format!(
                "--devices {} is illegal for the {} campaign design (see preflight above)",
                cfg.devices,
                app.name()
            ));
        }
    }
    let report = run_campaign(&apps, &cfg);
    if let Some(path) = get("--record-out") {
        for rec in sf_bench::reportcmd::records_for_campaign(&report, &cfg) {
            write_record(&path, rec, started);
        }
    }
    if argv.iter().any(|a| a == "--json") {
        outln!(out, "{}", serde_json::to_string_pretty(&report).unwrap());
    } else {
        out!(out, "{}", report.render_table());
    }
    if !report.all_accounted() {
        std::process::exit(1);
    }
}

fn main() {
    let started = std::time::Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out = Stdout::default();
    if argv.first().map(String::as_str) == Some("faults") {
        run_faults(&argv[1..], started, &mut out);
        return;
    }
    // `report <store.jsonl>` (a positional path, at any position) is the
    // cross-run report; `report --app ... --v V --p P` stays the per-design
    // estimate.
    if argv.first().map(String::as_str) == Some("report") {
        let per_design = command_flags("report").map_or(&[][..], |(valued, _)| valued);
        if sf_bench::reportcmd::is_cross_run(&argv[1..], per_design) {
            std::process::exit(sf_bench::reportcmd::run(&argv[1..]));
        }
    }
    // `check --explain SFC-XXX` needs no --app/--mesh, so it is routed
    // before the full argument parser
    if argv.first().map(String::as_str) == Some("check") && argv.iter().any(|a| a == "--explain") {
        run_explain(&argv[1..], &mut out);
    }
    let a = parse();
    let mut wf = Workflow::u280_vs_v100();
    if a.devices > 1 {
        // dse sweeps device counts 1,2,4,…,K alongside V/p (statically
        // illegal shardings are pruned by SFC-X); profile/check take the
        // exact count from MultiConfig below. The doubling stops before it
        // would overflow, so a K above 2^63 ends the sweep at 2^63, K.
        wf.opts.device_candidates = std::iter::successors(Some(1usize), |d| d.checked_mul(2))
            .take_while(|&d| d < a.devices)
            .chain([a.devices])
            .collect();
        wf.opts.link = a.link;
    }
    match a.cmd.as_str() {
        "feasibility" => {
            let r = wf.feasibility(&a.app, &a.wl).unwrap_or_else(|e| fail(&format!("{e}")));
            if a.json {
                outln!(out, "{}", serde_json::to_string_pretty(&r).unwrap());
                return;
            }
            outln!(out, "application        : {}", r.app);
            outln!(out, "nominal V          : {}", r.v);
            outln!(out, "V_max (bandwidth)  : {}", r.v_max_bandwidth);
            outln!(out, "p_dsp / p_mem      : {} / {}", r.p_dsp, r.p_mem);
            outln!(out, "recommended p      : {}", r.p_recommended);
            outln!(out, "baseline feasible  : {}", r.baseline_feasible);
            outln!(out, "needs tiling       : {}", r.needs_tiling);
            outln!(out, "flops per ext byte : {:.2}", r.flops_per_byte);
        }
        "dse" => {
            let cands = wf
                .explore_jobs(&a.app, &a.wl, a.iters, a.jobs)
                .unwrap_or_else(|e| fail(&format!("{e}")));
            if let (Some(path), Some(best)) = (&a.record_out, cands.first()) {
                let rec = sf_bench::reportcmd::record_for_dse(best, &a.wl, a.iters, a.jobs);
                write_record(path, rec, started);
            }
            if a.json {
                let top: Vec<_> = cands.iter().take(a.top).collect();
                outln!(out, "{}", serde_json::to_string_pretty(&top).unwrap());
                return;
            }
            if cands.is_empty() {
                outln!(out, "no feasible design (try tiling or a smaller mesh)");
                return;
            }
            outln!(
                out,
                "{:<4} {:>4} {:>4} {:>4} {:<28} {:>9} {:>12} {:>12}",
                "#",
                "V",
                "p",
                "dev",
                "mode",
                "MHz",
                "plan ms",
                "pred ms"
            );
            for (i, c) in cands.iter().take(a.top).enumerate() {
                outln!(
                    out,
                    "{:<4} {:>4} {:>4} {:>4} {:<28} {:>9.0} {:>12.2} {:>12.2}",
                    i + 1,
                    c.design.v,
                    c.design.p,
                    c.devices,
                    format!("{:?}", c.design.mode),
                    c.design.freq_mhz(),
                    c.planned_runtime_s * 1e3,
                    c.prediction.runtime_s * 1e3,
                );
            }
        }
        "compare" => match wf.compare(&a.app, &a.wl, a.iters) {
            Ok(cmp) => {
                outln!(out, "{}", sf_fpga::report::utilization_report(&wf.device, &cmp.design));
                outln!(out, "{}", cmp.verdict());
            }
            Err(e) => fail(&format!("{e}")),
        },
        "report" => {
            if a.v == 0 || a.p == 0 {
                fail("report needs explicit --v and --p");
            }
            match synthesize(&wf.device, &a.app, a.v, a.p, explicit_mode(&a), a.mem, &a.wl) {
                Ok(ds) => {
                    let rep = wf.fpga_estimate(&ds, &a.wl, a.iters);
                    if a.json {
                        outln!(out, "{}", serde_json::to_string_pretty(&rep).unwrap());
                        return;
                    }
                    outln!(out, "{}", sf_fpga::report::utilization_report(&wf.device, &ds));
                    outln!(out, "{}", rep.summary());
                }
                Err(e) => outln!(out, "synthesis rejected the configuration: {e}"),
            }
        }
        "explain" => match wf.best_design(&a.app, &a.wl, a.iters) {
            Ok(best) => {
                outln!(out, "{}", sf_fpga::report::utilization_report(&wf.device, &best.design));
                let tr = sf_fpga::trace::explain(&wf.device, &best.design, &a.wl, a.iters);
                outln!(out, "{}", tr.render());
            }
            Err(e) => fail(&format!("{e}")),
        },
        "profile" => match wf.profile_multi(
            &a.app,
            &a.wl,
            a.iters,
            a.jobs,
            a.exec,
            &sf_fpga::MultiConfig { devices: a.devices, link: a.link },
        ) {
            Ok(pr) => {
                if let Some(path) = &a.trace_out {
                    let json = chrome::to_chrome_json(&pr.recorder);
                    std::fs::write(path, json)
                        .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
                    eprintln!("chrome trace written to {path}");
                }
                if let Some(path) = &a.record_out {
                    write_record(path, pr.to_run_record(), started);
                }
                if a.json {
                    outln!(out, "{}", metrics::to_metrics_json(&pr.recorder));
                    return;
                }
                outln!(out, "{}", sf_fpga::report::utilization_report(&wf.device, &pr.design));
                // the pre-flight ran (mandatorily) before execution inside
                // Workflow::profile; surface its verdict first
                if pr.preflight.diagnostics.is_empty() {
                    outln!(out, "preflight          : ok — no design-rule diagnostics");
                } else {
                    outln!(out, "preflight          :");
                    out!(out, "{}", pr.preflight.render());
                }
                outln!(
                    out,
                    "mode               : {}",
                    if pr.behavioral { "behavioral (numerics streamed)" } else { "schedule-only" }
                );
                if let Some(sh) = &pr.sharded {
                    outln!(
                        out,
                        "devices            : {} (exchange {} B/pass, {} exposed cycles total)",
                        pr.devices,
                        sh.exchange_bytes_per_pass,
                        sh.exchange_exposed_cycles
                    );
                }
                outln!(out, "total cycles       : {}", pr.report.total_cycles);
                outln!(out, "runtime            : {:.3} ms", pr.report.runtime_s * 1e3);
                let b = pr.recorder.stall_breakdown();
                outln!(out, "stall attribution  :");
                for (label, class) in [
                    ("compute", StallClass::Compute),
                    ("memory", StallClass::Memory),
                    ("backpressure", StallClass::Backpressure),
                    ("exchange", StallClass::Exchange),
                ] {
                    outln!(
                        out,
                        "  {:<14} {:>14} cycles  ({:5.1} %)",
                        label,
                        b.cycles(class),
                        b.fraction(class) * 100.0
                    );
                }
                outln!(out, "  dominant       {:?}", b.dominant());
                outln!(out, "model accuracy     : {}", pr.divergence.summary());
            }
            Err(e) => fail(&format!("{e}")),
        },
        "check" => run_check(&a, &mut wf, &mut out),
        other => fail(&format!("unknown command '{other}'")),
    }
}
