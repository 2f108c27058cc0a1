//! The cross-run `sfstencil report` subcommand, plus the producers that
//! turn dse results and fault campaigns into durable [`RunRecord`]s.
//!
//! ```text
//! sfstencil report runs.jsonl [--json|--md|--html] [--out FILE]
//! sfstencil report runs.jsonl --compare baseline.json [--max-regress 5%]
//! ```
//!
//! The first form aggregates a run store (written by `profile`/`dse`/
//! `faults` with `--record-out`) into a schema-versioned report with
//! roofline gap attribution. The second additionally gates the current
//! medians against a committed baseline report and exits non-zero on any
//! regression beyond tolerance (or on coverage loss).

use crate::cli::{FlagCheck, Stdout};
use crate::faults::{CampaignApp, CampaignConfig, CampaignReport, Recovery};
use sf_fpga::design::{ExecMode, MemKind, Workload};
use sf_model::Candidate;
use sf_report::{Report, RunKind, RunRecord};

/// Build a [`RunRecord`] for a dse invocation from its winning candidate.
///
/// Model-only runs have no simulation, so the prediction is stored as
/// *both* predicted and measured cycles: comparing dse records across
/// commits gates the trajectory of the model itself.
pub fn record_for_dse(c: &Candidate, wl: &Workload, niter: u64, jobs: usize) -> RunRecord {
    let mut rec = RunRecord::empty(RunKind::Dse, sf_report::app_slug(c.design.spec.app));
    let (dims, batch) = match *wl {
        Workload::D2 { nx, ny, batch } => (vec![nx as u64, ny as u64], batch),
        Workload::D3 { nx, ny, nz, batch } => (vec![nx as u64, ny as u64, nz as u64], batch),
    };
    rec.dims = dims;
    rec.batch = batch as u64;
    rec.niter = niter;
    rec.v = c.design.v as u64;
    rec.p = c.design.p as u64;
    rec.mode = format!("{:?}", c.design.mode);
    rec.tile_m = match c.design.mode {
        ExecMode::Tiled1D { tile_m } | ExecMode::Tiled2D { tile_m, .. } => Some(tile_m as u64),
        _ => None,
    };
    rec.tile_n = match c.design.mode {
        ExecMode::Tiled2D { tile_n, .. } => Some(tile_n as u64),
        _ => None,
    };
    rec.mem = match c.design.mem {
        MemKind::Hbm => "hbm".to_string(),
        MemKind::Ddr4 => "ddr4".to_string(),
    };
    rec.freq_mhz = c.design.freq_mhz();
    rec.devices = c.devices as u64;
    rec.jobs = jobs as u64;
    rec.predicted_cycles = c.prediction.cycles;
    rec.measured_cycles = c.prediction.cycles;
    rec.runtime_s = c.prediction.runtime_s;
    rec
}

/// Build one [`RunRecord`] per campaign app, carrying the fault counters
/// (cycle fields stay zero — a campaign measures resilience, not speed).
pub fn records_for_campaign(report: &CampaignReport, cfg: &CampaignConfig) -> Vec<RunRecord> {
    let mut apps: Vec<&'static str> = Vec::new();
    for t in &report.trials {
        if !apps.contains(&t.app) {
            apps.push(t.app);
        }
    }
    apps.sort_unstable();
    apps.iter()
        .map(|name| {
            let mut rec = RunRecord::empty(RunKind::Faults, name);
            if let Some(app) = CampaignApp::parse(name) {
                let (_, v, p, wl) = app.campaign_params();
                let (dims, batch) = match wl {
                    Workload::D2 { nx, ny, batch } => (vec![nx as u64, ny as u64], batch),
                    Workload::D3 { nx, ny, nz, batch } => {
                        (vec![nx as u64, ny as u64, nz as u64], batch)
                    }
                };
                rec.dims = dims;
                rec.batch = batch as u64;
                rec.v = v as u64;
                rec.p = p as u64;
            }
            rec.mode = "Campaign".to_string();
            rec.mem = "hbm".to_string();
            rec.devices = cfg.devices.max(1) as u64;
            rec.jobs = cfg.jobs as u64;
            let mut trials = 0u64;
            let mut injected_trials = 0u64;
            let mut faults_injected = 0u64;
            let mut silent_wrong = 0u64;
            let mut rollbacks = 0u64;
            let mut sdc_detected = 0u64;
            let mut recovery_cycles = 0u64;
            let mut overhead_cycles = 0u64;
            let mut rollback_recovered = 0u64;
            for t in report.trials.iter().filter(|t| &t.app == name) {
                trials += 1;
                faults_injected += t.injected;
                if t.injected > 0 {
                    injected_trials += 1;
                }
                if t.silent_wrong {
                    silent_wrong += 1;
                }
                rollbacks += t.rollbacks;
                sdc_detected += t.sdc_detected;
                recovery_cycles += t.recovery_cycles;
                overhead_cycles += t.overhead_cycles;
                if t.recovery == Recovery::Rollback {
                    rollback_recovered += 1;
                }
            }
            rec.fault_counters.insert("trials".into(), trials);
            rec.fault_counters.insert("injected_trials".into(), injected_trials);
            rec.fault_counters.insert("faults_injected".into(), faults_injected);
            rec.fault_counters.insert("silent_wrong".into(), silent_wrong);
            rec.fault_counters.insert("rollbacks".into(), rollbacks);
            rec.fault_counters.insert("sdc_detected".into(), sdc_detected);
            rec.fault_counters.insert("recovery_cycles".into(), recovery_cycles);
            rec.fault_counters.insert("recovery_overhead_cycles".into(), overhead_cycles);
            rec.fault_counters.insert("rollback_recovered".into(), rollback_recovered);
            rec.fault_counters.insert(
                "mean_cycles_to_recovery".into(),
                recovery_cycles.checked_div(rollbacks).unwrap_or(0),
            );
            rec
        })
        .collect()
}

/// Parse a `--max-regress` value: plain percent (`5`, `2.5`) with an
/// optional trailing `%`.
pub fn parse_max_regress(s: &str) -> Option<f64> {
    let s = s.trim().trim_end_matches('%');
    let v: f64 = s.parse().ok()?;
    (v.is_finite() && v >= 0.0).then_some(v)
}

/// The cross-run report's valued flags.
const VALUED: [&str; 3] = ["--out", "--compare", "--max-regress"];

/// Whether the arguments after `report` ask for the cross-run report: they
/// name a run store, at any position, and none of `per_design`, the flags
/// of the per-design `report --app ...`.
pub fn is_cross_run(argv: &[String], per_design: &[&str]) -> bool {
    !argv.iter().any(|arg| per_design.contains(&arg.as_str()))
        && !crate::cli::positionals(argv, &VALUED).is_empty()
}

/// The cross-run report's command line, as its usage shows it.
pub const USAGE: &str = "sfstencil report <runs.jsonl> [--json|--md|--html] [--out FILE] \
                         [--compare BASELINE.json] [--max-regress PCT]";

/// The `sfstencil report <store.jsonl> ...` subcommand, its store at any
/// position among the flags. Returns the
/// process exit code: 0 on success or `--help`, 1 on a failed regression
/// gate, 2 on usage errors (an unknown or repeated flag, or a second store,
/// among them) or I/O errors.
pub fn run(argv: &[String]) -> i32 {
    let mut out = Stdout::default();
    // one positional argument: the store
    match crate::cli::check_flags(argv, &VALUED, &[], &["--json", "--md", "--html"], 1) {
        FlagCheck::Run => {}
        FlagCheck::Help => {
            out.write(format_args!("usage: {USAGE}\n"));
            return 0;
        }
        FlagCheck::Unknown(flag) => {
            eprintln!("error: unknown flag '{flag}'\nusage: {USAGE}");
            return 2;
        }
        FlagCheck::MissingValue(flag) => {
            eprintln!("error: flag '{flag}' needs a value\nusage: {USAGE}");
            return 2;
        }
        FlagCheck::Repeated(flag) => {
            eprintln!("error: flag '{flag}' given more than once\nusage: {USAGE}");
            return 2;
        }
        FlagCheck::Stray(token) => {
            eprintln!("error: unexpected argument '{token}' (one run store)\nusage: {USAGE}");
            return 2;
        }
    }
    let Some(&store) = crate::cli::positionals(argv, &VALUED).first() else {
        eprintln!("usage: {USAGE}");
        return 2;
    };
    let get = |flag: &str| -> Option<String> {
        argv.iter().position(|a| a == flag).and_then(|i| argv.get(i + 1).cloned())
    };
    let has = |flag: &str| argv.iter().any(|a| a == flag);

    let records = match sf_report::load_records(std::path::Path::new(store)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let report = Report::build(&records);

    let body = if has("--json") {
        match report.to_json_string() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        }
    } else if has("--html") {
        sf_report::to_html(&report)
    } else {
        sf_report::to_markdown(&report)
    };

    let mut code = 0;
    if let Some(baseline_path) = get("--compare") {
        let max_regress = match get("--max-regress") {
            None => 5.0,
            Some(s) => match parse_max_regress(&s) {
                Some(v) => v,
                None => {
                    eprintln!("error: --max-regress must be a non-negative percent (got '{s}')");
                    return 2;
                }
            },
        };
        let baseline = match std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("{baseline_path}: {e}"))
            .and_then(|body| Report::from_json_str(&body).map_err(|e| format!("{e}")))
        {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        };
        let cmp = sf_report::compare(&report, &baseline, max_regress);
        eprint!("{}", cmp.render());
        if !cmp.passed() {
            code = 1;
        }
    }

    match get("--out") {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &body) {
                eprintln!("error: cannot write {path}: {e}");
                return 2;
            }
            eprintln!("report written to {path}");
        }
        None => out.write(format_args!("{body}\n")),
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{run_campaign, CampaignApp, CampaignConfig};

    #[test]
    fn max_regress_accepts_plain_and_percent_forms() {
        assert_eq!(parse_max_regress("5"), Some(5.0));
        assert_eq!(parse_max_regress("5%"), Some(5.0));
        assert_eq!(parse_max_regress("2.5%"), Some(2.5));
        assert_eq!(parse_max_regress("0"), Some(0.0));
        assert_eq!(parse_max_regress("-1"), None);
        assert_eq!(parse_max_regress("inf"), None);
        assert_eq!(parse_max_regress("five"), None);
    }

    #[test]
    fn campaign_records_carry_the_fault_counters() {
        let cfg = CampaignConfig {
            seed: 42,
            rates_ppm: vec![500],
            trials_per_cell: 1,
            ..CampaignConfig::default()
        };
        let apps = [CampaignApp::Poisson2D];
        let report = run_campaign(&apps, &cfg);
        let recs = records_for_campaign(&report, &cfg);
        assert_eq!(recs.len(), 1);
        let rec = &recs[0];
        assert_eq!(rec.app, "poisson2d");
        assert_eq!(rec.kind, RunKind::Faults);
        assert!(!rec.has_measurement());
        assert_eq!(
            rec.fault_counters.get("trials").copied().unwrap_or(0),
            report.trials.len() as u64
        );
        assert_eq!(
            rec.fault_counters.get("silent_wrong").copied(),
            Some(report.summary.silent_wrong as u64)
        );
        // design point from the fixed campaign params
        assert_eq!(rec.dims, vec![48, 24]);
        assert_eq!(rec.v, 8);
    }

    #[test]
    fn rollback_campaign_records_carry_recovery_counters() {
        let cfg = CampaignConfig {
            seed: 42,
            rates_ppm: vec![1_000_000],
            trials_per_cell: 1,
            recovery: crate::faults::RecoveryMode::Rollback,
            kinds: vec![sf_fpga::FaultKind::BitFlip],
            ..CampaignConfig::default()
        };
        let report = run_campaign(&[CampaignApp::Poisson2D], &cfg);
        let recs = records_for_campaign(&report, &cfg);
        assert_eq!(recs.len(), 1);
        let counters = &recs[0].fault_counters;
        let get = |k: &str| counters.get(k).copied().unwrap_or(0);
        assert!(get("rollbacks") > 0, "{counters:?}");
        assert!(get("sdc_detected") > 0, "{counters:?}");
        assert!(get("recovery_cycles") > 0, "{counters:?}");
        assert!(get("recovery_overhead_cycles") >= get("recovery_cycles"), "{counters:?}");
        assert_eq!(get("mean_cycles_to_recovery"), get("recovery_cycles") / get("rollbacks"));
        assert_eq!(get("rollback_recovered"), 1, "{counters:?}");
    }
}
