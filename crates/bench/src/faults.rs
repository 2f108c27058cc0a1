//! Fault-injection campaign runner — the resilience layer exercised end to
//! end across the three paper applications.
//!
//! A campaign sweeps every [`FaultKind`] over a set of injection rates and
//! per-cell trial seeds (all derived deterministically from one campaign
//! seed), runs each trial as a fault-aware run (fault hooks in
//! [`sf_fpga::resilient`]), and classifies the outcome:
//!
//! * **watchdog** — the pipeline wedged (e.g. a dropped FIFO element starved
//!   the stages) and the cycle-budget watchdog reported a deadlock with a
//!   structured diagnosis.
//! * **checksum** — the run completed but the output is not bit-exact
//!   against the golden [`sf_kernels::reference`] solve.
//! * **axi-retry** — an AXI burst failed and the retry/backoff model either
//!   recovered it in-run (extra cycles charged to the plan and telemetry) or
//!   exhausted the budget into a typed [`ExecError::AxiExhausted`].
//! * **divergence** — the run is numerically clean but the simulated cycle
//!   count diverges from the clean plan beyond the paper's ±15 % accuracy
//!   envelope.
//! * **abft** — under the `rollback` recovery mode, the block-checksum
//!   (ABFT) comparison at a checkpoint boundary caught silent data
//!   corruption and the run restored its last valid checkpoint
//!   ([`sf_fpga::recovery`]); only the lost passes are recomputed, and the
//!   checkpoint/replay overhead is charged to the plan and telemetry.
//!
//! Every *injected* fault must end the trial detected or recovered; a trial
//! that completes with a wrong answer and no detection would be a **silent
//! wrong** — the campaign reports zero of those by construction (the
//! checksum is always consulted) and [`CampaignReport::all_accounted`]
//! asserts it. A trial with nothing injected must finish bit-exact with no
//! detection and no rollback; one that errs, rolls back or comes out wrong
//! has no fault to explain it, so it counts as silent wrong too.
//!
//! Each app's design, input, golden answer, clean plan and window memory
//! are built once per campaign and shared by every trial and worker. The
//! golden answer is a [`GoldenTrajectory`]: the reference state of the
//! input at every pass boundary with its ABFT signature. Its last state is
//! what every trial must reproduce bit for bit, and a rollback trial reads
//! its ABFT expected side from it rather than re-solving the reference
//! segment by segment (a segment whose start state is not golden still
//! re-solves), so a trial costs its own streaming plus its own checks. The
//! window memory is a [`WindowPool`] lent to the app's clean run and to
//! every trial ([`Run::windows`]), as every run of one bitstream streams
//! through the same window buffers: a worker allocates an app's windows
//! once per campaign, not once per trial, segment attempt and replay.
//!
//! Same campaign seed ⇒ byte-identical report (table and JSON): the sweep
//! order is fixed arrays, the per-trial seeds are pure functions of the
//! campaign seed, and no map with randomized iteration order is involved.

use serde::Serialize;
use sf_fpga::design::{synthesize, ExecMode, MemKind, StencilDesign, Workload};
use sf_fpga::driver::{GridKernel, StreamGrid};
use sf_fpga::window::{Engine, ScalarEngine};
use sf_fpga::{
    cycles, recovery, ExecEngine, ExecError, FastEngine, FaultInjector, FaultKind, FaultPlan,
    Faults, FpgaDevice, GoldenTrajectory, Recorder, RecoveryConfig, RecoveryPolicy, RecoveryStats,
    RetryPolicy, Run, WindowPool,
};
use sf_kernels::{rtm, Jacobi3D, Poisson2D, RtmParams, RtmStage, StencilSpec};
use sf_mesh::{Batch2D, Batch3D};
use sf_telemetry::Divergence;

/// Seed for the deterministic input meshes (independent of the fault seed so
/// the golden solve is identical across every trial of an app).
const INPUT_SEED: u64 = 1_000_003;

/// Divergence tolerance in percent — the paper's model-accuracy envelope.
const DIVERGENCE_TOL_PCT: f64 = 15.0;

/// The three paper applications a campaign can target.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize)]
pub enum CampaignApp {
    /// 2D Poisson (5-point, 48×24 mesh, 12 iterations, V=8 p=4).
    Poisson2D,
    /// 3D Jacobi smoothing (7-point, 16×12×10 mesh, 6 iterations, V=8 p=3).
    Jacobi3D,
    /// 3D RTM forward pass (4 stages, 12×10×8 mesh, 4 iterations, V=1 p=3).
    Rtm3D,
}

impl CampaignApp {
    /// Every app, in campaign sweep order.
    pub const ALL: [CampaignApp; 3] =
        [CampaignApp::Poisson2D, CampaignApp::Jacobi3D, CampaignApp::Rtm3D];

    /// The fixed campaign configuration for this app: `(spec, v, p,
    /// workload)` — kept small so seeds and detections stay comparable
    /// across runs, and shared between the trial runners and the static
    /// pre-flight.
    pub fn campaign_params(&self) -> (StencilSpec, usize, usize, Workload) {
        match self {
            CampaignApp::Poisson2D => {
                (StencilSpec::poisson(), 8, 4, Workload::D2 { nx: 48, ny: 24, batch: 1 })
            }
            CampaignApp::Jacobi3D => {
                (StencilSpec::jacobi(), 8, 3, Workload::D3 { nx: 16, ny: 12, nz: 10, batch: 1 })
            }
            CampaignApp::Rtm3D => {
                (StencilSpec::rtm(), 1, 3, Workload::D3 { nx: 12, ny: 10, nz: 8, batch: 1 })
            }
        }
    }
}

/// Static pre-flight of every campaign design: the `sf-check` design-rule
/// report for each app's fixed configuration, in sweep order. The CLI
/// prints these before executing a single trial so any static diagnostic
/// can be correlated with the runtime detections that follow.
pub fn preflight(apps: &[CampaignApp]) -> Vec<(CampaignApp, sf_check::CheckReport)> {
    preflight_devices(apps, 1)
}

/// [`preflight`] against a sharded deployment: the same fixed campaign
/// designs, checked with `devices` accelerator cards so the SFC-X
/// sharding-legality rule participates (a campaign mesh whose outermost
/// extent shards narrower than the halo depth is rejected up front, before
/// a single trial executes).
pub fn preflight_devices(
    apps: &[CampaignApp],
    devices: usize,
) -> Vec<(CampaignApp, sf_check::CheckReport)> {
    let dev = FpgaDevice::u280();
    apps.iter()
        .map(|&app| {
            let (spec, v, p, wl) = app.campaign_params();
            let design = sf_check::Design::new(spec, v, p, ExecMode::Baseline, MemKind::Hbm, wl)
                .with_devices(devices);
            (app, sf_check::check(&dev, &design))
        })
        .collect()
}

impl CampaignApp {
    /// Stable lowercase name (CLI values, JSON keys).
    pub fn name(&self) -> &'static str {
        match self {
            CampaignApp::Poisson2D => "poisson2d",
            CampaignApp::Jacobi3D => "jacobi3d",
            CampaignApp::Rtm3D => "rtm3d",
        }
    }

    /// Parse a CLI app name; the bare workflow names are accepted as
    /// aliases (`poisson` ⇒ `poisson2d`, …).
    pub fn parse(s: &str) -> Option<CampaignApp> {
        match s {
            "poisson" | "poisson2d" => Some(CampaignApp::Poisson2D),
            "jacobi" | "jacobi3d" => Some(CampaignApp::Jacobi3D),
            "rtm" | "rtm3d" => Some(CampaignApp::Rtm3D),
            _ => None,
        }
    }
}

/// Campaign-level recovery strategy (the `--recovery` CLI flag).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize)]
pub enum RecoveryMode {
    /// Detected faults recover through a clean re-execution — the
    /// pre-checkpoint behavior, and the default (keeps existing campaign
    /// seeds and classifications byte-stable).
    Rerun,
    /// Detected faults roll back to the last valid checkpoint and replay
    /// only the lost passes ([`sf_fpga::recovery`]); silent corruption is
    /// caught in-run by the ABFT block-checksum check at each checkpoint
    /// boundary.
    Rollback,
}

impl RecoveryMode {
    /// Stable lowercase name (CLI values, JSON keys).
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryMode::Rerun => "rerun",
            RecoveryMode::Rollback => "rollback",
        }
    }

    /// Parse a CLI recovery-mode name.
    pub fn parse(s: &str) -> Option<RecoveryMode> {
        match s {
            "rerun" => Some(RecoveryMode::Rerun),
            "rollback" => Some(RecoveryMode::Rollback),
            _ => None,
        }
    }
}

/// How a trial's fault was caught.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize)]
pub enum Detection {
    /// No fault was injected (the rate never rolled an injection) — nothing
    /// to detect.
    NotInjected,
    /// The watchdog tripped on a wedged pipeline (deadlock/livelock).
    Watchdog,
    /// Output checksum vs the golden reference caught corrupted numerics.
    Checksum,
    /// The AXI retry model surfaced the fault (recovered bursts counted in
    /// telemetry, or a typed `AxiExhausted` error).
    AxiRetry,
    /// The run was numerically clean but its cycle count left the ±15 %
    /// model-accuracy envelope.
    Divergence,
    /// The fault was absorbed by the architecture (e.g. a duplicated final
    /// element discarded at the full input FIFO) — output verified
    /// bit-exact.
    Masked,
    /// The ABFT block-checksum comparison at a checkpoint boundary caught
    /// silent data corruption (rollback campaigns only).
    Abft,
}

impl Detection {
    fn name(&self) -> &'static str {
        match self {
            Detection::NotInjected => "-",
            Detection::Watchdog => "watchdog",
            Detection::Checksum => "checksum",
            Detection::AxiRetry => "axi-retry",
            Detection::Divergence => "divergence",
            Detection::Masked => "masked",
            Detection::Abft => "abft",
        }
    }
}

/// How the trial ended up with a correct answer (or didn't).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize)]
pub enum Recovery {
    /// Nothing to recover: no injection, or the fault was masked.
    NotNeeded,
    /// The AXI retry/backoff absorbed the fault in-run; the output is
    /// bit-exact and the extra cycles are charged to the plan.
    InRun,
    /// A clean re-execution (fault injector disabled) reproduced the
    /// bit-exact golden answer.
    CleanRerun,
    /// The run rolled back to its last valid checkpoint, replayed the lost
    /// passes and finished bit-exact — no re-execution from scratch.
    Rollback,
    /// Even the clean re-execution failed — a genuine bug, never expected.
    Failed,
}

impl Recovery {
    fn name(&self) -> &'static str {
        match self {
            Recovery::NotNeeded => "-",
            Recovery::InRun => "in-run retry",
            Recovery::CleanRerun => "clean rerun",
            Recovery::Rollback => "rollback",
            Recovery::Failed => "FAILED",
        }
    }
}

/// One (app × kind × rate × trial) cell of the campaign.
#[derive(Clone, Debug, Serialize)]
pub struct Trial {
    /// Application name.
    pub app: &'static str,
    /// Fault kind name.
    pub kind: &'static str,
    /// Injection rate in parts per million of opportunities.
    pub rate_ppm: u32,
    /// The derived per-trial seed.
    pub seed: u64,
    /// Faults actually injected.
    pub injected: u64,
    /// Injection opportunities the run offered.
    pub opportunities: u64,
    /// How the fault was caught.
    pub detection: Detection,
    /// How a correct answer was (re-)established.
    pub recovery: Recovery,
    /// A wrong outcome no injected fault explains — must never happen.
    /// An injected fault's wrong answer is always caught (the output
    /// checksum is always consulted), so this marks a trial with nothing
    /// injected that failed, rolled back or came out not bit-exact: the
    /// simulator itself went wrong.
    pub silent_wrong: bool,
    /// Checkpoint interval (passes) this trial ran under; 0 under the
    /// rerun recovery mode (no checkpoints taken).
    pub checkpoint_every: usize,
    /// Rollbacks performed in-run.
    pub rollbacks: u64,
    /// Silent corruptions the ABFT check caught.
    pub sdc_detected: u64,
    /// Cycles spent replaying rolled-back passes.
    pub recovery_cycles: u64,
    /// Total checkpoint + ABFT + replay cycles charged to the plan.
    pub overhead_cycles: u64,
    /// One-line diagnosis (watchdog trip, typed error, cycle delta …).
    pub detail: String,
}

/// Aggregate campaign statistics.
#[derive(Clone, Debug, Serialize)]
pub struct Summary {
    /// Total trials run.
    pub trials: usize,
    /// Trials where at least one fault was injected.
    pub injected: usize,
    /// Injected trials that were detected or recovered.
    pub detected_or_recovered: usize,
    /// Trials with a wrong outcome no injected fault explains
    /// ([`Trial::silent_wrong`]).
    pub silent_wrong: usize,
    /// Trials whose recovery path failed.
    pub recovery_failed: usize,
    /// Silent corruptions caught in-run by the ABFT check (sum over
    /// trials).
    pub sdc_detected: u64,
    /// Trials that recovered in-run via checkpoint rollback.
    pub rollback_recovered: usize,
}

/// Full deterministic campaign output.
#[derive(Clone, Debug, Serialize)]
pub struct CampaignReport {
    /// The campaign seed all per-trial seeds derive from.
    pub campaign_seed: u64,
    /// Injection rates swept (parts per million).
    pub rates_ppm: Vec<u32>,
    /// Trials per (app × kind × rate) cell.
    pub trials_per_cell: u32,
    /// Recovery strategy the campaign ran under.
    pub recovery: RecoveryMode,
    /// Checkpoint intervals swept (rollback mode; empty under rerun).
    pub checkpoint_every: Vec<usize>,
    /// Every trial, in sweep order.
    pub trials: Vec<Trial>,
    /// Aggregate statistics.
    pub summary: Summary,
}

/// Campaign parameters; [`CampaignConfig::default`] matches the CI smoke job.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Seed every per-trial seed derives from.
    pub seed: u64,
    /// Injection rates to sweep (parts per million of opportunities).
    pub rates_ppm: Vec<u32>,
    /// Trials per (app × kind × rate) cell.
    pub trials_per_cell: u32,
    /// Worker threads for trial execution (`--jobs`). The report is
    /// byte-identical for any value: cells are enumerated in sweep order
    /// up front, fanned across workers, and classified in that same order.
    pub jobs: usize,
    /// Recovery strategy: `Rerun` (default, pre-checkpoint behavior) or
    /// `Rollback` (checkpoint/restore with ABFT detection).
    pub recovery: RecoveryMode,
    /// Checkpoint intervals (passes per checkpoint segment) to sweep under
    /// rollback; ignored under rerun. Each interval multiplies the cell
    /// count, so the overhead-vs-MTTR tradeoff is measured in one run.
    pub checkpoint_every: Vec<usize>,
    /// Rollback attempts allowed per checkpoint segment before the
    /// recoverable executor gives up with `RecoveryExhausted`.
    pub max_retries: u32,
    /// Fault kinds to sweep; per-kind trial seeds are derived from each
    /// kind's position in [`FaultKind::ALL`], so filtering the list never
    /// changes the seeds of the kinds that remain.
    pub kinds: Vec<FaultKind>,
    /// Execution engine the trials stream through (`--exec`). Both engines
    /// are bit-exact, so the campaign report (table and JSON) is
    /// byte-identical either way; `scalar` exists to cross-check the fast
    /// path.
    pub engine: ExecEngine,
    /// Device count (`--devices`): validated against the SFC-X
    /// sharding-legality rule by [`preflight_devices`] and stamped into
    /// run records. Trials stream each app's fixed single-card
    /// configuration regardless of the count, so per-trial fault seeds and
    /// classifications stay byte-comparable across deployments.
    pub devices: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 42,
            rates_ppm: vec![50_000, 1_000_000],
            trials_per_cell: 2,
            jobs: 1,
            recovery: RecoveryMode::Rerun,
            checkpoint_every: vec![4],
            max_retries: 3,
            kinds: FaultKind::ALL.to_vec(),
            engine: ExecEngine::default(),
            devices: 1,
        }
    }
}

/// How one trial recovers: by clean re-execution (detected faults surface
/// to the classifier) or in-run by checkpoint/rollback with ABFT detection.
#[derive(Copy, Clone)]
enum TrialMode {
    Rerun,
    Rollback { checkpoint_every: usize, max_retries: u32 },
}

impl TrialMode {
    /// The recoverable executor's configuration; the rerun policy takes no
    /// checkpoints and surfaces every detection.
    fn rcfg(&self) -> RecoveryConfig {
        match *self {
            TrialMode::Rerun => {
                RecoveryConfig { policy: RecoveryPolicy::Rerun, ..RecoveryConfig::default() }
            }
            TrialMode::Rollback { checkpoint_every, max_retries } => RecoveryConfig {
                policy: RecoveryPolicy::Rollback { max_retries },
                checkpoint_every,
                ..RecoveryConfig::default()
            },
        }
    }

    /// The interval recorded in the trial row (0 under rerun).
    fn interval(&self) -> usize {
        match *self {
            TrialMode::Rerun => 0,
            TrialMode::Rollback { checkpoint_every, .. } => checkpoint_every,
        }
    }
}

/// Raw observations from one resilient run, before classification.
struct TrialRun {
    /// `Ok(bit_exact_vs_golden, total_cycles)` or the typed error.
    result: Result<(bool, u64), ExecError>,
    injected: u64,
    opportunities: u64,
    clean_cycles: u64,
    axi_recovered: u64,
    /// Checkpoint/rollback accounting (all-zero under rerun).
    stats: RecoveryStats,
}

/// What every trial of one app shares, built once per campaign and lent to
/// every trial and worker: the design, the input, the input's golden
/// trajectory, the clean plan's cycles and the design's window buffers. The
/// trajectory is the ABFT expected side of each rollback trial, and its
/// last state is the answer every trial must reproduce bit for bit.
struct AppContext<B, K> {
    dev: FpgaDevice,
    stages: Vec<K>,
    niter: usize,
    design: StencilDesign,
    input: B,
    golden: GoldenTrajectory,
    clean_cycles: u64,
    windows: WindowPool,
}

impl<B: StreamGrid, K: GridKernel<B>> AppContext<B, K> {
    fn new(app: CampaignApp, stages: Vec<K>, niter: usize, input: B) -> Self {
        let dev = FpgaDevice::u280();
        let (spec, v, p, wl) = app.campaign_params();
        let design = synthesize(&dev, &spec, v, p, ExecMode::Baseline, MemKind::Hbm, &wl)
            .expect("campaign designs are feasible");
        let golden = recovery::golden_trajectory(&stages, &input, design.p, niter);
        let clean_cycles = cycles::plan(&dev, &design, &wl, niter as u64).total_cycles;
        let windows = WindowPool::new();
        AppContext { dev, stages, niter, design, input, golden, clean_cycles, windows }
    }
}

/// One trial of an app, whatever its grid and kernel.
trait Trials: Send + Sync {
    fn trial(
        &self,
        plan: FaultPlan,
        policy: &RetryPolicy,
        mode: TrialMode,
        engine: ExecEngine,
    ) -> TrialRun;
}

impl<B, K> Trials for AppContext<B, K>
where
    B: StreamGrid,
    K: GridKernel<B> + Send,
    ScalarEngine: Engine<B, K>,
    FastEngine: Engine<B, K>,
{
    fn trial(
        &self,
        plan: FaultPlan,
        policy: &RetryPolicy,
        mode: TrialMode,
        engine: ExecEngine,
    ) -> TrialRun {
        let rcfg = mode.rcfg();
        let mut inj = FaultInjector::new(plan);
        let mut rec = Recorder::enabled(self.design.freq_mhz());
        let run = Run {
            engine,
            faults: Faults::Injector(&mut inj),
            retry: *policy,
            recovery: Some(&rcfg),
            trajectory: matches!(mode, TrialMode::Rollback { .. }).then_some(&self.golden),
            windows: Some(&self.windows),
            ..Run::new(&self.dev, &self.design, &self.stages, self.niter, &mut rec)
        }
        .simulate(&self.input);
        let (result, stats) = match run {
            Ok((out, rep, stats)) => {
                let bit_exact = self.golden.holds(self.niter as u64, out.as_slice());
                (Ok((bit_exact, rep.total_cycles)), stats)
            }
            Err(e) => (Err(e), RecoveryStats::default()),
        };
        TrialRun {
            result,
            injected: inj.injected(),
            opportunities: inj.opportunities(),
            clean_cycles: self.clean_cycles,
            axi_recovered: rec.counter("fault.axi.recovered"),
            stats,
        }
    }
}

/// `app`'s context: its fixed mesh and kernel stages, and its trial length
/// (12, 6 and 4 iterations, which sfbench mirrors to count cell updates).
fn context(app: CampaignApp) -> Box<dyn Trials> {
    let (nx, ny, nz) = match app.campaign_params().3 {
        Workload::D2 { nx, ny, .. } => (nx, ny, 1),
        Workload::D3 { nx, ny, nz, .. } => (nx, ny, nz),
    };
    match app {
        CampaignApp::Poisson2D => {
            let input = Batch2D::<f32>::random(nx, ny, 1, INPUT_SEED, -1.0, 1.0);
            Box::new(AppContext::new(app, vec![Poisson2D], 12, input))
        }
        CampaignApp::Jacobi3D => {
            let input = Batch3D::<f32>::random(nx, ny, nz, 1, INPUT_SEED, -1.0, 1.0);
            Box::new(AppContext::new(app, vec![Jacobi3D::smoothing()], 6, input))
        }
        CampaignApp::Rtm3D => {
            let (y, rho, mu) = rtm::demo_workload(nx, ny, nz);
            let input = Batch3D::from_meshes(&[rtm::pack(&y, &rho, &mu)]);
            Box::new(AppContext::new(app, RtmStage::pipeline(RtmParams::default()), 4, input))
        }
    }
}

/// Derive a per-trial seed from the campaign seed and the cell coordinates
/// (SplitMix64 finalizer — decorrelates adjacent cells).
fn trial_seed(campaign: u64, app_idx: u64, kind_idx: u64, rate_ppm: u32, trial: u32) -> u64 {
    let mut z = campaign
        .wrapping_add(app_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(kind_idx.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add((rate_ppm as u64) << 8)
        .wrapping_add(trial as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Classify one trial. `clean_ok` is whether the app's clean (injector
/// disabled) run reproduced the golden answer — the recovery path for
/// detected faults.
fn classify(
    app: CampaignApp,
    run: &TrialRun,
    plan: &FaultPlan,
    clean_ok: bool,
    mode: TrialMode,
) -> Trial {
    let rerun = if clean_ok { Recovery::CleanRerun } else { Recovery::Failed };
    let (detection, recovery, detail) = match &run.result {
        Err(ExecError::Deadlock(trip)) => (Detection::Watchdog, rerun, format!("{trip}")),
        Err(e @ ExecError::AxiExhausted { .. }) => (Detection::AxiRetry, rerun, format!("{e}")),
        Err(e @ ExecError::RecoveryExhausted { .. }) => {
            // The rollback budget ran out mid-run; the detection that kept
            // firing was the ABFT (or watchdog) check inside the
            // recoverable executor, and recovery falls back to the rerun.
            let det =
                if run.stats.sdc_detected > 0 { Detection::Abft } else { Detection::Watchdog };
            (det, rerun, format!("{e}"))
        }
        Err(e) => (Detection::Watchdog, rerun, format!("unexpected error: {e}")),
        Ok((bit_exact, total_cycles)) => {
            if *bit_exact && run.stats.rollbacks > 0 {
                // Checkpoint rollback recovered the run in-flight: the
                // detection is whichever monitor triggered the restore.
                let det =
                    if run.stats.sdc_detected > 0 { Detection::Abft } else { Detection::Watchdog };
                let d = format!(
                    "{} rollback(s), {} pass(es) replayed, +{} overhead cycles",
                    run.stats.rollbacks,
                    run.stats.batches_replayed,
                    run.stats.overhead_cycles()
                );
                (det, Recovery::Rollback, d)
            } else if !bit_exact {
                let d = format!("output differs from {} golden reference", app.name());
                (Detection::Checksum, rerun, d)
            } else if run.injected == 0 {
                (Detection::NotInjected, Recovery::NotNeeded, String::new())
            } else if run.axi_recovered > 0 {
                let div = Divergence::new(run.clean_cycles, *total_cycles);
                let det = if div.within(DIVERGENCE_TOL_PCT) {
                    Detection::AxiRetry
                } else {
                    Detection::Divergence
                };
                let d = format!(
                    "{} bursts retried, +{} cycles ({:+.2}%)",
                    run.axi_recovered,
                    total_cycles - run.clean_cycles,
                    div.pct()
                );
                (det, Recovery::InRun, d)
            } else {
                let d = "fault absorbed by the architecture; output bit-exact".to_string();
                (Detection::Masked, Recovery::NotNeeded, d)
            }
        }
    };
    // With nothing injected, only a clean bit-exact run is right.
    let silent_wrong = run.injected == 0 && detection != Detection::NotInjected;
    Trial {
        app: app.name(),
        kind: plan.kind.name(),
        rate_ppm: plan.rate_ppm,
        seed: plan.seed,
        injected: run.injected,
        opportunities: run.opportunities,
        detection,
        recovery,
        silent_wrong,
        checkpoint_every: mode.interval(),
        rollbacks: run.stats.rollbacks,
        sdc_detected: run.stats.sdc_detected,
        recovery_cycles: run.stats.recovery_cycles,
        overhead_cycles: run.stats.overhead_cycles(),
        detail,
    }
}

/// One enumerated (app × kind × rate × interval × trial) cell, ready to
/// execute on its app's context.
struct Cell<'c> {
    ctx: &'c dyn Trials,
    app: CampaignApp,
    plan: FaultPlan,
    clean_ok: bool,
    mode: TrialMode,
}

/// Run a deterministic fault campaign over `apps`.
///
/// Trials fan across `cfg.jobs` worker threads; each trial is an
/// independent resilient simulation keyed by its derived seed, so the
/// report (table and JSON) is byte-identical for any worker count.
pub fn run_campaign(apps: &[CampaignApp], cfg: &CampaignConfig) -> CampaignReport {
    let policy = RetryPolicy::default();
    // One context per app, built on the workers like the trials that share
    // it. Its clean run (injector disabled) is the recovery path of every
    // trial of the app and must reproduce the golden answer.
    let contexts: Vec<(Box<dyn Trials>, bool)> =
        sf_par::par_map(cfg.jobs, apps.to_vec(), |_, app| {
            let ctx = context(app);
            let disabled = FaultInjector::disabled().plan().to_owned();
            let clean = ctx.trial(disabled, &policy, TrialMode::Rerun, cfg.engine);
            let clean_ok = matches!(clean.result, Ok((true, _)));
            (ctx, clean_ok)
        });
    // Under rollback the checkpoint intervals are swept as an extra cell
    // axis; under rerun there is a single interval-less pseudo-entry, so
    // the cell count and seed derivation match the pre-checkpoint runner.
    let intervals: Vec<Option<usize>> = match cfg.recovery {
        RecoveryMode::Rerun => vec![None],
        RecoveryMode::Rollback => cfg.checkpoint_every.iter().map(|&e| Some(e.max(1))).collect(),
    };
    // Enumerate every cell in the fixed sweep order, then execute them in
    // parallel; `par_map` returns results in enumeration order, so the
    // trial list (and everything derived from it) is schedule-independent.
    let mut cells = Vec::new();
    for (app, (ctx, clean_ok)) in apps.iter().zip(&contexts) {
        let app_idx = CampaignApp::ALL.iter().position(|a| a == app).unwrap_or(0) as u64;
        for kind in &cfg.kinds {
            // Seeds key on the kind's position in the full catalogue, not
            // in the (possibly filtered) sweep list, so `--kind` filters
            // never change the seeds of the kinds that remain.
            let kind_idx = FaultKind::ALL.iter().position(|k| k == kind).unwrap_or(0) as u64;
            for &rate_ppm in &cfg.rates_ppm {
                for (ck_idx, &interval) in intervals.iter().enumerate() {
                    for t in 0..cfg.trials_per_cell {
                        // The interval term vanishes at index 0, so a
                        // single-interval rollback sweep (and every rerun
                        // sweep) keeps the historical per-kind seeds.
                        let seed = trial_seed(cfg.seed, app_idx, kind_idx, rate_ppm, t)
                            ^ (ck_idx as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25);
                        // Stream/window faults inject at most once (a
                        // precise, attributable upset); AXI faults run
                        // unbounded so the retry model sees the full
                        // failure population.
                        let plan = match kind {
                            FaultKind::AxiDelay | FaultKind::AxiFail => {
                                FaultPlan { seed, kind: *kind, rate_ppm, max_injections: 0 }
                            }
                            _ => FaultPlan::single(seed, *kind, rate_ppm),
                        };
                        let mode = match interval {
                            None => TrialMode::Rerun,
                            Some(checkpoint_every) => TrialMode::Rollback {
                                checkpoint_every,
                                max_retries: cfg.max_retries,
                            },
                        };
                        let ctx = ctx.as_ref();
                        cells.push(Cell { ctx, app: *app, plan, clean_ok: *clean_ok, mode });
                    }
                }
            }
        }
    }
    let trials = sf_par::par_map(cfg.jobs, cells, |_, cell| {
        let run = cell.ctx.trial(cell.plan, &policy, cell.mode, cfg.engine);
        classify(cell.app, &run, &cell.plan, cell.clean_ok, cell.mode)
    });
    let injected: Vec<&Trial> = trials.iter().filter(|t| t.injected > 0).collect();
    let summary = Summary {
        trials: trials.len(),
        injected: injected.len(),
        detected_or_recovered: injected
            .iter()
            .filter(|t| t.detection != Detection::NotInjected && t.recovery != Recovery::Failed)
            .count(),
        silent_wrong: trials.iter().filter(|t| t.silent_wrong).count(),
        recovery_failed: trials.iter().filter(|t| t.recovery == Recovery::Failed).count(),
        sdc_detected: trials.iter().map(|t| t.sdc_detected).sum(),
        rollback_recovered: trials.iter().filter(|t| t.recovery == Recovery::Rollback).count(),
    };
    CampaignReport {
        campaign_seed: cfg.seed,
        rates_ppm: cfg.rates_ppm.clone(),
        trials_per_cell: cfg.trials_per_cell,
        recovery: cfg.recovery,
        checkpoint_every: match cfg.recovery {
            RecoveryMode::Rerun => Vec::new(),
            RecoveryMode::Rollback => intervals.iter().map(|i| i.unwrap_or(1)).collect(),
        },
        trials,
        summary,
    }
}

impl CampaignReport {
    /// Every injected fault was detected or recovered and no trial ended in
    /// a silent wrong answer — the campaign's acceptance invariant.
    pub fn all_accounted(&self) -> bool {
        self.summary.silent_wrong == 0
            && self.summary.recovery_failed == 0
            && self.summary.detected_or_recovered == self.summary.injected
    }

    /// Render the campaign as a fixed-width table plus a summary block.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        let recovery = match self.recovery {
            RecoveryMode::Rerun => "rerun".to_string(),
            RecoveryMode::Rollback => {
                format!("rollback (checkpoint every {:?} passes)", self.checkpoint_every)
            }
        };
        s.push_str(&format!(
            "fault campaign: seed {} | rates {:?} ppm | {} trials/cell | recovery {}\n\n",
            self.campaign_seed, self.rates_ppm, self.trials_per_cell, recovery
        ));
        s.push_str(&format!(
            "{:<10} {:<13} {:>9} {:>20} {:>4} {:<11} {:<13} {}\n",
            "app", "fault", "rate_ppm", "seed", "inj", "detection", "recovery", "diagnosis"
        ));
        for t in &self.trials {
            let mut detail = t.detail.clone();
            if detail.len() > 60 {
                detail.truncate(57);
                detail.push_str("...");
            }
            s.push_str(&format!(
                "{:<10} {:<13} {:>9} {:>20} {:>4} {:<11} {:<13} {}\n",
                t.app,
                t.kind,
                t.rate_ppm,
                t.seed,
                t.injected,
                t.detection.name(),
                t.recovery.name(),
                detail
            ));
        }
        s.push_str(&format!(
            "\ntrials {} | injected {} | detected-or-recovered {} | silent wrong {} | recovery failures {}\n",
            self.summary.trials,
            self.summary.injected,
            self.summary.detected_or_recovered,
            self.summary.silent_wrong,
            self.summary.recovery_failed
        ));
        if self.recovery == RecoveryMode::Rollback {
            s.push_str(&format!(
                "sdc detected by ABFT {} | recovered in-run via rollback {}\n",
                self.summary.sdc_detected, self.summary.rollback_recovered
            ));
        }
        s.push_str(if self.all_accounted() {
            "every injected fault detected or recovered; zero silent wrong answers\n"
        } else {
            "CAMPAIGN FAILED: unaccounted faults (see table)\n"
        });
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> CampaignConfig {
        CampaignConfig {
            seed: 42,
            rates_ppm: vec![1_000_000],
            trials_per_cell: 1,
            jobs: 1,
            ..CampaignConfig::default()
        }
    }

    /// The acceptance configuration: SDC + FIFO-corruption kinds under the
    /// rollback policy at the default checkpoint interval.
    fn rollback_cfg() -> CampaignConfig {
        CampaignConfig {
            recovery: RecoveryMode::Rollback,
            checkpoint_every: vec![4],
            kinds: vec![
                FaultKind::BitFlip,
                FaultKind::FifoCorrupt,
                FaultKind::FifoDrop,
                FaultKind::FifoDup,
            ],
            ..quick_cfg()
        }
    }

    #[test]
    fn campaign_designs_pass_preflight() {
        // the campaign exercises *runtime* detection of injected faults;
        // its fixed designs must be statically clean so every diagnostic
        // the CLI prints afterwards is attributable to the injection
        for (app, rep) in preflight(&CampaignApp::ALL) {
            assert!(!rep.has_errors(), "{}: {}", app.name(), rep.render());
        }
    }

    #[test]
    fn app_names_parse_with_aliases() {
        assert_eq!(CampaignApp::parse("poisson2d"), Some(CampaignApp::Poisson2D));
        assert_eq!(CampaignApp::parse("poisson"), Some(CampaignApp::Poisson2D));
        assert_eq!(CampaignApp::parse("jacobi3d"), Some(CampaignApp::Jacobi3D));
        assert_eq!(CampaignApp::parse("rtm"), Some(CampaignApp::Rtm3D));
        assert_eq!(CampaignApp::parse("fft"), None);
        for a in CampaignApp::ALL {
            assert_eq!(CampaignApp::parse(a.name()), Some(a));
        }
    }

    #[test]
    fn poisson_campaign_accounts_for_every_fault() {
        let rep = run_campaign(&[CampaignApp::Poisson2D], &quick_cfg());
        assert_eq!(rep.summary.trials, FaultKind::ALL.len());
        assert!(rep.summary.injected > 0, "saturation rate must inject");
        assert!(rep.all_accounted(), "{}", rep.render_table());
        // At saturation every stream/window kind injects and is caught.
        for t in &rep.trials {
            assert!(t.injected > 0, "rate 1e6 ppm must inject for {}", t.kind);
            assert!(!t.silent_wrong);
        }
    }

    #[test]
    fn campaign_is_deterministic_for_a_seed() {
        let all = CampaignApp::ALL;
        let r1 = run_campaign(&all, &quick_cfg());
        let r2 = run_campaign(&all, &quick_cfg());
        assert_eq!(r1.render_table(), r2.render_table());
        assert_eq!(serde_json::to_string(&r1).unwrap(), serde_json::to_string(&r2).unwrap());
    }

    #[test]
    fn campaign_is_jobs_invariant() {
        let apps = [CampaignApp::Poisson2D, CampaignApp::Jacobi3D];
        let serial = run_campaign(&apps, &quick_cfg());
        for jobs in [2, 4] {
            let par = run_campaign(&apps, &CampaignConfig { jobs, ..quick_cfg() });
            assert_eq!(par.render_table(), serial.render_table(), "jobs={jobs}");
            assert_eq!(
                serde_json::to_string(&par).unwrap(),
                serde_json::to_string(&serial).unwrap(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn different_seeds_change_the_schedule() {
        let cfg_a = quick_cfg();
        let cfg_b = CampaignConfig { seed: 43, ..quick_cfg() };
        let r_a = run_campaign(&[CampaignApp::Poisson2D], &cfg_a);
        let r_b = run_campaign(&[CampaignApp::Poisson2D], &cfg_b);
        let seeds_a: Vec<u64> = r_a.trials.iter().map(|t| t.seed).collect();
        let seeds_b: Vec<u64> = r_b.trials.iter().map(|t| t.seed).collect();
        assert_ne!(seeds_a, seeds_b);
    }

    #[test]
    fn rollback_recovers_at_least_90pct_of_detected_faults() {
        // The ISSUE acceptance criterion: on the SDC + FIFO-corruption
        // campaign with `--recovery rollback --checkpoint-every 4`, at
        // least 90 % of injected-and-detected faults recover in-run via
        // checkpoint rollback (no clean rerun needed).
        let rep = run_campaign(&CampaignApp::ALL, &rollback_cfg());
        assert!(rep.all_accounted(), "{}", rep.render_table());
        let detected: Vec<&Trial> = rep
            .trials
            .iter()
            .filter(|t| {
                t.injected > 0 && !matches!(t.detection, Detection::NotInjected | Detection::Masked)
            })
            .collect();
        assert!(!detected.is_empty(), "campaign must detect faults:\n{}", rep.render_table());
        let rolled = detected.iter().filter(|t| t.recovery == Recovery::Rollback).count();
        assert!(
            rolled * 10 >= detected.len() * 9,
            "only {rolled}/{} detected faults recovered via rollback:\n{}",
            detected.len(),
            rep.render_table()
        );
        assert!(rep.summary.sdc_detected > 0, "ABFT must catch the bit-flips");
        assert_eq!(rep.summary.rollback_recovered, rolled);
        // Rolled-back trials expose the recovery accounting the report
        // layer aggregates.
        for t in detected.iter().filter(|t| t.recovery == Recovery::Rollback) {
            assert!(t.rollbacks > 0, "{t:?}");
            assert!(t.recovery_cycles > 0, "{t:?}");
            assert!(t.overhead_cycles >= t.recovery_cycles, "{t:?}");
            assert_eq!(t.checkpoint_every, 4, "{t:?}");
        }
    }

    #[test]
    fn rollback_campaign_is_deterministic_and_jobs_invariant() {
        let apps = [CampaignApp::Poisson2D];
        let r1 = run_campaign(&apps, &rollback_cfg());
        let r2 = run_campaign(&apps, &rollback_cfg());
        assert_eq!(r1.render_table(), r2.render_table());
        assert_eq!(serde_json::to_string(&r1).unwrap(), serde_json::to_string(&r2).unwrap());
        for jobs in [2, 4] {
            let par = run_campaign(&apps, &CampaignConfig { jobs, ..rollback_cfg() });
            assert_eq!(
                serde_json::to_string(&par).unwrap(),
                serde_json::to_string(&r1).unwrap(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn campaign_is_engine_invariant() {
        // `--exec scalar` and `--exec fast` must produce byte-identical
        // campaign reports — detections, seeds, cycle accounting, JSON.
        let apps = [CampaignApp::Poisson2D];
        let fast = run_campaign(&apps, &rollback_cfg());
        let scalar =
            run_campaign(&apps, &CampaignConfig { engine: ExecEngine::Scalar, ..rollback_cfg() });
        assert_eq!(fast.render_table(), scalar.render_table());
        assert_eq!(serde_json::to_string(&fast).unwrap(), serde_json::to_string(&scalar).unwrap());
    }

    #[test]
    fn checkpoint_interval_sweep_trades_overhead_for_recovery_time() {
        // A shorter interval loses fewer passes per rollback: the replay
        // (recovery) cycles of the interval-1 trial must undercut the
        // interval-4 trial for the same injected bit-flip.
        let cfg = CampaignConfig {
            recovery: RecoveryMode::Rollback,
            checkpoint_every: vec![1, 4],
            kinds: vec![FaultKind::BitFlip],
            ..quick_cfg()
        };
        let rep = run_campaign(&[CampaignApp::Poisson2D], &cfg);
        assert!(rep.all_accounted(), "{}", rep.render_table());
        assert_eq!(rep.summary.trials, 2);
        let short = rep.trials.iter().find(|t| t.checkpoint_every == 1).unwrap();
        let long = rep.trials.iter().find(|t| t.checkpoint_every == 4).unwrap();
        assert_eq!(short.recovery, Recovery::Rollback, "{}", rep.render_table());
        assert_eq!(long.recovery, Recovery::Rollback, "{}", rep.render_table());
        assert!(
            short.recovery_cycles < long.recovery_cycles,
            "interval 1 must replay fewer cycles than interval 4:\n{}",
            rep.render_table()
        );
    }

    #[test]
    fn axi_backoff_schedules_are_jobs_invariant() {
        // The retry/backoff schedule (per-burst attempts and backoff
        // cycles) is a pure function of the injector seed; fanning the
        // seed population across the worker pool must reproduce the
        // serial schedule element for element.
        use sf_fpga::{AxiVerdict, FaultInjector, FaultKind, FaultPlan, RetryPolicy};
        let seeds: Vec<u64> = (0u64..64).map(|i| 0x5EED ^ (i << 7)).collect();
        let schedule = |jobs: usize| -> Vec<Vec<(u32, u64)>> {
            sf_par::par_map(jobs, seeds.clone(), |_, seed| {
                let policy = RetryPolicy::default();
                let plan = FaultPlan {
                    seed,
                    kind: FaultKind::AxiFail,
                    rate_ppm: 500_000,
                    max_injections: 0,
                };
                let mut inj = FaultInjector::new(plan);
                (0..32)
                    .map(|burst| match inj.axi_burst(burst, &policy) {
                        AxiVerdict::Ok => (0, 0),
                        AxiVerdict::Recovered { attempts, extra_cycles } => {
                            (attempts, extra_cycles)
                        }
                        AxiVerdict::Exhausted { attempts } => (attempts, u64::MAX),
                    })
                    .collect()
            })
        };
        let serial = schedule(1);
        assert!(
            serial.iter().flatten().any(|&(a, _)| a > 0),
            "the seed population must exercise the retry model"
        );
        for jobs in [2, 4] {
            assert_eq!(schedule(jobs), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn kind_filter_preserves_per_kind_seeds() {
        // Filtering the kind list must not renumber the surviving kinds'
        // seeds: a bit-flip-only campaign reproduces the bit-flip row of
        // the full sweep exactly.
        let full = run_campaign(&[CampaignApp::Poisson2D], &quick_cfg());
        let only = CampaignConfig { kinds: vec![FaultKind::BitFlip], ..quick_cfg() };
        let filtered = run_campaign(&[CampaignApp::Poisson2D], &only);
        assert_eq!(filtered.trials.len(), 1);
        let bitflip_full = full.trials.iter().find(|t| t.kind == "bitflip").unwrap();
        assert_eq!(filtered.trials[0].seed, bitflip_full.seed);
        assert_eq!(filtered.trials[0].detection, bitflip_full.detection);
    }

    #[test]
    fn a_fault_free_trial_that_goes_wrong_is_silent_wrong() {
        let plan = FaultPlan::single(5, FaultKind::BitFlip, 50_000);
        let mode = TrialMode::Rollback { checkpoint_every: 2, max_retries: 3 };
        let classify_run = |result: Result<(bool, u64), ExecError>, rollbacks: u64| {
            let stats = RecoveryStats { rollbacks, ..RecoveryStats::default() };
            let run = TrialRun {
                result,
                injected: 0,
                opportunities: 24,
                clean_cycles: 1000,
                axi_recovered: 0,
                stats,
            };
            classify(CampaignApp::Poisson2D, &run, &plan, true, mode)
        };
        let clean = classify_run(Ok((true, 1000)), 0);
        assert_eq!((clean.detection, clean.silent_wrong), (Detection::NotInjected, false));
        let error = ExecError::Unsupported { detail: "stale window".to_string() };
        for t in [
            classify_run(Ok((false, 1000)), 0),
            classify_run(Ok((true, 1000)), 1),
            classify_run(Err(error), 0),
        ] {
            assert!(t.silent_wrong, "{t:?}");
        }
    }

    #[test]
    fn expected_detectors_fire_per_kind() {
        let rep = run_campaign(&[CampaignApp::Jacobi3D], &quick_cfg());
        for t in &rep.trials {
            match FaultKind::parse(t.kind).unwrap() {
                FaultKind::FifoDrop => assert_eq!(t.detection, Detection::Watchdog, "{t:?}"),
                FaultKind::BitFlip | FaultKind::FifoCorrupt => {
                    assert_eq!(t.detection, Detection::Checksum, "{t:?}")
                }
                // AXI faults surface either through the retry counters
                // (typed exhaustion or in-run recovery within the model's
                // envelope) or, when the backoff blows the cycle budget,
                // through the divergence monitor.
                FaultKind::AxiDelay | FaultKind::AxiFail => assert!(
                    matches!(t.detection, Detection::AxiRetry | Detection::Divergence),
                    "{t:?}"
                ),
                // A dup on the final stream unit can be discarded at the
                // full FIFO — masked is legitimate there.
                FaultKind::FifoDup => {
                    assert!(matches!(t.detection, Detection::Checksum | Detection::Masked), "{t:?}")
                }
            }
        }
    }
}
