//! Structured diagnostics: rule identifiers, severities, and the report a
//! check run produces.
//!
//! Every rule the analyzer applies has a stable [`RuleId`] with a short code
//! (`SFC-…`) and a pointer to the paper equation or mechanism it encodes, so
//! diagnostics are greppable across the CLI, CI logs and JSON output.

use serde::{Deserialize, Serialize};
use sf_fpga::design::{ExecMode, MemKind, Workload};

/// Identity of a design rule. The code is stable across releases; the
/// variant name is what serializes into `--json` output.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RuleId {
    /// `SFC-P01` — `V` and `p` must be positive.
    InvalidParam,
    /// `SFC-P02` — execution mode / stencil / workload dimensionality agree.
    DimsMismatch,
    /// `SFC-W01` — window buffers must cover the stencil reach (`D` stream
    /// units per stage; rows at least as wide as the footprint).
    WindowReach,
    /// `SFC-W02` — quantized window buffers + stream FIFOs must fit the
    /// on-chip BRAM/URAM pools (paper eq. 7).
    WindowCapacity,
    /// `SFC-F01` — every dataflow-graph FIFO must absorb one full AXI burst
    /// while its consumer fills; shallower depths wedge the pipeline (the
    /// static dual of the runtime watchdog).
    FifoDeadlock,
    /// `SFC-F02` — FIFO depth below the two-bursts-of-slack sizing rule:
    /// deadlock-free but the producer stalls on every burst refill.
    FifoSlack,
    /// `SFC-R01` — loop-carried RAW hazard: the unrolled iterative pipeline
    /// keeps `p` iteration passes in flight; the streaming extent must
    /// exceed that or iteration `i+p` would read rows iteration `i` has not
    /// written back.
    RawHazard,
    /// `SFC-T01` — tiles must exceed twice the halo `p·stages·⌈D/2⌉`
    /// (paper eq. 8).
    TileHalo,
    /// `SFC-T02` — tile larger than the mesh extent it blocks (wasteful;
    /// the executor clamps, redundant halo is still streamed).
    TileHalo2,
    /// `SFC-T03` — tile below the paper's `M ≥ 3·D·p` throughput guideline
    /// (eq. 12): halo overhead dominates the useful work.
    TileThroughput,
    /// `SFC-T04` — tile width not a multiple of `V`: vector lanes straddle
    /// the tile boundary and need realignment logic.
    VectorAlignment,
    /// `SFC-S01` — DSP demand `p·V·G_dsp` exceeds the device (paper eq. 6).
    DspOversubscribed,
    /// `SFC-S02` — estimated LUT/FF demand exceeds the fabric.
    FabricOversubscribed,
    /// `SFC-S03` — the module chain cannot be floorplanned onto the SLRs.
    SlrOverflow,
    /// `SFC-S04` — a single module is too large for one SLR and must span
    /// regions (inter-SLR routing congestion derates the clock).
    SlrSpanning,
    /// `SFC-B01` — vectorization exceeds the memory channels per direction
    /// (paper eq. 4).
    BandwidthChannels,
    /// `SFC-B02` — the workload's ping-pong buffers exceed external memory.
    ExternalCapacity,
    /// `SFC-K01` — the kernel's *extracted* access footprint (probe
    /// execution of the real update function) is not covered by the spec's
    /// declared reach `D/2`: window buffers sized from the spec would feed
    /// the datapath evicted cells.
    KernelFootprint,
    /// `SFC-K02` — the op tally counted by abstract interpretation of the
    /// kernel disagrees with the spec's `flops_per_cell()`/`G_dsp` beyond
    /// tolerance: every eq. 5/6 sizing decision is built on drifted inputs.
    KernelOpCount,
    /// `SFC-K03` — interval analysis over the assumed input range reaches a
    /// non-finite value (overflow past `f32::MAX` or NaN) in one stencil
    /// application.
    KernelNonFinite,
    /// `SFC-K04` — the kernel divides by a value whose interval contains
    /// zero: division-by-zero is statically reachable.
    KernelDivByZero,
    /// `SFC-K05` — von Neumann analysis of the linear constant-coefficient
    /// kernel bounds the symbol's max amplification above 1: the iterative
    /// configuration (unroll `p` per pass) diverges, so simulating it wastes
    /// every cycle.
    KernelUnstable,
    /// `SFC-X01` — multi-device shard legality: every slab of the 1D
    /// decomposition must own at least the halo depth `p·stages·⌈D/2⌉` of
    /// outermost units, or a pass would need halo data from beyond its
    /// direct neighbours and the neighbour-only exchange model breaks.
    ShardHalo,
}

impl RuleId {
    /// Stable short code for logs and human output.
    pub fn code(&self) -> &'static str {
        match self {
            RuleId::InvalidParam => "SFC-P01",
            RuleId::DimsMismatch => "SFC-P02",
            RuleId::WindowReach => "SFC-W01",
            RuleId::WindowCapacity => "SFC-W02",
            RuleId::FifoDeadlock => "SFC-F01",
            RuleId::FifoSlack => "SFC-F02",
            RuleId::RawHazard => "SFC-R01",
            RuleId::TileHalo => "SFC-T01",
            RuleId::TileHalo2 => "SFC-T02",
            RuleId::TileThroughput => "SFC-T03",
            RuleId::VectorAlignment => "SFC-T04",
            RuleId::DspOversubscribed => "SFC-S01",
            RuleId::FabricOversubscribed => "SFC-S02",
            RuleId::SlrOverflow => "SFC-S03",
            RuleId::SlrSpanning => "SFC-S04",
            RuleId::BandwidthChannels => "SFC-B01",
            RuleId::ExternalCapacity => "SFC-B02",
            RuleId::KernelFootprint => "SFC-K01",
            RuleId::KernelOpCount => "SFC-K02",
            RuleId::KernelNonFinite => "SFC-K03",
            RuleId::KernelDivByZero => "SFC-K04",
            RuleId::KernelUnstable => "SFC-K05",
            RuleId::ShardHalo => "SFC-X01",
        }
    }

    /// The paper equation / mechanism the rule encodes (for the catalogue).
    pub fn reference(&self) -> &'static str {
        match self {
            RuleId::InvalidParam => "design domain",
            RuleId::DimsMismatch => "§IV-A blocking modes",
            RuleId::WindowReach => "§III window buffers (D stream units)",
            RuleId::WindowCapacity => "eq. (7)",
            RuleId::FifoDeadlock => "§III FIFO burst reuse / PR 2 watchdog",
            RuleId::FifoSlack => "interstage sizing rule (2 bursts)",
            RuleId::RawHazard => "§III-A iterative unroll dependency",
            RuleId::TileHalo => "eq. (8)",
            RuleId::TileHalo2 => "§IV-A tiling",
            RuleId::TileThroughput => "eq. (12)",
            RuleId::VectorAlignment => "§III-A vectorization",
            RuleId::DspOversubscribed => "eq. (6)",
            RuleId::FabricOversubscribed => "fabric estimate",
            RuleId::SlrOverflow => "§III SLR floorplan",
            RuleId::SlrSpanning => "§V-C SLR spanning",
            RuleId::BandwidthChannels => "eq. (4)",
            RuleId::ExternalCapacity => "external capacity",
            RuleId::KernelFootprint => "eq. (7) window reach vs probe footprint",
            RuleId::KernelOpCount => "eqs. (5)/(6) G_dsp inputs vs counted ops",
            RuleId::KernelNonFinite => "interval analysis (one application)",
            RuleId::KernelDivByZero => "interval analysis (divisor range)",
            RuleId::KernelUnstable => "von Neumann symbol max|g(θ)| ≤ 1",
            RuleId::ShardHalo => "sf-multi slab decomposition / halo exchange",
        }
    }

    /// Every rule in the catalogue, in code order.
    pub const ALL: [RuleId; 23] = [
        RuleId::InvalidParam,
        RuleId::DimsMismatch,
        RuleId::WindowReach,
        RuleId::WindowCapacity,
        RuleId::FifoDeadlock,
        RuleId::FifoSlack,
        RuleId::RawHazard,
        RuleId::TileHalo,
        RuleId::TileHalo2,
        RuleId::TileThroughput,
        RuleId::VectorAlignment,
        RuleId::DspOversubscribed,
        RuleId::FabricOversubscribed,
        RuleId::SlrOverflow,
        RuleId::SlrSpanning,
        RuleId::BandwidthChannels,
        RuleId::ExternalCapacity,
        RuleId::KernelFootprint,
        RuleId::KernelOpCount,
        RuleId::KernelNonFinite,
        RuleId::KernelDivByZero,
        RuleId::KernelUnstable,
        RuleId::ShardHalo,
    ];

    /// Resolve a short code (`SFC-…`, case-insensitive) to its rule.
    pub fn from_code(code: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.code().eq_ignore_ascii_case(code.trim()))
    }

    /// The severity the rule fires at (kernel range rules are heuristic —
    /// they depend on the assumed input range — and warn; everything else
    /// that fires at all is either an error or a named warning).
    pub fn default_severity(&self) -> Severity {
        match self {
            RuleId::FifoSlack
            | RuleId::TileHalo2
            | RuleId::TileThroughput
            | RuleId::VectorAlignment
            | RuleId::SlrSpanning
            | RuleId::KernelNonFinite
            | RuleId::KernelDivByZero => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// One-line description for the catalogue.
    pub fn summary(&self) -> &'static str {
        match self {
            RuleId::InvalidParam => "vectorization V and unroll p must be positive",
            RuleId::DimsMismatch => "execution mode, stencil and workload dimensionality agree",
            RuleId::WindowReach => "window buffers must cover the stencil reach (D stream units)",
            RuleId::WindowCapacity => "quantized window buffers + FIFOs must fit BRAM/URAM",
            RuleId::FifoDeadlock => "every FIFO must absorb one full AXI burst (static deadlock)",
            RuleId::FifoSlack => "FIFO depth below the two-bursts-of-slack sizing rule",
            RuleId::RawHazard => "p in-flight passes must not outrun the streaming extent",
            RuleId::TileHalo => "tiles must exceed twice the halo p·stages·⌈D/2⌉",
            RuleId::TileHalo2 => "tile larger than the mesh extent it blocks",
            RuleId::TileThroughput => "tile below the M ≥ 3·D·p throughput guideline",
            RuleId::VectorAlignment => "tile width must be a multiple of V",
            RuleId::DspOversubscribed => "DSP demand p·V·G_dsp exceeds the device",
            RuleId::FabricOversubscribed => "estimated LUT/FF demand exceeds the fabric",
            RuleId::SlrOverflow => "the module chain cannot be floorplanned onto the SLRs",
            RuleId::SlrSpanning => "a module exceeds one SLR and must span regions",
            RuleId::BandwidthChannels => "V exceeds the memory channels per direction",
            RuleId::ExternalCapacity => "ping-pong buffers exceed external memory",
            RuleId::KernelFootprint => {
                "extracted kernel footprint exceeds the spec's declared reach"
            }
            RuleId::KernelOpCount => "counted kernel ops drift from the declared flops/G_dsp",
            RuleId::KernelNonFinite => "NaN/overflow statically reachable in one application",
            RuleId::KernelDivByZero => "division by an interval containing zero is reachable",
            RuleId::KernelUnstable => "von Neumann-unstable iterative configuration",
            RuleId::ShardHalo => "every device shard must own at least the halo depth",
        }
    }

    /// How to fix a firing of this rule, for the catalogue.
    pub fn fix_guidance(&self) -> &'static str {
        match self {
            RuleId::InvalidParam => "choose V ≥ 1 and p ≥ 1",
            RuleId::DimsMismatch => "match the blocking mode to the workload dimensionality",
            RuleId::WindowReach => "widen the mesh/tile or size the buffers for the full unit",
            RuleId::WindowCapacity => "reduce p, tile the mesh, or lower V",
            RuleId::FifoDeadlock => "deepen every stream FIFO to at least one AXI burst",
            RuleId::FifoSlack => "deepen the stream FIFOs to the two-burst sizing rule",
            RuleId::RawHazard => "reduce p below the streaming extent or grow the mesh",
            RuleId::TileHalo => "grow the tile above 2·p·stages·⌈D/2⌉ cells or reduce p",
            RuleId::TileHalo2 => "clamp the tile to the extent or drop tiling",
            RuleId::TileThroughput => "grow the tile to at least 3·D·p cells",
            RuleId::VectorAlignment => "round the tile to a multiple of V",
            RuleId::DspOversubscribed => "reduce p·V below the device DSP budget",
            RuleId::FabricOversubscribed => "reduce p·V or simplify the per-cell arithmetic",
            RuleId::SlrOverflow => "reduce p, or shrink the per-module window footprint",
            RuleId::SlrSpanning => "reduce V so one module fits an SLR",
            RuleId::BandwidthChannels => "reduce V or switch the memory binding",
            RuleId::ExternalCapacity => "shrink the mesh/batch or use the larger memory",
            RuleId::KernelFootprint => {
                "raise the spec's order to 2× the probed radius (or fix the kernel's reads)"
            }
            RuleId::KernelOpCount => {
                "regenerate the spec's OpCount from the kernel (the probe tally is the truth)"
            }
            RuleId::KernelNonFinite => "rescale coefficients or tighten the documented input range",
            RuleId::KernelDivByZero => "guard the divisor away from zero or add an epsilon",
            RuleId::KernelUnstable => {
                "shrink the time step / coefficients until max|g| ≤ 1, or reduce p"
            }
            RuleId::ShardHalo => {
                "reduce the device count, reduce p (the halo is p·stages·⌈D/2⌉), or grow the mesh"
            }
        }
    }

    /// Render the full catalogue entry for `--explain`.
    pub fn explain(&self) -> String {
        let sev = match self.default_severity() {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        format!(
            "{code}  [{sev}]\n  rule     : {summary}\n  governs  : {reference}\n  fix      : {fix}\n",
            code = self.code(),
            summary = self.summary(),
            reference = self.reference(),
            fix = self.fix_guidance(),
        )
    }
}

impl core::fmt::Display for RuleId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.code())
    }
}

/// How bad a finding is.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// The design is illegal: it will fail synthesis or wedge the pipeline.
    Error,
    /// The design works but leaves performance or margin on the table.
    Warning,
}

/// One finding from one rule, anchored to a dataflow-graph location.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// Error or warning.
    pub severity: Severity,
    /// Where in the dataflow graph (node/edge label, or `design` for
    /// whole-design findings).
    pub location: String,
    /// What is wrong, with the numbers that prove it.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

impl core::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(f, "{sev:<7} {} [{}] {}", self.rule.code(), self.location, self.message)
    }
}

/// Everything one check run produced.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CheckReport {
    /// Device the design was checked against.
    pub device: String,
    /// Application name.
    pub app: String,
    /// Vectorization factor checked.
    pub v: usize,
    /// Unroll factor checked.
    pub p: usize,
    /// Execution mode checked.
    pub mode: ExecMode,
    /// External memory binding.
    pub mem: MemKind,
    /// Workload the design targets.
    pub workload: Workload,
    /// Nodes in the constructed dataflow graph.
    pub graph_nodes: usize,
    /// FIFO edges in the constructed dataflow graph.
    pub graph_edges: usize,
    /// All findings, errors first.
    pub diagnostics: Vec<Diagnostic>,
}

impl CheckReport {
    /// `true` if any diagnostic is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// Rule ids that fired, in order.
    pub fn fired_rules(&self) -> Vec<RuleId> {
        self.diagnostics.iter().map(|d| d.rule).collect()
    }

    /// `true` if the given rule fired at any severity.
    pub fn fired(&self, rule: RuleId) -> bool {
        self.diagnostics.iter().any(|d| d.rule == rule)
    }

    /// Deterministically order the diagnostics: errors first, then by rule
    /// code, then by graph location, then by message. Rule evaluation order
    /// (and any later merging of kernel-analysis findings) therefore never
    /// shows through `--json` output — it is byte-stable.
    pub fn sort_diagnostics(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            a.severity
                .cmp(&b.severity)
                .then_with(|| a.rule.code().cmp(b.rule.code()))
                .then_with(|| a.location.cmp(&b.location))
                .then_with(|| a.message.cmp(&b.message))
        });
    }

    /// Merge extra findings (e.g. kernel-analysis K-rules) into the report,
    /// restoring the deterministic order.
    pub fn extend_diagnostics(&mut self, extra: impl IntoIterator<Item = Diagnostic>) {
        self.diagnostics.extend(extra);
        self.sort_diagnostics();
    }

    /// Convert into a `Result`: `Err` carries the report when any rule
    /// fired at error severity.
    pub fn into_result(self) -> Result<CheckReport, CheckError> {
        if self.has_errors() {
            Err(CheckError { report: Box::new(self) })
        } else {
            Ok(self)
        }
    }

    /// Human-readable rendering, errors first.
    pub fn render(&self) -> String {
        use core::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "sf-check: {} V={} p={} {:?} on {:?} ({})",
            self.app, self.v, self.p, self.mode, self.workload, self.device
        );
        let _ = writeln!(
            s,
            "dataflow graph: {} nodes, {} FIFO edges",
            self.graph_nodes, self.graph_edges
        );
        if self.diagnostics.is_empty() {
            let _ = writeln!(s, "ok: no design-rule violations");
            return s;
        }
        for sev in [Severity::Error, Severity::Warning] {
            for d in self.diagnostics.iter().filter(|d| d.severity == sev) {
                let _ = writeln!(s, "  {d}");
                if !d.hint.is_empty() {
                    let _ = writeln!(s, "          fix: {}", d.hint);
                }
            }
        }
        let _ = writeln!(s, "{} error(s), {} warning(s)", self.error_count(), self.warning_count());
        s
    }
}

/// A check run that found at least one error-severity violation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CheckError {
    /// The full report, warnings included. Boxed so error enums that embed
    /// a `CheckError` stay pointer-sized on their happy paths.
    pub report: Box<CheckReport>,
}

impl core::fmt::Display for CheckError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let errs: Vec<&Diagnostic> = self.report.errors().collect();
        write!(f, "{} design-rule error(s):", errs.len())?;
        for d in errs {
            write!(f, " [{} {}]", d.rule.code(), d.message)?;
        }
        Ok(())
    }
}

impl std::error::Error for CheckError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(diags: Vec<Diagnostic>) -> CheckReport {
        CheckReport {
            device: "test".into(),
            app: "Poisson-5pt-2D".into(),
            v: 8,
            p: 4,
            mode: ExecMode::Baseline,
            mem: MemKind::Hbm,
            workload: Workload::D2 { nx: 40, ny: 40, batch: 1 },
            graph_nodes: 6,
            graph_edges: 5,
            diagnostics: diags,
        }
    }

    fn diag(rule: RuleId, severity: Severity) -> Diagnostic {
        Diagnostic {
            rule,
            severity,
            location: "design".into(),
            message: "msg".into(),
            hint: "hint".into(),
        }
    }

    #[test]
    fn codes_are_unique_and_stable() {
        let all = RuleId::ALL;
        let mut codes: Vec<&str> = all.iter().map(|r| r.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len(), "duplicate rule code");
        for r in all {
            assert!(r.code().starts_with("SFC-"));
            assert!(!r.reference().is_empty());
            assert!(!r.summary().is_empty());
            assert!(!r.fix_guidance().is_empty());
            assert_eq!(RuleId::from_code(r.code()), Some(r), "{} resolves", r.code());
        }
        assert!(all.contains(&RuleId::KernelFootprint));
        assert_eq!(RuleId::KernelUnstable.code(), "SFC-K05");
    }

    #[test]
    fn from_code_is_case_insensitive_and_total() {
        assert_eq!(RuleId::from_code("sfc-k01"), Some(RuleId::KernelFootprint));
        assert_eq!(RuleId::from_code(" SFC-F01 "), Some(RuleId::FifoDeadlock));
        assert_eq!(RuleId::from_code("SFC-Z99"), None);
    }

    #[test]
    fn explain_renders_every_rule() {
        for r in RuleId::ALL {
            let e = r.explain();
            assert!(e.contains(r.code()), "{e}");
            assert!(e.contains("fix"), "{e}");
        }
        assert!(RuleId::KernelUnstable.explain().contains("max|g"));
    }

    #[test]
    fn sort_is_deterministic_regardless_of_insertion_order() {
        let a = vec![
            diag(RuleId::FifoSlack, Severity::Warning),
            diag(RuleId::KernelUnstable, Severity::Error),
            diag(RuleId::DspOversubscribed, Severity::Error),
            diag(RuleId::KernelNonFinite, Severity::Warning),
        ];
        let mut b = a.clone();
        b.reverse();
        let mut ra = report_with(a);
        let mut rb = report_with(b);
        ra.sort_diagnostics();
        rb.sort_diagnostics();
        assert_eq!(ra, rb);
        // errors first, then code order within a severity band
        let codes: Vec<&str> = ra.diagnostics.iter().map(|d| d.rule.code()).collect();
        assert_eq!(codes, vec!["SFC-K05", "SFC-S01", "SFC-F02", "SFC-K03"]);
        let json_a = serde_json::to_string(&ra).unwrap();
        let json_b = serde_json::to_string(&rb).unwrap();
        assert_eq!(json_a, json_b, "JSON must be byte-stable");
    }

    #[test]
    fn extend_diagnostics_restores_order() {
        let mut rep = report_with(vec![diag(RuleId::FifoSlack, Severity::Warning)]);
        rep.sort_diagnostics();
        rep.extend_diagnostics([diag(RuleId::KernelFootprint, Severity::Error)]);
        assert_eq!(rep.diagnostics[0].rule, RuleId::KernelFootprint);
        assert_eq!(rep.diagnostics[1].rule, RuleId::FifoSlack);
    }

    #[test]
    fn report_counts_and_result() {
        let clean = report_with(vec![]);
        assert!(!clean.has_errors());
        assert!(clean.clone().into_result().is_ok());
        assert!(clean.render().contains("ok: no design-rule violations"));

        let mixed = report_with(vec![
            diag(RuleId::FifoSlack, Severity::Warning),
            diag(RuleId::FifoDeadlock, Severity::Error),
        ]);
        assert!(mixed.has_errors());
        assert_eq!(mixed.error_count(), 1);
        assert_eq!(mixed.warning_count(), 1);
        assert!(mixed.fired(RuleId::FifoDeadlock));
        assert!(!mixed.fired(RuleId::RawHazard));
        let err = mixed.into_result().unwrap_err();
        let s = format!("{err}");
        assert!(s.contains("1 design-rule error"), "{s}");
        assert!(s.contains("SFC-F01"), "{s}");
    }

    #[test]
    fn render_orders_errors_first() {
        let rep = report_with(vec![
            diag(RuleId::FifoSlack, Severity::Warning),
            diag(RuleId::DspOversubscribed, Severity::Error),
        ]);
        let out = rep.render();
        let e = out.find("SFC-S01").unwrap();
        let w = out.find("SFC-F02").unwrap();
        assert!(e < w, "{out}");
    }

    #[test]
    fn diagnostics_roundtrip_serde() {
        let d = diag(RuleId::RawHazard, Severity::Error);
        let s = serde_json::to_string(&d).unwrap();
        let back: Diagnostic = serde_json::from_str(&s).unwrap();
        assert_eq!(back, d);
    }
}
