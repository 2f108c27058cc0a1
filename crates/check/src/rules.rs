//! The rule engine: a [`Design`] in, a [`CheckReport`] out, no simulation.
//!
//! Every rule re-derives its bound from the same formulas `sf_fpga`'s
//! synthesizer and executors use (eqs. 4–12 of the paper), so with default
//! overrides a check-clean design is guaranteed to synthesize, and the
//! FIFO-depth analysis is the static dual of the runtime watchdog: any
//! depth the deadlock rule accepts can absorb a full AXI burst and
//! therefore cannot wedge the stream pipeline.
//!
//! A check is cheap enough to run on every DSE candidate: the dataflow
//! graph is arithmetic, so nothing is allocated per chained stage and a
//! location label is formatted only for a diagnostic that is emitted.
//! Every product of `V` and `p` saturates, so an absurd unroll is an
//! over-budget finding (SFC-S01 and friends), never an overflow.

use crate::diag::{CheckReport, Diagnostic, RuleId, Severity};
use crate::graph::DataflowGraph;
use sf_fpga::design::{ExecMode, MemKind, StencilDesign, Workload};
use sf_fpga::{axi, fifo, resources, slr, FpgaDevice};
use sf_kernels::StencilSpec;

/// A candidate accelerator configuration, prior to (and independent of)
/// synthesis. The optional overrides let callers describe deliberately
/// out-of-spec structures — an undersized FIFO, a truncated window buffer —
/// that the default sizing rules would never produce, so violation classes
/// can be seeded and caught statically.
#[derive(Clone, Debug, PartialEq)]
pub struct Design {
    /// The stencil application.
    pub spec: StencilSpec,
    /// Vectorization factor `V`.
    pub v: usize,
    /// Iterative unroll factor `p`.
    pub p: usize,
    /// Execution strategy (baseline / batched / tiled).
    pub mode: ExecMode,
    /// External memory binding.
    pub mem: MemKind,
    /// Problem shape.
    pub workload: Workload,
    /// Override the per-edge stream-FIFO depth (elements). `None` uses the
    /// synthesizer's sizing rule ([`fifo::interstage_depth`]).
    pub fifo_depth: Option<usize>,
    /// Override the cells each window line/plane buffer holds. `None` uses
    /// the streaming unit implied by workload and mode.
    pub window_units: Option<usize>,
    /// Accelerator cards the workload is sharded across (`sf-multi` 1D slab
    /// decomposition). `1` — the single-device default — disables the
    /// multi-device legality rule (SFC-X01).
    pub devices: usize,
}

impl Design {
    /// A design with default (rule-sized) FIFO and window buffers.
    pub fn new(
        spec: StencilSpec,
        v: usize,
        p: usize,
        mode: ExecMode,
        mem: MemKind,
        workload: Workload,
    ) -> Self {
        Design { spec, v, p, mode, mem, workload, fifo_depth: None, window_units: None, devices: 1 }
    }

    /// The same design spread across `devices` accelerator cards.
    pub fn with_devices(mut self, devices: usize) -> Self {
        self.devices = devices;
        self
    }

    /// Re-describe an already-synthesized design for checking (always uses
    /// the default buffer sizing — that is what the synthesizer built).
    pub fn from_synthesized(d: &StencilDesign, workload: &Workload) -> Self {
        Design::new(d.spec, d.v, d.p, d.mode, d.mem, *workload)
    }
}

/// Cells in the buffered streaming unit (rows for 2D, planes for 3D,
/// shrunk by tiling) — mirrors the synthesizer's accounting. `None` when
/// mode and workload dimensionality disagree.
fn natural_unit_cells(mode: &ExecMode, wl: &Workload) -> Option<usize> {
    match (wl, mode) {
        (Workload::D2 { .. }, ExecMode::Tiled2D { .. }) => None,
        (Workload::D3 { .. }, ExecMode::Tiled1D { .. }) => None,
        (Workload::D2 { .. }, ExecMode::Tiled1D { tile_m }) => Some(*tile_m),
        (Workload::D2 { nx, .. }, _) => Some(*nx),
        (Workload::D3 { .. }, ExecMode::Tiled2D { tile_m, tile_n }) => Some(tile_m * tile_n),
        (Workload::D3 { nx, ny, .. }, _) => Some(nx * ny),
    }
}

/// Width (cells) of one streamed row in x — what the stencil footprint
/// must fit across.
fn unit_width_x(mode: &ExecMode, wl: &Workload) -> usize {
    match (mode, wl) {
        (ExecMode::Tiled1D { tile_m }, _) | (ExecMode::Tiled2D { tile_m, .. }, _) => *tile_m,
        (_, Workload::D2 { nx, .. }) | (_, Workload::D3 { nx, .. }) => *nx,
    }
}

fn diag(
    rule: RuleId,
    severity: Severity,
    location: impl Into<String>,
    message: String,
    hint: impl Into<String>,
) -> Diagnostic {
    Diagnostic { rule, severity, location: location.into(), message, hint: hint.into() }
}

/// Statically check a design against a device. Runs every rule, collects
/// every finding (errors first in the returned report), and never executes
/// a single simulated cycle.
pub fn check(dev: &FpgaDevice, d: &Design) -> CheckReport {
    let spec = &d.spec;
    let wl = &d.workload;
    let default_depth = fifo::interstage_depth(dev.axi_burst_bytes, d.v, spec.window_elem_bytes);
    let depth = d.fifo_depth.unwrap_or(default_depth);
    let graph = DataflowGraph::build(spec, d.p);
    let mut diags: Vec<Diagnostic> = Vec::new();

    let report = |diags: Vec<Diagnostic>| {
        let mut rep = CheckReport {
            device: dev.name.clone(),
            app: spec.app.to_string(),
            v: d.v,
            p: d.p,
            mode: d.mode,
            mem: d.mem,
            workload: *wl,
            graph_nodes: graph.node_count(),
            graph_edges: graph.edge_count(),
            diagnostics: diags,
        };
        // deterministic: errors first, then rule code, then location
        rep.sort_diagnostics();
        rep
    };

    // --- SFC-P01: parameter domain -------------------------------------
    if d.v == 0 || d.p == 0 {
        diags.push(diag(
            RuleId::InvalidParam,
            Severity::Error,
            "design",
            format!("V={} p={}: both must be positive", d.v, d.p),
            "choose V ≥ 1 and p ≥ 1",
        ));
        return report(diags);
    }

    // --- SFC-P02: dimensionality agreement -----------------------------
    if spec.dims != wl.dims() {
        diags.push(diag(
            RuleId::DimsMismatch,
            Severity::Error,
            "design",
            format!("{}D stencil applied to a {}D workload", spec.dims, wl.dims()),
            "match the workload dimensionality to the stencil",
        ));
    }
    match (wl.dims(), &d.mode) {
        (2, ExecMode::Tiled2D { .. }) => diags.push(diag(
            RuleId::DimsMismatch,
            Severity::Error,
            "design",
            "Tiled2D blocking on a 2D workload (Tiled2D tiles 3D meshes)".into(),
            "use Tiled1D for 2D workloads",
        )),
        (3, ExecMode::Tiled1D { .. }) => diags.push(diag(
            RuleId::DimsMismatch,
            Severity::Error,
            "design",
            "Tiled1D blocking on a 3D workload (Tiled1D tiles 2D meshes)".into(),
            "use Tiled2D for 3D workloads",
        )),
        _ => {}
    }
    if !diags.is_empty() {
        // downstream geometry is undefined on a dimensionality mismatch
        return report(diags);
    }

    // --- SFC-T01/T02/T03/T04: tile legality (eqs. 8, 12) ---------------
    let halo = spec.halo(d.p);
    let mut tiles: Vec<(&str, usize, usize)> = Vec::new();
    match d.mode {
        ExecMode::Tiled1D { tile_m } => tiles.push(("tile M", tile_m, wl.nx())),
        ExecMode::Tiled2D { tile_m, tile_n } => {
            let (Workload::D2 { ny, .. } | Workload::D3 { ny, .. }) = *wl;
            tiles.push(("tile M", tile_m, wl.nx()));
            tiles.push(("tile N", tile_n, ny));
        }
        _ => {}
    }
    let both_halos = halo.saturating_mul(2);
    let mut halo_violated = false;
    for &(name, t, extent) in &tiles {
        if t <= both_halos {
            halo_violated = true;
            diags.push(diag(
                RuleId::TileHalo,
                Severity::Error,
                "design",
                format!(
                    "{name}={t} does not exceed twice the halo h = p·stages·⌈D/2⌉ = {halo} \
                     (eq. 8): every cell of the tile would be redundant halo"
                ),
                format!("grow the tile above {both_halos} cells or reduce p"),
            ));
        }
        if t > extent {
            diags.push(diag(
                RuleId::TileHalo2,
                Severity::Warning,
                "design",
                format!(
                    "{name}={t} exceeds the mesh extent {extent}: the tile degenerates to the \
                         whole dimension and halo cells are streamed for nothing"
                ),
                format!("clamp the tile to {extent} or drop tiling in this dimension"),
            ));
        }
    }
    if let Some(&(name, t, _)) = tiles.iter().min_by_key(|&&(_, t, _)| t) {
        let guideline = spec.order.saturating_mul(3).saturating_mul(d.p);
        if !halo_violated && t < guideline {
            diags.push(diag(
                RuleId::TileThroughput,
                Severity::Warning,
                "design",
                format!(
                    "{name}={t} is below the paper's M ≥ 3·D·p = {guideline} throughput \
                     guideline (eq. 12): halo overhead will dominate useful work"
                ),
                format!("grow the tile to at least {guideline} cells"),
            ));
        }
    }
    if let Some(&(name, t, _)) = tiles.first() {
        if t % d.v != 0 {
            diags.push(diag(
                RuleId::VectorAlignment,
                Severity::Warning,
                "design",
                format!(
                    "{name}={t} is not a multiple of V={}: vector lanes straddle the tile \
                     boundary and need realignment logic",
                    d.v
                ),
                format!("round the tile to a multiple of {}", d.v),
            ));
        }
    }

    // --- SFC-B01/B02: memory system (eq. 4, capacity) -------------------
    let mem_spec = match d.mem {
        MemKind::Hbm => &dev.hbm,
        MemKind::Ddr4 => &dev.ddr4,
    };
    let read_ch = axi::channels_needed(dev, mem_spec, d.v, spec.ext_read_bytes);
    let write_ch = axi::channels_needed(dev, mem_spec, d.v, spec.ext_write_bytes);
    let have_ch = (mem_spec.channels / 2).max(1);
    if read_ch.max(write_ch) > have_ch {
        diags.push(diag(
            RuleId::BandwidthChannels,
            Severity::Error,
            "mem.read",
            format!(
                "V={} needs {} memory channels per direction (eq. 4), {:?} provides {have_ch}",
                d.v,
                read_ch.max(write_ch),
                d.mem
            ),
            "reduce V or switch the memory binding",
        ));
    }
    let resident = wl.total_cells() * (spec.ext_read_bytes + spec.ext_write_bytes) as u64;
    if resident > mem_spec.bytes {
        diags.push(diag(
            RuleId::ExternalCapacity,
            Severity::Error,
            "mem.read",
            format!(
                "workload needs {resident} B resident (ping-pong in+out), {:?} holds {} B",
                d.mem, mem_spec.bytes
            ),
            "shrink the mesh/batch or use the larger memory",
        ));
    }

    // --- SFC-S01: DSP budget (eq. 6) ------------------------------------
    let dsp = d.p.saturating_mul(d.v).saturating_mul(spec.gdsp());
    if dsp > dev.dsp_total {
        diags.push(diag(
            RuleId::DspOversubscribed,
            Severity::Error,
            "design",
            format!(
                "p·V·G_dsp = {}·{}·{} = {dsp} DSPs exceeds the device's {} (eq. 6)",
                d.p,
                d.v,
                spec.gdsp(),
                dev.dsp_total
            ),
            format!("reduce p·V below {}", dev.dsp_total / spec.gdsp().max(1)),
        ));
    }

    // --- SFC-W01: window-buffer reach ------------------------------------
    // natural_unit_cells is Some: dimensionality mismatches returned above
    let natural_unit = natural_unit_cells(&d.mode, wl).unwrap_or(0);
    let unit = d.window_units.unwrap_or(natural_unit);
    let footprint = 2 * spec.radius() + 1;
    let row_x = unit_width_x(&d.mode, wl);
    if row_x < footprint {
        diags.push(diag(
            RuleId::WindowReach,
            Severity::Error,
            graph.first_stage_label(),
            format!(
                "streamed rows are {row_x} cells wide but the order-{} stencil footprint \
                 spans {footprint}",
                spec.order
            ),
            format!("widen the mesh/tile to at least {footprint} cells in x"),
        ));
    }
    if unit < natural_unit {
        diags.push(diag(
            RuleId::WindowReach,
            Severity::Error,
            graph.first_stage_label(),
            format!(
                "window buffers hold {unit} cells per line/plane but the streaming unit is \
                 {natural_unit} cells: the stencil would read cells already evicted"
            ),
            format!(
                "size each of the D={} line/plane buffers for {natural_unit} cells",
                spec.order
            ),
        ));
    }

    // --- SFC-W02: quantized on-chip capacity (eq. 7) ---------------------
    let alloc = resources::alloc_window(
        dev,
        unit,
        spec.window_elem_bytes,
        d.v,
        spec.order,
        spec.stages,
        d.p,
    );
    let fifo_bytes = depth.saturating_mul(d.v).saturating_mul(spec.window_elem_bytes);
    let fifo_bram =
        fifo_bytes.div_ceil(dev.bram_block_bytes).max(1).saturating_mul(graph.edge_count());
    let bram_need = alloc.bram_blocks.saturating_add(fifo_bram);
    if bram_need > dev.bram_blocks || alloc.uram_blocks > dev.uram_blocks {
        diags.push(diag(
            RuleId::WindowCapacity,
            Severity::Error,
            "design",
            format!(
                "window buffers + stream FIFOs need {bram_need} BRAM36 and {} URAM288 after \
                 quantization; the device has {} and {} (eq. 7)",
                alloc.uram_blocks, dev.bram_blocks, dev.uram_blocks
            ),
            "reduce p, tile the mesh, or lower V",
        ));
    }

    // --- SFC-S02: fabric -------------------------------------------------
    let (luts, ffs) = resources::estimate_fabric(&spec.ops, d.v, d.p);
    if luts > dev.lut_total || ffs > dev.ff_total {
        diags.push(diag(
            RuleId::FabricOversubscribed,
            Severity::Error,
            "design",
            format!(
                "estimated {luts} LUTs / {ffs} FFs exceed the fabric ({} / {})",
                dev.lut_total, dev.ff_total
            ),
            "reduce p·V or simplify the per-cell arithmetic",
        ));
    }

    // --- SFC-S03/S04: SLR floorplan --------------------------------------
    let demand = slr::ModuleDemand {
        dsp: dsp / d.p,
        bram: alloc.bram_blocks / d.p,
        uram: alloc.uram_blocks / d.p,
    };
    match slr::place_chain(dev, d.p, demand) {
        Err(e) => diags.push(diag(
            RuleId::SlrOverflow,
            Severity::Error,
            "design",
            format!(
                "module chain does not floorplan onto the {} SLRs: {e} \
                 (per-module demand {} DSP / {} BRAM / {} URAM)",
                dev.slr_count, demand.dsp, demand.bram, demand.uram
            ),
            "reduce p, or shrink the per-module window footprint by tiling",
        )),
        Ok(pl) if pl.spanning_modules > 0 => diags.push(diag(
            RuleId::SlrSpanning,
            Severity::Warning,
            "design",
            format!(
                "{} module(s) exceed a single SLR and must span regions; inter-SLR routing \
                 congestion will derate the clock",
                pl.spanning_modules
            ),
            "reduce V so one module fits an SLR (the paper's RTM choice)",
        )),
        Ok(_) => {}
    }

    // --- SFC-F01/F02: FIFO deadlock-freedom over the graph ---------------
    // Static dual of the runtime watchdog: the read side commits a full AXI
    // burst per request; an edge FIFO shallower than one burst cannot drain
    // it while the consumer is window-filling, so producer and consumer
    // starve each other — guaranteed wedge, no cycles needed to prove it.
    let burst_elems =
        dev.axi_burst_bytes.div_ceil(d.v.saturating_mul(spec.window_elem_bytes).max(1)).max(1);
    if depth < burst_elems {
        diags.push(diag(
            RuleId::FifoDeadlock,
            Severity::Error,
            graph.first_edge_label(),
            format!(
                "FIFO depth {depth} cannot absorb one {}-byte AXI burst ({burst_elems} \
                 vector elements): static deadlock on all {} edges",
                dev.axi_burst_bytes,
                graph.edge_count()
            ),
            format!("deepen every stream FIFO to at least {default_depth} elements"),
        ));
    } else if depth < default_depth {
        diags.push(diag(
            RuleId::FifoSlack,
            Severity::Warning,
            graph.first_edge_label(),
            format!(
                "FIFO depth {depth} is below the two-burst sizing rule ({default_depth}): \
                 deadlock-free, but the producer stalls on every burst refill on all {} edges",
                graph.edge_count()
            ),
            format!("deepen the stream FIFOs to {default_depth} elements"),
        ));
    }

    // --- SFC-R01: loop-carried RAW hazard --------------------------------
    // The unrolled chain keeps p iteration passes in flight, each lagging
    // its producer by the stencil reach. When the streaming extent has no
    // more units than in-flight passes, iteration i+p re-enters the chain
    // while iteration i's writeback of the same rows is still in flight —
    // a loop-carried read of unwritten output.
    let extent = match *wl {
        Workload::D2 { ny, .. } => ny,
        Workload::D3 { nz, .. } => nz,
    };
    if extent <= d.p {
        diags.push(diag(
            RuleId::RawHazard,
            Severity::Error,
            format!("module[{}]", d.p - 1),
            format!(
                "mesh extent {extent} along the streaming dimension does not exceed the \
                 p = {} in-flight iteration passes: iteration i+p would read rows \
                 iteration i has not written back",
                d.p,
            ),
            format!("reduce p below {extent} or grow the mesh"),
        ));
    }

    // --- SFC-X01: multi-device shard legality ----------------------------
    // The sf-multi slab decomposition exchanges halos with direct
    // neighbours only. Every shard must therefore own at least the halo
    // depth h = p·stages·⌈D/2⌉ of outermost units, or next pass's halo
    // would have to come from beyond the neighbour and the link model (and
    // any real neighbour-wired deployment) breaks down.
    if d.devices == 0 {
        diags.push(diag(
            RuleId::ShardHalo,
            Severity::Error,
            "design",
            "devices=0: there is no accelerator to shard across".into(),
            "use at least one device",
        ));
    } else if d.devices > 1 {
        let shard_halo = spec.halo(d.p);
        if !matches!(d.mode, ExecMode::Baseline | ExecMode::Batched { .. }) {
            diags.push(diag(
                RuleId::ShardHalo,
                Severity::Error,
                "design",
                format!(
                    "devices={}: multi-device sharding composes with whole-mesh streaming \
                     only, not {:?} (tiling already decomposes the mesh)",
                    d.devices, d.mode
                ),
                "drop tiling or run on a single device",
            ));
        } else if d.devices > extent {
            diags.push(diag(
                RuleId::ShardHalo,
                Severity::Error,
                "design",
                format!(
                    "devices={} exceeds the {extent} outermost units: some shard would own \
                     nothing",
                    d.devices
                ),
                format!("use at most {extent} devices"),
            ));
        } else if extent / d.devices < shard_halo {
            diags.push(diag(
                RuleId::ShardHalo,
                Severity::Error,
                "design",
                format!(
                    "sharding {extent} outermost units across {} devices leaves a shard of \
                     {} units, narrower than the halo depth p·stages·⌈D/2⌉ = {shard_halo}: \
                     next pass's halo would come from beyond the direct neighbour",
                    d.devices,
                    extent / d.devices
                ),
                format!(
                    "reduce the device count, reduce p below {}, or grow the mesh",
                    extent / (d.devices * spec.stages * spec.order.div_ceil(2)).max(1)
                ),
            ));
        }
    }

    report(diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_kernels::ops::NumberFormat;
    use sf_kernels::{AppId, OpCount};

    fn dev() -> FpgaDevice {
        FpgaDevice::u280()
    }

    fn poisson_paper() -> Design {
        Design::new(
            StencilSpec::poisson(),
            8,
            60,
            ExecMode::Baseline,
            MemKind::Hbm,
            Workload::D2 { nx: 400, ny: 400, batch: 1 },
        )
    }

    fn jacobi_paper() -> Design {
        Design::new(
            StencilSpec::jacobi(),
            8,
            29,
            ExecMode::Baseline,
            MemKind::Hbm,
            Workload::D3 { nx: 300, ny: 300, nz: 300, batch: 1 },
        )
    }

    fn rtm_paper() -> Design {
        Design::new(
            StencilSpec::rtm(),
            1,
            3,
            ExecMode::Baseline,
            MemKind::Hbm,
            Workload::D3 { nx: 64, ny: 64, nz: 64, batch: 1 },
        )
    }

    #[test]
    fn paper_designs_are_clean() {
        let d = dev();
        for design in [poisson_paper(), jacobi_paper(), rtm_paper()] {
            let rep = check(&d, &design);
            assert!(
                rep.diagnostics.is_empty(),
                "{} must produce zero diagnostics, got: {}",
                rep.app,
                rep.render()
            );
        }
    }

    #[test]
    fn graph_shape_reported() {
        let rep = check(&dev(), &rtm_paper());
        assert_eq!(rep.graph_nodes, 3 * 4 + 2);
        assert_eq!(rep.graph_edges, 3 * 4 + 1);
    }

    #[test]
    fn zero_v_or_p_is_invalid_param() {
        let mut d = poisson_paper();
        d.v = 0;
        let rep = check(&dev(), &d);
        assert_eq!(rep.fired_rules(), vec![RuleId::InvalidParam]);
        assert!(rep.has_errors());
    }

    #[test]
    fn dims_mismatch_flagged() {
        let mut d = poisson_paper();
        d.workload = Workload::D3 { nx: 64, ny: 64, nz: 64, batch: 1 };
        let rep = check(&dev(), &d);
        assert!(rep.fired(RuleId::DimsMismatch));
        assert!(rep.has_errors());

        let mut t = jacobi_paper();
        t.mode = ExecMode::Tiled1D { tile_m: 128 };
        assert!(check(&dev(), &t).fired(RuleId::DimsMismatch));
    }

    #[test]
    fn tile_at_or_below_halo_is_error() {
        let mut d = poisson_paper();
        d.workload = Workload::D2 { nx: 15_000, ny: 15_000, batch: 1 };
        d.mem = MemKind::Ddr4;
        d.mode = ExecMode::Tiled1D { tile_m: 60 * 2 }; // == p·D
        let rep = check(&dev(), &d);
        assert!(rep.fired(RuleId::TileHalo), "{}", rep.render());
        assert!(rep.has_errors());
    }

    #[test]
    fn tile_larger_than_mesh_is_warning_only() {
        // the accuracy suite legally synthesizes jacobi Tiled2D 640×640 on a
        // 600³ mesh — the checker must warn, not reject
        let mut d = jacobi_paper();
        d.v = 64;
        d.p = 3;
        d.workload = Workload::D3 { nx: 600, ny: 600, nz: 600, batch: 1 };
        d.mode = ExecMode::Tiled2D { tile_m: 640, tile_n: 640 };
        let rep = check(&dev(), &d);
        assert!(rep.fired(RuleId::TileHalo2), "{}", rep.render());
        assert!(!rep.has_errors(), "{}", rep.render());
    }

    #[test]
    fn small_tile_warns_on_throughput_guideline() {
        let mut d = poisson_paper();
        d.p = 8;
        d.workload = Workload::D2 { nx: 15_000, ny: 15_000, batch: 1 };
        d.mem = MemKind::Ddr4;
        // p·D = 16 < 32 < 3·D·p = 48
        d.mode = ExecMode::Tiled1D { tile_m: 32 };
        let rep = check(&dev(), &d);
        assert!(rep.fired(RuleId::TileThroughput), "{}", rep.render());
        assert!(!rep.fired(RuleId::TileHalo));
    }

    #[test]
    fn unaligned_tile_warns_on_vectorization() {
        let mut d = poisson_paper();
        d.workload = Workload::D2 { nx: 15_000, ny: 15_000, batch: 1 };
        d.mem = MemKind::Ddr4;
        d.mode = ExecMode::Tiled1D { tile_m: 4097 }; // 4097 % 8 ≠ 0
        let rep = check(&dev(), &d);
        assert!(rep.fired(RuleId::VectorAlignment), "{}", rep.render());
    }

    #[test]
    fn excess_vectorization_flags_bandwidth() {
        let mut d = jacobi_paper();
        d.v = 64;
        d.p = 3;
        d.workload = Workload::D3 { nx: 600, ny: 600, nz: 600, batch: 1 };
        d.mode = ExecMode::Tiled2D { tile_m: 640, tile_n: 640 };
        d.mem = MemKind::Ddr4;
        let rep = check(&dev(), &d);
        assert!(rep.fired(RuleId::BandwidthChannels), "{}", rep.render());
        assert!(rep.has_errors());
    }

    #[test]
    fn oversized_workload_flags_external_capacity() {
        let mut d = poisson_paper();
        d.p = 4;
        d.workload = Workload::D2 { nx: 100_000, ny: 100_000, batch: 1 };
        d.mode = ExecMode::Tiled1D { tile_m: 8192 };
        d.mem = MemKind::Ddr4;
        let rep = check(&dev(), &d);
        assert!(rep.fired(RuleId::ExternalCapacity), "{}", rep.render());
    }

    #[test]
    fn dsp_wall_flagged_with_numbers() {
        let mut d = poisson_paper();
        d.v = 64;
        let rep = check(&dev(), &d);
        let diag = rep.diagnostics.iter().find(|x| x.rule == RuleId::DspOversubscribed).unwrap();
        assert_eq!(diag.severity, Severity::Error);
        assert!(diag.message.contains("53760"), "{}", diag.message);
    }

    #[test]
    fn window_capacity_rule_matches_synthesizer() {
        // the synthesizer's InsufficientMemory case (design.rs test) must map
        // to SFC-W02
        let mut d = jacobi_paper();
        d.workload = Workload::D3 { nx: 2500, ny: 2500, nz: 100, batch: 1 };
        let rep = check(&dev(), &d);
        assert!(rep.fired(RuleId::WindowCapacity), "{}", rep.render());
        assert!(rep.has_errors());
    }

    #[test]
    fn truncated_window_buffer_is_reach_error() {
        let mut d = poisson_paper();
        d.window_units = Some(128); // rows are 400 cells
        let rep = check(&dev(), &d);
        let diag = rep.diagnostics.iter().find(|x| x.rule == RuleId::WindowReach).unwrap();
        assert_eq!(diag.severity, Severity::Error);
        assert_eq!(diag.location, "module[0].stage[0]");
    }

    #[test]
    fn narrow_mesh_is_reach_error() {
        let mut d = rtm_paper();
        d.p = 1;
        d.workload = Workload::D3 { nx: 8, ny: 64, nz: 64, batch: 1 }; // footprint is 9
        let rep = check(&dev(), &d);
        assert!(rep.fired(RuleId::WindowReach), "{}", rep.render());
    }

    #[test]
    fn fabric_exhaustion_without_dsp_wall() {
        // Fixed18 adds run in fabric (0 DSP): an add-heavy custom stencil
        // exhausts LUTs long before the DSP budget
        let spec = StencilSpec {
            app: AppId::Custom,
            dims: 2,
            order: 2,
            elem_bytes: 4,
            window_elem_bytes: 4,
            stages: 1,
            ops: OpCount::new(100, 1, 0),
            logical_rw_bytes: 8,
            ext_read_bytes: 4,
            ext_write_bytes: 4,
            format: NumberFormat::Fixed18,
        };
        let d = Design::new(
            spec,
            8,
            40,
            ExecMode::Baseline,
            MemKind::Hbm,
            Workload::D2 { nx: 400, ny: 400, batch: 1 },
        );
        let rep = check(&dev(), &d);
        assert_eq!(rep.fired_rules(), vec![RuleId::FabricOversubscribed], "{}", rep.render());
    }

    #[test]
    fn slr_overflow_is_the_only_error_for_wide_jacobi() {
        // 864×864 planes at V=8: 704 URAM total fits the device, but 176 per
        // module packs only one module per 320-URAM SLR — p=4 cannot place
        let d = Design::new(
            StencilSpec::jacobi(),
            8,
            4,
            ExecMode::Baseline,
            MemKind::Hbm,
            Workload::D3 { nx: 864, ny: 864, nz: 32, batch: 1 },
        );
        let rep = check(&dev(), &d);
        assert_eq!(rep.fired_rules(), vec![RuleId::SlrOverflow], "{}", rep.render());
    }

    #[test]
    fn spanning_module_is_warning() {
        // RTM at V=2: one module is 3948 DSP > 2830 per SLR — the exact
        // configuration the paper avoids by setting V=1
        let mut d = rtm_paper();
        d.v = 2;
        d.p = 1;
        let rep = check(&dev(), &d);
        assert_eq!(rep.fired_rules(), vec![RuleId::SlrSpanning], "{}", rep.render());
        assert!(!rep.has_errors());
    }

    #[test]
    fn undersized_fifo_is_static_deadlock() {
        let mut d = poisson_paper();
        d.fifo_depth = Some(4); // one burst needs 128 elements at V=8
        let rep = check(&dev(), &d);
        let diag = rep.diagnostics.iter().find(|x| x.rule == RuleId::FifoDeadlock).unwrap();
        assert_eq!(diag.severity, Severity::Error);
        assert_eq!(diag.location, "mem.read→module[0].stage[0]");
        assert!(diag.message.contains("61 edges"), "{}", diag.message);
    }

    #[test]
    fn shallow_but_safe_fifo_is_slack_warning() {
        let mut d = poisson_paper();
        d.fifo_depth = Some(128); // ≥ one burst, < the 256 sizing rule
        let rep = check(&dev(), &d);
        assert_eq!(rep.fired_rules(), vec![RuleId::FifoSlack], "{}", rep.render());
        assert!(!rep.has_errors());
    }

    #[test]
    fn deep_unroll_on_short_mesh_is_raw_hazard() {
        let mut d = poisson_paper();
        d.workload = Workload::D2 { nx: 400, ny: 60, batch: 1 }; // extent == p = 60
        let rep = check(&dev(), &d);
        let diag = rep.diagnostics.iter().find(|x| x.rule == RuleId::RawHazard).unwrap();
        assert_eq!(diag.severity, Severity::Error);
        assert_eq!(diag.location, "module[59]");
    }

    #[test]
    fn absurd_unroll_is_a_dsp_error_not_an_overflow() {
        // every V- and p-driven product saturates and the floorplan knows a
        // chain's fit before placing it, so a chain of 2^62 modules is an
        // SFC-S01 error instead of an overflow or a huge allocation
        let tiled = Design {
            v: 64,
            p: 3,
            mode: ExecMode::Tiled2D { tile_m: 640, tile_n: 640 },
            workload: Workload::D3 { nx: 600, ny: 600, nz: 600, batch: 1 },
            ..jacobi_paper()
        };
        for base in [poisson_paper(), rtm_paper(), tiled] {
            for (v, p) in [(8, 1 << 62), (1 << 32, 1 << 32), (1 << 61, 8), (1, usize::MAX)] {
                let rep = check(&dev(), &Design { v, p, ..base.clone() });
                assert!(rep.fired(RuleId::DspOversubscribed), "V={v} p={p}: {}", rep.render());
            }
        }
        let wl = Workload::D2 { nx: 400, ny: 400, batch: 1 };
        let spec = StencilSpec::poisson();
        let synth = |v, p| {
            sf_fpga::design::synthesize(&dev(), &spec, v, p, ExecMode::Baseline, MemKind::Hbm, &wl)
        };
        assert!(matches!(synth(1, 1 << 63), Err(sf_fpga::SynthesisError::InsufficientDsp { .. })));
        // a wide V runs out of memory channels before the DSP budget
        assert!(synth(1 << 32, 1 << 32).is_err() && synth(1 << 61, 8).is_err());
    }

    #[test]
    fn legal_sharding_is_clean() {
        // poisson p=60 halo=60; 400 rows / 4 devices = 100-row shards ≥ 60
        let d = poisson_paper().with_devices(4);
        let rep = check(&dev(), &d);
        assert!(rep.diagnostics.is_empty(), "{}", rep.render());
    }

    #[test]
    fn shard_narrower_than_halo_is_error() {
        // the paper's own poisson config cannot be split in two on a
        // 200×100 mesh: 50-row shards < halo depth p·stages·⌈D/2⌉ = 60
        let mut d = poisson_paper().with_devices(2);
        d.workload = Workload::D2 { nx: 200, ny: 100, batch: 1 };
        let rep = check(&dev(), &d);
        let diag = rep.diagnostics.iter().find(|x| x.rule == RuleId::ShardHalo).unwrap();
        assert_eq!(diag.severity, Severity::Error);
        assert!(diag.message.contains("60"), "{}", diag.message);
        // the same design on one device stays clean
        let mut solo = poisson_paper();
        solo.workload = Workload::D2 { nx: 200, ny: 100, batch: 1 };
        assert!(!check(&dev(), &solo).fired(RuleId::ShardHalo));
    }

    #[test]
    fn zero_or_excess_devices_fire_shard_rule() {
        let d0 = poisson_paper().with_devices(0);
        assert!(check(&dev(), &d0).fired(RuleId::ShardHalo));
        let mut dx = poisson_paper().with_devices(500);
        dx.workload = Workload::D2 { nx: 400, ny: 400, batch: 1 };
        let rep = check(&dev(), &dx);
        let diag = rep.diagnostics.iter().find(|x| x.rule == RuleId::ShardHalo).unwrap();
        assert!(diag.message.contains("own"), "{}", diag.message);
    }

    #[test]
    fn sharded_tiled_design_is_rejected() {
        let mut d = poisson_paper().with_devices(2);
        d.workload = Workload::D2 { nx: 15_000, ny: 15_000, batch: 1 };
        d.mem = MemKind::Ddr4;
        d.mode = ExecMode::Tiled1D { tile_m: 4096 };
        let rep = check(&dev(), &d);
        assert!(rep.fired(RuleId::ShardHalo), "{}", rep.render());
        assert!(rep.has_errors());
    }

    #[test]
    fn from_synthesized_roundtrip_is_clean() {
        let d = dev();
        let wl = Workload::D2 { nx: 400, ny: 400, batch: 1 };
        let sd = sf_fpga::design::synthesize(
            &d,
            &StencilSpec::poisson(),
            8,
            60,
            ExecMode::Baseline,
            MemKind::Hbm,
            &wl,
        )
        .expect("paper design synthesizes");
        let rep = check(&d, &Design::from_synthesized(&sd, &wl));
        assert!(rep.diagnostics.is_empty(), "{}", rep.render());
    }

    #[test]
    fn errors_sort_before_warnings_in_report() {
        let mut d = poisson_paper();
        d.fifo_depth = Some(4); // deadlock error
        d.mode = ExecMode::Tiled1D { tile_m: 4097 }; // alignment warning
        d.workload = Workload::D2 { nx: 15_000, ny: 15_000, batch: 1 };
        d.mem = MemKind::Ddr4;
        let rep = check(&dev(), &d);
        assert!(rep.error_count() >= 1 && rep.warning_count() >= 1);
        let first_warning =
            rep.diagnostics.iter().position(|x| x.severity == Severity::Warning).unwrap();
        assert!(rep.diagnostics[..first_warning].iter().all(|x| x.severity == Severity::Error));
    }
}
