//! Cross-validation of the static checker against the synthesizer and the
//! resilient simulator:
//!
//! * a check-clean design must synthesize AND simulate to completion with
//!   no watchdog/deadlock (the static verdict is sound);
//! * a design the synthesizer rejects must carry at least one
//!   error-severity diagnostic (the error rules are a superset of the
//!   synthesizer's rejections);
//! * seeded violations (undersized FIFO, oversized tile, truncated window
//!   buffer) must be caught with the right rule id.

use proptest::prelude::*;
use sf_check::{check, Design, RuleId, Severity};
use sf_fpga::design::{synthesize, ExecMode, MemKind, Workload};
use sf_fpga::{ExecEngine, FaultInjector, Faults, FpgaDevice, Recorder, Run};
use sf_kernels::{Jacobi3D, Poisson2D, StencilSpec};
use sf_mesh::{Batch2D, Batch3D};

fn dev() -> FpgaDevice {
    FpgaDevice::u280()
}

const V_CHOICES: [usize; 4] = [1, 2, 8, 16];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// 2D Poisson designs: static verdict vs synthesizer vs simulator.
    #[test]
    fn poisson_verdict_matches_simulator(
        nx in 3usize..40,
        ny in 3usize..40,
        b in 1usize..3,
        v_idx in 0usize..4,
        p in 1usize..70,
        use_ddr in 0u8..2,
        seed in 0u64..1000,
    ) {
        let d = dev();
        let v = V_CHOICES[v_idx];
        let wl = Workload::D2 { nx, ny, batch: b };
        let mode = if b == 1 { ExecMode::Baseline } else { ExecMode::Batched { b } };
        let mem = if use_ddr == 1 { MemKind::Ddr4 } else { MemKind::Hbm };
        let design = Design::new(StencilSpec::poisson(), v, p, mode, mem, wl);
        let rep = check(&d, &design);

        let synth = synthesize(&d, &StencilSpec::poisson(), v, p, mode, mem, &wl);
        if rep.has_errors() {
            // nothing to assert about synth: the checker is allowed to be
            // stricter (RAW hazards, window reach) than the synthesizer
        } else {
            let ds = match &synth {
                Ok(ds) => ds,
                Err(e) => return Err(TestCaseError::Fail(format!(
                    "check-clean design must synthesize, got {e}: {}", rep.render()))),
            };
            let batch = Batch2D::<f32>::random(nx, ny, b, seed, -1.0, 1.0);
            let mut inj = FaultInjector::disabled();
            let r = Run {
                engine: ExecEngine::Scalar,
                faults: Faults::Injector(&mut inj),
                ..Run::new(&d, ds, &[Poisson2D], 2, &mut Recorder::disabled())
            }
            .simulate(&batch);
            prop_assert!(r.is_ok(), "check-clean design deadlocked: {:?}", r.err());
        }
        if synth.is_err() {
            prop_assert!(
                rep.has_errors(),
                "synthesizer rejected ({:?}) but the checker is clean",
                synth.err()
            );
        }
    }

    /// 3D Jacobi designs: same three-way agreement.
    #[test]
    fn jacobi_verdict_matches_simulator(
        nx in 3usize..20,
        ny in 3usize..20,
        nz in 3usize..16,
        b in 1usize..3,
        v_idx in 0usize..4,
        p in 1usize..40,
        seed in 0u64..1000,
    ) {
        let d = dev();
        let v = V_CHOICES[v_idx];
        let wl = Workload::D3 { nx, ny, nz, batch: b };
        let mode = if b == 1 { ExecMode::Baseline } else { ExecMode::Batched { b } };
        let design = Design::new(StencilSpec::jacobi(), v, p, mode, MemKind::Hbm, wl);
        let rep = check(&d, &design);

        let synth = synthesize(&d, &StencilSpec::jacobi(), v, p, mode, MemKind::Hbm, &wl);
        if !rep.has_errors() {
            let ds = match &synth {
                Ok(ds) => ds,
                Err(e) => return Err(TestCaseError::Fail(format!(
                    "check-clean design must synthesize, got {e}: {}", rep.render()))),
            };
            let batch = Batch3D::<f32>::random(nx, ny, nz, b, seed, -1.0, 1.0);
            let mut inj = FaultInjector::disabled();
            let r = Run {
                engine: ExecEngine::Scalar,
                faults: Faults::Injector(&mut inj),
                ..Run::new(&d, ds, &[Jacobi3D::smoothing()], 2, &mut Recorder::disabled())
            }
            .simulate(&batch);
            prop_assert!(r.is_ok(), "check-clean design deadlocked: {:?}", r.err());
        }
        if synth.is_err() {
            prop_assert!(
                rep.has_errors(),
                "synthesizer rejected ({:?}) but the checker is clean",
                synth.err()
            );
        }
    }

    /// Seeded undersized FIFO: always caught as SFC-F01, error severity.
    #[test]
    fn seeded_undersized_fifo_is_caught(
        v_idx in 0usize..4,
        p in 1usize..60,
        shrink in 1usize..16,
    ) {
        let d = dev();
        let v = V_CHOICES[v_idx];
        let spec = StencilSpec::poisson();
        let burst_elems = d.axi_burst_bytes.div_ceil((v * spec.window_elem_bytes).max(1)).max(1);
        prop_assume!(burst_elems > 1);
        let depth = (burst_elems - 1).min(shrink.max(1));
        let mut design = Design::new(
            spec, v, p, ExecMode::Baseline, MemKind::Hbm,
            Workload::D2 { nx: 400, ny: 400, batch: 1 },
        );
        design.fifo_depth = Some(depth);
        let rep = check(&d, &design);
        let diag = rep.diagnostics.iter().find(|x| x.rule == RuleId::FifoDeadlock);
        prop_assert!(diag.is_some(), "depth {depth} < burst {burst_elems} missed: {}", rep.render());
        prop_assert_eq!(diag.unwrap().severity, Severity::Error);
    }

    /// Seeded oversized tile (tile ≤ p·D halo): always caught as SFC-T01.
    #[test]
    fn seeded_halo_violating_tile_is_caught(
        p in 1usize..60,
        slack in 0usize..8,
    ) {
        let d = dev();
        let spec = StencilSpec::poisson();
        let halo = p * spec.halo_order();
        let tile_m = (halo - slack.min(halo - 1)).max(1); // in 1..=halo
        let design = Design::new(
            spec, 8, p,
            ExecMode::Tiled1D { tile_m },
            MemKind::Ddr4,
            Workload::D2 { nx: 15_000, ny: 15_000, batch: 1 },
        );
        let rep = check(&d, &design);
        let diag = rep.diagnostics.iter().find(|x| x.rule == RuleId::TileHalo);
        prop_assert!(diag.is_some(), "tile {tile_m} ≤ halo {halo} missed: {}", rep.render());
        prop_assert_eq!(diag.unwrap().severity, Severity::Error);
        // the synthesizer agrees this is illegal
        prop_assert!(synthesize(
            &d, &spec, 8, p, ExecMode::Tiled1D { tile_m }, MemKind::Ddr4,
            &Workload::D2 { nx: 15_000, ny: 15_000, batch: 1 },
        ).is_err());
    }

    /// Seeded truncated window buffer: always caught as SFC-W01.
    #[test]
    fn seeded_truncated_window_is_caught(
        nx in 16usize..400,
        cut in 1usize..16,
    ) {
        let d = dev();
        let mut design = Design::new(
            StencilSpec::poisson(), 8, 4, ExecMode::Baseline, MemKind::Hbm,
            Workload::D2 { nx, ny: 64, batch: 1 },
        );
        design.window_units = Some(nx - cut.min(nx - 1));
        let rep = check(&d, &design);
        prop_assert!(rep.fired(RuleId::WindowReach), "{}", rep.render());
        prop_assert!(rep.has_errors());
    }
}
