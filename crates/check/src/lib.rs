//! # sf-check — static design-rule checker
//!
//! A static analyzer for stencil accelerator designs: it takes a [`Design`]
//! (stencil spec + `V`, `p`, tile `M×N`, batching, memory binding) and
//! verifies it against a device **without running the simulator**. It
//! reconstructs the HLS dataflow graph (memory read → `p·stages` chained
//! compute stages → memory write, a FIFO on every edge) and runs the
//! paper's legality equations over it:
//!
//! | area | rules | what they catch |
//! |---|---|---|
//! | parameters | `SFC-P01/P02` | zero `V`/`p`, dimensionality mismatches |
//! | window buffers | `SFC-W01/W02` | stencil reach not covered; quantized BRAM/URAM over-subscription (eq. 7) |
//! | FIFOs | `SFC-F01/F02` | static deadlock (depth below one AXI burst — the static dual of the runtime watchdog) and slack shortfalls |
//! | iterative unroll | `SFC-R01` | loop-carried RAW hazards across the in-flight dependency window |
//! | tiling | `SFC-T01..T04` | halo/tile legality (eq. 8), throughput guideline (eq. 12), vector alignment |
//! | resources | `SFC-S01..S04` | DSP (eq. 6), fabric, per-SLR floorplan, SLR spanning |
//! | memory system | `SFC-B01/B02` | channel feasibility (eq. 4), external capacity |
//!
//! Every finding is a structured [`Diagnostic`] — rule id, severity,
//! location in the dataflow graph, fix hint — collected into a
//! [`CheckReport`]. With default buffer sizing, a check-clean design is
//! guaranteed to pass `sf_fpga::design::synthesize`; the error rules are a
//! strict superset of the synthesizer's rejections, which is what lets the
//! DSE use [`check`] as a pruning filter and the CLI/workflow run it as a
//! mandatory pre-flight.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod graph;
pub mod rules;

pub use diag::{CheckError, CheckReport, Diagnostic, RuleId, Severity};
pub use graph::{DataflowGraph, NodeKind};
pub use rules::{check, Design};
