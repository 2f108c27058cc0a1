//! The dataflow graph the rules run over.
//!
//! An accelerator design is a linear HLS dataflow chain: a memory-read
//! stage, `p × stages` chained compute stages (one per fused stage of each
//! unrolled iteration module), and a memory-write stage, with a stream FIFO
//! on every edge (all at one depth, which the FIFO rules hold). The chain is
//! fully determined by `p` and `stages`, so [`DataflowGraph`] holds just
//! those two numbers: node and edge counts are arithmetic, and a node's
//! label (`module[3].stage[1]`) or the first edge's
//! (`mem.read→module[0].stage[0]`) is formatted on demand, when a
//! diagnostic points at it instead of at "the design". Building the graph
//! allocates nothing, whatever `p` is.

use sf_kernels::StencilSpec;

/// What a node in the chain is.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// AXI read side: bursts from DDR4/HBM into the first stream.
    MemRead,
    /// One fused stage of one unrolled iteration module.
    Stage {
        /// Unrolled-iteration index (`0..p`).
        module: usize,
        /// Fused-stage index within the module (`0..stages`).
        stage: usize,
    },
    /// AXI write side: bursts the last stream back out.
    MemWrite,
}

impl NodeKind {
    /// Stable label used in diagnostic locations.
    pub fn label(&self) -> String {
        match self {
            NodeKind::MemRead => "mem.read".into(),
            NodeKind::Stage { module, stage } => format!("module[{module}].stage[{stage}]"),
            NodeKind::MemWrite => "mem.write".into(),
        }
    }
}

/// The dataflow chain of a design. Node `0` is `mem.read`, node
/// `1 + module·stages + stage` is that compute stage, and the last node is
/// `mem.write`; edge `i` is the FIFO from node `i` to node `i + 1`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DataflowGraph {
    /// Fused stages per module.
    stages: usize,
    /// Chained compute stages, `p·stages` (saturating).
    chained: usize,
}

impl DataflowGraph {
    /// The chain for an unroll factor `p`. Degenerate parameters
    /// (`p == 0`) give the two memory endpoints joined by a single stream.
    pub fn build(spec: &StencilSpec, p: usize) -> Self {
        DataflowGraph { stages: spec.stages, chained: p.saturating_mul(spec.stages) }
    }

    /// `mem.read`, the `p·stages` compute stages, `mem.write`.
    pub fn node_count(&self) -> usize {
        self.chained.saturating_add(2)
    }

    /// One FIFO per chain link: `p·stages + 1` edges.
    pub fn edge_count(&self) -> usize {
        self.chained.saturating_add(1)
    }

    /// Role of node `id`; `None` past the end of the chain.
    pub fn kind(&self, id: usize) -> Option<NodeKind> {
        let Some(i) = id.checked_sub(1) else { return Some(NodeKind::MemRead) };
        if i < self.chained {
            Some(NodeKind::Stage { module: i / self.stages, stage: i % self.stages })
        } else if i == self.chained {
            Some(NodeKind::MemWrite)
        } else {
            None
        }
    }

    /// Label of the first compute stage (`mem.write` for `p == 0`).
    pub fn first_stage_label(&self) -> String {
        self.kind(1).unwrap_or(NodeKind::MemWrite).label()
    }

    /// `producer→consumer` label of the first FIFO, the one every FIFO rule
    /// points at (all edges share one depth).
    pub fn first_edge_label(&self) -> String {
        format!("{}→{}", NodeKind::MemRead.label(), self.first_stage_label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_shape_matches_unroll() {
        let g = DataflowGraph::build(&StencilSpec::poisson(), 4);
        assert_eq!(g.node_count(), 4 + 2);
        assert_eq!(g.edge_count(), 4 + 1);
        assert_eq!(g.kind(0), Some(NodeKind::MemRead));
        assert_eq!(g.kind(5), Some(NodeKind::MemWrite));
        assert_eq!(g.kind(6), None);
        assert_eq!(g.kind(1).unwrap().label(), "module[0].stage[0]");
        assert_eq!(g.first_edge_label(), "mem.read→module[0].stage[0]");
    }

    #[test]
    fn fused_stages_expand_the_chain() {
        // RTM: 4 fused stages per module
        let g = DataflowGraph::build(&StencilSpec::rtm(), 3);
        assert_eq!(g.node_count(), 3 * 4 + 2);
        assert_eq!(g.edge_count(), 3 * 4 + 1);
        assert_eq!(g.kind(4).unwrap().label(), "module[0].stage[3]");
        assert_eq!(g.kind(5).unwrap().label(), "module[1].stage[0]");
        assert_eq!(g.kind(12), Some(NodeKind::Stage { module: 2, stage: 3 }));
    }

    #[test]
    fn degenerate_p_zero_is_two_endpoints() {
        let g = DataflowGraph::build(&StencilSpec::poisson(), 0);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.first_stage_label(), "mem.write");
        assert_eq!(g.first_edge_label(), "mem.read→mem.write");
    }

    #[test]
    fn absurd_unroll_counts_saturate_without_allocating() {
        let g = DataflowGraph::build(&StencilSpec::rtm(), usize::MAX / 2);
        assert_eq!(g.node_count(), usize::MAX);
        assert_eq!(g.edge_count(), usize::MAX);
        assert_eq!(g.first_stage_label(), "module[0].stage[0]");
    }
}
