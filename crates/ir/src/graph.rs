//! The op graph: a small, shape-checked SSA-style IR for the forward
//! paths of the point-cloud models.
//!
//! A [`Graph`] is built in topological order (every operand must already
//! exist), carries static shapes on every node, and owns snapshots of
//! the layer parameters it references. Ops mirror exactly what the eager
//! forward paths do — a `Linear` layer with its optional ReLU,
//! neighborhood gather, EdgeConv's gather-max, channel concat, grouped
//! max-pool, row broadcast — so a compiled plan can promise
//! bit-identical results to the eager oracle.

use edgepc_nn::{Sequential, Tensor2};

/// Handle to a node in a [`Graph`] (index into the build order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeId(pub(crate) usize);

/// How a gather node assembles its rows from the runtime-provided
/// feature matrix and index stream. Mirrors `edgepc_nn::RowSource`.
#[derive(Clone, Copy, Debug)]
pub enum GatherMode {
    /// PointNet++ SA grouping rows `[feats[idx[r]] | rel[r]]`
    /// (width `c + 3`, `EMPTY_SLOT` indices stage zero rows).
    SaGroup {
        /// Feature channels per point.
        c: usize,
        /// Neighbors per group.
        k: usize,
    },
}

impl GatherMode {
    /// Feature channels per source point (`c`).
    pub fn channels(&self) -> usize {
        let GatherMode::SaGroup { c, .. } = *self;
        c
    }

    /// Width of one gathered row.
    pub fn row_width(&self) -> usize {
        self.channels() + 3
    }

    /// Bytes the eager path materializes for `rows` gathered rows
    /// (4 bytes per f32 — the accounting `OpCounts::gathered_bytes`
    /// uses everywhere).
    pub fn eager_bytes(&self, rows: usize) -> u64 {
        (rows * self.row_width() * 4) as u64
    }

    /// Bytes the fused path streams instead: one 4-byte index plus the
    /// three precomputed relative coordinates per row. The feature rows
    /// themselves are read in place and never written to a gathered
    /// intermediate.
    pub fn fused_bytes(&self, rows: usize) -> u64 {
        (rows * (4 + 12)) as u64
    }
}

/// One graph op. `Linear` is `x * w + b`, then `max(0.0)` when `relu`,
/// with `w`/`b` at `Graph::linears[p]`.
#[derive(Clone, Debug)]
pub(crate) enum Op {
    Input {
        slot: usize,
    },
    Gather {
        slot: usize,
        mode: GatherMode,
        src_rows: usize,
    },
    Linear {
        x: NodeId,
        p: usize,
        relu: bool,
    },
    /// DGCNN's factored EdgeConv tail over `p` and `q` (both `n x C`):
    /// `max(p_i + max_j q_j, 0.0)` over the `k` neighbours gather slot
    /// `slot` lists per point. `c` is the EdgeConv's input width, kept
    /// for its site's per-edge pricing.
    GatherMax {
        p: NodeId,
        q: NodeId,
        slot: usize,
        k: usize,
        c: usize,
    },
    MaxPool {
        x: NodeId,
        group: usize,
    },
    Concat2 {
        a: NodeId,
        b: NodeId,
    },
    Broadcast {
        x: NodeId,
        rows: usize,
    },
}

impl Op {
    /// The nodes this op reads.
    pub(crate) fn deps(&self) -> Vec<NodeId> {
        match *self {
            Op::Input { .. } | Op::Gather { .. } => Vec::new(),
            Op::Linear { x, .. } | Op::MaxPool { x, .. } | Op::Broadcast { x, .. } => vec![x],
            Op::Concat2 { a, b } | Op::GatherMax { p: a, q: b, .. } => vec![a, b],
        }
    }
}

/// A `Linear` layer's parameter snapshot; an empty `b` adds no bias.
#[derive(Clone, Debug)]
pub(crate) struct LinearParams {
    pub(crate) w: Tensor2,
    pub(crate) b: Vec<f32>,
}

#[derive(Clone, Debug)]
pub(crate) struct Node {
    pub(crate) op: Op,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
}

/// A forward-path op graph under construction. Build nodes with the
/// typed constructors, mark the result with [`Graph::set_output`], then
/// hand the graph to `schedule::compile`.
pub struct Graph {
    pub(crate) label: String,
    pub(crate) nodes: Vec<Node>,
    pub(crate) linears: Vec<LinearParams>,
    pub(crate) input_shapes: Vec<(usize, usize)>,
    pub(crate) gather_labels: Vec<String>,
    pub(crate) output: Option<NodeId>,
}

impl Graph {
    /// Starts an empty graph; `label` names the compiled plan's span.
    pub fn new(label: impl Into<String>) -> Self {
        Graph {
            label: label.into(),
            nodes: Vec::new(),
            linears: Vec::new(),
            input_shapes: Vec::new(),
            gather_labels: Vec::new(),
            output: None,
        }
    }

    fn push(&mut self, op: Op, rows: usize, cols: usize) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node { op, rows, cols });
        id
    }

    pub(crate) fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Shape of a built node (rows, cols).
    pub fn shape(&self, id: NodeId) -> (usize, usize) {
        let n = self.node(id);
        (n.rows, n.cols)
    }

    /// Declares a dense runtime input (`rows x cols`). Inputs occupy
    /// slots in declaration order, matching `exec::Inputs::tensors`.
    pub fn input(&mut self, rows: usize, cols: usize) -> NodeId {
        let slot = self.input_shapes.len();
        self.input_shapes.push((rows, cols));
        self.push(Op::Input { slot }, rows, cols)
    }

    /// Declares an index-driven gather producing `rows` rows from a
    /// source feature matrix of `src_rows` points. Gathers occupy slots
    /// in declaration order, matching `exec::Inputs::gathers`; `site`
    /// names the gather site in the plan's per-site traffic accounting.
    /// When `rows > src_rows` the compiled plan may hoist the reading
    /// `linear`'s per-point half (see `schedule::compile`).
    ///
    /// # Panics
    ///
    /// Panics if `src_rows` is zero.
    pub fn gather(
        &mut self,
        rows: usize,
        src_rows: usize,
        mode: GatherMode,
        site: impl Into<String>,
    ) -> NodeId {
        assert!(src_rows > 0, "ir gather needs at least one source row");
        let slot = self.gather_labels.len();
        self.gather_labels.push(site.into());
        let cols = mode.row_width();
        self.push(
            Op::Gather {
                slot,
                mode,
                src_rows,
            },
            rows,
            cols,
        )
    }

    /// One `Linear` layer `x * w + b`, followed by `max(0.0)` when
    /// `relu` — a single fused kernel pass in the compiled plan. An empty
    /// `b` adds no bias (the pass is then exactly `Tensor2::matmul`).
    /// Snapshots `w` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols != w.rows`, or `b` is neither empty nor
    /// `w.cols` wide.
    pub fn linear(&mut self, x: NodeId, w: &Tensor2, b: &[f32], relu: bool) -> NodeId {
        let (rows, cols) = self.shape(x);
        assert_eq!(cols, w.rows(), "ir linear shape mismatch");
        assert!(
            b.is_empty() || b.len() == w.cols(),
            "ir linear bias width mismatch"
        );
        let p = self.linears.len();
        self.linears.push(LinearParams {
            w: w.clone(),
            b: b.to_vec(),
        });
        self.push(Op::Linear { x, p, relu }, rows, w.cols())
    }

    /// DGCNN's factored EdgeConv over `x` (`n x c`): `P = x · u + b` and
    /// `Q = x · v` (bias-free, exactly `Tensor2::matmul`) as two linear
    /// nodes, then per point `max(P_i + max_j Q_j, 0.0)` over `k`
    /// neighbours — `edgepc_nn::gather_max_relu`. The neighbour list
    /// (`n * k` indices) is a gather slot, fed like an SA gather's but
    /// read for its indices only; `site` names it in the plan's per-site
    /// traffic accounting. Snapshots `u`, `v` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or the shapes disagree (`u`, `v`: `c x C`,
    /// `b`: `C` values).
    pub fn edge_conv(
        &mut self,
        x: NodeId,
        u: &Tensor2,
        v: &Tensor2,
        b: &[f32],
        k: usize,
        site: impl Into<String>,
    ) -> NodeId {
        let (rows, c) = self.shape(x);
        assert!(k > 0, "ir edge_conv needs at least one neighbour");
        assert_eq!(
            (v.rows(), v.cols()),
            (u.rows(), u.cols()),
            "ir edge_conv U/V shape mismatch"
        );
        let p = self.linear(x, u, b, false);
        let q = self.linear(x, v, &[], false);
        let slot = self.gather_labels.len();
        self.gather_labels.push(site.into());
        self.push(Op::GatherMax { p, q, slot, k, c }, rows, u.cols())
    }

    /// Grouped max-pool over `group` consecutive rows (the eager
    /// `max_pool_groups` contract: first-seen winner on ties).
    ///
    /// # Panics
    ///
    /// Panics if `x.rows` is not a multiple of `group`.
    pub fn max_pool(&mut self, x: NodeId, group: usize) -> NodeId {
        let (rows, cols) = self.shape(x);
        assert!(group > 0 && rows % group == 0, "ir max_pool group mismatch");
        self.push(Op::MaxPool { x, group }, rows / group, cols)
    }

    /// Channel concatenation `[a | b]` (the eager `hstack`).
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn concat2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (ar, ac) = self.shape(a);
        let (br, bc) = self.shape(b);
        assert_eq!(ar, br, "ir concat2 row mismatch");
        self.push(Op::Concat2 { a, b }, ar, ac + bc)
    }

    /// Replicates a single row `rows` times (DGCNN-seg global-feature
    /// broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `x` has more than one row.
    pub fn broadcast(&mut self, x: NodeId, rows: usize) -> NodeId {
        let (xr, cols) = self.shape(x);
        assert_eq!(xr, 1, "ir broadcast expects a single row");
        self.push(Op::Broadcast { x, rows }, rows, cols)
    }

    /// Lowers a `Sequential` MLP onto `x`: each `Linear` becomes one
    /// `linear` node, with `relu` set on all but the last.
    pub fn mlp(&mut self, x: NodeId, seq: &Sequential) -> NodeId {
        let linears = seq.linears();
        let mut cur = x;
        for (i, lin) in linears.iter().enumerate() {
            cur = self.linear(cur, lin.weights(), lin.bias(), i + 1 < linears.len());
        }
        cur
    }

    /// Marks the graph's result node.
    pub fn set_output(&mut self, id: NodeId) {
        assert!(id.0 < self.nodes.len(), "ir output node out of range");
        self.output = Some(id);
    }
}
