//! The scheduler: liveness planning and the hoisting rule.
//!
//! [`compile`] turns a [`Graph`] into an executable [`Plan`]. Lowering
//! already did the fusion: each `linear` node is one fused
//! `A * W + b (+ ReLU)` step over the blocked panel kernel
//! (`edgepc_nn::fused_linear`), and a gather is never materialized — its
//! one consumer, a `linear`, streams the gathered rows straight into
//! panel staging.
//!
//! An EdgeConv (`Graph::edge_conv`) is already factored when it reaches
//! the scheduler: two dense `Fused` steps compute `P = X·U + b` and
//! `Q = X·V` once per point, and a `GatherMax` step folds each point's
//! neighbours' `Q` rows into `max(P_i + max_j Q_j, 0.0)`
//! (`edgepc_nn::gather_max_relu`). No edge row is ever formed.
//!
//! An SA gather that emits more rows than its source matrix has
//! (`rows > src_rows`) repeats each source row's leading `c` columns, so
//! its `linear` can run as two steps: `Hoist` computes
//! `P = feats · W[..c]` once per source row into a short-lived arena
//! region, and `Resume` runs the kernel over the gathered tail columns
//! only, each accumulator starting from its row of `P`. The kernel sums
//! k-ascending from its start, so this replays the one-pass f32
//! operations in order — bit-identical — for `(rows - src_rows) · c · n`
//! fewer MACs. It is taken only where it pays
//! (`edgepc_nn::hoisting_pays(c)`): a resumed register tile starts from
//! `MATMUL_MR` loaded rows where a one-pass tile starts from zeros, so
//! the head's `c` saved k-steps must outnumber those loads. The
//! coordinate-only first level (`c = 3`) stays one pass.
//!
//! A `linear` whose only reader is a `max_pool` carries the pool's group
//! into its `Fused` or `Resume` step: the kernel folds each finished row
//! into its group's running max (`edgepc_nn::fused_linear_pooled`), so
//! the `rows x n` product is never allocated. The pool node aliases the
//! step's pooled region and takes no step of its own; a standalone
//! `MaxPool` step is left only for pools no linear feeds (DGCNN's head
//! pools a concat).
//!
//! What is left is buffer lifetimes, planned over one arena with a
//! first-fit free list (coalescing on free): a node's region is
//! allocated before its operands are released, so every step's
//! destination is disjoint from its sources and steady-state execution
//! never allocates.

use crate::graph::{GatherMode, Graph, LinearParams, Op};
use edgepc_geom::OpCounts;
use edgepc_nn::{kernel_uses_blocked_path, PackedPanels, Tensor2};

/// A contiguous arena slice assigned by the liveness pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Region {
    pub(crate) off: usize,
    pub(crate) len: usize,
}

/// A step's read-only operand.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Src {
    Arena(Region),
    Input(usize),
}

/// The A operand of a fused linear step — and, in `compile`, how each
/// node is realized.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ASrc {
    Arena(Region),
    Input(usize),
    Gather(usize),
}

#[derive(Clone, Debug)]
pub(crate) enum Step {
    /// One fused `A * W + b (ReLU)` pass; `w` indexes `Plan::linears`.
    /// With `pool`, the pass also max-pools groups of that many rows in
    /// its epilogue, and `dst` holds the pooled `m / group` rows.
    Fused {
        src: ASrc,
        m: usize,
        w: usize,
        relu: bool,
        pool: Option<usize>,
        dst: Region,
    },
    /// The per-point head of a hoisted gather-fed linear: the dense
    /// product of gather `slot`'s `rows` source features with `W[..c]`
    /// (`Plan::linears[w]`), no bias, no ReLU.
    Hoist {
        slot: usize,
        rows: usize,
        w: usize,
        dst: Region,
    },
    /// The gathered tail of a hoisted linear: gather `slot`'s tail
    /// columns times `W[c..]` (`Plan::linears[w]`), each row starting
    /// from its `Hoist` row in `start`, then `+ b` (and ReLU), pooled
    /// like [`Step::Fused`] when `pool` is set.
    Resume {
        slot: usize,
        m: usize,
        w: usize,
        relu: bool,
        pool: Option<usize>,
        start: Region,
        dst: Region,
    },
    /// DGCNN's EdgeConv tail: `max(p_i + max_j q_j, 0.0)` per point
    /// (`edgepc_nn::gather_max_relu`, `cols` wide) over the `k`
    /// neighbours gather slot `slot` lists.
    GatherMax {
        p: Region,
        q: Region,
        slot: usize,
        k: usize,
        cols: usize,
        dst: Region,
    },
    /// Grouped max-pool (`max_pool_groups` semantics) of an operand no
    /// linear step could pool in its epilogue.
    MaxPool {
        src: Src,
        rows: usize,
        cols: usize,
        group: usize,
        dst: Region,
    },
    /// Channel concatenation (`hstack` semantics).
    Concat2 {
        a: Src,
        b: Src,
        rows: usize,
        a_cols: usize,
        b_cols: usize,
        dst: Region,
    },
    /// Single-row broadcast.
    Broadcast {
        src: Src,
        cols: usize,
        rows_out: usize,
        dst: Region,
    },
}

/// Per-gather-site traffic accounting: what the eager path writes into
/// a gathered intermediate vs. what the compiled plan streams.
#[derive(Clone, Debug)]
pub struct GatherSite {
    /// Site label (e.g. `"sa1.group"`).
    pub label: String,
    /// Bytes the eager grouping buffer materializes per forward. For an
    /// EdgeConv this is the paper's per-edge `[x_i, x_j - x_i]` matrix
    /// (`n·k·2c` floats), the price its eager record keeps.
    pub eager_bytes: u64,
    /// Bytes the plan actually streams: indices plus relative
    /// coordinates for SA grouping, the gathered `Q` rows (`n·k·C`
    /// floats) for an EdgeConv.
    pub fused_bytes: u64,
    /// Whether the reading linear is hoisted (`rows > src_rows` and a
    /// head wide enough to pay, see the module docs), so
    /// the site's stage does fewer MACs than the eager product.
    pub hoisted: bool,
}

/// A kernel step's weights (prepacked when the step takes the blocked
/// kernel path) and bias. A hoisted linear keeps only its head block
/// (bias-free) and its tail block, never the whole `W`.
pub(crate) struct PlanLinear {
    pub(crate) w: Tensor2,
    pub(crate) b: Vec<f32>,
    pub(crate) packed: Option<PackedPanels>,
}

impl PlanLinear {
    /// Snapshots `w` and `b` for a step over `m` rows.
    fn new(w: Tensor2, b: Vec<f32>, m: usize) -> Self {
        let blocked = kernel_uses_blocked_path(m, w.rows(), w.cols());
        let packed = blocked.then(|| PackedPanels::pack(&w));
        PlanLinear { w, b, packed }
    }
}

/// Expected runtime shape of one gather slot: `rows` indices into
/// `src_rows` points, staged as `mode` rows, or (`None`) a gather-max's
/// neighbour list, read for its indices only.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GatherSpec {
    pub(crate) rows: usize,
    pub(crate) src_rows: usize,
    pub(crate) mode: Option<GatherMode>,
}

/// An executable schedule: fused steps, parameter snapshots (weights
/// prepacked for the blocked kernel path), arena layout, and static
/// per-run op counts. Plans are immutable and `Send + Sync`, so one
/// plan can serve many executors.
pub struct Plan {
    pub(crate) steps: Vec<Step>,
    pub(crate) linears: Vec<PlanLinear>,
    pub(crate) input_shapes: Vec<(usize, usize)>,
    pub(crate) gather_specs: Vec<GatherSpec>,
    pub(crate) arena_len: usize,
    pub(crate) out: Region,
    out_rows: usize,
    out_cols: usize,
    ops: OpCounts,
    gather_sites: Vec<GatherSite>,
}

impl Plan {
    /// Total arena floats the executor needs.
    pub fn arena_len(&self) -> usize {
        self.arena_len
    }

    /// Output rows.
    pub fn out_rows(&self) -> usize {
        self.out_rows
    }

    /// Output columns.
    pub fn out_cols(&self) -> usize {
        self.out_cols
    }

    /// Static per-run op counts (the fused steps' MACs; the gather
    /// traffic is per site, see [`Plan::gather_sites`]).
    pub fn ops(&self) -> OpCounts {
        self.ops
    }

    /// Per-gather-site eager vs. fused traffic.
    pub fn gather_sites(&self) -> &[GatherSite] {
        &self.gather_sites
    }
}

/// First-fit arena allocator with adjacency coalescing on free. The
/// free list is kept sorted by offset, so allocation order — and with
/// it the whole plan — is deterministic.
struct ArenaPlanner {
    len: usize,
    free: Vec<Region>,
}

impl ArenaPlanner {
    fn new() -> Self {
        ArenaPlanner {
            len: 0,
            free: Vec::new(),
        }
    }

    fn alloc(&mut self, len: usize) -> Region {
        for i in 0..self.free.len() {
            if self.free[i].len >= len {
                let r = self.free[i];
                if r.len == len {
                    self.free.remove(i);
                } else {
                    self.free[i] = Region {
                        off: r.off + len,
                        len: r.len - len,
                    };
                }
                return Region { off: r.off, len };
            }
        }
        let r = Region { off: self.len, len };
        self.len += len;
        r
    }

    fn release(&mut self, r: Region) {
        if r.len == 0 {
            return;
        }
        let at = self.free.partition_point(|f| f.off < r.off);
        self.free.insert(at, r);
        // Coalesce with the right then the left neighbor.
        if at + 1 < self.free.len()
            && self.free[at].off + self.free[at].len == self.free[at + 1].off
        {
            self.free[at].len += self.free[at + 1].len;
            self.free.remove(at + 1);
        }
        if at > 0 && self.free[at - 1].off + self.free[at - 1].len == self.free[at].off {
            self.free[at - 1].len += self.free[at].len;
            self.free.remove(at);
        }
        // `len` is deliberately NOT trimmed here: it is the arena's
        // high-water mark, and regions near the top may still be read
        // by the step that just released them.
    }
}

/// Compiles `graph` into an executable [`Plan`] (see the module docs
/// for the liveness rule).
///
/// # Panics
///
/// Panics (via `guard::violation`) if the graph has no output, a gather
/// does not feed exactly one `linear`, or an op feeds a shape the
/// scheduler cannot realize.
pub fn compile(graph: &Graph) -> Plan {
    let _sp = edgepc_trace::span(format!("ir.compile.{}", graph.label), "compile");
    let output = match graph.output {
        Some(o) => o,
        None => edgepc_geom::violation("ir compile: graph has no output node"),
    };

    // Pending uses per node; a region is released after its last reader
    // runs. The output node gets one synthetic use so its region survives.
    let mut remaining = vec![0usize; graph.nodes.len()];
    for node in &graph.nodes {
        for dep in node.op.deps() {
            remaining[dep.0] += 1;
        }
    }
    remaining[output.0] += 1;

    // A linear whose only reader is a max-pool runs the pool in its
    // epilogue: its region holds the pooled rows, and the pool node
    // aliases it instead of taking a step.
    let mut pooled = vec![None; graph.nodes.len()];
    for node in &graph.nodes {
        if let Op::MaxPool { x, group } = node.op {
            if remaining[x.0] == 1 && matches!(graph.node(x).op, Op::Linear { .. }) {
                pooled[x.0] = Some(group);
            }
        }
    }

    let mut planner = ArenaPlanner::new();
    // How each node is realized: an arena region, an input slot, or a
    // gather slot streamed by its one linear reader.
    let mut realized: Vec<ASrc> = Vec::with_capacity(graph.nodes.len());
    let mut steps = Vec::new();
    let mut linears = Vec::new();
    let mut ops = OpCounts::default();

    for (i, node) in graph.nodes.iter().enumerate() {
        match node.op {
            Op::Input { slot } => {
                realized.push(ASrc::Input(slot));
                continue;
            }
            Op::Gather { slot, .. } => {
                if remaining[i] != 1 {
                    edgepc_geom::violation("ir compile: a gather must feed exactly one linear");
                }
                realized.push(ASrc::Gather(slot));
                continue;
            }
            Op::MaxPool { x, .. } if pooled[x.0].is_some() => {
                realized.push(realized[x.0]);
                continue;
            }
            _ => {}
        }
        let pool = pooled[i];
        let dst = planner.alloc(node.rows / pool.unwrap_or(1) * node.cols);
        match node.op {
            Op::Linear { x, p, relu } => {
                let LinearParams { w, b } = &graph.linears[p];
                let n = node.cols;
                match graph.node(x).op {
                    Op::Gather {
                        slot,
                        mode,
                        src_rows,
                    } if hoists(node.rows, src_rows, mode) => {
                        let (head, tail) = w.split_rows(mode.channels());
                        ops.mac += ((src_rows * head.rows() + node.rows * tail.rows()) * n) as u64;
                        let start = planner.alloc(src_rows * n);
                        steps.push(Step::Hoist {
                            slot,
                            rows: src_rows,
                            w: linears.len(),
                            dst: start,
                        });
                        linears.push(PlanLinear::new(head, Vec::new(), src_rows));
                        steps.push(Step::Resume {
                            slot,
                            m: node.rows,
                            w: linears.len(),
                            relu,
                            pool,
                            start,
                            dst,
                        });
                        linears.push(PlanLinear::new(tail, b.clone(), node.rows));
                        planner.release(start);
                    }
                    _ => {
                        ops.mac += (node.rows * w.rows() * n) as u64;
                        steps.push(Step::Fused {
                            src: realized[x.0],
                            m: node.rows,
                            w: linears.len(),
                            relu,
                            pool,
                            dst,
                        });
                        linears.push(PlanLinear::new(w.clone(), b.clone(), node.rows));
                    }
                }
            }
            Op::GatherMax { p, q, slot, k, .. } => steps.push(Step::GatherMax {
                p: arena_of(&realized, p.0),
                q: arena_of(&realized, q.0),
                slot,
                k,
                cols: node.cols,
                dst,
            }),
            Op::MaxPool { x, group } => {
                let (rows, cols) = graph.shape(x);
                steps.push(Step::MaxPool {
                    src: src_of(&realized, x.0),
                    rows,
                    cols,
                    group,
                    dst,
                });
            }
            Op::Concat2 { a, b } => steps.push(Step::Concat2 {
                a: src_of(&realized, a.0),
                b: src_of(&realized, b.0),
                rows: node.rows,
                a_cols: graph.shape(a).1,
                b_cols: graph.shape(b).1,
                dst,
            }),
            Op::Broadcast { x, rows } => steps.push(Step::Broadcast {
                src: src_of(&realized, x.0),
                cols: node.cols,
                rows_out: rows,
                dst,
            }),
            // Source ops and pooled aliases take no step; the arms above
            // `continue`.
            Op::Input { .. } | Op::Gather { .. } => continue,
        }
        for dep in node.op.deps() {
            remaining[dep.0] -= 1;
            if let (0, ASrc::Arena(r)) = (remaining[dep.0], realized[dep.0]) {
                planner.release(r);
            }
        }
        realized.push(ASrc::Arena(dst));
    }

    let out = match realized[output.0] {
        ASrc::Arena(r) => r,
        _ => edgepc_geom::violation("ir compile: output node is not arena-backed"),
    };

    // Slots are numbered in node order, so this lists them in slot order.
    let mut gather_sites = Vec::new();
    let mut gather_specs = Vec::new();
    for node in &graph.nodes {
        let (site, spec) = match node.op {
            Op::Gather {
                slot,
                mode,
                src_rows,
            } => (
                GatherSite {
                    label: graph.gather_labels[slot].clone(),
                    eager_bytes: mode.eager_bytes(node.rows),
                    fused_bytes: mode.fused_bytes(node.rows),
                    hoisted: hoists(node.rows, src_rows, mode),
                },
                GatherSpec {
                    rows: node.rows,
                    src_rows,
                    mode: Some(mode),
                },
            ),
            Op::GatherMax { q, slot, k, c, .. } => {
                let edges = node.rows * k;
                (
                    GatherSite {
                        label: graph.gather_labels[slot].clone(),
                        eager_bytes: (edges * 2 * c * 4) as u64,
                        fused_bytes: (edges * node.cols * 4) as u64,
                        hoisted: false,
                    },
                    GatherSpec {
                        rows: edges,
                        src_rows: graph.shape(q).0,
                        mode: None,
                    },
                )
            }
            _ => continue,
        };
        gather_sites.push(site);
        gather_specs.push(spec);
    }

    let (out_rows, out_cols) = graph.shape(output);
    Plan {
        steps,
        linears,
        input_shapes: graph.input_shapes.clone(),
        gather_specs,
        arena_len: planner.len,
        out,
        out_rows,
        out_cols,
        ops,
        gather_sites,
    }
}

/// Whether a gather of `rows` rows from `src_rows` points feeds a
/// hoisted linear: its rows repeat source rows, and the head is wide
/// enough to pay for the resumed pass.
fn hoists(rows: usize, src_rows: usize, mode: GatherMode) -> bool {
    rows > src_rows && edgepc_nn::hoisting_pays(mode.channels())
}

/// A gather-max operand: the arena region of a linear node.
fn arena_of(realized: &[ASrc], id: usize) -> Region {
    match realized[id] {
        ASrc::Arena(r) => r,
        _ => edgepc_geom::violation("ir compile: a gather-max reads arena regions only"),
    }
}

/// A non-linear op's operand: an arena region or an input slot (a
/// gather streams into a linear only).
fn src_of(realized: &[ASrc], id: usize) -> Src {
    match realized[id] {
        ASrc::Arena(r) => Src::Arena(r),
        ASrc::Input(slot) => Src::Input(slot),
        ASrc::Gather(_) => edgepc_geom::violation("ir compile: a gather can only feed a linear"),
    }
}
