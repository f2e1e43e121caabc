//! The scheduler: liveness planning.
//!
//! [`compile`] turns a [`Graph`] into an executable [`Plan`]. Lowering
//! already did the fusion: each `linear` node is one fused
//! `A * W + b (+ ReLU)` step over the blocked panel kernel
//! (`edgepc_nn::fused_linear`), and a gather is never materialized — its
//! one consumer, a `linear`, streams the gathered rows straight into
//! panel staging. What is left is buffer lifetimes, planned over one
//! arena with a first-fit free list (coalescing on free): a node's
//! region is allocated before its operands are released, so every
//! step's destination is disjoint from its sources and steady-state
//! execution never allocates.

use crate::graph::{GatherMode, Graph, Op};
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
    Fused {
        src: ASrc,
        m: usize,
        w: usize,
        relu: bool,
        dst: Region,
    },
    /// Grouped max-pool (`max_pool_groups` semantics).
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
    /// Bytes the eager grouping buffer materializes per forward.
    pub eager_bytes: u64,
    /// Bytes the plan actually streams (indices, plus relative
    /// coordinates for SA grouping).
    pub fused_bytes: u64,
}

/// A fused step's parameters, weights prepacked when the step takes the
/// blocked kernel path.
pub(crate) struct PlanLinear {
    pub(crate) w: Tensor2,
    pub(crate) b: Vec<f32>,
    pub(crate) packed: Option<PackedPanels>,
}

/// Expected runtime shape of one gather slot.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GatherSpec {
    pub(crate) rows: usize,
    pub(crate) mode: GatherMode,
}

/// An executable schedule: fused steps, parameter snapshots (weights
/// prepacked for the blocked kernel path), arena layout, and static
/// per-run op counts. Plans are immutable and `Send + Sync`, so one
/// plan can serve many executors.
pub struct Plan {
    pub(crate) label: String,
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
    /// The plan's span label.
    pub fn label(&self) -> &str {
        &self.label
    }

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

    let mut planner = ArenaPlanner::new();
    // How each node is realized: an arena region, an input slot, or a
    // gather slot streamed by its one linear reader.
    let mut realized: Vec<ASrc> = Vec::with_capacity(graph.nodes.len());
    let mut steps = Vec::new();
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
            _ => {}
        }
        let dst = planner.alloc(node.rows * node.cols);
        steps.push(match node.op {
            Op::Linear { x, p, relu } => {
                ops.mac += (node.rows * graph.linears[p].w.rows() * node.cols) as u64;
                Step::Fused {
                    src: realized[x.0],
                    m: node.rows,
                    w: p,
                    relu,
                    dst,
                }
            }
            Op::MaxPool { x, group } => {
                let (rows, cols) = graph.shape(x);
                Step::MaxPool {
                    src: src_of(&realized, x.0),
                    rows,
                    cols,
                    group,
                    dst,
                }
            }
            Op::Concat2 { a, b } => Step::Concat2 {
                a: src_of(&realized, a.0),
                b: src_of(&realized, b.0),
                rows: node.rows,
                a_cols: graph.shape(a).1,
                b_cols: graph.shape(b).1,
                dst,
            },
            Op::Broadcast { x, rows } => Step::Broadcast {
                src: src_of(&realized, x.0),
                cols: node.cols,
                rows_out: rows,
                dst,
            },
            // Source ops take no step; both arms above `continue`.
            Op::Input { .. } | Op::Gather { .. } => continue,
        });
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

    // Prepack every weight whose fused step takes the blocked kernel
    // path, so steady-state runs skip per-call panel packing.
    let mut linears: Vec<PlanLinear> = graph
        .linears
        .iter()
        .map(|p| PlanLinear {
            w: p.w.clone(),
            b: p.b.clone(),
            packed: None,
        })
        .collect();
    for step in &steps {
        if let Step::Fused { m, w, .. } = *step {
            let lin = &mut linears[w];
            if kernel_uses_blocked_path(m, lin.w.rows(), lin.w.cols()) && lin.packed.is_none() {
                lin.packed = Some(PackedPanels::pack(&lin.w));
            }
        }
    }

    let mut gather_sites = Vec::new();
    let mut gather_specs = Vec::new();
    for node in &graph.nodes {
        if let Op::Gather { slot, mode } = node.op {
            gather_sites.push(GatherSite {
                label: graph.gather_labels[slot].clone(),
                eager_bytes: mode.eager_bytes(node.rows),
                fused_bytes: mode.fused_bytes(node.rows),
            });
            gather_specs.push(GatherSpec {
                rows: node.rows,
                mode,
            });
        }
    }

    let (out_rows, out_cols) = graph.shape(output);
    Plan {
        label: graph.label.clone(),
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

/// A non-linear op's operand: an arena region or an input slot (a
/// gather streams into a linear only).
fn src_of(realized: &[ASrc], id: usize) -> Src {
    match realized[id] {
        ASrc::Arena(r) => Src::Arena(r),
        ASrc::Input(slot) => Src::Input(slot),
        ASrc::Gather(_) => edgepc_geom::violation("ir compile: a gather can only feed a linear"),
    }
}
