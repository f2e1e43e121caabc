//! The models under test and the output oracle.
//!
//! A [`Subject`] is one plan key — a model and a cloud size — with its
//! pool of input clouds, the eager model, the compiled plan and the
//! bit-exact reference logits every later output is checked against.

use std::time::Instant;

use edgepc_geom::PointCloud;
use edgepc_ir::GatherSite;
use edgepc_models::{
    CompiledDgcnn, CompiledPointNetPp, DgcnnClassifier, DgcnnConfig, ExecState, PipelineStrategy,
    PointNetPpConfig, PointNetPpSeg, SampleStrategy, SearchStrategy, StageRecord,
};
use edgepc_nn::Tensor2;
use edgepc_serve::{ModelSpec, ServeModel};
use edgepc_sim::PowerState;

use crate::inputs::Wire;

/// Class count of the two served (tiny) models.
pub const SERVED_CLASSES: usize = 16;

/// The four models the workloads run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Def {
    /// Paper-shape PointNet++ segmentation, `edgepc_layers(4, 1, 128)`.
    PaperSeg { classes: usize },
    /// Paper DGCNN classifier, `edgepc_dgcnn(4, 80)`.
    PaperCls { classes: usize },
    /// `ModelSpec::pointnetpp_tiny(16)`, as the engine serves it.
    TinySeg,
    /// `ModelSpec::dgcnn_cls_tiny(16)`, as the engine serves it.
    TinyCls,
}

/// The configuration a model is built from.
enum Config {
    Seg(PointNetPpConfig),
    Cls(DgcnnConfig),
}

/// What the model's first level samples and searches, read from the
/// [`Config`] the model is built from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FirstLevel {
    /// A set-abstraction level: `n` sampled points, `k` neighbors each.
    Sa {
        n: usize,
        k: usize,
        sample: SampleStrategy,
        search: SearchStrategy,
    },
    /// An EdgeConv module: `k` neighbors of every point.
    Edge { k: usize, search: SearchStrategy },
}

pub enum Net {
    Seg(Box<PointNetPpSeg>),
    Cls(Box<DgcnnClassifier>),
}

pub enum Plan {
    Seg(CompiledPointNetPp),
    Cls(CompiledDgcnn),
}

impl Def {
    /// The spec the served workloads hand to the router, or the same
    /// model with the all-exact strategies.
    pub fn spec(self, baseline: bool) -> ModelSpec {
        match (self, baseline) {
            (Def::TinySeg, false) => ModelSpec::pointnetpp_tiny(SERVED_CLASSES),
            (Def::TinyCls, false) => ModelSpec::dgcnn_cls_tiny(SERVED_CLASSES),
            (Def::TinySeg, true) => ModelSpec::PointNetPpTiny {
                classes: SERVED_CLASSES,
                strategy: PipelineStrategy::baseline(),
            },
            (Def::TinyCls, true) => ModelSpec::DgcnnClsTiny {
                classes: SERVED_CLASSES,
                strategy: PipelineStrategy::baseline_dgcnn(3),
            },
            (Def::PaperSeg { .. } | Def::PaperCls { .. }, _) => {
                unreachable!("the paper-size models are called directly, never served")
            }
        }
    }

    /// The configuration of the model with the EdgePC strategies the
    /// workload runs, or with the all-exact strategies the paper's
    /// speed-up is measured against. The served models take theirs from
    /// the [`ModelSpec`], through the constructors `ServeModel::build`
    /// calls.
    fn config(self, n_points: usize, baseline: bool) -> Config {
        match self {
            Def::PaperSeg { .. } => {
                let strategy = if baseline {
                    PipelineStrategy::baseline()
                } else {
                    PipelineStrategy::edgepc_layers(4, 1, 128)
                };
                Config::Seg(PointNetPpConfig::paper(n_points, strategy))
            }
            Def::PaperCls { .. } => {
                let strategy = if baseline {
                    PipelineStrategy::baseline_dgcnn(4)
                } else {
                    PipelineStrategy::edgepc_dgcnn(4, 80)
                };
                Config::Cls(DgcnnConfig::paper(strategy))
            }
            Def::TinySeg | Def::TinyCls => match self.spec(baseline) {
                ModelSpec::PointNetPpTiny { classes, strategy } => {
                    Config::Seg(PointNetPpConfig::tiny(classes, strategy))
                }
                ModelSpec::DgcnnClsTiny { strategy, .. } => {
                    Config::Cls(DgcnnConfig::tiny(strategy))
                }
                other => unreachable!("{other:?} is not served here"),
            },
        }
    }

    /// Builds the eager model from [`Def::config`]. The served models
    /// come from `ServeModel::build`, the same call every engine worker
    /// makes.
    pub fn build(self, n_points: usize, baseline: bool) -> Net {
        match self {
            Def::PaperSeg { classes } | Def::PaperCls { classes } => {
                match self.config(n_points, baseline) {
                    Config::Seg(c) => Net::Seg(Box::new(PointNetPpSeg::new(&c, classes))),
                    Config::Cls(c) => Net::Cls(Box::new(DgcnnClassifier::new(&c, classes))),
                }
            }
            Def::TinySeg | Def::TinyCls => match ServeModel::build(&self.spec(baseline)) {
                ServeModel::PointNetPp(m) => Net::Seg(m),
                ServeModel::DgcnnCls(m) => Net::Cls(m),
                ServeModel::DgcnnSeg(_) => unreachable!("no segmenter spec is built here"),
            },
        }
    }

    pub fn first_level(self, n_points: usize) -> FirstLevel {
        match self.config(n_points, false) {
            Config::Seg(c) => FirstLevel::Sa {
                n: c.levels[0].n_points,
                k: c.levels[0].k,
                sample: c.strategy.sample_at(0),
                search: c.strategy.search_at(0),
            },
            Config::Cls(c) => FirstLevel::Edge {
                k: c.k,
                search: c.strategy.search_at(0),
            },
        }
    }

    /// Power state the energy model prices this model's EdgePC run in.
    pub fn power(self) -> PowerState {
        PowerState {
            morton_approx: true,
            neighbor_reuse: matches!(self, Def::PaperCls { .. } | Def::TinyCls),
        }
    }

    /// Index of this model in the served model list.
    pub fn served_index(self) -> u16 {
        match self {
            Def::TinyCls => 1,
            _ => 0,
        }
    }
}

impl Net {
    pub fn forward(&mut self, cloud: &PointCloud) -> (Tensor2, Vec<StageRecord>) {
        match self {
            Net::Seg(m) => m.forward(cloud),
            Net::Cls(m) => m.forward(cloud),
        }
    }

    pub fn compile(&self, n_points: usize) -> Plan {
        match self {
            Net::Seg(m) => Plan::Seg(CompiledPointNetPp::compile(m, n_points)),
            Net::Cls(m) => Plan::Cls(CompiledDgcnn::classifier(m, n_points)),
        }
    }
}

impl Plan {
    pub fn run(&self, cloud: &PointCloud, state: &mut ExecState) -> (Tensor2, Vec<StageRecord>) {
        match self {
            Plan::Seg(p) => p.run(cloud, state),
            Plan::Cls(p) => p.run(cloud, state),
        }
    }

    pub fn gather_sites(&self) -> Vec<GatherSite> {
        match self {
            Plan::Seg(p) => p.gather_sites(),
            Plan::Cls(p) => p.gather_sites(),
        }
    }
}

/// Bitwise equality of two logit buffers (NaN-safe, sign-of-zero exact).
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

pub struct Subject {
    pub def: Def,
    pub n_points: usize,
    /// Share of the workload's requests that use this plan key.
    pub weight: f64,
    pub clouds: Vec<PointCloud>,
    pub net: Net,
    pub plan: Plan,
    pub state: ExecState,
    /// Wall time of the one `compile` call (ms).
    pub compile_ms: f64,
    /// Reference logits per cloud, filled by [`Subject::make_refs`].
    pub refs: Vec<Vec<f32>>,
    /// Stage records of the compiled forward on cloud 0 (exact op counts).
    pub records: Vec<StageRecord>,
}

impl Subject {
    /// Builds the model and compiles its plan. Part of set-up.
    pub fn build(def: Def, clouds: Vec<PointCloud>, weight: f64) -> Subject {
        let n_points = clouds[0].len();
        let net = def.build(n_points, false);
        let t0 = Instant::now();
        let plan = net.compile(n_points);
        let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
        Subject {
            def,
            n_points,
            weight,
            clouds,
            net,
            plan,
            state: ExecState::new(),
            compile_ms,
            refs: Vec::new(),
            records: Vec::new(),
        }
    }

    /// One compiled forward on cloud `i`.
    pub fn run(&mut self, i: usize) -> Tensor2 {
        self.plan.run(&self.clouds[i], &mut self.state).0
    }

    /// The oracle: eager reference logits for every cloud of the pool,
    /// with the compiled plan checked bit-identical to each. Every cloud
    /// gets its reference even when one differs, so the run can go on and
    /// report `correct: false`.
    pub fn make_refs(&mut self) -> Result<(), String> {
        self.refs.clear();
        let mut differing = Vec::new();
        for (i, cloud) in self.clouds.iter().enumerate() {
            let (eager, _) = self.net.forward(cloud);
            let (compiled, records) = self.plan.run(cloud, &mut self.state);
            if !same_bits(eager.as_slice(), compiled.as_slice()) {
                differing.push(i);
            }
            if i == 0 {
                self.records = records;
            }
            self.refs.push(eager.into_vec());
        }
        if differing.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "oracle: compiled logits differ from eager ({:?}, {} points, clouds {differing:?})",
                self.def, self.n_points
            ))
        }
    }

    pub fn check(&self, cloud: usize, logits: &[f32]) -> bool {
        same_bits(&self.refs[cloud], logits)
    }

    /// The load generator's view of this plan key.
    pub fn wire(&self) -> Wire {
        Wire {
            model: self.def.served_index(),
            weight: self.weight,
            clouds: self.clouds.clone(),
            refs: self.refs.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgepc_data::bunny_with_points;

    #[test]
    fn a_failed_oracle_still_leaves_a_reference_for_every_cloud() {
        let clouds: Vec<PointCloud> = (0..3).map(|i| bunny_with_points(128, i)).collect();
        let mut subject = Subject::build(Def::TinySeg, clouds, 1.0);
        assert!(subject.make_refs().is_ok());
        // An eager model the plan was not compiled from: every cloud differs.
        subject.net = Def::TinySeg.build(128, true);
        let err = subject.make_refs().expect_err("logits differ");
        assert!(err.contains("clouds [0, 1, 2]"), "{err}");
        assert_eq!(subject.refs.len(), 3);
        let logits = subject.run(2);
        assert!(!subject.check(2, logits.as_slice()));
    }
}
