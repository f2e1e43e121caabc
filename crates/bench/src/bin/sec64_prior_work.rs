//! Regenerates the paper's Sec. 6.4 comparison against Mesorasi's
//! delayed-aggregation (DA) technique on PointNet++ / S3DIS.
//!
//! Paper: DA accelerates feature compute 2.1x (88.2 -> 42.2 ms/batch) but
//! inflates the feature-grouping stage 2.73x, and — because it never
//! touches the sampling stage — only reaches 1.12x end to end, versus
//! EdgePC's 1.55x mean.
//!
//! A second table counts DGCNN's EdgeConv MACs under the one-pass
//! schedule, the compiled plan (which hoists the exact, per-point half of
//! delayed aggregation) and Mesorasi's full schedule.
//!
//! Run with `cargo run --release -p edgepc-bench --bin sec64_prior_work`.

use edgepc::{compare, EdgePcConfig, Workload};
use edgepc_bench::{banner, ms, report, row, speedup};
use edgepc_models::delayed::{
    conventional_schedule, delayed_aggregation_schedule, paper_sa1_shape, SaShape,
};
use edgepc_models::{
    price_stages, CompiledDgcnn, DgcnnClassifier, DgcnnConfig, ExecState, PipelineStrategy,
    StageRecord,
};
use edgepc_sim::{StageKind, XavierModel};

fn main() {
    banner(
        "Sec 6.4: delayed aggregation (Mesorasi) vs EdgePC",
        "DA: FC 2.1x faster, grouping 2.73x slower, E2E only 1.12x",
    );
    report::capture("sec64_prior_work", run);
    dgcnn_macs();
}

/// Paper DGCNN's EdgeConv MACs on one 1024-point cloud (k = 20) under
/// three schedules: one pass over the `n*k` edge rows `[f_i | f_j - f_i]`;
/// the compiled plan, which computes each row's `f_i · W[..c]` once per
/// point and resumes from it (exact in f32); and Mesorasi's delayed
/// aggregation, which also moves `f_j · W[c..]` per point and the max
/// inside (approximate), as `delayed.rs` predicts it.
fn dgcnn_macs() {
    let (n, k) = (1024, 20);
    // (in channels, out channels) of the four EdgeConv modules.
    let widths = [(3, 64), (64, 64), (64, 128), (128, 256)];
    let predicted = |schedule: fn(&SaShape, &str) -> Vec<StageRecord>| -> u64 {
        let module = |&(c, c_out): &(usize, usize)| {
            let shape = SaShape {
                n_in: n,
                n_out: n,
                k,
                c_in: 2 * c,
                c_out,
            };
            schedule(&shape, "ec")
                .iter()
                .map(|r| r.ops.mac)
                .sum::<u64>()
        };
        widths.iter().map(module).sum()
    };
    let model = DgcnnClassifier::new(&DgcnnConfig::paper(PipelineStrategy::baseline_dgcnn(4)), 16);
    let cloud = edgepc_data::bunny_with_points(n, 7);
    let (_, records) = CompiledDgcnn::classifier(&model, n).run(&cloud, &mut ExecState::new());
    let compiled: u64 = records
        .iter()
        .filter(|r| r.name.starts_with("ec") && r.name.ends_with(".fc"))
        .map(|r| r.ops.mac)
        .sum();
    println!(
        "
DGCNN EdgeConv MACs per 1024-point cloud (k = 20):"
    );
    row(
        "one-pass edge rows (eager)",
        "-",
        predicted(conventional_schedule),
    );
    row("compiled plan, f_i*W hoisted", "-", compiled);
    row(
        "Mesorasi DA (predicted)",
        "-",
        predicted(delayed_aggregation_schedule),
    );
}

fn run() {
    let device = XavierModel::jetson_agx_xavier();
    let batch = Workload::W1.spec().batch as u64;

    // The four SA modules of PointNet++(s) at 8192 points, batched.
    let shapes: [SaShape; 4] = [
        paper_sa1_shape(),
        SaShape {
            n_in: 1024,
            n_out: 256,
            k: 32,
            c_in: 128,
            c_out: 256,
        },
        SaShape {
            n_in: 256,
            n_out: 64,
            k: 32,
            c_in: 256,
            c_out: 512,
        },
        SaShape {
            n_in: 64,
            n_out: 16,
            k: 32,
            c_in: 512,
            c_out: 1024,
        },
    ];
    let price = |schedules: Vec<Vec<edgepc_models::StageRecord>>| {
        let mut all = Vec::new();
        for s in schedules {
            for r in s {
                all.push(r.scaled(batch as usize));
            }
        }
        price_stages(&all, &device, false)
    };
    let conv = price(
        shapes
            .iter()
            .enumerate()
            .map(|(i, s)| conventional_schedule(s, &format!("sa{}", i + 1)))
            .collect(),
    );
    let da = price(
        shapes
            .iter()
            .enumerate()
            .map(|(i, s)| delayed_aggregation_schedule(s, &format!("sa{}", i + 1)))
            .collect(),
    );

    let conv_fc = conv.time_of(StageKind::FeatureCompute);
    let da_fc = da.time_of(StageKind::FeatureCompute);
    let conv_grp = conv.time_of(StageKind::Grouping);
    let da_grp = da.time_of(StageKind::Grouping);
    row("conventional FC / batch", "88.2 ms", ms(conv_fc));
    row("DA FC / batch", "42.2 ms", ms(da_fc));
    row(
        "DA feature-compute speedup",
        "2.1x",
        speedup(conv_fc / da_fc),
    );
    row("DA grouping slowdown", "2.73x", speedup(da_grp / conv_grp));

    // End to end: DA leaves sampling + neighbor search untouched, so glue
    // its FC/grouping gains onto the measured baseline pipeline.
    let c = compare(
        Workload::W1,
        &EdgePcConfig::paper_default(),
        Workload::W1.spec().points,
    );
    let base_total = c.baseline.total_ms();
    let base_fc = c.baseline.time_of(StageKind::FeatureCompute);
    let base_grp = c.baseline.time_of(StageKind::Grouping);
    let da_total = base_total - base_fc - base_grp
        + base_fc * (da_fc / conv_fc)
        + base_grp * (da_grp / conv_grp);
    row(
        "DA end-to-end speedup",
        "1.12x",
        speedup(base_total / da_total),
    );
    row(
        "EdgePC end-to-end speedup (W1)",
        "~1.6x",
        speedup(c.e2e_speedup_sn),
    );
}
