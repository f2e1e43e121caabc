//! Bridges stage execution to `edgepc-trace` spans.
//!
//! Every pipeline stage the models execute runs inside [`stage`], which
//! measures wall-clock time (the span), collects the stage's [`OpCounts`]
//! into a [`StageRecord`] (the figure harnesses' input), and prices the
//! stage on the default Jetson AGX Xavier model so the trace carries
//! modeled device time/energy next to the measured wall clock.

use edgepc_geom::OpCounts;
use edgepc_nn::{Sequential, Tensor2};
use edgepc_sim::{EnergyModel, ExecMode, PowerState, StageKind, XavierModel};
use edgepc_trace::span;

use crate::strategy::StageRecord;

/// Span category label for a stage kind.
pub(crate) fn kind_label(kind: StageKind) -> &'static str {
    match kind {
        StageKind::Sample => "sample",
        StageKind::NeighborSearch => "search",
        StageKind::Grouping => "group",
        StageKind::FeatureCompute => "fc",
        StageKind::Other => "other",
    }
}

/// Runs `f` inside a span named `name`, appends the resulting
/// [`StageRecord`] to `records`, and annotates the span with the stage's
/// op counts plus its modeled Xavier time/energy.
///
/// Pricing mirrors [`price_stages`](crate::strategy::price_stages) with
/// tensor cores enabled: feature-compute stages with a known inner
/// dimension `fc_k` go through the tensor-core decision, everything else
/// through the generic throughput model in pipeline mode. Energy uses the
/// baseline power state — per-stage optimization flags are a figure-level
/// concern, not a trace-level one.
pub(crate) fn stage<T>(
    name: String,
    kind: StageKind,
    fc_k: Option<usize>,
    records: &mut Vec<StageRecord>,
    f: impl FnOnce() -> (T, OpCounts),
) -> T {
    let mut sp = span(name.clone(), kind_label(kind));
    let (value, ops) = f();
    let mut rec = StageRecord::new(kind, name, ops);
    rec.fc_k = fc_k;
    let device = XavierModel::jetson_agx_xavier();
    let ms = match (rec.kind, rec.fc_k) {
        (StageKind::FeatureCompute, Some(k)) => device.fc_time_ms(rec.ops.mac, k, true),
        _ => device.stage_time_ms(&rec.ops, ExecMode::Pipeline),
    };
    let mj = EnergyModel::jetson_agx_xavier().energy_mj(ms, PowerState::default());
    sp.set_ops(rec.ops);
    sp.set_modeled(ms, mj);
    drop(sp);
    records.push(rec);
    value
}

/// Runs the eager `mlp` over `x` as the feature-compute stage
/// `<name>.fc`: inner dimension `x.cols()`, two sequential rounds
/// (matmul, activation) per layer.
pub(crate) fn mlp_stage(
    name: &str,
    mlp: &mut Sequential,
    x: &Tensor2,
    records: &mut Vec<StageRecord>,
) -> Tensor2 {
    stage(
        format!("{name}.fc"),
        StageKind::FeatureCompute,
        Some(x.cols()),
        records,
        || {
            let mut ops = OpCounts::ZERO;
            let out = mlp.forward(x, &mut ops);
            ops.seq_rounds = seq_rounds(mlp);
            (out, ops)
        },
    )
}

/// Dependent rounds the device model charges an MLP: two per layer,
/// counting the ReLU between each pair of linears as a layer.
pub(crate) fn seq_rounds(mlp: &Sequential) -> u64 {
    2 * (2 * mlp.linears().len() as u64 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_records_and_traces_with_modeled_cost() {
        let (_, spans) = edgepc_trace::with_local(|| {
            let mut records = Vec::new();
            let out = stage(
                "t.sample(fps)".to_string(),
                StageKind::Sample,
                None,
                &mut records,
                || {
                    (
                        7usize,
                        OpCounts {
                            dist3: 1000,
                            ..OpCounts::ZERO
                        },
                    )
                },
            );
            assert_eq!(out, 7);
            assert_eq!(records.len(), 1);
            assert_eq!(records[0].ops.dist3, 1000);
            records
        });
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "t.sample(fps)");
        assert_eq!(spans[0].kind, "sample");
        assert_eq!(spans[0].ops.dist3, 1000);
        let ms = spans[0].modeled_ms.expect("stage is priced");
        assert!(ms > 0.0);
        let mj = spans[0].modeled_mj.expect("stage is priced");
        assert!((mj / ms - 5.85).abs() < 1e-9, "baseline power is 5.85 W");
    }

    #[test]
    fn fc_stage_uses_tensor_core_pricing() {
        let device = XavierModel::jetson_agx_xavier();
        let ops = OpCounts {
            mac: 50_000_000,
            ..OpCounts::ZERO
        };
        let (_, spans) = edgepc_trace::with_local(|| {
            let mut records = Vec::new();
            stage(
                "t.fc".to_string(),
                StageKind::FeatureCompute,
                Some(64),
                &mut records,
                || ((), ops),
            );
        });
        let expect = device.fc_time_ms(ops.mac, 64, true);
        assert_eq!(spans[0].modeled_ms, Some(expect));
        // Wide-k FC must beat the generic CUDA-rate pricing.
        assert!(expect < device.fc_time_ms(ops.mac, 4, true));
    }
}
