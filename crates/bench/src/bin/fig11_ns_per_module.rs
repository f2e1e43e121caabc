//! Regenerates paper Fig. 11: per-module neighbor-search speedup and false
//! neighbor ratio across the 4 SA modules of PointNet++(s).
//!
//! Paper: module 1 gets the largest speedup at the lowest FNR, which is why
//! EdgePC only optimizes layer 1 (Sec. 5.2.3); deeper modules offer little
//! speedup at much higher FNR.
//!
//! Run with `cargo run --release -p edgepc-bench --bin fig11_ns_per_module`.

use edgepc::prelude::*;
use edgepc::Workload;
use edgepc_bench::{banner, pct, report, speedup};
use edgepc_geom::OpCounts;
use edgepc_models::{CompiledPointNetPp, PipelineStrategy, PointNetPpConfig, PointNetPpSeg};

fn main() {
    banner(
        "Figure 11: neighbor-search speedup vs FNR per SA module",
        "module 1: biggest speedup, smallest FNR; modules 2-4: little gain, high FNR",
    );
    let cloud0 = Workload::W2.dataset(7).test[0].cloud.clone();
    let device = XavierModel::jetson_agx_xavier();
    let k = 32;

    report::capture("fig11_ns_per_module", || {
        // Walk the PointNet++ sampling pyramid: 8192 -> 1024 -> 256 -> 64 -> 16.
        let mut level_cloud = cloud0;
        println!(
            "\n{:<10} {:>8} {:>8} {:>12} {:>10}",
            "module", "N", "queries", "NS speedup", "FNR"
        );
        for module in 1..=4usize {
            let n_queries = (level_cloud.len() / 8).max(8);
            let sampled = FarthestPointSampler::new().sample(&level_cloud, n_queries);
            let queries = &sampled.indices;
            let k_eff = k.min(level_cloud.len() - 1);

            // Distinct per-module span names: the searchers' own spans all
            // share one name ("knn.search"), which the breakdown folds into
            // a single row — these wrappers keep each module's op counts
            // (including gathered_bytes) attributed to its own site in the
            // results JSON.
            let exact = {
                let mut sp = edgepc_trace::span(format!("layer{module}.search(exact)"), "search");
                let r = BruteKnn::new().search(&level_cloud, queries, k_eff);
                sp.set_ops(r.ops);
                r
            };
            // The paper's per-module study uses its default design point: the
            // degenerate index pick reusing the sampler's Morton codes.
            let approx = {
                let mut sp = edgepc_trace::span(format!("layer{module}.search(window)"), "search");
                let r =
                    MortonWindowSearcher::degenerate(k_eff).search(&level_cloud, queries, k_eff);
                sp.set_ops(r.ops);
                r
            };

            let t_exact = device.stage_time_ms(&exact.ops, ExecMode::Pipeline);
            let t_approx = device.stage_time_ms(&approx.ops, ExecMode::Pipeline);
            let fnr = false_neighbor_ratio(&approx.neighbors, &exact.neighbors);
            println!(
                "{:<10} {:>8} {:>8} {:>12} {:>10}",
                format!("layer{module}"),
                level_cloud.len(),
                queries.len(),
                speedup(t_exact / t_approx),
                pct(fnr)
            );
            level_cloud = sampled.extract(&level_cloud);
        }

        // Per-gather-site grouping traffic: the IR scheduler's fused-gather
        // accounting, one row per SA module, and whether the site's first
        // layer is hoisted (more gathered rows than source points). Each
        // site gets its own span (named after the site), so the results
        // JSON attributes gathered_bytes per module instead of folding
        // every grouping into one aggregated row.
        println!(
            "\n{:<12} {:>14} {:>14} {:>10} {:>8}",
            "gather site", "eager bytes", "fused bytes", "saved", "hoisted"
        );
        let model = PointNetPpSeg::new(
            &PointNetPpConfig::paper(8192, PipelineStrategy::baseline()),
            6,
        );
        let compiled = CompiledPointNetPp::compile(&model, 8192);
        for site in compiled.gather_sites() {
            let mut sp = edgepc_trace::span(site.label.clone(), "group");
            sp.set_ops(OpCounts {
                gathered_bytes: site.fused_bytes,
                ..OpCounts::ZERO
            });
            drop(sp);
            println!(
                "{:<12} {:>14} {:>14} {:>10} {:>8}",
                site.label,
                site.eager_bytes,
                site.fused_bytes,
                pct(1.0 - site.fused_bytes as f64 / site.eager_bytes.max(1) as f64),
                if site.hoisted { "yes" } else { "no" }
            );
        }
    });
    println!();
    println!(
        "note: deeper modules shrink N, so the O(N/W) advantage fades while \
         sparser points raise the FNR — the paper's argument for optimizing \
         only layer 1 (plus code reuse from the sampler)."
    );
}
