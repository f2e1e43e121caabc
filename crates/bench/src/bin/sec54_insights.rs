//! Regenerates the paper's Sec. 5.4 "shifted bottleneck" measurements.
//!
//! 5.4.1 — Tensor-core utilization: the 12-channel convolution runs with
//! zero tensor-core utilization; reshaping it to 120 channels (same MACs)
//! reaches 40% utilization and runs 40.4 ms -> 18.3 ms (~2.2x). Using the
//! tensor cores accelerates end-to-end inference by a further ~27%.
//!
//! 5.4.2 — Grouping data movement: sorting each row of the gather-index
//! matrix cuts L2 traffic by 53.9% and DRAM traffic by 25.7%.
//!
//! Run with `cargo run --release -p edgepc-bench --bin sec54_insights`.

use edgepc::prelude::*;
use edgepc::{compare, EdgePcConfig, Workload};
use edgepc_bench::{banner, ms, pct, report, row, speedup};
use edgepc_geom::rng::StdRng;
use edgepc_geom::OpCounts;
use edgepc_models::{
    CompiledDgcnn, CompiledPointNetPp, DgcnnClassifier, DgcnnConfig, PipelineStrategy,
    PointNetPpConfig, PointNetPpSeg,
};

fn main() {
    banner(
        "Sec 5.4: shifted-bottleneck insights",
        "TC reshape 40.4->18.3 ms (2.2x), +27% E2E; sorted gather -53.9% L2 / -25.7% DRAM",
    );
    report::capture("sec54_insights", || {
        tensor_cores();
        grouping_traffic();
    });
}

fn tensor_cores() {
    println!("\n-- 5.4.1 tensor-core utilization --");
    let device = XavierModel::jetson_agx_xavier();
    // The paper's profiled convolution: input 32x1000x12x32, weights
    // 12x64x1x1 vs the reshaped 32x100x120x32 with 120x64x1x1.
    let mac: u64 = 32 * 1000 * 32 * 12 * 64;
    let narrow = device.fc_time_ideal_ms(mac, 12, true);
    let wide = device.fc_time_ideal_ms(mac, 120, true);
    row(
        "12-ch conv TC utilization",
        "0%",
        pct(device.tensor_core_utilization(12, true)),
    );
    row(
        "120-ch conv TC utilization",
        "40%",
        pct(device.tensor_core_utilization(120, true)),
    );
    row("12-ch conv latency", "40.4 ms", ms(narrow));
    row("120-ch reshaped latency", "18.3 ms", ms(wide));
    row("reshape speedup", "2.21x", speedup(narrow / wide));

    // E2E effect of enabling tensor cores on top of S+N (W6, the paper's
    // best case).
    let c = compare(
        Workload::W6,
        &EdgePcConfig::paper_default(),
        Workload::W6.spec().points,
    );
    row(
        "extra E2E speedup from tensor cores",
        "~27% (up to 2.25x total)",
        format!(
            "{} extra ({} total)",
            pct(c.e2e_speedup_snf / c.e2e_speedup_sn - 1.0),
            speedup(c.e2e_speedup_snf)
        ),
    );
}

fn grouping_traffic() {
    println!("\n-- 5.4.2 grouping-stage memory traffic --");
    // A PointNet++-shaped gather: n*k = 8N indices into N feature rows
    // (nk = 8N as the paper notes), 64-byte feature rows, replayed through
    // the Xavier L2 with raw vs row-sorted index order.
    // nk = 8N (the paper's PointNet++ ratio): every feature row is read
    // ~8 times across different groups, and the working set exceeds the
    // 512 KiB L2, so poor locality turns reuses into DRAM re-fetches.
    let n_points = 131_072usize; // 2 MiB of 16 B rows = 4x the L2
    let n_samples = 16_384;
    let k = 64;
    let row_bytes = 16u64; // 4-channel f32 rows: 4 rows share a cache line
    let warp = 32;
    let mut rng = StdRng::seed_from_u64(0x0542);

    // Raw index matrix: each sampled point's k neighbors lie in a local
    // window (they are spatial neighbors) but in arbitrary order, so each
    // 32-lane warp's loads scatter across the whole window.
    let mut raw: Vec<usize> = Vec::with_capacity(n_samples * k);
    for _ in 0..n_samples {
        let center = rng.gen_range(0..n_points);
        for _ in 0..k {
            let offset = rng.gen_range(0..k);
            raw.push((center + offset) % n_points);
        }
    }
    // Row-sorted matrix: sort each sampled point's k indices, so each warp
    // covers a compact sub-range and its loads coalesce.
    let mut sorted = raw.clone();
    for chunk in sorted.chunks_mut(k) {
        chunk.sort_unstable();
    }

    let mut l2 = CacheSim::xavier_l2();
    let s_raw = l2.replay_gather_coalesced(&raw, row_bytes, warp);
    let mut l2 = CacheSim::xavier_l2();
    let s_sorted = l2.replay_gather_coalesced(&sorted, row_bytes, warp);

    // "Read from L2" = all coalesced transactions the SMs issue to L2;
    // "read from system memory" = the subset that missed and filled from
    // DRAM.
    let total_raw = s_raw.hit_bytes + s_raw.miss_bytes;
    let total_sorted = s_sorted.hit_bytes + s_sorted.miss_bytes;
    let l2_red = 1.0 - total_sorted as f64 / total_raw.max(1) as f64;
    let dram_red = 1.0 - (s_sorted.miss_bytes as f64 / s_raw.miss_bytes.max(1) as f64);
    println!(
        "gather: {n_samples} x {k} indices over {n_points} rows ({} B rows, warp {warp})",
        row_bytes
    );
    println!(
        "raw order:    L2 reads {} KiB (DRAM fills {} KiB)",
        total_raw / 1024,
        s_raw.miss_bytes / 1024,
    );
    println!(
        "sorted rows:  L2 reads {} KiB (DRAM fills {} KiB)",
        total_sorted / 1024,
        s_sorted.miss_bytes / 1024,
    );
    row("L2 traffic reduction", "53.9%", pct(l2_red));
    row("DRAM traffic reduction", "25.7%", pct(dram_red));

    // Span the two replay orders so the results JSON records the gather
    // traffic of each ordering as its own site instead of losing it to
    // stdout only.
    for (name, bytes) in [("gather(raw)", total_raw), ("gather(sorted)", total_sorted)] {
        let mut sp = edgepc_trace::span(name, "group");
        sp.set_ops(OpCounts {
            gathered_bytes: bytes,
            ..OpCounts::ZERO
        });
    }

    // Fused-gather addendum: the same data-movement story on this repo's
    // CPU path. The IR scheduler folds each SA grouping gather into the
    // first fused MLP layer, so its traffic drops to the index +
    // relative-coordinate stream; an EdgeConv's gather-max reads `Q` rows,
    // more than the edge matrix where `C > 2c`. Every site reports its own
    // eager/fused byte counts (and its own span in the JSON).
    println!("\n-- fused-gather grouping traffic per site (edgepc-ir) --");
    let pnpp = PointNetPpSeg::new(&PointNetPpConfig::tiny(4, PipelineStrategy::baseline()), 4);
    let dgcnn = DgcnnClassifier::new(&DgcnnConfig::tiny(PipelineStrategy::baseline_dgcnn(3)), 5);
    let mut sites = CompiledPointNetPp::compile(&pnpp, 256).gather_sites();
    sites.extend(CompiledDgcnn::classifier(&dgcnn, 256).gather_sites());
    for site in sites {
        let mut sp = edgepc_trace::span(site.label.clone(), "group");
        sp.set_ops(OpCounts {
            gathered_bytes: site.fused_bytes,
            ..OpCounts::ZERO
        });
        drop(sp);
        row(
            &format!("{} fused/eager bytes", site.label),
            "site-attributed",
            format!(
                "{} / {} ({:+.1}%)",
                site.fused_bytes,
                site.eager_bytes,
                100.0 * (site.fused_bytes as f64 / site.eager_bytes.max(1) as f64 - 1.0)
            ),
        );
    }
    println!(
        "note: the trace-level cache model captures warp coalescing (the L2 \
         reduction) but touches an identical line set either way, so it \
         cannot reproduce the DRAM-side reduction, which on real hardware \
         comes from DRAM row-buffer and sectored-fill effects below this \
         model's granularity (see EXPERIMENTS.md)."
    );
}
