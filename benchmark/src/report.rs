//! Metric names, the result line, the output files and `compare`.

use std::collections::BTreeMap;
use std::path::Path;

use edgepc_trace::json::{self, Value};

pub const WORKLOADS: [&str; 4] = ["scene_seg", "object_cls", "stream_fixed", "stream_mixed"];

/// End-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("latency_p10_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("recall_at_k", "share"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, in `BENCHMARK.json` order: `(name, unit)`. The
/// prefix is the crate the number belongs to; `client.` is the load
/// generator itself.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("client.latency_p50_ms", "ms"),
    ("client.latency_p95_ms", "ms"),
    ("client.latency_p50_ms.r1", "ms"),
    ("client.latency_p50_ms.r3", "ms"),
    ("client.fail_share", "share"),
    ("client.fail_share.r3", "share"),
    ("client.max_rate_ok_rps", "1/s"),
    ("client.lateness_p95_ms", "ms"),
    ("client.samples", "count"),
    ("net.overhead_p50_ms", "ms"),
    ("net.encode_us", "us"),
    ("net.decode_us", "us"),
    ("net.bytes_per_request", "bytes"),
    ("net.backpressure_waits", "count"),
    ("net.failovers", "count"),
    ("net.shed", "count"),
    ("net.shard_imbalance", "share"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p95_ms", "ms"),
    ("serve.queue_wait_p50_ms.r1", "ms"),
    ("serve.queue_wait_p50_ms.r3", "ms"),
    ("serve.exec_p50_ms", "ms"),
    ("serve.exec_p95_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.shed", "count"),
    ("serve.expired", "count"),
    ("models.sample_self_ms", "ms"),
    ("models.search_self_ms", "ms"),
    ("models.group_self_ms", "ms"),
    ("models.fc_self_ms", "ms"),
    ("models.other_self_ms", "ms"),
    ("models.forward_ms", "ms"),
    ("models.eager_forward_ms", "ms"),
    ("models.baseline_forward_ms", "ms"),
    ("models.mac", "count"),
    ("models.dist3", "count"),
    ("models.gathered_bytes", "bytes"),
    ("models.seq_rounds", "count"),
    ("nn.fused_gmacs.k64", "GMAC/s"),
    ("nn.fused_gmacs.k256", "GMAC/s"),
    ("nn.matmul_gmacs.k64", "GMAC/s"),
    ("neighbor.window_ms", "ms"),
    ("neighbor.exact_ms", "ms"),
    ("neighbor.featknn_ms", "ms"),
    ("neighbor.dist3.window", "count"),
    ("neighbor.false_neighbor_rate", "share"),
    ("sample.morton_ms", "ms"),
    ("sample.fps_ms", "ms"),
    ("sample.coverage_radius", "length"),
    ("morton.structurize_ms", "ms"),
    ("morton.sorted_elems", "count"),
    ("ir.compile_ms", "ms"),
    ("ir.arena_bytes", "bytes"),
    ("ir.fused_gather_share", "share"),
    ("sim.modeled_ms", "modeled_ms"),
    ("sim.modeled_mj", "modeled_mj"),
    ("sim.modeled_sn_ms", "modeled_ms"),
    ("sim.modeled_fc_ms", "modeled_ms"),
    ("sim.modeled_group_ms", "modeled_ms"),
    ("sim.baseline_modeled_ms", "modeled_ms"),
    ("par.scaling", "x"),
    ("trace.overhead_share", "share"),
];

/// Values measured in one run, keyed by metric name.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
    }

    /// Marks every listed metric with this crate prefix as not applicable
    /// to the workload (0): the direct workloads have no client, net or
    /// serve layer.
    pub fn not_applicable(&mut self, prefix: &str) {
        for (name, _) in PER_LAYER {
            if name.starts_with(prefix) {
                self.set(name, 0.0);
            }
        }
    }
}

/// How a run went, next to its metrics.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

/// Facts about the run that the output file records beside the metrics.
pub struct RunInfo<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Extra `"key": value` members, already rendered.
    pub notes: &'a [(String, String)],
}

fn metric_list(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn metrics_json(metrics: &Metrics, trace: bool) -> String {
    let members: Vec<String> = metric_list(trace)
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json::fmt_f64(metrics.get(name))
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// Prints every metric as `workload metric value unit` and, last, the
/// one-line JSON result the driver reads.
pub fn print(info: &RunInfo, metrics: &Metrics, outcome: &Outcome) {
    for (name, unit) in metric_list(info.trace) {
        println!("{} {name} {} {unit}", info.workload, metrics.get(name));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics_json(metrics, info.trace)
    );
}

fn env_or(name: &str, fallback: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| fallback.to_string())
}

/// Writes `<dir>/<workload>.json` (untraced) or `<workload>.layers.json`
/// (traced): the metrics plus what is needed to repeat the run.
pub fn write(
    dir: &Path,
    info: &RunInfo,
    metrics: &Metrics,
    outcome: &Outcome,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut members = vec![
        format!("\"workload\": \"{}\"", info.workload),
        format!("\"seed\": {}", info.seed),
        format!("\"seconds\": {}", info.seconds),
        format!("\"trace\": {}", info.trace),
        format!(
            "\"commit\": \"{}\"",
            json::escape(&env_or("EDGEPC_BENCH_COMMIT", "unknown"))
        ),
        format!(
            "\"rustc\": \"{}\"",
            json::escape(&env_or("EDGEPC_BENCH_RUSTC", "unknown"))
        ),
        format!("\"nproc\": {}", nproc()),
        format!(
            "\"edgepc_threads\": \"{}\"",
            json::escape(&env_or("EDGEPC_THREADS", ""))
        ),
        format!("\"correct\": {}", outcome.correct),
        format!("\"attempted\": {}", outcome.attempted),
        format!("\"failed\": {}", outcome.failed),
    ];
    members.extend(info.notes.iter().map(|(k, v)| format!("\"{k}\": {v}")));
    members.push(format!(
        "\"metrics\": {}",
        metrics_json(metrics, info.trace)
    ));
    let suffix = if info.trace { ".layers.json" } else { ".json" };
    std::fs::write(
        dir.join(format!("{}{suffix}", info.workload)),
        format!("{{\n  {}\n}}\n", members.join(",\n  ")),
    )
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `compare <dirA> <dirB>`: per workload and end-to-end metric, both
/// values, the change of B against A, the bound from `BENCHMARK.json`,
/// and a verdict. `within`: B is no worse than A by more than the bound.
/// `regressed`: it is. `unresolved`: it is, but the latency medians of
/// five windows inside one of the two runs already differ by more than
/// the bound, so single runs cannot tell (timed metrics only). Returns
/// the report and whether every pair is within its bound.
pub fn compare(bench: &Path, a: &Path, b: &Path) -> Result<(String, bool), String> {
    let spec = load(bench)?;
    let mut out = format!(
        "{:<13} {:<17} {:>12} {:>12} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A", "B", "change", "bound"
    );
    let mut all_within = true;
    for workload in spec.get("workloads").and_then(Value::as_arr).unwrap_or(&[]) {
        let workload = workload.get("name").and_then(Value::as_str).unwrap_or("");
        let run_a = load(&a.join(format!("{workload}.json")))?;
        let run_b = load(&b.join(format!("{workload}.json")))?;
        let spread = |run: &Value| run.get("latency_spread").and_then(Value::as_f64);
        let noise = spread(&run_a)
            .unwrap_or(0.0)
            .max(spread(&run_b).unwrap_or(0.0));
        for m in spec
            .get("end_to_end")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
        {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("");
            let (name, unit) = (field("name"), field("unit"));
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let value = |run: &Value, dir: &Path| {
                run.get("metrics")
                    .and_then(|ms| ms.get(name))
                    .and_then(|v| v.get("value"))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{}: no {workload} {name}", dir.display()))
            };
            let (va, vb) = (value(&run_a, a)?, value(&run_b, b)?);
            // Positive = B is worse than A, as a share of A.
            let worse = if field("better") == "lower" {
                vb - va
            } else {
                va - vb
            } / va;
            let timed = name != "setup_s" && matches!(unit, "ms" | "1/s");
            let verdict = match (worse <= bound, timed && noise > bound) {
                (true, _) => "within",
                (false, true) => "unresolved",
                (false, false) => "regressed",
            };
            all_within &= worse <= bound;
            out.push_str(&format!(
                "{workload:<13} {name:<17} {va:>12.4} {vb:>12.4} {:>+8.2}% {:>6.1}%  {verdict}\n",
                (vb - va) / va * 100.0,
                bound * 100.0,
            ));
        }
    }
    Ok((out, all_within))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        load(&path).expect("BENCHMARK.json parses")
    }

    fn names(spec: &Value, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Value::as_arr)
            .expect("list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_prints() {
        let spec = spec();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&spec, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&spec, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names(&spec, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_alphabet() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok(name, "_.-", 64), "name {name}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(ok(unit, "_/%.-", 16), "unit {unit}");
            assert!(seen.insert(*name), "duplicate {name}");
        }
        for w in WORKLOADS {
            assert!(ok(w, "_.-", 64) && seen.insert(w));
        }
    }

    #[test]
    fn compare_flags_a_regression_beyond_the_bound() {
        let dir = std::env::temp_dir().join(format!("edgepc-bench-cmp-{}", std::process::id()));
        let write_set = |sub: &str, latency: f64| {
            let mut m = Metrics::default();
            for (name, _) in END_TO_END {
                m.set(name, 1.0);
            }
            m.set("latency_p10_ms", latency);
            for w in WORKLOADS {
                let info = RunInfo {
                    workload: w,
                    seed: 1,
                    seconds: 1,
                    trace: false,
                    notes: &[],
                };
                let outcome = Outcome {
                    correct: true,
                    attempted: 1,
                    failed: 0,
                };
                write(&dir.join(sub), &info, &m, &outcome).expect("write");
            }
        };
        write_set("a", 10.0);
        write_set("b", 10.5);
        write_set("c", 13.0);
        let bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let (_, ok) = compare(&bench, &dir.join("a"), &dir.join("b")).expect("compare");
        assert!(ok, "+5 % latency is inside the bound");
        let (text, ok) = compare(&bench, &dir.join("a"), &dir.join("c")).expect("compare");
        assert!(!ok && text.contains("regressed"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
