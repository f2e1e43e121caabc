//! The repo benchmark: four workloads, timed from outside the crates.
//!
//! ```text
//! edgepc-benchmark run --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! edgepc-benchmark compare DIR_A DIR_B
//! ```
//!
//! `run` measures one workload in this process and prints every metric
//! as `workload metric value unit`, then one JSON line with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` the per-layer ones. It exits
//! non-zero when an output was wrong or a request went missing. See
//! `README.md` for what each workload and metric is for. `compare` reads
//! the bounds from `BENCHMARK.json` in the working directory, which
//! `run.sh` makes the repository root.

mod direct;
mod inputs;
mod probes;
mod report;
mod spans;
mod stats;
mod stream;
mod subject;

use std::cell::RefCell;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::{Metrics, RunInfo};
use subject::Def;

/// Spans kept in `trace_<workload>.json`; the file states how many the
/// run recorded in all.
const TRACE_FILE_SPANS: usize = 20_000;

/// Open-loop rates of `stream_fixed`: a light load, the nominal load
/// (`latency_p10_ms` is read here) and a heavy one.
const FIXED_RATES: [f64; 3] = [200.0, 400.0, 800.0];
/// Open-loop rates of `stream_mixed`, frozen at about 20 / 40 / 60 % of
/// the closed-loop saturation throughput measured when the benchmark
/// was defined, so that `r3` loads the queue without overrunning it.
const MIXED_RATES: [f64; 3] = [150.0, 300.0, 450.0];


/// One invocation of `run`.
pub struct Run {
    pub start: Instant,
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    out: PathBuf,
    notes: RefCell<Vec<(String, String)>>,
}

impl Run {
    /// Records a fact the output file carries beside the metrics.
    pub fn note(&self, key: &str, value: impl Display) {
        self.notes
            .borrow_mut()
            .push((key.to_string(), value.to_string()));
    }

    /// Records the median of the latency samples (in measurement
    /// order), how steady they were inside the run, and how many there
    /// were.
    pub fn note_steadiness(&self, latencies_ms: &[f64]) {
        let windows = stats::window_medians(latencies_ms);
        self.note("samples", latencies_ms.len());
        self.note("latency_p50_ms", stats::median(&mut latencies_ms.to_vec()));
        self.note("latency_spread", stats::spread(&windows));
        self.note("latency_windows_ms", format!("{windows:?}"));
    }

    /// Writes the traced run's spans, now that the run has ended.
    pub fn finish_trace(&self, rec: spans::Recorder) {
        if !self.trace {
            return;
        }
        self.note("spans_recorded", rec.spans.len());
        let body = format!(
            "{{\"workload\": \"{}\", \"spans_recorded\": {}, \"spans\": {}}}\n",
            self.workload,
            rec.spans.len(),
            spans::to_json(&rec.spans, TRACE_FILE_SPANS)
        );
        let path = self.out.join(format!("trace_{}.json", self.workload));
        if let Err(e) =
            std::fs::create_dir_all(&self.out).and_then(|()| std::fs::write(&path, body))
        {
            eprintln!("{}: {e}", path.display());
        }
    }
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn run(args: &[String], start: Instant) -> Result<bool, String> {
    let number = |name: &str| -> Result<u64, String> {
        flag(args, name)
            .ok_or(format!("{name} is required"))?
            .parse()
            .map_err(|_| format!("{name} takes a whole number"))
    };
    let run = Run {
        start,
        workload: flag(args, "--workload")
            .ok_or("--workload is required")?
            .to_string(),
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: number("--trace")? != 0,
        out: PathBuf::from(flag(args, "--out").unwrap_or("benchmark/out")),
        notes: RefCell::default(),
    };
    let mut metrics = Metrics::default();
    let outcome = match run.workload.as_str() {
        "scene_seg" => direct::run(inputs::scene_pool, &run, &mut metrics),
        "object_cls" => direct::run(inputs::object_pool, &run, &mut metrics),
        "stream_fixed" => {
            run.note("rates_rps", format!("{FIXED_RATES:?}"));
            let spec = stream::Spec {
                pools: inputs::fixed_pools,
                models: &[Def::TinySeg],
                rates: FIXED_RATES,
            };
            stream::run(&spec, &run, &mut metrics)
        }
        "stream_mixed" => {
            run.note("rates_rps", format!("{MIXED_RATES:?}"));
            let spec = stream::Spec {
                pools: inputs::mixed_pools,
                models: &[Def::TinySeg, Def::TinyCls],
                rates: MIXED_RATES,
            };
            stream::run(&spec, &run, &mut metrics)
        }
        other => {
            return Err(format!(
                "unknown workload {other:?}; one of {:?}",
                report::WORKLOADS
            ))
        }
    };
    let notes = run.notes.borrow();
    let info = RunInfo {
        workload: &run.workload,
        seed: run.seed,
        seconds: run.seconds,
        trace: run.trace,
        notes: &notes,
    };
    report::write(&run.out, &info, &metrics, &outcome).map_err(|e| e.to_string())?;
    report::print(&info, &metrics, &outcome);
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..], start),
        Some("compare") if args.len() == 3 => report::compare(
            Path::new("BENCHMARK.json"),
            Path::new(&args[1]),
            Path::new(&args[2]),
        )
        .map(|(text, within)| {
            print!("{text}");
            within
        }),
        _ => Err(
            "usage: run --workload NAME --seed N --seconds S --trace 0|1 [--out DIR] | compare DIR_A DIR_B"
                .to_string(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("edgepc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
