//! Host-peak probe: how close the blocked kernel runs to this machine's
//! own ceiling for the kernel's arithmetic.
//!
//! The kernel's numeric contract is a separately rounded multiply, then
//! an add (no fused multiply-add), so its ceiling is not the CPU's FMA
//! peak but the rate of the same multiply-then-add pair at the widest
//! vector width the build enables. This probe measures that ceiling with
//! a register-resident loop on one thread — independent `[f32; 16]`
//! accumulators, each step `acc = acc * m + a` — and prints it next to
//! the blocked kernel's GMAC/s at the repo benchmark's `nn.fused_gmacs`
//! shapes (k = 64 and k = 256), measured in the same process.
//!
//! Run with `cargo run --release --example host_peak`. The build's flags
//! decide the width: the root `.cargo/config.toml` builds for the host
//! CPU, `RUSTFLAGS="-C target-cpu=generic"` gives the portable baseline.

use std::hint::black_box;
use std::time::Instant;

use edgepc_nn::{fused_linear, PackedPanels, RowSource, Tensor2};

/// Lanes per accumulator.
const LANES: usize = 16;
/// Loop trips per timed run of the peak loop.
const STEPS: usize = 1 << 22;
/// Timed runs per measurement; the best one is reported.
const RUNS: usize = 20;

fn main() {
    let peak = [peak_gmacs::<4>(), peak_gmacs::<8>(), peak_gmacs::<12>()]
        .into_iter()
        .fold(0.0, f64::max);
    println!("host peak (multiply-then-add, one thread): {peak:6.1} GMAC/s");
    for (name, rows, k, n) in [
        ("nn.fused_gmacs.k64", 4096usize, 64usize, 64usize),
        ("nn.fused_gmacs.k256", 1024, 256, 512),
    ] {
        let gmacs = edgepc_par::with_threads(1, || kernel_gmacs(rows, k, n));
        println!(
            "{name:<20} {gmacs:6.1} GMAC/s ({:.0} % of peak)",
            100.0 * gmacs / peak
        );
    }
}

/// Best-of-`RUNS` rate of `ACCS` independent `[f32; 16]` multiply-then-add
/// chains. Enough independent chains hide the add's latency; too many
/// spill, so the caller takes the best of a few counts.
fn peak_gmacs<const ACCS: usize>() -> f64 {
    let m: [f32; LANES] = black_box([0.999_9; LANES]);
    let a: [f32; LANES] = black_box([1e-4; LANES]);
    best_gmacs((ACCS * LANES * STEPS) as f64, || {
        let mut acc = black_box([[1.0f32; LANES]; ACCS]);
        for _ in 0..STEPS {
            for row in &mut acc {
                for ((x, &mi), &ai) in row.iter_mut().zip(&m).zip(&a) {
                    *x = *x * mi + ai;
                }
            }
        }
        black_box(acc);
    })
}

/// Best-of-`RUNS` rate of one fused, biased, ReLU'd `rows x k` by
/// `k x n` product on prepacked panels, the compiled plans' hot call.
fn kernel_gmacs(rows: usize, k: usize, n: usize) -> f64 {
    let a = fill(rows, k, 0xb10c);
    let w = fill(k, n, 0x9a57);
    let packed = PackedPanels::pack(&w);
    let bias: Vec<f32> = (0..n).map(|i| i as f32 / n as f32 - 0.5).collect();
    let mut out = vec![0.0f32; rows * n];
    best_gmacs((rows * k * n) as f64, || {
        fused_linear(
            &RowSource::Dense(black_box(a.as_slice())),
            rows,
            &w,
            Some(&packed),
            Some(&bias),
            true,
            &mut out,
        );
        black_box(&out);
    })
}

/// Runs `f` once to warm up, then `RUNS` times, and returns the best
/// rate in GMAC/s for `macs` multiply-adds per run.
fn best_gmacs(macs: f64, mut f: impl FnMut()) -> f64 {
    f();
    let best = (0..RUNS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    macs / best / 1e9
}

/// Deterministic pseudo-random matrix in [-0.5, 0.5).
fn fill(rows: usize, cols: usize, seed: u64) -> Tensor2 {
    let mut s = seed;
    let data = (0..rows * cols)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 40) as f32) / (1 << 24) as f32 - 0.5
        })
        .collect();
    Tensor2::from_vec(data, rows, cols)
}
