//! `scene_seg` and `object_cls`: one caller in a closed loop, calling the
//! compiled forward directly.

use std::time::{Duration, Instant};

use edgepc_geom::PointCloud;

use crate::probes::{self, STAGE_KINDS};
use crate::report::{Metrics, Outcome};
use crate::spans::Recorder;
use crate::stats::{faster_half_rate, fastest, median, p10};
use crate::subject::{Def, Subject};
use crate::{peak_rss_mb, Run};

/// Threads the caller gives the library (`par.scaling` alone also runs
/// on all of them). A `scene_seg` forward split over this VM's two
/// processors takes 120 ms for a while and then 180 ms, for seconds or
/// minutes on end and with nothing else running in the VM, as if the
/// two were at times two threads of one host core; on one thread it
/// takes about 205 ms either way.
const CALLER_THREADS: usize = 1;

/// Set-ups an untraced run makes, about a second each; `setup_s` is the
/// fastest.
const SETUPS: usize = 3;

/// Forwards run before the first timed one.
const WARM_FORWARDS: usize = 3;

/// Everything the caller needs before its first timed forward: the input
/// pool, the model, its compiled plan, and a warm arena.
fn set_up(pool: fn(u64) -> (Def, Vec<PointCloud>), seed: u64) -> Subject {
    let (def, clouds) = pool(seed);
    let mut subject = Subject::build(def, clouds, 1.0);
    for i in 0..WARM_FORWARDS {
        subject.run(i % subject.clouds.len());
    }
    subject
}

pub fn run(pool: fn(u64) -> (Def, Vec<PointCloud>), run: &Run, m: &mut Metrics) -> Outcome {
    edgepc_par::with_threads(CALLER_THREADS, || measure(pool, run, m))
}

fn measure(pool: fn(u64) -> (Def, Vec<PointCloud>), run: &Run, m: &mut Metrics) -> Outcome {
    run.note("caller_threads", CALLER_THREADS);
    let mut rec = Recorder::new(run.start, run.trace);

    let mut setups = Vec::new();
    let mut subject = None;
    for _ in 0..if run.trace { 1 } else { SETUPS } {
        drop(subject.take());
        let id = rec.enter("setup", 0);
        let t0 = Instant::now();
        subject = Some(set_up(pool, run.seed));
        setups.push(t0.elapsed().as_secs_f64());
        rec.exit(id);
    }
    let mut subject = subject.expect("at least one set-up");

    let oracle = rec.enter("oracle", 0);
    let oracle_ok = subject.make_refs().map_err(|e| eprintln!("{e}")).is_ok();
    rec.exit(oracle);

    // Timed window. A traced run spends a third of it untraced, so the
    // cost of capturing spans is measured inside the same process.
    let window = Duration::from_secs_f64(run.seconds as f64 * if run.trace { 0.5 } else { 1.0 });
    let traced_from = if run.trace { window / 3 } else { window };
    let pool_len = subject.clouds.len();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut buckets = vec![Vec::new(); STAGE_KINDS.len() + 1];
    let mut wrong = 0u64;
    let begin = Instant::now();
    let mut i = 0usize;
    while begin.elapsed() < window {
        let cloud = i % pool_len;
        let logits = if begin.elapsed() < traced_from {
            let t0 = Instant::now();
            let logits = subject.run(cloud);
            plain_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            logits
        } else {
            let (logits, ms, by) =
                probes::traced_forward(&mut subject, cloud, i as u64 + 1, &mut rec);
            traced_ms.push(ms);
            for (slot, v) in buckets.iter_mut().zip(by) {
                slot.push(v);
            }
            logits
        };
        wrong += u64::from(!subject.check(cloud, logits.as_slice()));
        i += 1;
    }
    let timed_s = begin.elapsed().as_secs_f64();

    if run.trace {
        m.not_applicable("client.");
        m.not_applicable("net.");
        m.not_applicable("serve.");
        for (kind, samples) in STAGE_KINDS.iter().chain(&["other"]).zip(&mut buckets) {
            m.set(&format!("models.{kind}_self_ms"), median(samples));
        }
        let (plain, traced) = (p10(&plain_ms), p10(&traced_ms));
        m.set("trace.overhead_share", (traced - plain) / plain);
        m.set("models.forward_ms", median(&mut traced_ms));
        probes::layers(std::slice::from_mut(&mut subject), m, &mut rec);
        run.note("traced_forwards", traced_ms.len());
    } else {
        m.set("latency_p10_ms", p10(&plain_ms));
        m.set("throughput_per_s", faster_half_rate(&plain_ms));
        run.note("forwards_per_timed_s", i as f64 / timed_s);
        run.note_steadiness(&plain_ms);
        m.set(
            "recall_at_k",
            probes::recall_at_k(std::slice::from_ref(&subject), &mut rec),
        );
        run.note("setups_s", format!("{setups:?}"));
        m.set("setup_s", fastest(&setups));
        m.set("peak_rss_mb", peak_rss_mb());
    }
    run.finish_trace(rec);
    Outcome {
        correct: oracle_ok && wrong == 0,
        attempted: i as u64,
        failed: wrong,
    }
}
