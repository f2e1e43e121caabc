//! The TCP front end: persistent connections, pipelined requests,
//! socket-level backpressure.
//!
//! Each accepted connection gets two threads. The **reader** decodes
//! request frames, validates them (model index and point floor are
//! checked *before* anything reaches a shard), routes them through the
//! [`Router`], and enqueues the resulting tickets on a bounded
//! [`Pipe`]. The **writer** dequeues in FIFO order, settles each ticket
//! (hedging happens inside [`Router::settle`]), and writes the response
//! frame — so responses come back in request order per connection, while
//! up to `pipeline_depth` requests are in flight at once.
//!
//! Backpressure: when the shards fall behind, tickets pile up in the
//! pipe until the reader blocks on `enqueue_pending` and stops reading
//! the socket. The kernel receive buffer fills, TCP closes the window,
//! and the client stalls at `write()`. No queue in this path is
//! unbounded.
//!
//! Failure handling is total: malformed frames answer a typed error (or
//! close the connection when framing itself is lost), a connection at
//! the cap is refused with a `Busy` error frame, and a client vanishing
//! mid-request just tears its connection down. Nothing in this module
//! panics on network input (the crate denies clippy's panic lints).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use edgepc_geom::guard::{ranked_with, Lock};
use edgepc_geom::PointCloud;
use edgepc_serve::ServeError;
use edgepc_trace::{span_in, Registry};

use crate::metrics;
use crate::pipe::Pipe;
use crate::proto::{
    self, decode_body, encode_err, encode_ok, ErrCode, ErrFrame, Frame, OkFrame, RequestFrame,
};
use crate::router::{Router, RouterTicket};

/// Accept-loop poll interval (bounds stop latency and idle CPU).
const POLL: Duration = Duration::from_millis(5);

/// Per-connection read timeout: how often a blocked reader rechecks the
/// stop flag.
const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// Front-end sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Largest accepted frame body; bigger length prefixes answer
    /// `Malformed` and close the connection.
    pub max_frame: u32,
    /// Connection cap; connections beyond it are refused with a typed
    /// `Busy` error frame.
    pub max_conns: usize,
    /// Pipelined requests allowed in flight per connection — the bound of
    /// the response pipe, i.e. the backpressure threshold.
    pub pipeline_depth: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_frame: proto::DEFAULT_MAX_FRAME,
            max_conns: 64,
            pipeline_depth: 32,
        }
    }
}

struct ConnTable {
    handles: Mutex<Vec<JoinHandle<()>>>,
    active: AtomicUsize,
}

impl ConnTable {
    /// Registers a connection thread, reaping already-finished handles so
    /// the table stays proportional to *live* connections.
    fn adopt_conn(&self, handle: JoinHandle<()>) {
        let mut handles = ranked_with(Lock::NetConns, || {
            self.handles.lock().unwrap_or_else(PoisonError::into_inner)
        });
        handles.retain(|h| !h.is_finished());
        handles.push(handle);
    }

    /// Takes every tracked handle (for join at shutdown).
    fn reap_conns(&self) -> Vec<JoinHandle<()>> {
        let mut handles = ranked_with(Lock::NetConns, || {
            self.handles.lock().unwrap_or_else(PoisonError::into_inner)
        });
        std::mem::take(&mut **handles)
    }
}

/// A running front end. Stops (and joins all its threads) on drop or via
/// [`stop`](Self::stop). Shut the server down **before** shutting down
/// the router's shards so in-flight tickets can still settle.
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<ConnTable>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting framed
    /// connections routed through `router`.
    pub fn start(router: Arc<Router>, addr: &str, config: NetConfig) -> io::Result<NetServer> {
        let registry = router.registry();
        let _span = span_in(registry.clone(), "net.server_start", "net");
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(ConnTable {
            handles: Mutex::new(Vec::new()),
            active: AtomicUsize::new(0),
        });
        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("net-accept".to_string())
                .spawn(move || accept_loop(&listener, &router, config, &registry, &stop, &conns))?
        };
        Ok(NetServer {
            addr: local,
            stop,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, lets connections finish their pipelines, and
    /// joins every thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        for handle in self.conns.reap_conns() {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    router: &Arc<Router>,
    config: NetConfig,
    registry: &Arc<Registry>,
    stop: &Arc<AtomicBool>,
    conns: &Arc<ConnTable>,
) {
    let mut next_conn = 0u64;
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                let active = conns.active.load(Ordering::Acquire);
                if active >= config.max_conns {
                    registry.incr(metrics::CONNS_REFUSED, 1);
                    let busy = encode_err(&ErrFrame {
                        seq: 0,
                        trace_id: 0,
                        code: ErrCode::Busy,
                        a: active as u64,
                        b: config.max_conns as u64,
                    });
                    let _ = stream.write_all(&busy);
                    continue;
                }
                conns.active.fetch_add(1, Ordering::AcqRel);
                registry.incr(metrics::CONNS_ACCEPTED, 1);
                registry.add_gauge(metrics::OPEN_CONNS, 1.0);
                let router = Arc::clone(router);
                let registry_c = Arc::clone(registry);
                let stop_c = Arc::clone(stop);
                let conns_c = Arc::clone(conns);
                let spawned = std::thread::Builder::new()
                    .name(format!("net-conn-{next_conn}"))
                    .spawn(move || {
                        run_connection(stream, &router, config, &registry_c, &stop_c);
                        conns_c.active.fetch_sub(1, Ordering::AcqRel);
                        registry_c.add_gauge(metrics::OPEN_CONNS, -1.0);
                    });
                next_conn += 1;
                match spawned {
                    Ok(handle) => conns.adopt_conn(handle),
                    Err(_) => {
                        conns.active.fetch_sub(1, Ordering::AcqRel);
                        registry.add_gauge(metrics::OPEN_CONNS, -1.0);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// One unit of the per-connection response pipeline.
enum Pending {
    /// An already-encoded frame (validation/admission errors).
    Ready(Vec<u8>),
    /// A routed request awaiting settlement.
    Routed { seq: u64, ticket: RouterTicket },
}

/// How a stop-aware full read ended.
enum SockRead {
    /// `buf` is filled.
    Full,
    /// EOF before the first byte (clean close at a frame boundary when
    /// reading a prefix).
    CleanEof,
    /// EOF after at least one byte of the needed span — the peer died
    /// mid-frame.
    DirtyEof,
    /// The server is stopping.
    Stopped,
    /// Hard I/O error.
    Failed,
}

/// Fills `buf` from `stream`, treating read timeouts as a cue to recheck
/// the stop flag (the stream has a read timeout installed).
fn read_full(stream: &mut TcpStream, buf: &mut [u8], stop: &AtomicBool) -> SockRead {
    let mut got = 0usize;
    while got < buf.len() {
        if stop.load(Ordering::Acquire) {
            return SockRead::Stopped;
        }
        match stream.read(&mut buf[got..]) {
            Ok(0) => {
                return if got == 0 {
                    SockRead::CleanEof
                } else {
                    SockRead::DirtyEof
                }
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return SockRead::Failed,
        }
    }
    SockRead::Full
}

fn run_connection(
    stream: TcpStream,
    router: &Arc<Router>,
    config: NetConfig,
    registry: &Arc<Registry>,
    stop: &AtomicBool,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let pipe: Arc<Pipe<Pending>> = Arc::new(Pipe::new(config.pipeline_depth));
    let writer = {
        let pipe = Arc::clone(&pipe);
        let router = Arc::clone(router);
        let registry = Arc::clone(registry);
        std::thread::Builder::new()
            .name("net-writer".to_string())
            .spawn(move || writer_loop(write_half, &pipe, &router, &registry))
    };
    let Ok(writer) = writer else {
        return;
    };

    let mut read_half = stream;
    reader_loop(&mut read_half, router, config, registry, stop, &pipe);

    // Reader is done (EOF, malformed framing, or stop): close the pipe so
    // the writer drains what is queued and exits, then join it.
    pipe.close_pipe();
    let _ = writer.join();
}

fn reader_loop(
    stream: &mut TcpStream,
    router: &Arc<Router>,
    config: NetConfig,
    registry: &Arc<Registry>,
    stop: &AtomicBool,
    pipe: &Pipe<Pending>,
) {
    loop {
        let mut prefix = [0u8; 4];
        match read_full(stream, &mut prefix, stop) {
            SockRead::Full => {}
            SockRead::CleanEof | SockRead::Stopped => return,
            SockRead::DirtyEof | SockRead::Failed => {
                registry.incr(metrics::MALFORMED, 1);
                return;
            }
        }
        let len = u32::from_le_bytes(prefix);
        if len > config.max_frame {
            // Unreadable without buffering the oversize body; answer and
            // drop the connection (framing cannot be resynchronized).
            registry.incr(metrics::MALFORMED, 1);
            let err = encode_err(&ErrFrame {
                seq: 0,
                trace_id: 0,
                code: ErrCode::Malformed,
                a: len as u64,
                b: config.max_frame as u64,
            });
            let _ = pipe.enqueue_pending(Pending::Ready(err));
            return;
        }
        let mut body = vec![0u8; len as usize];
        match read_full(stream, &mut body, stop) {
            SockRead::Full => {}
            SockRead::Stopped => return,
            SockRead::CleanEof | SockRead::DirtyEof | SockRead::Failed => {
                // Mid-request disconnect: tear down cleanly.
                registry.incr(metrics::MALFORMED, 1);
                return;
            }
        }
        registry.incr(metrics::FRAMES_IN, 1);
        let pending = match decode_body(&body) {
            Ok(Frame::Request(req)) => route_request(router, req),
            Ok(_) => {
                // Clients must not send response frames.
                registry.incr(metrics::MALFORMED, 1);
                let err = encode_err(&ErrFrame {
                    seq: 0,
                    trace_id: 0,
                    code: ErrCode::Malformed,
                    a: 0,
                    b: 0,
                });
                let _ = pipe.enqueue_pending(Pending::Ready(err));
                return;
            }
            Err(_wire) => {
                registry.incr(metrics::MALFORMED, 1);
                let err = encode_err(&ErrFrame {
                    seq: 0,
                    trace_id: 0,
                    code: ErrCode::Malformed,
                    a: 0,
                    b: 0,
                });
                let _ = pipe.enqueue_pending(Pending::Ready(err));
                return;
            }
        };
        // The backpressure point: a full pipeline blocks this thread,
        // which stops draining the socket.
        match pipe.enqueue_pending(pending) {
            Ok(false) => {}
            Ok(true) => registry.incr(metrics::BACKPRESSURE_WAITS, 1),
            Err(()) => return, // writer died; nothing can be answered
        }
    }
}

/// Validates and routes one decoded request; infallible (every failure
/// becomes a typed error frame).
fn route_request(router: &Router, req: RequestFrame) -> Pending {
    let RequestFrame {
        seq,
        trace_id: _,
        model,
        tenant,
        deadline_us,
        points,
    } = req;
    let deadline = (deadline_us > 0).then(|| Duration::from_micros(deadline_us));
    // Unknown models and thin or non-finite clouds come back from the
    // shard's own admission check as typed errors.
    let cloud = PointCloud::from_points(points);
    match router.submit(model as usize, tenant, cloud, deadline) {
        Ok(ticket) => Pending::Routed { seq, ticket },
        Err(err) => Pending::Ready(encode_err(&serve_err_frame(seq, 0, &err))),
    }
}

/// Maps a typed engine/router error onto the wire.
fn serve_err_frame(seq: u64, trace_id: u64, err: &ServeError) -> ErrFrame {
    let (code, a, b) = match err {
        ServeError::QueueFull { capacity } => (ErrCode::Shed, *capacity as u64, 0),
        ServeError::DeadlineExpired { waited, deadline } => (
            ErrCode::DeadlineExpired,
            waited.as_micros() as u64,
            deadline.as_micros() as u64,
        ),
        ServeError::ShuttingDown => (ErrCode::ShuttingDown, 0, 0),
        ServeError::UnknownModel { index, models } => {
            (ErrCode::UnknownModel, *index as u64, *models as u64)
        }
        ServeError::TooFewPoints { points, min } => {
            (ErrCode::TooFewPoints, *points as u64, *min as u64)
        }
        ServeError::NonFiniteCloud => (ErrCode::Malformed, 0, 0),
        ServeError::WorkerLost => (ErrCode::Internal, 0, 0),
    };
    ErrFrame {
        seq,
        trace_id,
        code,
        a,
        b,
    }
}

fn writer_loop(
    mut stream: TcpStream,
    pipe: &Pipe<Pending>,
    router: &Router,
    registry: &Arc<Registry>,
) {
    while let Some(pending) = pipe.dequeue_pending() {
        let frame = match pending {
            Pending::Ready(frame) => frame,
            Pending::Routed { seq, ticket } => {
                let trace_id = ticket.trace_id();
                match router.settle(ticket) {
                    Ok(resolved) => {
                        let out = resolved.output;
                        encode_ok(&OkFrame {
                            seq,
                            trace_id: out.request_id,
                            shard: resolved.shard as u16,
                            hedged: resolved.hedged,
                            queue_us: out.queue_us,
                            total_us: out.total_us,
                            rows: out.logits.rows() as u32,
                            cols: out.logits.cols() as u32,
                            logits: out.logits.as_slice().to_vec(),
                        })
                    }
                    Err(err) => encode_err(&serve_err_frame(seq, trace_id, &err)),
                }
            }
        };
        if stream.write_all(&frame).is_err() {
            // Peer is gone: stop accepting new pendings (the reader's next
            // enqueue fails and tears the connection down); any remaining
            // tickets drain below and are dropped — their engine-side work
            // still completes, only the responses are unsendable.
            pipe.close_pipe();
            while pipe.dequeue_pending().is_some() {}
            return;
        }
        registry.incr(metrics::FRAMES_OUT, 1);
    }
    let _ = stream.flush();
}
