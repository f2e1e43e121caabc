//! The live telemetry endpoint: a tiny `std::net::TcpListener` server
//! answering snapshot queries while the engine runs.
//!
//! Protocol (line-oriented, one request per connection): the client
//! connects, sends one verb terminated by `\n`, and reads the response
//! until the server closes the connection. Verbs:
//!
//! | verb       | response                                              |
//! |------------|-------------------------------------------------------|
//! | `metrics`  | line-oriented text (`edgepc_trace::export::metrics_text`) |
//! | `registry` | JSON registry snapshot (`registry_json`, with exemplars) |
//! | `flightrec`| the flight recorder's current window as `flightrec.json` |
//! | `quit`     | `ok`, and flags quit for [`TelemetryServer::wait_quit`] |
//!
//! Anything else answers `err unknown verb ...`. No framing, no
//! keep-alive, no HTTP — `printf 'metrics\n' | nc HOST PORT` works. This
//! endpoint is deliberately the seed of the ROADMAP item 3 TCP front
//! end: same listener shape, same line discipline.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use edgepc_geom::guard::{rank_scope, ranked_with, Lock};
use edgepc_trace::export::{metrics_text, registry_json};
use edgepc_trace::{span_in, Registry};

use crate::engine::Engine;
use crate::flight::TelemetryPlane;

/// How long the accept loop sleeps between polls of the nonblocking
/// listener (bounds both stop latency and idle CPU).
const POLL: Duration = Duration::from_millis(10);

/// Per-connection read timeout: a client that connects and sends nothing
/// cannot park the serving thread.
const READ_TIMEOUT: Duration = Duration::from_millis(500);

struct QuitFlag {
    requested: Mutex<bool>,
    cv: Condvar,
}

/// A running telemetry endpoint. Stops (and joins its thread) on drop or
/// via [`stop`](Self::stop).
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    quit: Arc<QuitFlag>,
    handle: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts answering queries against `engine`'s registry and flight
    /// recorder. The server holds clones of those handles only — it keeps
    /// working through the engine's whole life and is independently
    /// stoppable.
    pub fn start(engine: &Engine, addr: &str) -> io::Result<TelemetryServer> {
        let registry = engine.registry();
        let _span = span_in(registry.clone(), "serve.telemetry_start", "serve");
        let plane = engine.plane();
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let quit = Arc::new(QuitFlag {
            requested: Mutex::new(false),
            cv: Condvar::new(),
        });
        let thread_stop = Arc::clone(&stop);
        let thread_quit = Arc::clone(&quit);
        let handle = std::thread::Builder::new()
            .name("serve-telemetry".to_string())
            .spawn(move || serve_loop(&listener, &registry, &plane, &thread_stop, &thread_quit))?;
        Ok(TelemetryServer {
            addr: local,
            stop,
            quit,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a client sends the `quit` verb or `timeout` passes;
    /// returns whether quit was requested. The loadgen binary's hold mode
    /// sits here so an operator can poke the endpoint and then release
    /// the run remotely.
    pub fn wait_quit(&self, timeout: Duration) -> bool {
        // The hold shows up in timelines as its own stage: operators see
        // exactly how long the run sat open for external inspection.
        let _span = edgepc_trace::span("serve.hold", "serve");
        let deadline = Instant::now() + timeout;
        // The condvar waits below consume and re-issue the bare guard, so
        // the rank rides in a fn-scoped token instead of a `Ranked`
        // wrapper (sound across waits: this thread is blocked while the
        // mutex is released).
        let _rank = rank_scope(Lock::ServeTelemetry);
        let mut requested = self
            .quit
            .requested
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while !*requested {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = match self.quit.cv.wait_timeout(requested, deadline - now) {
                Ok(v) => v,
                Err(poisoned) => poisoned.into_inner(),
            };
            requested = guard;
        }
        true
    }

    /// Stops the accept loop and joins the serving thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_loop(
    listener: &TcpListener,
    registry: &Arc<Registry>,
    plane: &TelemetryPlane,
    stop: &AtomicBool,
    quit: &QuitFlag,
) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Serve inline: snapshots are cheap and connections are
                // one-shot, so a second serving thread buys nothing.
                let _ = handle_conn(stream, registry, plane, quit);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

fn handle_conn(
    stream: TcpStream,
    registry: &Arc<Registry>,
    plane: &TelemetryPlane,
    quit: &QuitFlag,
) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    // take() bounds the verb line so a hostile client cannot grow it.
    reader.by_ref().take(256).read_line(&mut line)?;
    let verb = line.trim();
    let _span = span_in(
        registry.clone(),
        format!("serve.telemetry({verb})"),
        "serve",
    );
    let response = match verb {
        "metrics" => metrics_text(registry),
        "registry" => registry_json(registry),
        "flightrec" => plane.render("endpoint"),
        "quit" => {
            {
                let mut requested = ranked_with(Lock::ServeTelemetry, || {
                    quit.requested
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                });
                **requested = true;
            }
            quit.cv.notify_all();
            "ok\n".to_string()
        }
        other => format!(
            "err unknown verb {:?}\n",
            other.escape_default().to_string()
        ),
    };
    let mut stream = reader.into_inner();
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    use crate::{Engine, EngineConfig, ModelSpec, Request};

    fn query(addr: SocketAddr, verb: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("{verb}\n").as_bytes())
            .expect("send verb");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read response");
        out
    }

    #[test]
    fn endpoint_answers_all_verbs_while_engine_serves() {
        let registry = Arc::new(Registry::new());
        edgepc_trace::with_registry(registry.clone(), || {
            let engine = Engine::new(EngineConfig::new(1), vec![ModelSpec::pointnetpp_tiny(4)]);
            let server = TelemetryServer::start(&engine, "127.0.0.1:0").expect("bind");
            let addr = server.local_addr();
            let cloud = edgepc_data::bunny_with_points(64, 3);
            let ticket = engine.submit(Request::new(0, cloud)).expect("admitted");
            ticket.wait().expect("completed");

            let metrics = query(addr, "metrics");
            assert!(metrics.contains("counter serve.submitted 1"));
            assert!(metrics
                .lines()
                .any(|l| l.starts_with("hist serve.latency ")));

            let registry_doc = query(addr, "registry");
            let v = edgepc_trace::json::parse(&registry_doc).expect("valid registry json");
            assert!(v.get("counters").is_some());

            let flight = query(addr, "flightrec");
            let v = edgepc_trace::json::parse(&flight).expect("valid flightrec json");
            assert_eq!(
                v.get("schema").and_then(|s| s.as_str()),
                Some("edgepc-flightrec")
            );
            let events = v.get("events").expect("events").as_arr().expect("array");
            assert!(!events.is_empty(), "lifecycle events were recorded");

            let err = query(addr, "bogus");
            assert!(err.starts_with("err unknown verb"));

            assert!(!server.wait_quit(Duration::ZERO));
            let ok = query(addr, "quit");
            assert_eq!(ok, "ok\n");
            assert!(server.wait_quit(Duration::from_secs(5)));

            server.stop();
            engine.shutdown();
        });
    }
}
