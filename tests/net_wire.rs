//! Workspace-level network invariants: determinism must survive the
//! wire, the protocol must stay total on hostile bytes, and trace ids
//! must connect a response frame back to the server-side span timeline.

// Shared helpers below are plain fns, so the allow-*-in-tests clippy config
// does not reach them; this file is test-only code throughout.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use edgepc_data::bunny_with_points;
use edgepc_geom::{Point3, PointCloud};
use edgepc_net::proto::{
    self, decode_body, encode_request, ErrCode, Frame, FrameRead, RequestFrame, DEFAULT_MAX_FRAME,
};
use edgepc_net::{NetConfig, NetServer, RoutePolicy, Router};
use edgepc_serve::{EngineConfig, ModelSpec, ServeModel};
use edgepc_trace::Registry;

fn start_server(shards: usize, workers: usize) -> (NetServer, Arc<Router>) {
    let cfgs = (0..shards)
        .map(|_| {
            let mut c = EngineConfig::new(workers);
            c.queue_capacity = 64;
            c
        })
        .collect();
    let router = Arc::new(Router::new(
        cfgs,
        vec![ModelSpec::pointnetpp_tiny(4)],
        RoutePolicy::LeastLoaded,
        None, // hedging disabled: determinism checks want one submission
    ));
    let server = NetServer::start(Arc::clone(&router), "127.0.0.1:0", NetConfig::default())
        .expect("bind ephemeral port");
    (server, router)
}

fn connect(server: &NetServer) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let _ = stream.set_nodelay(true);
    stream
}

/// The seeded request set both sides of the determinism test send.
fn request_set() -> Vec<RequestFrame> {
    (0..12u64)
        .map(|i| RequestFrame {
            seq: i,
            trace_id: 0,
            model: 0,
            tenant: i % 5,
            deadline_us: 0,
            points: bunny_with_points(96, 0xde70 + i).points().to_vec(),
        })
        .collect()
}

/// Pipelines every request down one connection and returns the decoded
/// responses keyed by seq.
fn drive(stream: &mut TcpStream, requests: &[RequestFrame]) -> HashMap<u64, Frame> {
    for req in requests {
        stream
            .write_all(&encode_request(req))
            .expect("write request");
    }
    let mut responses = HashMap::new();
    for _ in requests {
        let body = match proto::read_frame(stream, DEFAULT_MAX_FRAME).expect("read frame") {
            FrameRead::Body(b) => b,
            other => panic!("expected a response body, got {other:?}"),
        };
        let frame = decode_body(&body).expect("decode response");
        let seq = match &frame {
            Frame::Ok(ok) => ok.seq,
            Frame::Err(err) => err.seq,
            Frame::Request(_) => panic!("server must not send request frames"),
        };
        responses.insert(seq, frame);
    }
    responses
}

fn logits_by_seq(responses: HashMap<u64, Frame>) -> HashMap<u64, Vec<f32>> {
    responses
        .into_iter()
        .map(|(seq, frame)| match frame {
            Frame::Ok(ok) => (seq, ok.logits),
            other => panic!("request {seq} failed: {other:?}"),
        })
        .collect()
}

/// The tentpole invariant: the same seeded request set produces
/// bit-identical logits through one shard and through three, over real
/// sockets — shard count and placement are invisible in the payload.
#[test]
fn determinism_survives_the_wire() {
    let requests = request_set();

    let (server1, router1) = start_server(1, 2);
    let mut conn = connect(&server1);
    let single = logits_by_seq(drive(&mut conn, &requests));
    drop(conn);
    server1.stop();
    router1.shutdown();

    let (server3, router3) = start_server(3, 1);
    let mut conn = connect(&server3);
    let sharded = logits_by_seq(drive(&mut conn, &requests));
    drop(conn);
    server3.stop();
    router3.shutdown();

    assert_eq!(single.len(), requests.len());
    assert_eq!(sharded.len(), requests.len());
    for (seq, logits) in &single {
        let other = sharded.get(seq).expect("same seq answered");
        assert_eq!(
            logits.len(),
            other.len(),
            "request {seq}: logit shapes differ"
        );
        for (i, (a, b)) in logits.iter().zip(other).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "request {seq} logit {i}: {a} (1 shard) vs {b} (3 shards)"
            );
        }
    }
}

/// Pipelined requests on one connection all come back, in request order
/// (the response pipeline is FIFO per connection).
#[test]
fn pipelined_requests_all_resolve_in_order() {
    let (server, router) = start_server(2, 1);
    let mut conn = connect(&server);
    let requests = request_set();
    for req in &requests {
        conn.write_all(&encode_request(req)).expect("write");
    }
    for req in &requests {
        let body = match proto::read_frame(&mut conn, DEFAULT_MAX_FRAME).expect("read") {
            FrameRead::Body(b) => b,
            other => panic!("expected body, got {other:?}"),
        };
        match decode_body(&body).expect("decode") {
            Frame::Ok(ok) => assert_eq!(ok.seq, req.seq, "FIFO per connection"),
            other => panic!("request {} failed: {other:?}", req.seq),
        }
    }
    drop(conn);
    server.stop();
    router.shutdown();
}

/// The trace id in an `Ok` frame is real: while the tail sampler warms
/// up every request is kept, and the server-side registry holds its
/// whole timeline under exactly that id, front end included, so a
/// flight-recorder timeline can be joined to the wire response. Past the
/// warm-up a request is either kept whole or leaves nothing behind.
#[test]
fn response_trace_ids_connect_to_server_spans() {
    let registry = Arc::new(Registry::new());
    let (server, router) =
        edgepc_trace::with_registry(Arc::clone(&registry), || start_server(2, 1));
    let mut conn = connect(&server);
    let stages = ["net.route", "serve.enqueue", "serve.exec", "net.settle"];
    let timeline = |frame: Frame| {
        let Frame::Ok(ok) = frame else {
            panic!("request failed: {frame:?}");
        };
        assert_ne!(ok.trace_id, 0, "server assigns a real trace id");
        let spans = registry.spans_for_trace(ok.trace_id);
        assert!(spans.windows(2).all(|w| w[0].start_us <= w[1].start_us));
        let found: Vec<_> = stages
            .iter()
            .filter_map(|&name| spans.iter().find(|s| s.name == name).cloned())
            .collect();
        (ok.trace_id, spans.len(), found)
    };
    for (seq, frame) in drive(&mut conn, &request_set()) {
        let (trace, _, found) = timeline(frame);
        let [route, enqueue, exec, settle] = &found[..] else {
            panic!("request {seq}: trace {trace} lacks one of {stages:?}");
        };
        assert!(route.start_us <= enqueue.start_us && enqueue.start_us <= exec.start_us);
        assert!(route.start_us <= settle.start_us);
        assert!(exec.start_us + exec.dur_us <= settle.start_us + settle.dur_us);
    }
    // Well past `tail_warmup` completions on each shard.
    let mut sampled_out = 0;
    for _ in 0..20 {
        for (seq, frame) in drive(&mut conn, &request_set()) {
            let (trace, held, found) = timeline(frame);
            if held == 0 {
                sampled_out += 1;
            } else {
                assert_eq!(found.len(), stages.len(), "request {seq}: trace {trace}");
            }
        }
    }
    assert!(sampled_out > 0, "fast requests give up their spans");
    drop(conn);
    server.stop();
    router.shutdown();
}

// --- protocol hardening: every hostile input answers typed or drops
// --- cleanly, and the server keeps serving afterwards.

fn expect_err(stream: &mut TcpStream, code: ErrCode) {
    let body = match proto::read_frame(stream, DEFAULT_MAX_FRAME).expect("read err frame") {
        FrameRead::Body(b) => b,
        other => panic!("expected error body, got {other:?}"),
    };
    match decode_body(&body).expect("decode err") {
        Frame::Err(err) => assert_eq!(err.code, code),
        other => panic!("expected {code:?} error, got {other:?}"),
    }
}

/// After `abuse` ran against its own connection, a fresh connection must
/// still complete a request — hostile clients cannot wedge the server.
fn still_serving(server: &NetServer) {
    let mut conn = connect(server);
    let req = RequestFrame {
        seq: 99,
        trace_id: 0,
        model: 0,
        tenant: 0,
        deadline_us: 0,
        points: bunny_with_points(96, 7).points().to_vec(),
    };
    let responses = drive(&mut conn, std::slice::from_ref(&req));
    assert!(matches!(responses.get(&99), Some(Frame::Ok(_))));
}

#[test]
fn truncated_length_prefix_drops_cleanly() {
    let (server, router) = start_server(1, 1);
    {
        let mut conn = connect(&server);
        conn.write_all(&[0x10, 0x00]).expect("partial prefix");
        // Disconnect mid-prefix; the server must just drop the conn.
        drop(conn);
    }
    still_serving(&server);
    server.stop();
    router.shutdown();
}

#[test]
fn oversize_frame_answers_malformed_and_closes() {
    let (server, router) = start_server(1, 1);
    {
        let mut conn = connect(&server);
        let huge = (DEFAULT_MAX_FRAME + 1).to_le_bytes();
        conn.write_all(&huge).expect("oversize prefix");
        expect_err(&mut conn, ErrCode::Malformed);
        // The connection is closed after the error frame.
        match proto::read_frame(&mut conn, DEFAULT_MAX_FRAME).expect("post-error read") {
            FrameRead::Eof => {}
            other => panic!("expected EOF after malformed, got {other:?}"),
        }
    }
    still_serving(&server);
    server.stop();
    router.shutdown();
}

#[test]
fn garbage_magic_and_version_answer_malformed() {
    let (server, router) = start_server(1, 1);
    // Garbage magic.
    {
        let mut conn = connect(&server);
        let mut body = vec![0u8; 32];
        body[..4].copy_from_slice(b"JUNK");
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        conn.write_all(&frame).expect("garbage frame");
        expect_err(&mut conn, ErrCode::Malformed);
    }
    // Right magic, wrong version.
    {
        let mut conn = connect(&server);
        let good = encode_request(&request_set()[0]);
        let mut bad = good.clone();
        bad[8] = proto::VERSION + 1; // version byte: prefix(4) + magic(4)
        conn.write_all(&bad).expect("bad version frame");
        expect_err(&mut conn, ErrCode::Malformed);
    }
    still_serving(&server);
    server.stop();
    router.shutdown();
}

#[test]
fn zero_point_payload_answers_typed_error() {
    let (server, router) = start_server(1, 1);
    {
        let mut conn = connect(&server);
        let req = RequestFrame {
            seq: 3,
            trace_id: 0,
            model: 0,
            tenant: 0,
            deadline_us: 0,
            points: Vec::new(),
        };
        conn.write_all(&encode_request(&req)).expect("zero points");
        // Decodes fine (zero points is a valid frame) but fails the
        // model's point floor with a typed error echoing the seq.
        let body = match proto::read_frame(&mut conn, DEFAULT_MAX_FRAME).expect("read") {
            FrameRead::Body(b) => b,
            other => panic!("expected body, got {other:?}"),
        };
        match decode_body(&body).expect("decode") {
            Frame::Err(err) => {
                assert_eq!(err.code, ErrCode::TooFewPoints);
                assert_eq!(err.seq, 3);
                assert_eq!(err.a, 0);
            }
            other => panic!("expected TooFewPoints, got {other:?}"),
        }
    }
    still_serving(&server);
    server.stop();
    router.shutdown();
}

/// Clouds with NaN, infinite, or overflowing (±3e38) coordinates are
/// refused at admission as `Malformed`; a healthy request pipelined
/// behind them on the same connection is served, bit-identical to the
/// eager model.
#[test]
fn non_finite_coordinates_answer_malformed_and_keep_serving() {
    let (server, router) = start_server(1, 1);
    let healthy = bunny_with_points(96, 7).points().to_vec();
    let hostile = [
        Point3::new(f32::NAN, 0.0, 0.0),
        Point3::new(f32::INFINITY, 0.0, 0.0),
        Point3::new(0.0, f32::NEG_INFINITY, 0.0),
        Point3::new(3e38, -3e38, 0.0),
        Point3::new(0.0, 0.0, -3e38),
    ];
    let mut requests: Vec<RequestFrame> = hostile
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let mut points = healthy.clone();
            points[0] = p;
            RequestFrame {
                seq: i as u64,
                trace_id: 0,
                model: 0,
                tenant: 0,
                deadline_us: 0,
                points,
            }
        })
        .collect();
    let ok_seq = hostile.len() as u64;
    requests.push(RequestFrame {
        seq: ok_seq,
        trace_id: 0,
        model: 0,
        tenant: 0,
        deadline_us: 0,
        points: healthy.clone(),
    });
    let mut conn = connect(&server);
    let mut responses = drive(&mut conn, &requests);
    for seq in 0..ok_seq {
        match responses.remove(&seq) {
            Some(Frame::Err(err)) => assert_eq!(err.code, ErrCode::Malformed, "seq {seq}"),
            other => panic!("seq {seq}: expected Malformed, got {other:?}"),
        }
    }
    let logits = logits_by_seq(responses)
        .remove(&ok_seq)
        .expect("healthy answered");
    let oracle = match ServeModel::build(&ModelSpec::pointnetpp_tiny(4)) {
        ServeModel::PointNetPp(mut m) => m.forward(&PointCloud::from_points(healthy)).0,
        _ => unreachable!("a PointNet++ spec builds a PointNet++ model"),
    };
    assert_eq!(logits.as_slice(), oracle.as_slice());
    drop(conn);
    server.stop();
    router.shutdown();
}

#[test]
fn unknown_model_answers_typed_error() {
    let (server, router) = start_server(1, 1);
    {
        let mut conn = connect(&server);
        let mut req = request_set()[0].clone();
        req.model = 42;
        conn.write_all(&encode_request(&req)).expect("write");
        let body = match proto::read_frame(&mut conn, DEFAULT_MAX_FRAME).expect("read") {
            FrameRead::Body(b) => b,
            other => panic!("expected body, got {other:?}"),
        };
        match decode_body(&body).expect("decode") {
            Frame::Err(err) => {
                assert_eq!(err.code, ErrCode::UnknownModel);
                assert_eq!(err.a, 42);
            }
            other => panic!("expected UnknownModel, got {other:?}"),
        }
    }
    still_serving(&server);
    server.stop();
    router.shutdown();
}

#[test]
fn mid_request_disconnect_drops_cleanly() {
    let (server, router) = start_server(1, 1);
    {
        let mut conn = connect(&server);
        let frame = encode_request(&request_set()[0]);
        // Send the prefix and half the body, then vanish.
        conn.write_all(&frame[..frame.len() / 2])
            .expect("half frame");
        drop(conn);
    }
    still_serving(&server);
    server.stop();
    router.shutdown();
}
