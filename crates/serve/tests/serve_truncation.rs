//! Satellite: RPC-frame robustness through the *live service's* read
//! loop, in the `net_truncation.rs` idiom. Every byte prefix of every
//! `ServeMsg` body must come back as a typed `Error` frame — never a
//! panic, never a killed service — and because a truncated body leaves
//! the frame boundary intact, the very same connection must still
//! carry a valid job afterwards (the garbage-then-valid recovery
//! contract). Frame-layer garbage (a bad kind byte) is different: the
//! stream is unparseable, so the service drops that connection — and
//! only that connection.

use ck_graphgen::basic;
use ck_serve::rpc::encode_serve_body;
use ck_serve::{
    BoundServer, ClientError, JobRequest, JobResult, LatencySummary, ServeClient, ServeError,
    ServeMsg, ServeOptions, StatsSnapshot,
};

use proptest::prelude::*;

fn opts() -> ServeOptions {
    ServeOptions { workers: 1, ..ServeOptions::default() }
}

fn job(job_id: u64, n: usize) -> JobRequest {
    JobRequest { job_id, graph: basic::cycle(n), k: 5, eps: 0.1, seed: 11, repetitions: Some(1) }
}

/// Every RPC shape a client or server can legally emit, for prefix
/// cutting.
fn sample_msgs() -> Vec<ServeMsg> {
    vec![
        ServeMsg::Submit(job(7, 9)),
        ServeMsg::Result(JobResult {
            job_id: 8,
            outcome: Err(ServeError::Overloaded { in_flight: 3, budget: 3 }),
        }),
        ServeMsg::StatsRequest,
        ServeMsg::Stats(StatsSnapshot {
            workers: 2,
            jobs_completed: 5,
            latency: LatencySummary { count: 5, p50_us: 100, p99_us: 900, max_us: 901 },
            ..StatsSnapshot::default()
        }),
        ServeMsg::Shutdown,
        ServeMsg::ShutdownAck { jobs_completed: 42 },
    ]
}

/// Truncated bodies of every RPC — including `Shutdown`, whose
/// *complete* body would stop the server, but whose every strict
/// prefix must not — answer typed, and the link stays usable.
#[test]
fn every_rpc_body_prefix_fails_typed_and_link_recovers() {
    let server = BoundServer::bind(opts()).unwrap().spawn();
    let addr = server.addr().to_string();
    let mut client = ServeClient::connect(&addr, 10_000).unwrap();

    let mut cuts_tried = 0usize;
    for msg in sample_msgs() {
        let body = encode_serve_body(&msg).unwrap();
        for cut in 0..body.len() {
            client.send_raw_body(&body[..cut]).unwrap();
            match client.recv() {
                Err(ClientError::Remote(text)) => {
                    assert!(!text.is_empty(), "error frame carries the reason");
                }
                other => panic!("cut {cut} of {msg:?}: expected a Remote error, got {other:?}"),
            }
            cuts_tried += 1;
        }
    }
    assert!(cuts_tried > 50, "the sweep must actually cover the grammar ({cuts_tried} cuts)");

    // The same connection, after all that garbage, still runs a job.
    let res = client.run_job(&job(99, 5)).unwrap();
    assert_eq!(res.job_id, 99);
    assert!(res.outcome.unwrap().reject, "C5 under k=5 rejects");

    assert_eq!(client.shutdown().unwrap(), 1);
    let snap = server.join();
    assert_eq!(snap.jobs_completed, 1);
    assert_eq!((snap.in_flight, snap.queue_depth, snap.pool_outstanding), (0, 0, 0));
}

/// A submit written a few bytes at a time with pauses between the
/// writes — the slow-writer case loopback tests never hit by accident.
/// The service reads each frame with one blocking `read_frame`, which
/// must wait out every pause and reassemble the frame whole, however
/// its header and body are split; returning early would desync the
/// stream and misparse mid-frame bytes as a new header.
#[test]
fn submit_dribbled_across_poll_windows_still_completes() {
    use ck_congest::clock::Deadline;
    use ck_congest::net::frame::{read_frame, FrameKind};
    use ck_serve::rpc::decode_serve_body;
    use std::io::Write;

    let server = BoundServer::bind(opts()).unwrap().spawn();
    let addr = server.addr().to_string();
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap();

    let body = encode_serve_body(&ServeMsg::Submit(job(21, 9))).unwrap();
    let mut wire = vec![FrameKind::Serve as u8];
    wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
    wire.extend_from_slice(&body);

    // A few bytes per write with a pause after each, so both the
    // header and the body arrive in pieces.
    for chunk in wire.chunks(5) {
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(15));
    }

    // The service must reassemble it as one Submit and answer it.
    let mut reader = stream.try_clone().unwrap();
    let frame = read_frame(&mut reader, &Deadline::after_ms(10_000)).unwrap();
    assert_eq!(frame.kind, FrameKind::Serve);
    match decode_serve_body(&frame.body).unwrap() {
        ServeMsg::Result(res) => {
            assert_eq!(res.job_id, 21);
            assert!(!res.outcome.unwrap().reject, "C9 is C5-free");
        }
        other => panic!("expected a Result, got {other:?}"),
    }
    drop(reader);
    drop(stream);

    let mut client = ServeClient::connect(&addr, 10_000).unwrap();
    assert_eq!(client.shutdown().unwrap(), 1);
    let snap = server.join();
    assert_eq!(snap.jobs_completed, 1);
}

/// Frame-layer garbage (an unknown kind byte) makes the stream
/// unparseable: the service drops that connection but keeps serving
/// everyone else.
#[test]
fn raw_garbage_drops_only_the_offending_connection() {
    use std::io::{Read, Write};

    let server = BoundServer::bind(opts()).unwrap().spawn();
    let addr = server.addr().to_string();

    let mut vandal = std::net::TcpStream::connect(&addr).unwrap();
    vandal.write_all(&[0xEE, 0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x01, 0x02]).unwrap();
    vandal.flush().unwrap();
    // The service answers best-effort and closes: the read side must
    // reach EOF instead of hanging.
    vandal.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    let mut drained = Vec::new();
    vandal.read_to_end(&mut drained).unwrap_or(0);

    // A fresh, well-behaved client is entirely unaffected.
    let mut client = ServeClient::connect(&addr, 10_000).unwrap();
    let res = client.run_job(&job(1, 9)).unwrap();
    assert_eq!(res.job_id, 1);
    assert!(!res.outcome.unwrap().reject, "C9 is C5-free");
    client.shutdown().unwrap();
    server.join();
}

/// `Shutdown` with other connections still open: an idle client and a
/// raw socket stalled three bytes into a frame header. Their handlers
/// sit in blocking reads; the drain must still acknowledge, the
/// service must still stop, and both peers must see EOF.
#[test]
fn shutdown_ends_idle_and_stalled_connections() {
    use ck_congest::net::frame::FrameError;
    use std::io::{Read, Write};
    use std::time::Duration;

    let server = BoundServer::bind(opts()).unwrap().spawn();
    let addr = server.addr().to_string();

    let mut idle = ServeClient::connect(&addr, 10_000).unwrap();
    let mut stalled = std::net::TcpStream::connect(&addr).unwrap();
    stalled.write_all(&[ck_congest::net::frame::FrameKind::Serve as u8, 0, 0]).unwrap();
    stalled.flush().unwrap();

    let mut closer = ServeClient::connect(&addr, 10_000).unwrap();
    let res = closer.run_job(&job(5, 5)).unwrap();
    assert!(res.outcome.unwrap().reject, "C5 under k=5 rejects");
    assert_eq!(closer.shutdown().unwrap(), 1, "the ack arrives");

    // Join on a helper thread, so a missed wake fails the test instead
    // of hanging it.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.join());
    });
    let snap = rx.recv_timeout(Duration::from_secs(10)).expect("the service did not stop");
    assert_eq!(snap.jobs_completed, 1);

    assert!(
        matches!(idle.recv(), Err(ClientError::Frame(FrameError::Truncated))),
        "the idle client reads EOF"
    );
    stalled.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut rest = Vec::new();
    assert!(stalled.read_to_end(&mut rest).is_ok(), "the stalled socket reads EOF");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Random cuts of a submit body, random junk padding after the
    /// cut: still one typed error per frame, still a live link after.
    #[test]
    fn random_cut_plus_junk_recovers(cut_pct in 0usize..100, junk in proptest::collection::vec(0u8..255, 0..16usize)) {
        let server = BoundServer::bind(opts()).unwrap().spawn();
        let addr = server.addr().to_string();
        let mut client = ServeClient::connect(&addr, 10_000).unwrap();

        let body = encode_serve_body(&ServeMsg::Submit(job(3, 7))).unwrap();
        // Keep the tag byte: every mangled body is then a Submit
        // attempt, never an accidental Shutdown.
        let cut = (body.len() * cut_pct / 100).clamp(1, body.len() - 1);
        let mut mangled = body[..cut].to_vec();
        mangled.extend_from_slice(&junk);
        client.send_raw_body(&mangled).unwrap();
        // Whatever the mangled body decodes to, the reply is typed:
        // either an Error frame (decode failed) or, if the junk happens
        // to complete a well-formed Submit, a Result frame.
        match client.recv() {
            Err(ClientError::Remote(_)) | Ok(ServeMsg::Result(_)) => {}
            other => panic!("mangled body: unexpected {other:?}"),
        }

        let res = client.run_job(&job(4, 5)).unwrap();
        prop_assert_eq!(res.job_id, 4);
        client.shutdown().unwrap();
        server.join();
    }
}
