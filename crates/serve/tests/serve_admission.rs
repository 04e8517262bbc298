//! Satellite: admission control answers *typed*, echoes the job id,
//! and never takes the process down. A bad job fails exactly that
//! job: the same connection keeps submitting, and the pool's counters
//! stay coherent.

use ck_graphgen::basic;
use ck_serve::{BoundServer, JobRequest, ServeClient, ServeError, ServeOptions};

fn job(job_id: u64, n: usize, k: u32, eps: f64) -> JobRequest {
    JobRequest { job_id, graph: basic::cycle(n), k, eps, seed: 11, repetitions: Some(1) }
}

/// `k` outside `3..=33` and ε outside (0,1) both refuse through the
/// session's own `ConfigError`, job id echoed, connection preserved.
#[test]
fn bad_parameters_refuse_typed_with_job_id_echo() {
    let server =
        BoundServer::bind(ServeOptions { workers: 1, ..ServeOptions::default() }).unwrap().spawn();
    let mut client = ServeClient::connect(&server.addr().to_string(), 10_000).unwrap();

    let res = client.run_job(&job(41, 9, 99, 0.1)).unwrap();
    assert_eq!(res.job_id, 41);
    assert_eq!(
        res.outcome,
        Err(ServeError::Config(ck_core::tester::ConfigError::KOutOfRange { k: 99 },))
    );

    // ε = 0 fails the repetition schedule (`try_repetitions_for`).
    let res = client.run_job(&job(42, 9, 5, 0.0)).unwrap();
    assert_eq!(res.job_id, 42);
    assert_eq!(
        res.outcome,
        Err(ServeError::Config(ck_core::tester::ConfigError::EpsOutOfRange { eps: 0.0 },))
    );

    // The connection survives both refusals and still runs real work.
    let res = client.run_job(&job(43, 5, 5, 0.1)).unwrap();
    assert_eq!(res.job_id, 43);
    assert!(res.outcome.unwrap().reject);

    client.shutdown().unwrap();
    let snap = server.join();
    assert_eq!((snap.jobs_submitted, snap.jobs_completed, snap.jobs_refused), (3, 1, 2));
}

/// A graph over the configured warm-workspace bound refuses with
/// `GraphTooLarge` carrying both the size and the cap.
#[test]
fn oversized_graphs_refuse_with_graph_too_large() {
    let server =
        BoundServer::bind(ServeOptions { workers: 1, max_nodes: 16, ..ServeOptions::default() })
            .unwrap()
            .spawn();
    let mut client = ServeClient::connect(&server.addr().to_string(), 10_000).unwrap();

    let res = client.run_job(&job(7, 64, 5, 0.1)).unwrap();
    assert_eq!(res.job_id, 7);
    assert_eq!(res.outcome, Err(ServeError::GraphTooLarge { n: 64, max: 16 }));

    // At the cap is admitted: the bound is exclusive-over, not under.
    let res = client.run_job(&job(8, 16, 5, 0.1)).unwrap();
    assert!(res.outcome.is_ok());

    client.shutdown().unwrap();
    server.join();
}

/// A Submit whose graph section announces n = 10⁷ nodes and carries
/// nothing more fails at the section's byte bound, before anything is
/// sized from n: the client gets a typed `Error` frame inside its
/// 1,000 ms receive budget, and the same connection then runs a job.
#[test]
fn hostile_node_count_fails_typed_within_the_receive_budget() {
    use ck_congest::net::frame::ByteWriter;
    use ck_serve::ClientError;

    let server =
        BoundServer::bind(ServeOptions { workers: 1, ..ServeOptions::default() }).unwrap().spawn();
    let mut client = ServeClient::connect(&server.addr().to_string(), 1_000).unwrap();
    let mut body = ByteWriter::new();
    body.u8(1); // the Submit tag
    body.u64(5); // job id
    body.varint(10_000_000); // n
    body.varint(0); // m
    client.send_raw_body(&body.0).unwrap();
    match client.recv() {
        Err(ClientError::Remote(msg)) => assert!(msg.contains("graph section"), "{msg}"),
        other => panic!("expected a typed Error frame, got {other:?}"),
    }

    let res = client.run_job(&job(6, 5, 5, 0.1)).unwrap();
    assert_eq!(res.job_id, 6);
    assert!(res.outcome.unwrap().reject);
    client.shutdown().unwrap();
    let snap = server.join();
    assert_eq!((snap.jobs_submitted, snap.jobs_completed), (1, 1));
}

/// An exhausted in-flight budget sheds load with a typed
/// `Overloaded` backpressure frame instead of queueing unboundedly.
#[test]
fn exhausted_inflight_budget_refuses_with_overloaded() {
    let server = BoundServer::bind(ServeOptions {
        workers: 1,
        inflight_budget: 0,
        ..ServeOptions::default()
    })
    .unwrap()
    .spawn();
    let mut client = ServeClient::connect(&server.addr().to_string(), 10_000).unwrap();

    let res = client.run_job(&job(9, 9, 5, 0.1)).unwrap();
    assert_eq!(res.job_id, 9);
    assert_eq!(res.outcome, Err(ServeError::Overloaded { in_flight: 0, budget: 0 }));

    client.shutdown().unwrap();
    let snap = server.join();
    assert_eq!((snap.jobs_submitted, snap.jobs_refused), (1, 1));
}

/// Connections over `max_conns` are refused with an `Error` frame and
/// closed; the connected client is untouched. (The acceptor reaps
/// finished handler threads, so the cap counts *live* connections.)
#[test]
fn connection_cap_refuses_excess_clients_loudly() {
    use ck_congest::clock::Deadline;
    use ck_congest::net::frame::{read_frame, FrameKind};

    let server =
        BoundServer::bind(ServeOptions { workers: 1, max_conns: 1, ..ServeOptions::default() })
            .unwrap()
            .spawn();
    let addr = server.addr().to_string();
    let mut first = ServeClient::connect(&addr, 10_000).unwrap();

    // The second concurrent connection is over the cap: one Error
    // frame, then EOF.
    let mut second = std::net::TcpStream::connect(&addr).unwrap();
    let frame = read_frame(&mut second, &Deadline::after_ms(10_000)).unwrap();
    assert_eq!(frame.kind, FrameKind::Error);
    assert_eq!(frame.body, b"connection limit reached");

    // The admitted client never notices.
    let res = first.run_job(&job(11, 5, 5, 0.1)).unwrap();
    assert_eq!(res.job_id, 11);
    assert!(res.outcome.unwrap().reject);
    first.shutdown().unwrap();
    server.join();
}
