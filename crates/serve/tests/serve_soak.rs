//! Satellite: the multi-client soak. Four concurrent clients each
//! push sixteen jobs of mixed sizes, parameters, and seeds through a
//! two-worker service; every verdict must be **bit-identical** to a
//! direct sequential `TesterSession` run of the same job, and after
//! the drain the pool owes nothing: no queue, no in-flight, no
//! outstanding slot.

use std::collections::HashMap;

use ck_graphgen::{basic, planted};
use ck_serve::serve::engine_template;
use ck_serve::{BoundServer, JobRequest, ServeClient, ServeOptions};

const CLIENTS: u64 = 4;
const JOBS_PER_CLIENT: u64 = 16;

/// The mixed job deck: sizes 5..=40, k ∈ {4,5,6}, ε ∈ {0.1, 0.15},
/// planted ε-far instances interleaved with cycles and theta graphs.
fn job_for(client: u64, j: u64) -> JobRequest {
    let job_id = client * 1_000 + j;
    let salt = client * 7 + j;
    let k = 4 + (salt % 3) as u32;
    let eps = if salt.is_multiple_of(2) { 0.1 } else { 0.15 };
    let graph = match salt % 4 {
        0 => basic::cycle(5 + (salt % 36) as usize),
        1 => basic::theta(3 + (salt % 4) as usize, 2 + (salt % 3) as usize),
        2 => planted::eps_far_instance(24 + (salt % 16) as usize, k as usize, eps, salt).graph,
        _ => planted::matched_free_instance(20 + (salt % 20) as usize, k as usize),
    };
    JobRequest { job_id, graph, k, eps, seed: 11 + salt, repetitions: Some(1 + (salt % 2) as u32) }
}

/// Direct sequential oracle: the exact engine configuration the
/// service's pool runs.
fn oracle(job: &JobRequest) -> ck_core::tester::TesterRun {
    ck_core::session::TesterSession::from_config(job.tester_config(), engine_template())
        .unwrap()
        .test(&job.graph)
        .unwrap()
}

#[test]
fn four_clients_sixteen_jobs_each_bit_identical_and_fully_drained() {
    let server = BoundServer::bind(ServeOptions {
        workers: 2,
        inflight_budget: (CLIENTS * JOBS_PER_CLIENT) as u32,
        ..ServeOptions::default()
    })
    .unwrap()
    .spawn();
    let addr = server.addr().to_string();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&addr, 30_000).unwrap();
                for j in 0..JOBS_PER_CLIENT {
                    client.submit(&job_for(c, j)).unwrap();
                }
                // Results stream back in completion order; collect and
                // key by echoed job id.
                let mut got = HashMap::new();
                for _ in 0..JOBS_PER_CLIENT {
                    let res = client.recv_result().unwrap();
                    got.insert(res.job_id, res.outcome.unwrap());
                }
                got
            })
        })
        .collect();
    let per_client: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let mut rejects = 0u32;
    for (c, got) in per_client.iter().enumerate() {
        assert_eq!(got.len() as u64, JOBS_PER_CLIENT);
        for j in 0..JOBS_PER_CLIENT {
            let job = job_for(c as u64, j);
            let want = oracle(&job);
            let verdict = &got[&job.job_id];
            assert_eq!(verdict.reject, want.reject, "job {}", job.job_id);
            assert_eq!(verdict.verdicts, want.outcome.verdicts, "job {}", job.job_id);
            rejects += u32::from(verdict.reject);
        }
    }
    // The deck is mixed by construction: both verdicts must occur.
    assert!(rejects > 0, "no job rejected — the deck lost its ε-far half");
    assert!(u64::from(rejects) < CLIENTS * JOBS_PER_CLIENT, "no job accepted");

    let mut closer = ServeClient::connect(&addr, 30_000).unwrap();
    let completed = closer.shutdown().unwrap();
    assert_eq!(completed, CLIENTS * JOBS_PER_CLIENT);

    let snap = server.join();
    assert_eq!(snap.jobs_submitted, CLIENTS * JOBS_PER_CLIENT);
    assert_eq!(snap.jobs_completed, CLIENTS * JOBS_PER_CLIENT);
    assert_eq!(snap.jobs_refused, 0);
    assert_eq!((snap.in_flight, snap.queue_depth, snap.pool_outstanding), (0, 0, 0));
    assert_eq!(snap.latency.count, CLIENTS * JOBS_PER_CLIENT);
    assert!(snap.latency.p50_us <= snap.latency.p99_us);
    assert!(snap.slot_takes > 0, "warm sessions actually cycled slots");
}

/// A client that vanishes mid-job costs the service nothing: the
/// worker finishes, the dead reply socket is shrugged off, the session
/// returns to the pool, and the next client gets correct verdicts.
#[test]
fn client_disconnect_mid_job_leaves_the_service_healthy() {
    let server =
        BoundServer::bind(ServeOptions { workers: 1, ..ServeOptions::default() }).unwrap().spawn();
    let addr = server.addr().to_string();

    // A job big enough to still be running when the client dies.
    let doomed = JobRequest {
        job_id: 500,
        graph: planted::eps_far_instance(600, 5, 0.1, 3).graph,
        k: 5,
        eps: 0.1,
        seed: 11,
        repetitions: Some(4),
    };
    {
        let client = ServeClient::connect(&addr, 30_000).unwrap();
        client.submit(&doomed).unwrap();
        // Dropped here: the connection closes with the job in flight.
    }

    // The orphan drains on its own; the pool settles back to zero.
    let mut probe = ServeClient::connect(&addr, 30_000).unwrap();
    loop {
        let s = probe.stats().unwrap();
        if s.jobs_completed + s.jobs_refused >= 1 && s.in_flight == 0 {
            assert_eq!(s.pool_outstanding, 0);
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // And the service still answers the living bit-identically.
    let next = job_probe();
    let res = probe.run_job(&next).unwrap();
    let verdict = res.outcome.unwrap();
    let want = oracle(&next);
    assert_eq!(verdict.reject, want.reject);
    assert_eq!(verdict.verdicts, want.outcome.verdicts);

    probe.shutdown().unwrap();
    let snap = server.join();
    assert_eq!(snap.jobs_submitted, 2);
    assert_eq!((snap.in_flight, snap.queue_depth, snap.pool_outstanding), (0, 0, 0));
}

fn job_probe() -> JobRequest {
    JobRequest {
        job_id: 501,
        graph: basic::cycle(9),
        k: 5,
        eps: 0.1,
        seed: 13,
        repetitions: Some(2),
    }
}

/// A Stats snapshot taken after a client holds a job's Result counts
/// that job: a worker updates the counters before it sends the Result.
/// One client runs 2,000 one-repetition C5 jobs back to back; after
/// each Result a second connection asks for Stats, whose completion
/// and latency counts must already include every answered job.
#[test]
fn stats_after_a_result_count_that_result() {
    const JOBS: u64 = 2_000;
    let server =
        BoundServer::bind(ServeOptions { workers: 2, ..ServeOptions::default() }).unwrap().spawn();
    let addr = server.addr().to_string();
    let mut client = ServeClient::connect(&addr, 30_000).unwrap();
    let mut probe = ServeClient::connect(&addr, 30_000).unwrap();
    let mut lagging = Vec::new();
    for j in 0..JOBS {
        let job = JobRequest {
            job_id: j,
            graph: basic::cycle(5),
            k: 5,
            eps: 0.1,
            seed: j,
            repetitions: Some(1),
        };
        client.run_job(&job).unwrap().outcome.unwrap();
        let s = probe.stats().unwrap();
        if s.jobs_completed != j + 1 || s.latency.count != j + 1 {
            lagging.push((j, s.jobs_completed, s.latency.count));
        }
    }
    let first = &lagging[..lagging.len().min(5)];
    assert!(lagging.is_empty(), "{} snapshots lagged a Result, first {first:?}", lagging.len());
    assert_eq!(probe.shutdown().unwrap(), JOBS);
    let snap = server.join();
    assert_eq!((snap.jobs_completed, snap.jobs_refused), (JOBS, 0));
}
