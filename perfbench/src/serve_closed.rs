//! `serve-closed`: an in-process ckserve (`BoundServer::spawn`, default
//! options, 2 workers) driven by 2 closed-loop `ServeClient`s with one
//! connection each. They submit the n=240, k=4 job family with ε
//! alternating between 0.15 and 0.2 and a fresh seed per job; each
//! client sends its next job only when the previous verdict is in hand.

use std::sync::Mutex;
use std::time::Instant;

use ck_congest::graph::Graph;
use ck_core::session::TesterSession;
use ck_core::tester::TesterRun;
use ck_graphgen::planted::eps_far_instance;
use ck_serve::rpc::{decode_serve_body, encode_serve_body};
use ck_serve::serve::{engine_template, warm_job};
use ck_serve::{
    BoundServer, JobRequest, JobResult, ServeClient, ServeMsg, ServeOptions, ServerHandle,
};

use crate::trace::{mean, median, Trace};
use crate::{mix, Budget, Checker, Metrics, Phase, Sizes, Verdict, Workload};

pub const NAME: &str = "serve-closed";

const K: u32 = 4;
const REPS: u32 = 2;
/// Distinct jobs; the clients cycle through them.
const JOBS: u64 = 64;
/// Per-receive budget of a client call.
const CLIENT_TIMEOUT_MS: u64 = 30_000;

/// The ε-far graph and the distinct jobs over it.
pub struct Inputs {
    graph: Graph,
    jobs: Vec<JobRequest>,
}

pub struct ServeClosed {
    inp: Inputs,
    server: ServerHandle,
    clients: Vec<ServeClient>,
    /// Shared by the client threads.
    checker: Mutex<Checker>,
    /// The first result each distinct job got in a timed phase; the
    /// codec probe encodes these.
    results: Vec<Option<JobResult>>,
}

/// One client's closed loop over jobs `c, c + clients, …` of the pool;
/// `budget` is this client's share.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    c: usize,
    clients: usize,
    client: &mut ServeClient,
    jobs: &[JobRequest],
    checker: &Mutex<Checker>,
    budget: Budget,
    start: Instant,
    mut trace: Trace,
) -> (Phase, Trace, Vec<(usize, JobResult)>) {
    let mut phase = Phase::default();
    let mut firsts = Vec::new();
    budget.drive(start, |n| {
        let j = c + n * clients;
        let i = j % jobs.len();
        let span = trace.open("serve.rtt", None, j as u64);
        let t = Instant::now();
        let res = client.run_job(&jobs[i]);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        trace.close(span);
        phase.attempted += 1;
        let Ok(res) = res else {
            // A broken connection fails every later job; stop here.
            phase.failed += 1;
            phase.wrong += 1;
            return false;
        };
        match &res.outcome {
            Ok(v) if checker.lock().expect("checker").record(i, v.reject, &v.verdicts, &[]) => {
                trace.child("serve.run", span, v.wall_us * 1_000);
                phase.done(ms);
                if j < jobs.len() {
                    firsts.push((i, res));
                }
                true
            }
            Ok(_) => {
                phase.failed += 1;
                phase.wrong += 1;
                false
            }
            // A refusal is a typed answer, not a wrong one.
            Err(_) => {
                phase.failed += 1;
                true
            }
        }
    });
    phase.elapsed_s = start.elapsed().as_secs_f64();
    (phase, trace, firsts)
}

impl Workload for ServeClosed {
    const CLIENTS: usize = 2;
    const SETUP_REPS: usize = 25;
    type Inputs = Inputs;

    fn inputs(seed: u64, sizes: Sizes, trace: &mut Trace) -> Inputs {
        let n = sizes.pick(240, 40);
        let span = trace.open("graphgen.gen", None, 0);
        let graph = eps_far_instance(n, K as usize, 0.15, mix(seed, 4)).graph;
        trace.close(span);
        let jobs = (0..JOBS)
            .map(|j| JobRequest {
                job_id: j,
                graph: graph.clone(),
                k: K,
                eps: if j % 2 == 0 { 0.15 } else { 0.2 },
                seed: mix(seed, 300 + j),
                repetitions: Some(REPS),
            })
            .collect();
        Inputs { graph, jobs }
    }

    fn oracle(inp: &Inputs) -> Vec<Verdict> {
        inp.jobs
            .iter()
            .map(|job| {
                let run = TesterSession::from_config(job.tester_config(), engine_template())
                    .expect("valid job config")
                    .test(&inp.graph)
                    .expect("oracle");
                Verdict::of(&run)
            })
            .collect()
    }

    fn start(inp: Inputs, _trace: &mut Trace) -> Self {
        let server = BoundServer::bind(ServeOptions::default()).expect("bind ckserve").spawn();
        let addr = server.addr().to_string();
        let mut clients: Vec<ServeClient> = (0..Self::CLIENTS)
            .map(|_| ServeClient::connect(&addr, CLIENT_TIMEOUT_MS).expect("connect ckserve"))
            .collect();
        let cold = clients[0].run_job(&inp.jobs[0]).expect("cold serve job");
        cold.outcome.expect("cold serve job refused");
        let checker = Mutex::new(Checker::new(inp.jobs.len()));
        ServeClosed { results: vec![None; inp.jobs.len()], inp, server, clients, checker }
    }

    fn timed(&mut self, budget: Budget, trace: &mut Trace) -> Phase {
        let start = Instant::now();
        let count = self.clients.len();
        let (jobs, checker) = (&self.inp.jobs, &self.checker);
        // Every distinct job runs at least once; the clients split the
        // minimum.
        let share = Budget { min_jobs: budget.min_jobs.max(jobs.len()).div_ceil(count), ..budget };
        let outs: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let t = trace.fork();
                    s.spawn(move || client_loop(c, count, client, jobs, checker, share, start, t))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        let mut phase = Phase::default();
        for (p, t, firsts) in outs {
            phase.absorb(p);
            trace.merge(t);
            for (i, res) in firsts {
                self.results[i].get_or_insert(res);
            }
        }
        phase
    }

    fn layers(&mut self, probe: Budget, trace: &mut Trace, out: &mut Metrics) {
        let us = |ms: f64| ms * 1e3;
        let rtt = us(median(&trace.durations_ms("serve.rtt")));
        out.push("serve.rtt_us", rtt, "us");
        out.push("serve.run_us", us(median(&trace.durations_ms("serve.run"))), "us");
        out.push("serve.outside_run_us", us(median(&trace.self_times_ms("serve.rtt"))), "us");

        // The same jobs through `warm_job` in this thread: the service
        // path minus transport, queueing and codec.
        let mut session =
            TesterSession::from_config(self.inp.jobs[0].tester_config(), engine_template())
                .expect("valid job config");
        let mut run = TesterRun::default();
        warm_job(&mut session, &self.inp.graph, self.inp.jobs[0].tester_config(), &mut run)
            .expect("warm-up");
        probe.at_least(self.inp.jobs.len()).drive(Instant::now(), |j| {
            let job = &self.inp.jobs[j % self.inp.jobs.len()];
            let span = trace.open("serve.direct", None, j as u64);
            let res = warm_job(&mut session, &self.inp.graph, job.tester_config(), &mut run);
            trace.close(span);
            res.expect("direct warm_job");
            true
        });
        let direct = us(median(&trace.durations_ms("serve.direct")));
        out.push("serve.direct_us", direct, "us");
        out.push("serve.rtt_over_direct", rtt / direct, "x");

        // The codec on this workload's own submits and results.
        let submits: Vec<ServeMsg> = self.inp.jobs.iter().cloned().map(ServeMsg::Submit).collect();
        let results: Vec<ServeMsg> =
            self.results.iter().flatten().cloned().map(ServeMsg::Result).collect();
        let (mut submit_bytes, mut result_bytes) = (Vec::new(), Vec::new());
        for _ in 0..8 {
            for (msgs, enc, dec, sizes) in [
                (&submits, "serve.encode_submit", "serve.decode_submit", &mut submit_bytes),
                (&results, "serve.encode_result", "serve.decode_result", &mut result_bytes),
            ] {
                sizes.clear();
                for (i, msg) in msgs.iter().enumerate() {
                    let span = trace.open(enc, None, i as u64);
                    let body = encode_serve_body(msg);
                    trace.close(span);
                    let body = body.expect("encode serve body");
                    let span = trace.open(dec, None, i as u64);
                    let back = decode_serve_body(&body);
                    trace.close(span);
                    back.expect("decode serve body");
                    sizes.push(body.len() as f64);
                }
            }
        }
        for name in ["encode_submit", "decode_submit", "encode_result", "decode_result"] {
            let d = median(&trace.durations_ms(&format!("serve.{name}")));
            out.push(format!("serve.{name}_us"), us(d), "us");
        }
        out.push("serve.submit_bytes", mean(&submit_bytes), "B");
        out.push("serve.result_bytes", mean(&result_bytes), "B");

        let snap = self.clients[0].stats().expect("Stats RPC");
        out.push("serve.jobs_completed", snap.jobs_completed as f64, "count");
        out.push("serve.jobs_refused", snap.jobs_refused as f64, "count");
        out.push("serve.slot_misses", snap.slot_misses as f64, "count");
        out.push("serve.sessions_reclaimed", snap.sessions_reclaimed as f64, "count");
        out.push("serve.pool_outstanding", snap.pool_outstanding as f64, "count");
        // The service's power-of-two histogram, next to the exact
        // client-side figures above; never reported as a latency.
        out.push("serve.stats_p50_us", snap.latency.p50_us as f64, "us");
        out.push("serve.stats_p99_us", snap.latency.p99_us as f64, "us");
        out.push("serve.stats_max_us", snap.latency.max_us as f64, "us");
    }

    fn verify(&mut self) -> u64 {
        let oracle = Self::oracle(&self.inp);
        self.checker.get_mut().expect("checker").wrong_against(&oracle)
    }

    fn teardown(mut self) {
        let _ = self.clients[0].shutdown();
        self.clients.clear();
        self.server.join();
    }
}
