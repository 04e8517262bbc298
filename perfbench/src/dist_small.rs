//! `dist-small`: a warm `TesterSession` under
//! `Executor::Distributed { workers: 2 }` (thread-mode workers over
//! loopback TCP) at k=4, ε=0.15, two repetitions, on the n=240
//! ε-far instance with a fresh seed per job. Tester compute is a small
//! share of each run; spawn, handshake, round barriers and teardown do
//! the rest.

use std::time::Instant;

use ck_congest::engine::Executor;
use ck_congest::graph::Graph;
use ck_congest::metrics::NetReport;
use ck_core::session::TesterSession;
use ck_core::tester::TesterRun;
use ck_graphgen::planted::eps_far_instance;

use crate::trace::{mean, median, Trace};
use crate::{mix, Budget, Checker, Metrics, Phase, Sizes, Verdict, Workload};

pub const NAME: &str = "dist-small";

const K: usize = 4;
const EPS: f64 = 0.15;
const REPS: u32 = 2;
const WORKERS: u16 = 2;
/// Distinct seeds; jobs cycle through them.
const SEEDS: u64 = 16;

/// The ε-far graph and the distinct job seeds.
pub struct Inputs {
    graph: Graph,
    seeds: Vec<u64>,
}

pub struct DistSmall {
    inp: Inputs,
    session: TesterSession,
    run: TesterRun,
    checker: Checker,
    /// Transport record of each distinct job's first timed run.
    first_net: Vec<Option<NetReport>>,
    /// Heartbeats and fallbacks over every traced job.
    heartbeats: Vec<f64>,
    fallbacks: u64,
}

fn session(executor: Executor, seed: u64) -> TesterSession {
    TesterSession::builder(K, EPS)
        .repetitions(REPS)
        .seed(seed)
        .executor(executor)
        .build()
        .expect("k=4, ε=0.15 is in range")
}

impl Workload for DistSmall {
    const CLIENTS: usize = 1;
    const SETUP_REPS: usize = 9;
    type Inputs = Inputs;

    fn inputs(seed: u64, sizes: Sizes, trace: &mut Trace) -> Inputs {
        let n = sizes.pick(240, 40);
        let span = trace.open("graphgen.gen", None, 0);
        let graph = eps_far_instance(n, K, EPS, mix(seed, 3)).graph;
        trace.close(span);
        Inputs { graph, seeds: (0..SEEDS).map(|j| mix(seed, 200 + j)).collect() }
    }

    fn oracle(inp: &Inputs) -> Vec<Verdict> {
        let oracle = |&s: &u64| session(Executor::Sequential, s).test(&inp.graph).expect("oracle");
        inp.seeds.iter().map(|s| Verdict::of(&oracle(s))).collect()
    }

    fn start(inp: Inputs, _trace: &mut Trace) -> Self {
        let mut w = DistSmall {
            first_net: vec![None; inp.seeds.len()],
            checker: Checker::new(inp.seeds.len()),
            session: session(Executor::Distributed { workers: WORKERS }, inp.seeds[0]),
            inp,
            run: TesterRun::default(),
            heartbeats: Vec::new(),
            fallbacks: 0,
        };
        w.session.test_into(&w.inp.graph, &mut w.run).expect("cold distributed job");
        w
    }

    fn timed(&mut self, budget: Budget, trace: &mut Trace) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        budget.at_least(self.inp.seeds.len()).drive(start, |j| {
            let i = j % self.inp.seeds.len();
            self.session.set_seed(self.inp.seeds[i]);
            let span = trace.open("dist.run", None, j as u64);
            let t = Instant::now();
            let res = self.session.test_into(&self.inp.graph, &mut self.run);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            trace.close(span);
            phase.attempted += 1;
            let report = &self.run.outcome.report;
            let (reject, verdicts) = (self.run.reject, &self.run.outcome.verdicts);
            if res.is_err() || !self.checker.record(i, reject, verdicts, &report.per_round) {
                phase.failed += 1;
                phase.wrong += 1;
                return false;
            }
            let net = report.net.clone().unwrap_or_else(|| NetReport::degraded(0, "no net block"));
            if trace.is_on() {
                self.heartbeats.push(net.heartbeats as f64);
            }
            // A run that fell back to the in-process oracle is a
            // correct verdict but not a distributed run.
            if net.completed_distributed() {
                phase.done(ms);
                self.first_net[i].get_or_insert(net);
            } else {
                self.fallbacks += 1;
                phase.failed += 1;
            }
            true
        });
        phase.elapsed_s = start.elapsed().as_secs_f64();
        phase
    }

    fn layers(&mut self, probe: Budget, trace: &mut Trace, out: &mut Metrics) {
        // The same jobs in-process: what the run costs without the
        // transport.
        let mut seq = session(Executor::Sequential, self.inp.seeds[0]);
        seq.test_into(&self.inp.graph, &mut self.run).expect("sequential warm-up");
        probe.at_least(self.inp.seeds.len()).drive(Instant::now(), |j| {
            seq.set_seed(self.inp.seeds[j % self.inp.seeds.len()]);
            let span = trace.open("dist.oracle", None, j as u64);
            let res = seq.test_into(&self.inp.graph, &mut self.run);
            trace.close(span);
            res.expect("sequential probe job");
            true
        });

        let nets: Vec<&NetReport> = self.first_net.iter().flatten().collect();
        let avg =
            |g: fn(&NetReport) -> u64| mean(&nets.iter().map(|n| g(n) as f64).collect::<Vec<_>>());
        let run_ms = median(&trace.durations_ms("dist.run"));
        let oracle_ms = median(&trace.durations_ms("dist.oracle"));
        let barriers = avg(|n| n.barriers);
        out.push("dist.run_ms", run_ms, "ms");
        out.push("dist.oracle_ms", oracle_ms, "ms");
        out.push("dist.overhead_ms", run_ms - oracle_ms, "ms");
        out.push("dist.overhead_ms_per_barrier", (run_ms - oracle_ms) / barriers, "ms");
        out.push("dist.frames_routed", avg(|n| n.frames_routed), "count");
        out.push("dist.frame_bytes", avg(|n| n.frame_bytes), "B");
        out.push("dist.barriers", barriers, "count");
        out.push("dist.heartbeats", mean(&self.heartbeats), "count");
        out.push("dist.fallbacks", self.fallbacks as f64, "count");
    }

    fn verify(&mut self) -> u64 {
        self.checker.wrong_against(&Self::oracle(&self.inp))
    }

    fn teardown(self) {}
}
