//! `tester-mix`: warm `TesterSession::test_into` calls under the
//! library-default engine template (parallel executor, accounted
//! rounds) at k=5, ε=0.1, two repetitions. Jobs cycle over three
//! generated graphs of n≈20 000 with a fresh Phase-1 seed each:
//! planted C5 copies on a random tree, the Behrend-layered C5 instance
//! and the C5-free control.

use std::time::Instant;

use ck_congest::engine::Executor;
use ck_congest::graph::Graph;
use ck_core::session::TesterSession;
use ck_core::tester::TesterRun;
use ck_graphgen::behrend::layered_ck;
use ck_graphgen::planted::{matched_free_instance, plant_on_host};
use ck_graphgen::random::random_tree;

use crate::trace::{mean, median, Trace};
use crate::{mix, Budget, Checker, Metrics, Phase, Sizes, Verdict, Workload};

pub const NAME: &str = "tester-mix";

const K: usize = 5;
const EPS: f64 = 0.1;
const REPS: u32 = 2;
/// Distinct Phase-1 seeds per family; jobs cycle through them.
const SEEDS_PER_FAMILY: usize = 8;

/// Strides of the Behrend-layered graph: the four smallest base-3
/// numbers with exactly two digits 1 and the rest 0, a 3-AP-free set.
/// `behrend_ap_free_set(400)`, which `bench_engine` caps at four at this
/// size, ties this bucket with the three-ones one and picks between them
/// in hash order, so the set is fixed here to keep the graph a function
/// of the seed.
const BEHREND_STRIDES: [u64; 4] = [4, 10, 12, 28];

const FAMILIES: [&str; 3] = ["planted", "behrend", "free"];
const TEST_SPAN: [&str; 3] = ["tester.test.planted", "tester.test.behrend", "tester.test.free"];
const SEQ_SPAN: [&str; 3] =
    ["tester.seq_test.planted", "tester.seq_test.behrend", "tester.seq_test.free"];
const COLD_SPAN: [&str; 3] =
    ["session.cold_test.planted", "session.cold_test.behrend", "session.cold_test.free"];

/// Wire counts of one run, from its `RunReport`.
#[derive(Clone, Copy, Default)]
struct Counts {
    rounds: u32,
    messages: u64,
    bits: u64,
    max_link_bits: u64,
    max_sent_seqs: usize,
}

impl Counts {
    fn of(run: &TesterRun) -> Self {
        let r = &run.outcome.report;
        Counts {
            rounds: r.rounds,
            messages: r.total_messages(),
            bits: r.total_bits(),
            max_link_bits: r.max_link_bits(),
            max_sent_seqs: run.max_sent_seqs(),
        }
    }
}

/// The three graphs and the distinct jobs over them.
pub struct Inputs {
    /// Indexed like [`FAMILIES`].
    graphs: Vec<Graph>,
    /// `(family, Phase-1 seed)` of every distinct job, families
    /// interleaved.
    jobs: Vec<(usize, u64)>,
}

pub struct TesterMix {
    inp: Inputs,
    session: TesterSession,
    run: TesterRun,
    checker: Checker,
    /// Counts of each distinct job's first timed run.
    counts: Vec<Option<Counts>>,
}

/// A session under the library-default engine template, or under the
/// sequential executor when `sequential` is set.
fn session(sequential: bool, seed: u64) -> TesterSession {
    let b = TesterSession::builder(K, EPS).repetitions(REPS).seed(seed);
    let b = if sequential { b.executor(Executor::Sequential) } else { b };
    b.build().expect("k=5, ε=0.1 is in range")
}

impl Workload for TesterMix {
    const CLIENTS: usize = 1;
    const SETUP_REPS: usize = 3;
    type Inputs = Inputs;

    fn inputs(seed: u64, sizes: Sizes, trace: &mut Trace) -> Inputs {
        let n = sizes.pick(20_000, 300);
        let span = trace.open("graphgen.gen", None, 0);
        let host = random_tree(n, mix(seed, 1));
        let planted = plant_on_host(&host, K, (n / 40).max(1), mix(seed, 2)).graph;
        trace.close(span);
        let span = trace.open("graphgen.gen", None, 0);
        let behrend = layered_ck(K, (n / K).max(2), &BEHREND_STRIDES).graph;
        trace.close(span);
        let span = trace.open("graphgen.gen", None, 0);
        let free = matched_free_instance(n, K);
        trace.close(span);
        let jobs = (0..SEEDS_PER_FAMILY * FAMILIES.len())
            .map(|j| (j % FAMILIES.len(), mix(seed, 100 + j as u64)))
            .collect();
        Inputs { graphs: vec![planted, behrend, free], jobs }
    }

    fn oracle(inp: &Inputs) -> Vec<Verdict> {
        inp.jobs
            .iter()
            .map(|&(f, s)| Verdict::of(&session(true, s).test(&inp.graphs[f]).expect("oracle")))
            .collect()
    }

    fn start(inp: Inputs, trace: &mut Trace) -> Self {
        let mut w = TesterMix {
            counts: vec![None; inp.jobs.len()],
            checker: Checker::new(inp.jobs.len()),
            inp,
            session: session(false, 0),
            run: TesterRun::default(),
        };
        // The cold first job on each family grows the arenas.
        for (f, graph) in w.inp.graphs.iter().enumerate() {
            let span = trace.open(COLD_SPAN[f], None, f as u64);
            w.session.set_seed(w.inp.jobs[f].1);
            w.session.test_into(graph, &mut w.run).expect("cold tester job");
            trace.close(span);
        }
        w
    }

    fn timed(&mut self, budget: Budget, trace: &mut Trace) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        budget.at_least(self.inp.jobs.len()).drive(start, |j| {
            let i = j % self.inp.jobs.len();
            let (f, s) = self.inp.jobs[i];
            self.session.set_seed(s);
            let span = trace.open(TEST_SPAN[f], None, j as u64);
            let t = Instant::now();
            let res = self.session.test_into(&self.inp.graphs[f], &mut self.run);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            trace.close(span);
            phase.attempted += 1;
            let out = &self.run.outcome;
            let ok = res.is_ok()
                && self.checker.record(i, self.run.reject, &out.verdicts, &out.report.per_round);
            if ok {
                phase.done(ms);
                self.counts[i].get_or_insert_with(|| Counts::of(&self.run));
            } else {
                phase.failed += 1;
                phase.wrong += 1;
            }
            ok
        });
        phase.elapsed_s = start.elapsed().as_secs_f64();
        phase
    }

    fn layers(&mut self, probe: Budget, trace: &mut Trace, out: &mut Metrics) {
        // The same jobs under the sequential executor: the parallel
        // speed-up, and a predictor of ckserve's per-job run time.
        let mut seq = session(true, 0);
        for f in 0..FAMILIES.len() {
            seq.test_into(&self.inp.graphs[f], &mut self.run).expect("sequential warm-up");
        }
        probe.at_least(2 * FAMILIES.len()).drive(Instant::now(), |j| {
            let (f, s) = self.inp.jobs[j % self.inp.jobs.len()];
            seq.set_seed(s);
            let span = trace.open(SEQ_SPAN[f], None, j as u64);
            let res = seq.test_into(&self.inp.graphs[f], &mut self.run);
            trace.close(span);
            res.expect("sequential probe job");
            true
        });

        for (f, fam) in FAMILIES.iter().enumerate() {
            let counts: Vec<Counts> = self
                .inp
                .jobs
                .iter()
                .zip(&self.counts)
                .filter(|((jf, _), _)| *jf == f)
                .map(|(_, c)| c.expect("the timed phase covers every distinct job"))
                .collect();
            let avg = |g: fn(&Counts) -> f64| mean(&counts.iter().map(g).collect::<Vec<_>>());
            let test_ms = median(&trace.durations_ms(TEST_SPAN[f]));
            let seq_ms = median(&trace.durations_ms(SEQ_SPAN[f]));
            let messages = avg(|c| c.messages as f64);
            out.push(
                format!("session.cold_test_ms.{fam}"),
                median(&trace.durations_ms(COLD_SPAN[f])),
                "ms",
            );
            out.push(format!("tester.test_ms.{fam}"), test_ms, "ms");
            out.push(format!("tester.seq_test_ms.{fam}"), seq_ms, "ms");
            out.push(format!("engine.par_speedup.{fam}"), seq_ms / test_ms, "x");
            out.push(format!("tester.rounds.{fam}"), avg(|c| f64::from(c.rounds)), "count");
            out.push(format!("tester.messages.{fam}"), messages, "count");
            out.push(format!("tester.bits.{fam}"), avg(|c| c.bits as f64), "bit");
            let max_link = counts.iter().map(|c| c.max_link_bits).max().unwrap_or(0);
            out.push(format!("tester.max_link_bits.{fam}"), max_link as f64, "bit");
            let max_seqs = counts.iter().map(|c| c.max_sent_seqs).max().unwrap_or(0);
            out.push(format!("tester.max_sent_seqs.{fam}"), max_seqs as f64, "count");
            out.push(format!("tester.ns_per_message.{fam}"), test_ms * 1e6 / messages, "ns");
        }
    }

    fn verify(&mut self) -> u64 {
        self.checker.wrong_against(&Self::oracle(&self.inp))
    }

    fn teardown(self) {}
}
