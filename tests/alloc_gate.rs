//! Steady-state allocation regression gates, powered by
//! `ck_lint::alloc_gate`'s counting global allocator.
//!
//! The repo's hot paths document themselves as allocation-free once
//! warm: `Session::run` reruns recycle arenas and slot arrays, and
//! `TesterSession::test` reruns additionally recycle the node-state
//! arena and, through the broadcast slots, the payload backings. These
//! tests install [`CountingAlloc`] as the binary's
//! `#[global_allocator]` and assert that a warm sequential rerun
//! performs **zero** heap operations through the `_into` entry points,
//! and that a warm parallel rerun's heap operations are bounded by its
//! rounds (the per-round thread spawns), not by the node count —
//! turning the prose claims into regressions-fail-CI facts.
//!
//! Cold sessions have a budget too: a first `TesterSession` run, engine
//! workspace, node-state arena and verdicts included, may request at
//! most [`COLD_BYTES_PER_NODE`] heap bytes per node beyond the graph.
//! The count is of bytes requested, so it does not depend on how the
//! allocator returns memory, unlike peak RSS.
//!
//! Everything lives in ONE `#[test]`: the counters are process-global,
//! so concurrently running tests in the same binary would pollute each
//! other's measured regions.
#![cfg(feature = "alloc-gate")]

use ck_congest::engine::{Executor, RunOutcome};
use ck_congest::graph::{Graph, GraphBuilder};
use ck_congest::node::{Inbox, Outbox, Program, Status};
use ck_congest::session::Session;
use ck_core::session::TesterSession;
use ck_core::tester::TesterRun;
use ck_graphgen::planted::{matched_free_instance, plant_on_host};
use ck_graphgen::random::random_tree;
use ck_lint::alloc_gate::{AllocGate, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Heap bytes a cold one-repetition sequential session may request per
/// node beyond the graph (leg (f)).
const COLD_BYTES_PER_NODE: u64 = 700;

/// Heap operations one warm service request may make, at any graph
/// size (leg (g)).
const REQUEST_HEAP_OPS: u64 = 16;

/// Allocation-free flood program: each node learns the maximum
/// identity within `rounds` hops, broadcasting plain `u64`s.
struct FloodMax {
    best: u64,
    rounds: u32,
}

impl Program for FloodMax {
    type Msg = u64;
    type Verdict = u64;
    fn step(&mut self, round: u32, inbox: Inbox<'_, u64>, out: &mut Outbox<u64>) -> Status {
        for inc in inbox.iter() {
            self.best = self.best.max(*inc.msg);
        }
        if round >= self.rounds {
            return Status::Halted;
        }
        out.broadcast(self.best);
        Status::Running
    }
    fn verdict(&self) -> u64 {
        self.best
    }
}

fn path_graph(n: usize) -> Graph {
    GraphBuilder::new(n).edges((0..n as u32 - 1).map(|i| (i, i + 1))).build().unwrap()
}

#[test]
fn warm_reruns_perform_zero_heap_operations() {
    // Every contract below is a single-threaded warm path; scope the
    // counters to this thread so the libtest harness's own background
    // allocations cannot land inside a measured region.
    AllocGate::pin_to_current_thread();

    // Sanity: the counting allocator actually sees heap traffic.
    let gate = AllocGate::snapshot();
    let buf: Vec<u64> = Vec::with_capacity(1024);
    assert!(gate.delta().allocs >= 1, "counting allocator must observe Vec::with_capacity");
    drop(buf);

    // (a) Warm `Session::run_into` rerun: after the first run has
    // warmed arenas, slot array, and the rotated outcome buffer, a
    // rerun under the sequential executor touches the heap zero times.
    let g = path_graph(48);
    let mut session: Session<'_, u64> = Session::builder(&g).executor(Executor::Sequential).build();
    let mut out: RunOutcome<u64> = RunOutcome::default();
    for _ in 0..2 {
        session.run_into(|init| FloodMax { best: init.id, rounds: 6 }, &mut out).unwrap();
    }
    let expected = out.verdicts.clone();
    let gate = AllocGate::snapshot();
    for _ in 0..5 {
        session.run_into(|init| FloodMax { best: init.id, rounds: 6 }, &mut out).unwrap();
    }
    let d = gate.delta();
    assert_eq!(d.heap_ops(), 0, "warm Session::run_into rerun must not allocate: {d:?}");
    assert_eq!(out.verdicts, expected, "warm rerun must stay bit-identical");

    // (b) Warm `TesterSession::test_into` rerun on the accept path: the
    // full Ck tester — rank draws, Phase-2 sequence traffic, pruning,
    // verdict collection — reruns without heap traffic once the
    // session's workspace, node-state arena, and run buffer are warm
    // (the arena's `prepare` must clear-and-resize over kept capacity,
    // never reallocate, on a same-shape rerun, and every payload
    // backing must come back from the broadcast slots, the previous
    // run's parked payloads included).
    let free = matched_free_instance(40, 5);
    {
        let mut tester = TesterSession::builder(5, 0.1)
            .seed(7)
            .repetitions(2)
            .executor(Executor::Sequential)
            .build()
            .unwrap();
        let mut run = TesterRun::default();
        for _ in 0..2 {
            tester.test_into(&free, &mut run).unwrap();
            assert!(!run.reject, "matched free instance must be accepted");
        }
        let gate = AllocGate::snapshot();
        for _ in 0..3 {
            tester.test_into(&free, &mut run).unwrap();
        }
        let d = gate.delta();
        assert_eq!(d.heap_ops(), 0, "warm TesterSession::test_into rerun must not allocate: {d:?}");
        assert!(!run.reject);
    }

    // (d) The serve-pool warm path: `ck_serve::serve::warm_job` —
    // reconfigure + `test_into`, exactly what a `ckserve` worker runs
    // per job — performs zero heap operations across a stream of
    // heterogeneous warm jobs (ε, seed, and repetition count all
    // changing job to job on a warm graph shape). This is the
    // steady-state claim behind the service's session pool.
    {
        use ck_core::tester::TesterConfig;
        let mut session = TesterSession::builder(5, 0.1)
            .seed(7)
            .repetitions(2)
            .executor(Executor::Sequential)
            .build()
            .unwrap();
        let mut run = TesterRun::default();
        let cfgs: Vec<TesterConfig> = (0..4u64)
            .map(|i| {
                let mut c = TesterConfig::new(5, if i % 2 == 0 { 0.1 } else { 0.15 }, 11 + i);
                c.repetitions = Some(1 + (i % 2) as u32);
                c
            })
            .collect();
        for cfg in &cfgs {
            ck_serve::serve::warm_job(&mut session, &free, *cfg, &mut run).unwrap();
            assert!(!run.reject);
        }
        let gate = AllocGate::snapshot();
        for _ in 0..3 {
            for cfg in &cfgs {
                ck_serve::serve::warm_job(&mut session, &free, *cfg, &mut run).unwrap();
            }
        }
        let d = gate.delta();
        assert_eq!(d.heap_ops(), 0, "warm serve-pool job must not allocate: {d:?}");
    }

    // (g) One warm request on the service side, end to end: the
    // `decode_serve_body` of a Submit, `warm_job` on the decoded graph,
    // and the Result written from the run's verdicts into a reused
    // buffer through `encode_result_into`, as a `ckserve` worker does.
    // Only the decode allocates: the job's graph, a fixed set of CSR
    // arrays. So one request costs the same few heap operations at
    // n = 2,000 and n = 8,000, never one per node.
    {
        use ck_congest::net::frame::ByteWriter;
        use ck_serve::rpc::{decode_serve_body, encode_result_into, encode_serve_body};
        use ck_serve::serve::{engine_template, warm_job};
        use ck_serve::{JobRequest, ServeMsg};
        let request_ops = |n: usize| {
            let graph = matched_free_instance(n, 5);
            let req =
                JobRequest { job_id: 3, graph, k: 5, eps: 0.1, seed: 7, repetitions: Some(2) };
            let body = encode_serve_body(&ServeMsg::Submit(req.clone())).unwrap();
            let mut session =
                TesterSession::from_config(req.tester_config(), engine_template()).unwrap();
            let mut run = TesterRun::default();
            let mut out = ByteWriter::new();
            let mut serve_one = || {
                let Ok(ServeMsg::Submit(job)) = decode_serve_body(&body) else {
                    panic!("the Submit body must decode as a Submit");
                };
                warm_job(&mut session, &job.graph, job.tester_config(), &mut run).unwrap();
                let verdict = (run.reject, 0, &run.outcome.verdicts[..]);
                encode_result_into(&mut out, job.job_id, Ok(verdict)).unwrap();
            };
            for _ in 0..2 {
                serve_one();
            }
            let gate = AllocGate::snapshot();
            serve_one();
            let ops = gate.delta().heap_ops();
            assert!(!run.reject, "matched free instance must be accepted");
            ops
        };
        let (small, big) = (request_ops(2_000), request_ops(8_000));
        assert_eq!(
            small, big,
            "request heap operations grow with n: {small} at 2000, {big} at 8000"
        );
        assert!(small <= REQUEST_HEAP_OPS, "one warm request made {small} heap operations");
    }

    // (e) Warm parallel rerun: with two forced workers every round of a
    // `TesterSession` under `Executor::Parallel` steps two node chunks
    // on scoped threads, so the gate is unpinned to count the workers'
    // heap traffic too. One more warm rerun may allocate only for the
    // per-round thread spawns — the same number of rounds at n = 2,000
    // and n = 8,000 — never per node.
    {
        AllocGate::unpin();
        rayon::force_workers_for_tests(2);
        // (rounds, heap operations) of one more warm rerun at size n.
        let rerun_ops = |n: usize| {
            let graph = matched_free_instance(n, 5);
            let mut tester = TesterSession::builder(5, 0.1)
                .seed(7)
                .repetitions(2)
                .executor(Executor::Parallel)
                .build()
                .unwrap();
            let mut run = TesterRun::default();
            for _ in 0..2 {
                tester.test_into(&graph, &mut run).unwrap();
            }
            let gate = AllocGate::snapshot();
            tester.test_into(&graph, &mut run).unwrap();
            let ops = gate.delta().heap_ops();
            assert!(!run.reject, "matched free instance must be accepted");
            (run.outcome.report.rounds, ops)
        };
        let small = rerun_ops(2_000);
        let big = rerun_ops(8_000);
        rayon::force_workers_for_tests(0);
        AllocGate::pin_to_current_thread();
        assert_eq!(small.0, big.0, "both sizes run the same rounds");
        // Slack for heap traffic outside the engine (the test harness's
        // own threads, now that the gate is unpinned).
        const SLACK: u64 = 16;
        assert!(
            big.1 <= small.1 + SLACK,
            "warm parallel rerun heap operations grow with n: \
             (rounds, ops) = {small:?} at n = 2000, {big:?} at n = 8000"
        );
    }

    // (f) Cold-session memory: a fresh sequential session's first
    // one-repetition run on a planted random tree requests at most
    // `COLD_BYTES_PER_NODE` heap bytes per node, counted from after the
    // graph is built: k = 4–7 at n = 8,000, and k = 5 at n = 10⁵.
    // Phase-2 sequence sets sized to the round, one 8-byte mailbox slot
    // per directed edge, one spare payload backing per node and no
    // per-port tester state keep it there (about 0.6 KB); per-port rank
    // and tag lanes needed about 0.7–0.75 KB, per-node payload pools
    // about 0.8–0.9 KB, per-receiver inbox boxes about 1.05–1.09 KB,
    // 64-byte packets about 1.4 KB, and sets sized for the largest
    // supported k about 4 KB.
    let inputs = [(8_000usize, 4usize), (8_000, 5), (8_000, 6), (8_000, 7), (100_000, 5)];
    for (n, k) in inputs {
        let inst = plant_on_host(&random_tree(n, 7), k, n / 40, 7);
        let gate = AllocGate::snapshot();
        let mut tester = TesterSession::builder(k, 0.1)
            .seed(42)
            .repetitions(1)
            .executor(Executor::Sequential)
            .build()
            .unwrap();
        let run = tester.test(&inst.graph).unwrap();
        let per_node = gate.delta().bytes / n as u64;
        drop((run, tester));
        println!("(f) cold ck{k} session at n = {n}: {per_node} B per node");
        assert!(
            per_node <= COLD_BYTES_PER_NODE,
            "cold ck{k} session at n = {n} requested {per_node} B per node \
             (budget {COLD_BYTES_PER_NODE})"
        );
    }
}
