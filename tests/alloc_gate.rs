//! Zero-steady-state-allocation regression gates, powered by
//! `ck_lint::alloc_gate`'s counting global allocator.
//!
//! The repo's hot paths document themselves as allocation-free once
//! warm: `Session::run` reruns recycle arenas and slot arrays,
//! `TesterSession::test` reruns additionally recycle the node-state
//! arena, and the `SeqPool` take/return cycle recycles payload
//! backings. These tests install [`CountingAlloc`] as the binary's
//! `#[global_allocator]` and assert the warm reruns perform **zero**
//! heap operations through the `_into` entry points — turning the
//! prose claims into regressions-fail-CI facts.
//!
//! Everything lives in ONE `#[test]`: the counters are process-global,
//! so concurrently running tests in the same binary would pollute each
//! other's measured regions.
#![cfg(feature = "alloc-gate")]

use ck_congest::engine::{Executor, RunOutcome};
use ck_congest::graph::{Graph, GraphBuilder};
use ck_congest::node::{Inbox, Outbox, Program, Status};
use ck_congest::session::Session;
use ck_core::msg::SeqPool;
use ck_core::seq::IdSeq;
use ck_core::session::TesterSession;
use ck_core::tester::TesterRun;
use ck_graphgen::planted::matched_free_instance;
use ck_lint::alloc_gate::{AllocGate, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

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
    // never reallocate, on a same-shape rerun).
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

    // (c) `SeqPool` take/return cycle: once the free list holds a
    // buffer of sufficient capacity, every bundle_from/put cycle is
    // served warm.
    let mut pool = SeqPool::new();
    let seqs: Vec<IdSeq> = (1..=8).map(|i| IdSeq::from_slice(&[i])).collect();
    for _ in 0..4 {
        let b = pool.bundle_from(&seqs);
        pool.put(b);
    }
    let gate = AllocGate::snapshot();
    for _ in 0..100 {
        let b = pool.bundle_from(&seqs);
        pool.put(b);
    }
    let d = gate.delta();
    assert_eq!(d.heap_ops(), 0, "warm SeqPool take/return cycle must not allocate: {d:?}");
    assert_eq!(pool.outstanding(), 0);
}
