//! Session reuse parity: a `Session` / `TesterSession` reused run after
//! run must be **bit-identical** to a fresh session built for each run —
//! reports (rounds, executor, per-round wire counters) and verdicts —
//! across both executors, fault plans, pinned wire parameters, and
//! graphs of different shapes (a recycled workspace delivers exactly
//! what a fresh one does).

use ck_congest::engine::{EngineConfig, Executor, RunOutcome};
use ck_congest::fault::FaultPlan;
use ck_congest::graph::{Graph, GraphBuilder};
use ck_congest::message::WireParams;
use ck_congest::node::{Inbox, Outbox, Program, Status};
use ck_congest::session::Session;
use ck_core::session::TesterSession;
use ck_core::tester::{NodeVerdict, TesterConfig, TesterRun};
use ck_graphgen::basic::cycle;
use ck_graphgen::planted::{eps_far_instance, matched_free_instance};
use proptest::prelude::*;

/// Flood-min with a TTL — the engine-level probe protocol.
struct MinFlood {
    best: u64,
    ttl: u32,
    changed: bool,
}

impl Program for MinFlood {
    type Msg = u64;
    type Verdict = u64;

    fn step(&mut self, round: u32, inbox: Inbox<'_, u64>, out: &mut Outbox<u64>) -> Status {
        for inc in inbox.iter() {
            if *inc.msg < self.best {
                self.best = *inc.msg;
                self.changed = true;
            }
        }
        if round >= self.ttl {
            return Status::Halted;
        }
        if round == 0 || self.changed {
            out.broadcast(self.best);
            self.changed = false;
        }
        Status::Running
    }

    fn verdict(&self) -> u64 {
        self.best
    }
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (6usize..40, any::<u64>()).prop_map(|(n, seed)| {
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s >> 33
        };
        let mut b = GraphBuilder::new(n);
        // A path backbone keeps it connected; random chords vary it.
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                if j == i + 1 || next() % 100 < 12 {
                    b.edge(i, j);
                }
            }
        }
        b.build().unwrap()
    })
}

fn engine_digest(o: &RunOutcome<u64>) -> (Vec<u64>, u32, bool, &'static str, usize, Vec<u64>) {
    (
        o.verdicts.clone(),
        o.report.rounds,
        o.report.all_halted,
        o.report.executor,
        o.report.threads,
        o.report.per_round.iter().flat_map(|r| [r.messages, r.bits, r.max_link_bits]).collect(),
    )
}

fn tester_digest(r: &TesterRun) -> (bool, u32, Vec<NodeVerdict>, u32, Vec<u64>) {
    (
        r.reject,
        r.repetitions,
        // NodeVerdict includes the full witnesses.
        r.outcome.verdicts.clone(),
        r.outcome.report.rounds,
        r.outcome
            .report
            .per_round
            .iter()
            .flat_map(|s| [s.messages, s.bits, s.max_link_bits, s.max_link_messages])
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Engine level: a reused `Session` equals a fresh session per run
    /// bit for bit, on both executors, with and without faults, with
    /// derived and pinned wire parameters, run after run.
    #[test]
    fn reused_session_equals_fresh_sessions(
        g in arb_graph(),
        loss_i in 0usize..3,
        record_rounds in any::<bool>(),
    ) {
        let loss = [0.0, 0.2, 0.45][loss_i];
        let faults = if loss == 0.0 {
            FaultPlan::none()
        } else {
            FaultPlan::none().random_loss(loss, 7)
        };
        let ttl = g.n() as u32;
        let mk = |init: ck_congest::node::NodeInit| MinFlood {
            best: init.id,
            ttl,
            changed: false,
        };
        for executor in [Executor::Sequential, Executor::Parallel] {
            let cfg = EngineConfig {
                executor,
                record_rounds,
                faults: faults.clone(),
                ..EngineConfig::default()
            };
            // Derived and pinned wire parameters: the pinned set widens
            // every ID, so the wire counters differ between the two.
            let fat = WireParams {
                id_bits: WireParams::for_graph(&g).id_bits + 5,
                ..WireParams::for_graph(&g)
            };
            for params in [None, Some(fat)] {
                let build = || {
                    let b = Session::builder(&g).config(cfg.clone());
                    match params {
                        Some(p) => b.wire_params(p).build(),
                        None => b.build(),
                    }
                };
                let mut session = build();
                // Reuse the session: every repetition must equal a
                // fresh session's run (reports, verdicts, wire counters).
                for rep in 0..3 {
                    let fresh = build().run(mk).unwrap();
                    let reused = session.run(mk).unwrap();
                    prop_assert_eq!(
                        engine_digest(&fresh),
                        engine_digest(&reused),
                        "rep {} {:?} pinned={}",
                        rep,
                        executor,
                        params.is_some()
                    );
                }
            }
        }
    }

    /// Tester level: a reused `TesterSession` equals a fresh session
    /// per run bit for bit — verdicts (including witnesses), reports,
    /// wire counters — on both executors and under faults. (Batch ≡
    /// one-by-one is `tests/batch_runner.rs`.)
    #[test]
    fn reused_tester_session_equals_fresh_sessions(
        k in 4usize..6,
        seed in 0u64..50,
        loss_i in 0usize..3,
    ) {
        let loss = [0.0, 0.15, 0.35][loss_i];
        let faults = if loss == 0.0 {
            FaultPlan::none()
        } else {
            FaultPlan::none().random_loss(loss, seed ^ 0x5bd1e995)
        };
        let far = eps_far_instance(40, k, 0.1, seed % 5);
        let free = matched_free_instance(30, k);
        let ck = cycle(k);
        let cfg = TesterConfig { repetitions: Some(2), ..TesterConfig::new(k, 0.1, seed) };
        for executor in [Executor::Sequential, Executor::Parallel] {
            let engine = EngineConfig {
                executor,
                faults: faults.clone(),
                ..EngineConfig::default()
            };
            let mut session = TesterSession::from_config(cfg, engine.clone()).unwrap();
            // One session across three different graphs, twice over:
            // cross-graph workspace/scratch reuse must stay invisible.
            for pass in 0..2 {
                for g in [&far.graph, &free, &ck] {
                    let fresh =
                        TesterSession::from_config(cfg, engine.clone()).unwrap().test(g).unwrap();
                    let reused = session.test(g).unwrap();
                    prop_assert_eq!(
                        tester_digest(&fresh),
                        tester_digest(&reused),
                        "pass {} n={} {:?}",
                        pass,
                        g.n(),
                        executor
                    );
                }
            }
        }
    }
}
