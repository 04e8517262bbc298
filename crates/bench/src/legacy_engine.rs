//! The pre-arena round engine, preserved verbatim as a benchmark
//! baseline.
//!
//! This is the engine the workspace shipped before the zero-allocation
//! arena rewrite in `ck_congest::engine`: it allocates a fresh outbox
//! and inbox `Vec` for every node every round, counts active nodes with
//! an O(n) scan, and accumulates per-link loads with an O(ports²)
//! linear `find`. It is kept (out of the library's hot path, inside the
//! bench crate) so `BENCH_engine.json` and the `arena_engine` bench can
//! keep measuring the arena engine against the exact code it replaced —
//! the "before" column stays honest forever instead of relying on a
//! one-off measurement.
//!
//! Semantics match the arena engine — same delivery order, same
//! statistics, same fault handling — with one documented exception:
//! when several ports of one node exceed an enforced bandwidth budget
//! in the same round, `BandwidthExceeded` may name a different port
//! (this engine scans per-port aggregates in first-use order; the
//! arena engine reports the first link to cross the budget as it
//! happens). Round and node always agree. The equivalence is asserted
//! by this module's tests and exploited by the benchmarks, which check
//! the two engines' verdicts against each other before timing them.

use ck_congest::engine::{BandwidthPolicy, EngineConfig, EngineError, Executor, RunOutcome};
use ck_congest::graph::{Graph, NodeIndex};
use ck_congest::message::{WireMessage, WireParams};
use ck_congest::metrics::{RoundStats, RunReport};
use ck_congest::node::{InboxBuf, NodeInit, Outbox, Program, Status};
use rayon::prelude::*;

struct Slot<P: Program> {
    prog: P,
    inbox: InboxBuf<P::Msg>,
    status: Status,
    degree: u32,
}

/// Runs `factory`-instantiated programs with the pre-arena engine.
/// Same inputs and outcome as a fresh [`ck_congest::session::Session`]
/// configured with `config`.
pub fn run_legacy<'g, P, F>(
    graph: &'g Graph,
    config: &EngineConfig,
    mut factory: F,
) -> Result<RunOutcome<P::Verdict>, EngineError>
where
    P: Program,
    F: FnMut(NodeInit<'g>) -> P,
{
    let params = WireParams::for_graph(graph);
    let n = graph.n();
    let mut slots: Vec<Slot<P>> = (0..n)
        .map(|v| {
            let v = v as NodeIndex;
            let init = NodeInit {
                index: v,
                id: graph.id(v),
                neighbor_ids: graph.neighbor_ids(v),
                n,
                m: graph.m(),
            };
            let degree = init.degree() as u32;
            Slot { prog: factory(init), inbox: InboxBuf::new(), status: Status::Running, degree }
        })
        .collect();

    let mut report = RunReport::default();
    let mut round = 0u32;
    let mut all_halted = false;

    while round < config.max_rounds {
        // O(n) active scan — the arena engine replaced this with a
        // maintained counter.
        let active = slots.iter().filter(|s| s.status == Status::Running).count();
        if active == 0 {
            all_halted = true;
            break;
        }

        // Step phase: a fresh outbox Vec per node per round; the inbox
        // buffer is viewed in place and cleared afterwards for delivery.
        let step_one = |s: &mut Slot<P>, round: u32| -> Vec<(u32, P::Msg)> {
            if s.status != Status::Running {
                s.inbox.clear();
                return Vec::new();
            }
            let mut out = Outbox::for_harness(s.degree);
            s.status = s.prog.step(round, s.inbox.view(), &mut out);
            s.inbox.clear();
            out.take_sends()
        };
        let outboxes: Vec<Vec<(u32, P::Msg)>> = match config.executor {
            // The legacy baseline has no transport layer; Distributed
            // steps like the sequential oracle it is measured against.
            Executor::Sequential | Executor::Distributed { .. } => {
                slots.iter_mut().map(|s| step_one(s, round)).collect()
            }
            Executor::Parallel => slots.par_iter_mut().map(|s| step_one(s, round)).collect(),
        };

        // Accounting phase: per-port loads via linear find — O(ports²)
        // per node in the worst case.
        let mut stats = RoundStats { round, active_nodes: active, ..RoundStats::default() };
        for (v, sends) in outboxes.iter().enumerate() {
            let mut port_bits: Vec<(u32, u64, u64)> = Vec::new(); // (port, bits, msgs)
            for (port, msg) in sends {
                let b = msg.wire_bits(&params);
                stats.messages += 1;
                stats.bits += b;
                stats.max_message_bits = stats.max_message_bits.max(b);
                match port_bits.iter_mut().find(|e| e.0 == *port) {
                    Some(e) => {
                        e.1 += b;
                        e.2 += 1;
                    }
                    None => port_bits.push((*port, b, 1)),
                }
            }
            for (port, bits, msgs) in port_bits {
                stats.max_link_bits = stats.max_link_bits.max(bits);
                stats.max_link_messages = stats.max_link_messages.max(msgs);
                if let BandwidthPolicy::Enforce { bits: limit } = config.bandwidth {
                    if bits > limit {
                        return Err(EngineError::BandwidthExceeded {
                            round,
                            node: v as NodeIndex,
                            port,
                            bits,
                            limit,
                        });
                    }
                }
            }
        }

        // Delivery phase: sequential pushes into per-receiver inboxes.
        let check_faults = !config.faults.is_trivial();
        for (v, sends) in outboxes.into_iter().enumerate() {
            let v = v as NodeIndex;
            for (port, msg) in sends {
                let w = graph.neighbor_at(v, port);
                let payload = if check_faults {
                    match config.faults.decide(round, v, w, port) {
                        ck_congest::fault::FaultDecision::Drop(_) => continue,
                        ck_congest::fault::FaultDecision::Corrupt { entropy } => {
                            match msg.corrupt_frame(&params, entropy) {
                                Some(garbled) => garbled,
                                None => continue,
                            }
                        }
                        ck_congest::fault::FaultDecision::Deliver => msg,
                    }
                } else {
                    msg
                };
                let q = graph.reverse_port(v, port);
                slots[w as usize].inbox.push(q, payload);
            }
        }

        if config.record_rounds {
            report.per_round.push(stats);
        }
        round += 1;
    }

    if !all_halted {
        all_halted = slots.iter().all(|s| s.status == Status::Halted);
    }
    report.rounds = round;
    report.all_halted = all_halted;
    report.executor = match config.executor {
        Executor::Sequential => "sequential",
        Executor::Parallel => "parallel",
        Executor::Distributed { .. } => "distributed",
    };
    report.threads = match config.executor {
        Executor::Sequential => 1,
        Executor::Parallel => rayon::current_num_threads(),
        Executor::Distributed { workers } => workers.max(1) as usize,
    };

    let verdicts = slots.iter().map(|s| s.prog.verdict()).collect();
    Ok(RunOutcome { report, verdicts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ck_congest::fault::FaultPlan;
    use ck_congest::session::Session;
    use ck_graphgen::random::gnp;

    /// Broadcast this node's identity and the round for `rounds`
    /// rounds; the verdict counts receipts and digests them in delivery
    /// order, so any reordering between engines shows.
    struct Echo {
        id: u64,
        rounds: u32,
        received: u64,
        digest: u64,
    }

    impl Echo {
        fn new(id: u64, rounds: u32) -> Self {
            Echo { id, rounds, received: 0, digest: 0 }
        }
    }

    impl Program for Echo {
        type Msg = u64;
        type Verdict = (u64, u64);
        fn step(
            &mut self,
            round: u32,
            inbox: ck_congest::node::Inbox<'_, u64>,
            out: &mut Outbox<u64>,
        ) -> Status {
            for inc in inbox.iter() {
                self.received += 1;
                self.digest = self.digest.rotate_left(7) ^ (u64::from(inc.port) << 48 | *inc.msg);
            }
            if round < self.rounds {
                out.broadcast(self.id << 8 | u64::from(round));
                Status::Running
            } else {
                Status::Halted
            }
        }
        fn verdict(&self) -> (u64, u64) {
            (self.received, self.digest)
        }
    }

    /// Runs `check` under every arena-engine executor the reference
    /// vouches for: the sequential one, then the parallel one forced
    /// onto 2 and 3 workers, so the multi-segment round loop (one inbox
    /// segment per sender chunk) is compared against this independent
    /// engine too. Restores the default worker count even on panic.
    fn for_each_arena_executor(mut check: impl FnMut(Executor, usize)) {
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                rayon::force_workers_for_tests(0);
            }
        }
        let _restore = Restore;
        check(Executor::Sequential, 1);
        for workers in [2, 3] {
            rayon::force_workers_for_tests(workers);
            check(Executor::Parallel, workers);
        }
    }

    /// Whether some receiver of `g` hears from senders in every chunk of
    /// the current node→thread partition — i.e. its mailbox row is
    /// written by every chunk's thread.
    fn some_receiver_spans_all_chunks(g: &Graph) -> bool {
        let plan = ck_congest::engine::node_step_plan(g.n());
        (0..g.n() as NodeIndex).any(|v| {
            let mut seen = vec![false; plan.chunks()];
            for &w in g.neighbors(v) {
                seen[plan.chunk_of(w as usize)] = true;
            }
            seen.iter().all(|&s| s)
        })
    }

    /// The legacy engine is the semantic reference: the arena engine
    /// must reproduce its verdicts, reports, and fault behaviour on
    /// every executor. 40 nodes over 3 forced workers split into uneven
    /// chunks (14, 14, 12).
    #[test]
    fn arena_engine_matches_legacy_reference() {
        for_each_arena_executor(|executor, workers| {
            for seed in 0..4u64 {
                let g = gnp(40, 0.15, seed);
                if workers == 3 && seed == 0 {
                    assert!(
                        some_receiver_spans_all_chunks(&g),
                        "the graph must feed a receiver from all three segments"
                    );
                }
                for faults in [FaultPlan::none(), FaultPlan::none().random_loss(0.2, 11)] {
                    let cfg = EngineConfig {
                        executor: Executor::Sequential,
                        faults,
                        ..EngineConfig::default()
                    };
                    let legacy = run_legacy(&g, &cfg, |init| Echo::new(init.id, 4)).unwrap();
                    let arena = Session::builder(&g)
                        .config(EngineConfig { executor, ..cfg.clone() })
                        .build()
                        .run(|init| Echo::new(init.id, 4))
                        .unwrap();
                    let at = format!("seed {seed}, {executor:?} over {workers} worker(s)");
                    assert_eq!(legacy.verdicts, arena.verdicts, "{at}");
                    assert_eq!(legacy.report.per_round, arena.report.per_round, "{at}");
                    assert_eq!(legacy.report.rounds, arena.report.rounds, "{at}");
                    assert_eq!(legacy.report.all_halted, arena.report.all_halted, "{at}");
                }
            }
        });
    }

    #[test]
    fn enforcement_trips_identically() {
        let g = gnp(24, 0.2, 3);
        let params = WireParams::for_graph(&g);
        let bits = 0u64.wire_bits(&params);
        let cfg = EngineConfig {
            bandwidth: BandwidthPolicy::Enforce { bits: bits.saturating_sub(1) },
            executor: Executor::Sequential,
            ..EngineConfig::default()
        };
        let a = run_legacy(&g, &cfg, |init| Echo::new(init.id, 2)).unwrap_err();
        for_each_arena_executor(|executor, workers| {
            let b = Session::builder(&g)
                .config(EngineConfig { executor, ..cfg.clone() })
                .build()
                .run(|init| Echo::new(init.id, 2))
                .unwrap_err();
            // Same offending round and node; the reported port may
            // differ in tie-breaking (legacy scans ports in first-use
            // order, the arena engine reports the first link to cross
            // the budget).
            let (
                EngineError::BandwidthExceeded { round: ra, node: na, .. },
                EngineError::BandwidthExceeded { round: rb, node: nb, .. },
            ) = (&a, &b)
            else {
                panic!("expected BandwidthExceeded from both engines, got {a:?} / {b:?}");
            };
            assert_eq!(ra, rb, "{executor:?} over {workers} worker(s)");
            assert_eq!(na, nb, "{executor:?} over {workers} worker(s)");
        });
    }
}
