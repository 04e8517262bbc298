//! Engine-level property tests: conservation, determinism, accounting,
//! and fault-plan semantics over random topologies and protocols.

use ck_congest::engine::{BandwidthPolicy, EngineConfig, EngineError, Executor, RunOutcome};
use ck_congest::fault::FaultPlan;
use ck_congest::graph::{Graph, GraphBuilder, NodeIndex};
use ck_congest::message::{WireMessage, WireParams};
use ck_congest::node::{Inbox, NodeInit, Outbox, Program, Status};
use ck_congest::session::Session;
use proptest::prelude::*;

/// Every run in this suite goes through the session entry point.
fn run<'g, P, F>(
    graph: &'g Graph,
    config: &EngineConfig,
    factory: F,
) -> Result<RunOutcome<P::Verdict>, EngineError>
where
    P: Program,
    F: FnMut(NodeInit<'g>) -> P,
{
    Session::builder(graph).config(config.clone()).build().run(factory)
}

/// A protocol that, for `rounds` rounds, sends on each port a counter
/// and records everything received. Message count bookkeeping is exact:
/// what is sent equals what is received (absent faults).
struct Echo {
    rounds: u32,
    sent: u64,
    received: u64,
}

impl Program for Echo {
    type Msg = u64;
    type Verdict = (u64, u64);

    fn step(&mut self, round: u32, inbox: Inbox<'_, u64>, out: &mut Outbox<u64>) -> Status {
        self.received += inbox.len() as u64;
        if round < self.rounds {
            out.broadcast(u64::from(round));
            self.sent += out.queued() as u64;
            Status::Running
        } else {
            Status::Halted
        }
    }

    fn verdict(&self) -> (u64, u64) {
        (self.sent, self.received)
    }
}

/// A protocol exercising the broadcast-slot path with *heavy* payloads
/// (a `Vec<u64>` bundle, the shape of the tester's sequence bundles):
/// each round every node broadcasts a content- and degree-dependent
/// bundle, plus one targeted send to interleave owned and shared
/// deliveries in the inboxes. The verdict digests everything received —
/// order included — so the tiniest divergence in delivery order or
/// content between sink paths shows up as a digest mismatch.
struct HeavyGossip {
    id: u64,
    rounds: u32,
    digest: u64,
    evictions: u64,
}

impl Program for HeavyGossip {
    type Msg = Vec<u64>;
    type Verdict = (u64, u64);

    fn step(
        &mut self,
        round: u32,
        inbox: Inbox<'_, Vec<u64>>,
        out: &mut Outbox<Vec<u64>>,
    ) -> Status {
        for inc in inbox.iter() {
            self.digest = self
                .digest
                .wrapping_mul(1099511628211)
                .wrapping_add(u64::from(inc.port) << 32 | inc.msg.len() as u64);
            for &w in inc.msg {
                self.digest = self.digest.wrapping_mul(1099511628211).wrapping_add(w);
            }
        }
        if round >= self.rounds {
            return Status::Halted;
        }
        let payload: Vec<u64> =
            (0..(self.id % 5) + 2).map(|i| self.id * 1000 + u64::from(round) * 10 + i).collect();
        if out.broadcast(payload).is_some() {
            self.evictions += 1;
        }
        if out.degree() > 0 {
            out.send(round % out.degree(), vec![self.id, u64::from(round)]);
        }
        Status::Running
    }

    fn verdict(&self) -> (u64, u64) {
        (self.digest, self.evictions)
    }
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..20, any::<u64>()).prop_map(|(n, seed)| {
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s >> 33
        };
        let mut b = GraphBuilder::new(n);
        let mut has_edge = false;
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                if next() % 100 < 35 {
                    b.edge(i, j);
                    has_edge = true;
                }
            }
        }
        if !has_edge {
            b.edge(0, 1);
        }
        b.build().unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Conservation: on a reliable network, Σ sent = Σ received, and the
    /// engine's message statistics agree with the programs' own counts.
    #[test]
    fn messages_are_conserved(g in arb_graph(), rounds in 1u32..6) {
        let out = run(&g, &EngineConfig::default(), |_| Echo { rounds, sent: 0, received: 0 }).unwrap();
        let sent: u64 = out.verdicts.iter().map(|v| v.0).sum();
        let received: u64 = out.verdicts.iter().map(|v| v.1).sum();
        prop_assert_eq!(sent, received);
        prop_assert_eq!(sent, out.report.total_messages());
        // Every round's broadcast hits every directed edge once: 2m msgs.
        prop_assert_eq!(sent, 2 * g.m() as u64 * u64::from(rounds));
    }

    /// Executor equivalence on arbitrary graphs and round counts.
    #[test]
    fn executors_equivalent(g in arb_graph(), rounds in 1u32..5) {
        let mk = |exec| {
            let cfg = EngineConfig { executor: exec, ..EngineConfig::default() };
            run(&g, &cfg, |_| Echo { rounds, sent: 0, received: 0 }).unwrap()
        };
        let a = mk(Executor::Sequential);
        let b = mk(Executor::Parallel);
        prop_assert_eq!(a.verdicts, b.verdicts);
        prop_assert_eq!(a.report.per_round, b.report.per_round);
    }

    /// Arena-engine reproducibility under message loss: Sequential and
    /// Parallel executors must produce identical `RunReport`s and
    /// verdicts on random graphs when a nontrivial `FaultPlan` (random
    /// loss plus explicit drops) reshapes delivery.
    #[test]
    fn executors_equivalent_under_faults(
        g in arb_graph(),
        rounds in 1u32..5,
        loss_pct in 1u32..60,
        seed in any::<u64>(),
    ) {
        let faults = FaultPlan::none()
            .random_loss(f64::from(loss_pct) / 100.0, seed)
            .drop_at(0, 0, 0)
            .drop_at(1, 1, 0);
        let mk = |exec| {
            let cfg = EngineConfig { executor: exec, faults: faults.clone(), ..EngineConfig::default() };
            run(&g, &cfg, |_| Echo { rounds, sent: 0, received: 0 }).unwrap()
        };
        let a = mk(Executor::Sequential);
        let b = mk(Executor::Parallel);
        prop_assert_eq!(a.verdicts, b.verdicts);
        prop_assert_eq!(a.report.per_round, b.report.per_round);
        prop_assert_eq!(a.report.rounds, b.report.rounds);
        prop_assert_eq!(a.report.all_halted, b.report.all_halted);
        prop_assert_eq!(&a.report.faults, &b.report.faults);
        // Faults only suppress deliveries, never fabricate them — and
        // the fault report accounts for every missing delivery exactly.
        let sent: u64 = a.verdicts.iter().map(|v| v.0).sum();
        let received: u64 = a.verdicts.iter().map(|v| v.1).sum();
        prop_assert!(received <= sent);
        prop_assert_eq!(sent - received, a.report.faults.total_dropped());
    }

    /// Fault-model v2 executor equivalence: crash-stop, link cuts,
    /// Gilbert–Elliott burst loss, and frame corruption — alone and
    /// composed with the v1 kinds — produce bit-identical verdicts,
    /// per-round statistics, and fault reports on both executors, with
    /// heavy broadcast-slot payloads in flight.
    #[test]
    fn fault_v2_kinds_are_executor_equivalent(
        g in arb_graph(),
        rounds in 2u32..5,
        seed in any::<u64>(),
    ) {
        let plans = [
            // `arb_graph` always has ≥ 2 nodes; cutting a non-edge is a
            // harmless no-op, so the plans below never need the edge to
            // exist.
            FaultPlan::none().crash(0, 1),
            FaultPlan::none().cut_link(0, 1),
            FaultPlan::none().burst_loss(0.3, 0.4, seed),
            FaultPlan::none().corrupt_frames(0.5, seed),
            FaultPlan::none()
                .crash(1, 1)
                .cut_link(0, 1)
                .burst_loss(0.2, 0.5, seed)
                .corrupt_frames(0.3, seed ^ 1)
                .random_loss(0.1, seed ^ 2)
                .drop_at(0, 0, 0),
        ];
        for faults in plans {
            let mk = |exec| {
                let cfg = EngineConfig { executor: exec, faults: faults.clone(), ..EngineConfig::default() };
                run(&g, &cfg, |init| HeavyGossip { id: init.id, rounds, digest: 0, evictions: 0 }).unwrap()
            };
            let a = mk(Executor::Sequential);
            let b = mk(Executor::Parallel);
            prop_assert_eq!(&a.verdicts, &b.verdicts, "{:?}", faults);
            prop_assert_eq!(&a.report.per_round, &b.report.per_round, "{:?}", faults);
            prop_assert_eq!(&a.report.faults, &b.report.faults, "{:?}", faults);
        }
    }

    /// Crash-stop semantics: with every node crashed from round 0 the
    /// network is silent — everything is still accounted as sent, every
    /// send is attributed to the crash, and the report names the
    /// crashed set.
    #[test]
    fn crash_stop_silences_everything(g in arb_graph()) {
        let mut plan = FaultPlan::none();
        for v in 0..g.n() as NodeIndex {
            plan = plan.crash(v, 0);
        }
        let cfg = EngineConfig { faults: plan, ..EngineConfig::default() };
        let out = run(&g, &cfg, |_| Echo { rounds: 2, sent: 0, received: 0 }).unwrap();
        let sent: u64 = out.verdicts.iter().map(|v| v.0).sum();
        let received: u64 = out.verdicts.iter().map(|v| v.1).sum();
        prop_assert_eq!(received, 0);
        prop_assert_eq!(sent, 2 * g.m() as u64 * 2);
        prop_assert_eq!(out.report.faults.dropped_crash, sent);
        let all: Vec<u32> = (0..g.n() as u32).collect();
        prop_assert_eq!(&out.report.faults.crashed_nodes, &all);
    }

    /// Cutting one link severs exactly its two directed deliveries per
    /// round and nothing else.
    #[test]
    fn cut_links_are_surgical(g in arb_graph(), rounds in 1u32..4) {
        prop_assume!(g.degree(0) > 0);
        let w = g.neighbor_at(0, 0);
        let baseline = run(&g, &EngineConfig::default(), |_| Echo { rounds, sent: 0, received: 0 }).unwrap();
        let total: u64 = baseline.verdicts.iter().map(|v| v.1).sum();
        let cfg = EngineConfig {
            faults: FaultPlan::none().cut_link(0, w),
            ..EngineConfig::default()
        };
        let out = run(&g, &cfg, |_| Echo { rounds, sent: 0, received: 0 }).unwrap();
        let received: u64 = out.verdicts.iter().map(|v| v.1).sum();
        prop_assert_eq!(received, total - 2 * u64::from(rounds));
        prop_assert_eq!(out.report.faults.dropped_cut, 2 * u64::from(rounds));
    }

    /// Certain corruption on plain `u64` frames garbles every delivery
    /// without losing any: delivery counts match the clean run, every
    /// frame is recorded as corrupted-and-delivered, and nothing is
    /// counted dropped.
    #[test]
    fn certain_corruption_delivers_garbage_not_loss(g in arb_graph(), seed in any::<u64>()) {
        let cfg = EngineConfig {
            faults: FaultPlan::none().corrupt_frames(1.0, seed),
            ..EngineConfig::default()
        };
        let out = run(&g, &cfg, |_| Echo { rounds: 2, sent: 0, received: 0 }).unwrap();
        let sent: u64 = out.verdicts.iter().map(|v| v.0).sum();
        let received: u64 = out.verdicts.iter().map(|v| v.1).sum();
        prop_assert_eq!(received, sent, "u64 frames survive bit flips as garbage");
        prop_assert_eq!(out.report.faults.corrupted_delivered, sent);
        prop_assert_eq!(out.report.faults.total_dropped(), 0);
    }

    /// The counter-free fast paths (taken when round recording is off)
    /// must deliver exactly what the accounted path delivers, on both
    /// executors.
    #[test]
    fn fast_paths_equivalent_to_accounted(g in arb_graph(), rounds in 1u32..5) {
        let mk = |exec, record_rounds| {
            let cfg = EngineConfig { executor: exec, record_rounds, ..EngineConfig::default() };
            run(&g, &cfg, |_| Echo { rounds, sent: 0, received: 0 }).unwrap()
        };
        let reference = mk(Executor::Sequential, true);
        for exec in [Executor::Sequential, Executor::Parallel] {
            let fast = mk(exec, false);
            prop_assert_eq!(&fast.verdicts, &reference.verdicts, "{:?}", exec);
            prop_assert_eq!(fast.report.rounds, reference.report.rounds);
            prop_assert_eq!(fast.report.all_halted, reference.report.all_halted);
            prop_assert!(fast.report.per_round.is_empty());
        }
    }

    /// Broadcast-slot equivalence under heavy payloads: the four sink
    /// paths (accounted/fast × sequential/parallel) must deliver
    /// bit-identical content in bit-identical order (under forced
    /// workers the parallel runs split into several inbox segments),
    /// including under a nontrivial fault plan, and the slot must
    /// recycle (every node that keeps broadcasting sees evictions from
    /// round 2 on).
    #[test]
    fn broadcast_slots_equivalent_across_sinks(
        g in arb_graph(),
        rounds in 2u32..6,
        loss_pct in 0u32..50,
        seed in any::<u64>(),
    ) {
        let faults = if loss_pct == 0 {
            FaultPlan::none()
        } else {
            FaultPlan::none().random_loss(f64::from(loss_pct) / 100.0, seed).drop_at(1, 0, 0)
        };
        let mk = |exec, record_rounds| {
            let cfg = EngineConfig { executor: exec, record_rounds, faults: faults.clone(), ..EngineConfig::default() };
            run(&g, &cfg, |init| HeavyGossip { id: init.id, rounds, digest: 0, evictions: 0 }).unwrap()
        };
        let reference = mk(Executor::Sequential, true);
        // Faults drop deliveries, never broadcasts: the slot still parks
        // a payload every round, so every connected node sees evictions
        // from round 2 on (isolated nodes never park — broadcast to
        // degree 0 is a no-op).
        for (v, verdict) in reference.verdicts.iter().enumerate() {
            let expect = if g.degree(v as NodeIndex) > 0 { u64::from(rounds) - 2 } else { 0 };
            prop_assert_eq!(verdict.1, expect, "node {}", v);
        }
        for exec in [Executor::Sequential, Executor::Parallel] {
            for record_rounds in [true, false] {
                let out = mk(exec, record_rounds);
                prop_assert_eq!(&out.verdicts, &reference.verdicts, "{:?} record={}", exec, record_rounds);
                prop_assert_eq!(out.report.rounds, reference.report.rounds);
                if record_rounds {
                    prop_assert_eq!(&out.report.per_round, &reference.report.per_round);
                }
            }
        }
    }

    /// Fault semantics: with full loss nothing is received but everything
    /// is still accounted as sent; with an explicit plan, exactly the
    /// planned messages disappear.
    #[test]
    fn full_loss_blocks_delivery_only(g in arb_graph()) {
        let cfg = EngineConfig {
            faults: FaultPlan::none().random_loss(1.0, 7),
            ..EngineConfig::default()
        };
        let out = run(&g, &cfg, |_| Echo { rounds: 2, sent: 0, received: 0 }).unwrap();
        let received: u64 = out.verdicts.iter().map(|v| v.1).sum();
        prop_assert_eq!(received, 0);
        prop_assert_eq!(out.report.total_messages(), 2 * g.m() as u64 * 2);
    }

    /// One planned drop removes exactly one delivery.
    #[test]
    fn single_drop_is_surgical(g in arb_graph()) {
        let baseline = run(&g, &EngineConfig::default(), |_| Echo { rounds: 1, sent: 0, received: 0 }).unwrap();
        let total: u64 = baseline.verdicts.iter().map(|v| v.1).sum();
        let victim: NodeIndex = 0;
        prop_assume!(g.degree(victim) > 0);
        let cfg = EngineConfig {
            faults: FaultPlan::none().drop_at(0, victim, 0),
            ..EngineConfig::default()
        };
        let out = run(&g, &cfg, |_| Echo { rounds: 1, sent: 0, received: 0 }).unwrap();
        let received: u64 = out.verdicts.iter().map(|v| v.1).sum();
        prop_assert_eq!(received, total - 1);
    }

    /// Bandwidth enforcement: a cap below the message size trips on the
    /// first round; a generous cap never trips.
    #[test]
    fn bandwidth_enforcement_is_sharp(g in arb_graph()) {
        let wp = WireParams::for_graph(&g);
        let msg_bits = 0u64.wire_bits(&wp);
        let tight = EngineConfig {
            bandwidth: BandwidthPolicy::Enforce { bits: msg_bits.saturating_sub(1) },
            ..EngineConfig::default()
        };
        let tripped = run(&g, &tight, |_| Echo { rounds: 1, sent: 0, received: 0 }).is_err();
        prop_assert!(tripped);
        let loose = EngineConfig {
            bandwidth: BandwidthPolicy::Enforce { bits: msg_bits },
            ..EngineConfig::default()
        };
        let passed = run(&g, &loose, |_| Echo { rounds: 1, sent: 0, received: 0 }).is_ok();
        prop_assert!(passed);
    }

    /// Reverse ports really invert: a message sent on port p arrives at
    /// the neighbor on the port that leads back.
    #[test]
    fn reverse_ports_invert(g in arb_graph()) {
        for v in 0..g.n() as NodeIndex {
            for p in 0..g.degree(v) as u32 {
                let w = g.neighbor_at(v, p);
                let q = g.reverse_port(v, p);
                prop_assert_eq!(g.neighbor_at(w, q), v);
                prop_assert_eq!(g.reverse_port(w, q), p);
            }
        }
    }
}
