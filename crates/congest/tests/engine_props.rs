//! Engine-level property tests: conservation, determinism, accounting,
//! and fault-plan semantics over random topologies and protocols.

use ck_congest::engine::{BandwidthPolicy, EngineConfig, EngineError, Executor, RunOutcome};
use ck_congest::fault::FaultPlan;
use ck_congest::graph::{Graph, GraphBuilder, NodeIndex};
use ck_congest::message::{WireMessage, WireParams};
use ck_congest::metrics::RunReport;
use ck_congest::net::{partition_range, PartitionEngine, RoundDigest};
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
            self.sent += u64::from(out.degree());
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
/// by the parity of `id + round`, a node either broadcasts a content-
/// and degree-dependent bundle or sends a targeted bundle on every
/// port, so inboxes interleave owned and shared deliveries while every
/// link carries one message per round. The verdict digests everything
/// received — order included — so the tiniest divergence in delivery
/// order or content between sink paths shows up as a digest mismatch.
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
        if (self.id + u64::from(round)).is_multiple_of(2) {
            let payload: Vec<u64> = (0..(self.id % 5) + 2)
                .map(|i| self.id * 1000 + u64::from(round) * 10 + i)
                .collect();
            if out.broadcast(payload).is_some() {
                self.evictions += 1;
            }
        } else {
            for p in 0..out.degree() {
                out.send(p, vec![self.id, u64::from(round), u64::from(p)]);
            }
        }
        Status::Running
    }

    fn verdict(&self) -> (u64, u64) {
        (self.digest, self.evictions)
    }
}

/// The distributed executor's round protocol, run in process: `workers`
/// partition engines each step their range, their cross-cut deliveries
/// are routed in ascending worker order (as the coordinator routes
/// `Msg` frames), and the merged digest closes the round.
fn run_partitioned(
    g: &Graph,
    config: &EngineConfig,
    workers: u32,
    rounds: u32,
) -> Result<(RunReport, Vec<(u64, u64)>), EngineError> {
    let params = WireParams::for_graph(g);
    let mut parts: Vec<PartitionEngine<'_, HeavyGossip>> = (0..workers)
        .map(|w| {
            PartitionEngine::new(g, config, params, workers, w, |init| HeavyGossip {
                id: init.id,
                rounds,
                digest: 0,
                evictions: 0,
            })
        })
        .collect();
    let owner = |v: NodeIndex| {
        (0..workers).position(|w| partition_range(g.n(), workers, w).contains(&v)).unwrap()
    };
    let mut report = RunReport::default();
    let (mut active, mut round) = (g.n(), 0);
    let (mut out, mut routed) = (Vec::new(), Vec::new());
    while round < config.max_rounds && active > 0 {
        let mut digest = RoundDigest::default();
        for part in &mut parts {
            digest = RoundDigest::merge(digest, part.step_round(round, &mut out));
            routed.append(&mut out);
        }
        digest.close_round(round, config, &mut active, &mut report)?;
        for f in routed.drain(..) {
            parts[owner(f.receiver)].inject(f.receiver, f.port, f.msg).unwrap();
        }
        for part in &mut parts {
            part.commit_round();
        }
        round += 1;
    }
    report.rounds = round;
    report.all_halted = active == 0;
    Ok((report, parts.iter().flat_map(|p| p.verdicts()).collect()))
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

    /// Every executed round appends exactly one statistics row, in
    /// round order, on both executors, and the rows agree.
    #[test]
    fn every_round_appends_one_row(g in arb_graph(), rounds in 1u32..5) {
        let mk = |exec| {
            let cfg = EngineConfig { executor: exec, ..EngineConfig::default() };
            run(&g, &cfg, |_| Echo { rounds, sent: 0, received: 0 }).unwrap()
        };
        let reference = mk(Executor::Sequential);
        let rows = &reference.report.per_round;
        prop_assert_eq!(rows.len(), reference.report.rounds as usize);
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(row.round, i as u32);
        }
        let par = mk(Executor::Parallel);
        prop_assert_eq!(&par.verdicts, &reference.verdicts);
        prop_assert_eq!(par.report.rounds, reference.report.rounds);
        prop_assert_eq!(par.report.all_halted, reference.report.all_halted);
        prop_assert_eq!(&par.report.per_round, rows);
    }

    /// Broadcast-slot equivalence under heavy payloads: both executors
    /// must deliver bit-identical content in bit-identical order (under
    /// forced workers the parallel runs split into several inbox
    /// segments), including under a nontrivial fault plan, and the slot
    /// must recycle (a node broadcasts every other round, so all of its
    /// broadcasts land in one slot generation and each but the first
    /// evicts its predecessor).
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
        let mk = |exec| {
            let cfg = EngineConfig { executor: exec, faults: faults.clone(), ..EngineConfig::default() };
            run(&g, &cfg, |init| HeavyGossip { id: init.id, rounds, digest: 0, evictions: 0 }).unwrap()
        };
        let reference = mk(Executor::Sequential);
        // Faults drop deliveries, never broadcasts: the slot still parks
        // a payload at each of the `b` broadcasts, so a connected node
        // sees `b − 1` evictions (isolated nodes never park — broadcast
        // to degree 0 is a no-op).
        for (v, verdict) in reference.verdicts.iter().enumerate() {
            let id = g.id(v as NodeIndex);
            let b = (0..rounds).filter(|&r| (id + u64::from(r)).is_multiple_of(2)).count() as u64;
            let expect = if g.degree(v as NodeIndex) > 0 { b.saturating_sub(1) } else { 0 };
            prop_assert_eq!(verdict.1, expect, "node {}", v);
        }
        let out = mk(Executor::Parallel);
        prop_assert_eq!(&out.verdicts, &reference.verdicts);
        prop_assert_eq!(out.report.rounds, reference.report.rounds);
        prop_assert_eq!(&out.report.per_round, &reference.report.per_round);
    }

    /// Partitioned execution delivers in the sequential order: with the
    /// graph split across 1–4 workers, every node's order-sensitive
    /// digest of what it received, and every round's statistics, match
    /// a sequential session's, with and without message loss.
    #[test]
    fn partitions_reproduce_the_sequential_order(
        g in arb_graph(),
        workers in 1u32..5,
        rounds in 1u32..5,
        lossy in any::<bool>(),
    ) {
        let faults = if lossy { FaultPlan::none().random_loss(0.2, 11) } else { FaultPlan::none() };
        let cfg = EngineConfig { executor: Executor::Sequential, faults, ..EngineConfig::default() };
        let seq = run(&g, &cfg, |init| HeavyGossip { id: init.id, rounds, digest: 0, evictions: 0 }).unwrap();
        let (report, verdicts) = run_partitioned(&g, &cfg, workers, rounds).unwrap();
        prop_assert_eq!(&verdicts, &seq.verdicts, "W={}", workers);
        prop_assert_eq!(&report.per_round, &seq.report.per_round, "W={}", workers);
        prop_assert_eq!(report.rounds, seq.report.rounds);
        prop_assert_eq!(&report.faults, &seq.report.faults);
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
