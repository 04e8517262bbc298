//! Payload ownership across the engine's delivery paths.
//!
//! A delivery is a pointer in the receiver's mailbox slot for the link,
//! which carries one message per round. A broadcast's payload lives in
//! its sender's broadcast slot; every other payload (targeted sends,
//! corrupted copies, a distributed worker's remote deliveries) lives in
//! the payload arena of the segment that wrote it. These tests send a
//! payload that counts its live copies down every one of those paths,
//! through the sequential executor, the
//! parallel executor at forced worker counts, and two partition engines
//! routed as the distributed coordinator routes them. Every warm rerun
//! must reproduce the sequential verdicts, the payloads a run leaves
//! alive must be exactly its undelivered traffic plus the broadcasts
//! parked in the slots (which outlive the run, at most one per node and
//! arena generation), and once the session or the engines are dropped
//! no payload may be left alive.
//!
//! The graphs and round counts are small enough for Miri:
//! `cargo +nightly miri test -p ck-congest --test payload_lifetime`.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use ck_congest::engine::{EngineConfig, EngineWorkspace, Executor, RunOutcome};
use ck_congest::fault::FaultPlan;
use ck_congest::graph::{Graph, GraphBuilder, NodeIndex};
use ck_congest::message::{WireMessage, WireParams};
use ck_congest::metrics::{RoundStats, RunReport};
use ck_congest::net::frame::FrameError;
use ck_congest::net::{partition_range, PartitionEngine, RoundDigest};
use ck_congest::node::{Inbox, NodeInit, Outbox, Program, Status};
use ck_congest::session::Session;

/// Warm reruns per executor.
const RERUNS: usize = 3;

/// A payload that counts the live payloads of one test case: one more
/// when it is created or cloned, one less when it is dropped.
struct Counted {
    value: u64,
    live: Arc<AtomicI64>,
}

impl Counted {
    fn new(value: u64, live: &Arc<AtomicI64>) -> Self {
        live.fetch_add(1, Ordering::SeqCst);
        Counted { value, live: Arc::clone(live) }
    }
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        Counted::new(self.value, &self.live)
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

impl WireMessage for Counted {
    fn wire_bits(&self, _params: &WireParams) -> u64 {
        64
    }

    /// Half the tampered frames no longer decode; the rest arrive as a
    /// fresh, different payload.
    fn corrupt_frame(&self, _params: &WireParams, entropy: u64) -> Option<Self> {
        (entropy & 1 == 1).then(|| Counted::new(self.value ^ entropy, &self.live))
    }
}

/// What a node heard: `(round, port, value)` per delivery, in order.
type Heard = Vec<(u32, u32, u64)>;

/// By the parity of `id + round`, a node either broadcasts or sends one
/// payload on every port, so every inbox mixes parked broadcasts and
/// payload-arena entries while each link carries one message per round.
/// Halts at `halt_at` (node 0 early, so its neighbours keep sending
/// into a row nobody reads); the verdict is everything it heard.
struct Gossip {
    id: u64,
    halt_at: u32,
    heard: Heard,
    live: Arc<AtomicI64>,
}

impl Gossip {
    /// Whether the node broadcasts (rather than sends on every port) in
    /// `round`.
    fn broadcasts(id: u64, round: u32) -> bool {
        (id + u64::from(round)).is_multiple_of(2)
    }
}

impl Program for Gossip {
    type Msg = Counted;
    type Verdict = Heard;

    fn step(&mut self, round: u32, inbox: Inbox<'_, Counted>, out: &mut Outbox<Counted>) -> Status {
        self.heard.extend(inbox.iter().map(|inc| (round, inc.port, inc.msg.value)));
        if round >= self.halt_at {
            return Status::Halted;
        }
        let base = self.id * 1000 + u64::from(round) * 10;
        if Gossip::broadcasts(self.id, round) {
            drop(out.broadcast(Counted::new(base + 1, &self.live)));
        } else {
            for p in 0..out.degree() {
                out.send(p, Counted::new(base + 2 + u64::from(p), &self.live));
            }
        }
        Status::Running
    }

    fn verdict(&self) -> Heard {
        self.heard.clone()
    }
}

/// Twelve nodes: a ring with six chords, degrees 2 to 4.
fn graph() -> Graph {
    let ring = (0..12u32).map(|i| (i, (i + 1) % 12));
    let chords = [(0, 6), (1, 4), (2, 9), (3, 11), (5, 8), (7, 10)];
    GraphBuilder::new(12).edges(ring.chain(chords)).build().unwrap()
}

/// The round `factory`'s node `v` halts at.
fn halt_at(v: NodeIndex) -> u32 {
    if v == 0 {
        2
    } else {
        5
    }
}

fn factory(live: &Arc<AtomicI64>) -> impl FnMut(NodeInit<'_>) -> Gossip + '_ {
    move |init| Gossip {
        id: init.id,
        halt_at: halt_at(init.index),
        heard: Heard::new(),
        live: Arc::clone(live),
    }
}

/// The broadcasts parked in one workspace's slots after `runs` of
/// `factory`'s programs, each a graph and the rounds it ran, in order.
/// Slots are never cleared, so node `v` keeps one payload in each arena
/// generation it ever broadcast into. The generation a round writes
/// alternates round by round, across runs too: a run of an odd number
/// of rounds hands the next run the other generation first.
fn parked_after(runs: &[(&Graph, u32)]) -> i64 {
    let n = runs.iter().map(|(g, _)| g.n()).max().unwrap_or(0);
    let mut parked = vec![[false; 2]; n];
    let mut first = 0u32;
    for &(g, rounds) in runs {
        for v in 0..g.n() as NodeIndex {
            for r in (0..rounds.min(halt_at(v))).filter(|&r| Gossip::broadcasts(g.id(v), r)) {
                parked[v as usize][((first + r) % 2) as usize] = true;
            }
        }
        first += rounds;
    }
    parked.iter().flatten().filter(|&&p| p).count() as i64
}

/// The configurations every executor runs: a fault plan that drops and
/// corrupts, a clean run, and a faulted run capped before every node
/// halts, which ends with undelivered traffic still in the arenas.
fn configs() -> Vec<(&'static str, EngineConfig)> {
    let faults = FaultPlan::none().random_loss(0.2, 11).corrupt_frames(0.3, 5);
    vec![
        ("faults", EngineConfig { faults: faults.clone(), ..EngineConfig::default() }),
        ("clean", EngineConfig::default()),
        ("capped", EngineConfig { faults, max_rounds: 4, ..EngineConfig::default() }),
    ]
}

/// What must agree across executors: the verdicts, the per-round
/// statistics and the fault report.
type Observed = (Vec<Heard>, Vec<RoundStats>, String, u32);

fn observe(report: &RunReport, verdicts: Vec<Heard>) -> Observed {
    (verdicts, report.per_round.clone(), format!("{:?}", report.faults), report.rounds)
}

/// `RERUNS` runs through one warm session; returns each run's
/// observation and the live payload count after each run.
fn session_runs(g: &Graph, config: &EngineConfig, live: &Arc<AtomicI64>) -> Vec<(Observed, i64)> {
    let mut session = Session::builder(g).config(config.clone()).build();
    (0..RERUNS)
        .map(|_| {
            let out = session.run(factory(live)).unwrap();
            (observe(&out.report, out.verdicts), live.load(Ordering::SeqCst))
        })
        .collect()
}

/// One run through two partition engines, routed as the distributed
/// coordinator routes them: every engine steps, the cut deliveries are
/// injected in ascending source order, then every engine commits.
/// Returns the run's observation and the live payload count before the
/// engines are dropped.
fn partitioned_run(g: &Graph, config: &EngineConfig, live: &Arc<AtomicI64>) -> (Observed, i64) {
    let (report, parts) = run_partitions(g, config, factory(live));
    let observed = observe(&report, parts.iter().flat_map(|p| p.verdicts()).collect());
    (observed, live.load(Ordering::SeqCst))
}

/// [`partitioned_run`] for any program: the run's report and the two
/// engines, still holding what the run left in flight.
fn run_partitions<'g, P, F>(
    g: &'g Graph,
    config: &EngineConfig,
    mut make: F,
) -> (RunReport, Vec<PartitionEngine<'g, P>>)
where
    P: Program,
    F: FnMut(NodeInit<'g>) -> P,
{
    let workers = 2;
    let params = WireParams::for_graph(g);
    let mut parts: Vec<PartitionEngine<'g, P>> = (0..workers)
        .map(|w| PartitionEngine::new(g, config, params, workers, w, &mut make))
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
        digest.close_round(round, config, &mut active, &mut report).unwrap();
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
    (report, parts)
}

/// The verdicts of a [`run_partitions`] run, in node order.
fn verdicts_of<P: Program>(parts: &[PartitionEngine<'_, P>]) -> Vec<P::Verdict> {
    parts.iter().flat_map(|p| p.verdicts()).collect()
}

/// The forced worker count is process-wide and the parallel executor
/// reads it, so the tests of this binary run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Restores the default worker count even when a test panics.
struct ResetWorkers;

impl Drop for ResetWorkers {
    fn drop(&mut self) {
        rayon::force_workers_for_tests(0);
    }
}

/// Sequential, parallel at the default and at 2 forced workers, and two
/// partition engines: every warm rerun matches the first sequential
/// run, reruns leak nothing, and dropping the session or the engines
/// drops every payload.
#[test]
fn every_payload_path_matches_the_oracle_and_leaks_nothing() {
    let _serial = serial();
    let _reset = ResetWorkers;
    let g = graph();
    for (name, base) in configs() {
        let live = Arc::new(AtomicI64::new(0));
        let seq = EngineConfig { executor: Executor::Sequential, ..base.clone() };
        let oracle = session_runs(&g, &seq, &live);
        assert_eq!(live.load(Ordering::SeqCst), 0, "{name}: sequential session dropped");
        let want = oracle[0].0.clone();
        assert!(want.0.iter().any(|h| !h.is_empty()), "{name}: nothing was delivered");
        let first_live = oracle[0].1;
        for (i, (got, left)) in oracle.iter().enumerate() {
            assert_eq!(got, &want, "{name}: sequential rerun {i}");
            assert_eq!(*left, first_live, "{name}: sequential rerun {i} leaked payloads");
        }

        for forced in [0, 2] {
            rayon::force_workers_for_tests(forced);
            let par = EngineConfig { executor: Executor::Parallel, ..base.clone() };
            let runs = session_runs(&g, &par, &live);
            assert_eq!(live.load(Ordering::SeqCst), 0, "{name}: parallel session dropped");
            for (i, (got, left)) in runs.iter().enumerate() {
                assert_eq!(got, &want, "{name}: parallel (forced {forced}) rerun {i}");
                assert_eq!(*left, runs[0].1, "{name}: parallel rerun {i} leaked payloads");
            }
        }

        for i in 0..RERUNS {
            let (got, _) = partitioned_run(&g, &base, &live);
            assert_eq!(got, want, "{name}: partitioned run {i}");
            assert_eq!(live.load(Ordering::SeqCst), 0, "{name}: partition engines dropped");
        }
    }
}

/// Round 2's targeted sends of the nodes still running then: node 0
/// halted at round 2, and the others that did not broadcast sent one
/// payload on every port.
fn round_two_targeted_sends(g: &Graph) -> i64 {
    (1..g.n() as NodeIndex)
        .filter(|&v| !Gossip::broadcasts(g.id(v), 2))
        .map(|v| g.degree(v) as i64)
        .sum()
}

/// A run capped at round 3 of a clean plan ends with exactly round 2's
/// undelivered traffic and the parked broadcasts alive, so every
/// payload arena written earlier was cleared when its generation
/// re-entered the write role. That traffic is the running senders'
/// targeted sends. In process, the slots keep every broadcast no later
/// one evicted: each node broadcasts in rounds of one parity, so after
/// one run into one generation, and from the second run on into both,
/// as three rounds flip the generation the next run starts with. A
/// partition engine, built per run, holds every node's last broadcast
/// and the cut deliveries it received as clones. Dropping the session
/// or the engines releases it all.
#[test]
fn capped_runs_keep_exactly_the_last_round_alive() {
    let _serial = serial();
    let g = graph();
    let live = Arc::new(AtomicI64::new(0));
    let base = EngineConfig { max_rounds: 3, ..EngineConfig::default() };
    let in_process = round_two_targeted_sends(&g);
    for executor in [Executor::Sequential, Executor::Parallel] {
        let config = EngineConfig { executor, ..base.clone() };
        let runs = session_runs(&g, &config, &live);
        assert_eq!(live.load(Ordering::SeqCst), 0, "{executor:?}: session dropped");
        for (i, (observed, left)) in runs.iter().enumerate() {
            assert_eq!(observed.3, 3, "{executor:?}: the cap stopped the run");
            let parked = parked_after(&vec![(&g, 3); i + 1]);
            assert_eq!(*left, in_process + parked, "{executor:?}: payloads alive after run {i}");
        }
    }
    assert_eq!(parked_after(&[(&g, 3)]), g.n() as i64, "one run parks one payload per node");
    assert_eq!(parked_after(&[(&g, 3); 2]), 2 * g.n() as i64, "two runs park two");

    let side = |v: NodeIndex| usize::from(v >= partition_range(g.n(), 2, 1).start);
    let cut = |v: NodeIndex| g.neighbors(v).iter().filter(|&&w| side(w) != side(v)).count();
    // Every node broadcast at round 0 or 1 and has its last broadcast
    // parked; every node but node 0 sent across the cut at round 2.
    let slots = g.n() as i64;
    let clones: i64 = (1..g.n() as NodeIndex).map(|v| cut(v) as i64).sum();
    let partitioned = slots + clones + in_process;
    for i in 0..RERUNS {
        let (_, left) = partitioned_run(&g, &base, &live);
        assert_eq!(left, partitioned, "partition engines: payloads alive after run {i}");
        assert_eq!(live.load(Ordering::SeqCst), 0, "partition engines dropped");
    }
}

/// Records what it hears and never sends.
struct Listener {
    heard: Heard,
}

impl Program for Listener {
    type Msg = Counted;
    type Verdict = Heard;

    fn step(
        &mut self,
        round: u32,
        inbox: Inbox<'_, Counted>,
        _out: &mut Outbox<Counted>,
    ) -> Status {
        self.heard.extend(inbox.iter().map(|inc| (round, inc.port, inc.msg.value)));
        Status::Running
    }

    fn verdict(&self) -> Heard {
        self.heard.clone()
    }
}

/// Deliveries injected in reverse port order land at their links: node
/// 0 (worker 0 of 2 owns 0..6) hears node 11 on port 2 and node 6 on
/// port 1 in port order. A second delivery on a link is refused typed
/// and its payload dropped at once; the accepted ones stay alive
/// through the read and drop when their generation re-enters the write
/// role.
#[test]
fn injected_deliveries_land_by_link_and_a_second_is_refused() {
    let g = graph();
    assert_eq!(g.neighbors(0), &[1, 6, 11]);
    let live = Arc::new(AtomicI64::new(0));
    let params = WireParams::for_graph(&g);
    let config = EngineConfig::default();
    let mut part =
        PartitionEngine::new(&g, &config, params, 2, 0, |_| Listener { heard: Heard::new() });
    let mut out = Vec::new();
    part.step_round(0, &mut out);
    assert!(out.is_empty(), "listeners send nothing");
    part.inject(0, 2, Counted::new(21, &live)).unwrap();
    part.inject(0, 1, Counted::new(11, &live)).unwrap();
    let refused = part.inject(0, 2, Counted::new(22, &live));
    assert!(matches!(refused, Err(FrameError::BadBody(_))), "{refused:?}");
    assert_eq!(live.load(Ordering::SeqCst), 2, "the refused payload is dropped at once");
    part.commit_round();
    part.step_round(1, &mut out);
    assert_eq!(part.verdicts()[0], vec![(1, 1, 11), (1, 2, 21)]);
    assert_eq!(live.load(Ordering::SeqCst), 2, "read, not yet dropped");
    part.commit_round();
    assert_eq!(live.load(Ordering::SeqCst), 0, "dropped once their generation is writable again");
}

/// Node 0 halts at round 0 while its neighbours keep sending to it —
/// broadcasts and targeted sends — for four rounds. Its row is nulled by
/// its own step every round (in debug builds the arena asserts every
/// slot is null before it drops a generation's payloads), the other
/// nodes hear exactly what the sequential run hears on every executor,
/// and nothing leaks.
#[test]
fn a_halted_receivers_row_is_cleared_and_nothing_leaks() {
    let _serial = serial();
    let _reset = ResetWorkers;
    let g = graph();
    let live = Arc::new(AtomicI64::new(0));
    let make = |init: NodeInit<'_>| Gossip {
        id: init.id,
        halt_at: if init.index == 0 { 0 } else { 4 },
        heard: Heard::new(),
        live: Arc::clone(&live),
    };
    let base = EngineConfig { executor: Executor::Sequential, ..EngineConfig::default() };
    let oracle = Session::builder(&g).config(base.clone()).build().run(make).unwrap();
    assert!(oracle.verdicts[0].is_empty(), "node 0 halted before hearing anything");
    let heard_by_1 = &oracle.verdicts[1];
    assert!(!heard_by_1.is_empty() && heard_by_1.iter().all(|&(_, port, _)| port != 0));
    assert_eq!(live.load(Ordering::SeqCst), 0);
    for forced in [0, 2] {
        rayon::force_workers_for_tests(forced);
        for executor in [Executor::Sequential, Executor::Parallel] {
            let mut session =
                Session::builder(&g).config(EngineConfig { executor, ..base.clone() }).build();
            for i in 0..RERUNS {
                let out = session.run(make).unwrap();
                assert_eq!(
                    out.verdicts, oracle.verdicts,
                    "{executor:?} (forced {forced}) rerun {i}"
                );
                assert_eq!(out.report.per_round, oracle.report.per_round);
            }
            drop(session);
            assert_eq!(live.load(Ordering::SeqCst), 0, "{executor:?}: session dropped");
        }
    }
    rayon::force_workers_for_tests(0);
    let (report, parts) = run_partitions(&g, &base, make);
    assert_eq!(verdicts_of(&parts), oracle.verdicts, "partitioned");
    assert_eq!(report.per_round, oracle.report.per_round, "partitioned");
    drop(parts);
    assert_eq!(live.load(Ordering::SeqCst), 0, "partition engines dropped");
}

/// A run capped mid-flight leaves traffic in the workspace's arenas; a
/// run on a smaller graph through the same workspace then reads none of
/// it: its verdicts and statistics equal a fresh session's, the capped
/// run's traffic is dropped exactly once, and what stays alive is the
/// broadcasts parked in the slots, the capped run's among them where
/// the small run did not overwrite them. Dropping the workspace drops
/// the rest.
#[test]
fn a_capped_run_then_a_smaller_graph_reads_no_stale_entry() {
    let _serial = serial();
    let _reset = ResetWorkers;
    let big = graph();
    let small = GraphBuilder::new(7)
        .edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 3), (2, 5)])
        .build()
        .unwrap();
    let live = Arc::new(AtomicI64::new(0));
    let faults = FaultPlan::none().random_loss(0.2, 11).corrupt_frames(0.3, 5);
    for forced in [0, 2] {
        rayon::force_workers_for_tests(forced);
        for executor in [Executor::Sequential, Executor::Parallel] {
            let capped = EngineConfig { executor, max_rounds: 3, ..EngineConfig::default() };
            let full = EngineConfig { executor, faults: faults.clone(), ..EngineConfig::default() };
            let fresh =
                Session::builder(&small).config(full.clone()).build().run(factory(&live)).unwrap();
            let alone = live.load(Ordering::SeqCst);
            let what = format!("{executor:?} (forced {forced})");

            let mut ws: EngineWorkspace<Counted> = EngineWorkspace::new();
            let mut out = RunOutcome::default();
            let params = WireParams::for_graph(&big);
            ws.run_on_into(&big, &capped, &params, factory(&live), &mut out).unwrap();
            assert_eq!(out.report.rounds, 3, "{what}: the cap stopped the run");
            // Round 2's targeted sends are still in flight.
            let in_flight = round_two_targeted_sends(&big);
            let parked = parked_after(&[(&big, 3)]);
            assert_eq!(
                live.load(Ordering::SeqCst),
                alone + in_flight + parked,
                "{what}: in flight"
            );

            let params = WireParams::for_graph(&small);
            ws.run_on_into(&small, &full, &params, factory(&live), &mut out).unwrap();
            assert_eq!(out.verdicts, fresh.verdicts, "{what}: no stale entry read");
            assert_eq!(out.report.per_round, fresh.report.per_round, "{what}");
            assert_eq!(format!("{:?}", out.report.faults), format!("{:?}", fresh.report.faults));
            let parked = parked_after(&[(&big, 3), (&small, out.report.rounds)]);
            assert_eq!(live.load(Ordering::SeqCst), alone + parked, "{what}: dropped exactly once");
            drop(ws);
            assert_eq!(live.load(Ordering::SeqCst), alone, "{what}: workspace dropped");
        }
    }
}
