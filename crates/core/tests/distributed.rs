//! Bit-identity and fault-tolerance tests of the distributed tester
//! executor: the in-process sequential run is the oracle, and a
//! distributed run — any worker count, any composed fault plan — must
//! reproduce its verdicts, round statistics, and fault accounting
//! bit-for-bit. Under chaos (mid-frame cuts, worker death, hard
//! disconnects) every run must still terminate within the configured
//! deadlines, either with the correct result after graceful
//! degradation or with a typed `NetError` — never a hang.

use std::time::{Duration, Instant};

use ck_congest::engine::{BandwidthPolicy, EngineConfig, EngineError, Executor};
use ck_congest::fault::FaultPlan;
use ck_congest::graph::Graph;
use ck_congest::net::chaos::ChaosPlan;
use ck_congest::net::NetOptions;
use ck_core::session::TesterSession;
use ck_core::tester::{TesterConfig, TesterRun};
use ck_graphgen::basic::{complete, cycle, path};
use ck_graphgen::behrend::behrend_ck_instance;
use ck_graphgen::planted::{eps_far_instance, matched_free_instance};
use ck_graphgen::random::gnp;

/// Tight deadlines so failure paths resolve in test time; generous
/// enough that healthy loopback runs never trip them.
fn fast_net() -> NetOptions {
    NetOptions {
        connect_timeout_ms: 5_000,
        round_deadline_ms: 5_000,
        heartbeat_ms: 20,
        ..NetOptions::default()
    }
}

fn run_with(g: &Graph, cfg: TesterConfig, engine: EngineConfig) -> TesterRun {
    TesterSession::from_config(cfg, engine).unwrap().test(g).unwrap()
}

/// Runs the sequential oracle and a `workers`-way distributed run and
/// asserts full bit-identity of everything executor-independent.
fn assert_bit_identical(g: &Graph, cfg: TesterConfig, faults: FaultPlan, workers: u16) {
    let seq_engine = EngineConfig {
        executor: Executor::Sequential,
        faults: faults.clone(),
        ..EngineConfig::default()
    };
    let dist_engine = EngineConfig {
        executor: Executor::Distributed { workers },
        faults,
        net: fast_net(),
        ..EngineConfig::default()
    };
    let seq = run_with(g, cfg, seq_engine);
    let dist = run_with(g, cfg, dist_engine);

    let net = dist.outcome.report.net.as_ref().expect("distributed run records a net block");
    assert!(
        net.completed_distributed(),
        "healthy loopback run must not degrade: {:?}",
        net.fallback
    );
    assert_eq!(dist.reject, seq.reject, "network verdict");
    assert_eq!(dist.repetitions, seq.repetitions);
    assert_eq!(dist.discarded_witnesses, seq.discarded_witnesses);
    assert_eq!(dist.outcome.verdicts, seq.outcome.verdicts, "per-node verdicts");
    assert_eq!(dist.outcome.report.rounds, seq.outcome.report.rounds);
    assert_eq!(dist.outcome.report.all_halted, seq.outcome.report.all_halted);
    assert_eq!(dist.outcome.report.per_round, seq.outcome.report.per_round, "round stats");
    assert_eq!(dist.outcome.report.faults, seq.outcome.report.faults, "fault accounting");
}

#[test]
fn planted_instance_bit_identical_across_worker_counts() {
    let inst = eps_far_instance(36, 5, 0.12, 11);
    let mut cfg = TesterConfig::new(5, 0.2, 7);
    cfg.repetitions = Some(2);
    for workers in [1u16, 2, 3, 4] {
        assert_bit_identical(&inst.graph, cfg, FaultPlan::none(), workers);
    }
}

#[test]
fn free_instance_bit_identical() {
    let g = matched_free_instance(30, 4);
    let mut cfg = TesterConfig::new(4, 0.25, 3);
    cfg.repetitions = Some(2);
    assert_bit_identical(&g, cfg, FaultPlan::none(), 3);
}

#[test]
fn behrend_instance_bit_identical() {
    let inst = behrend_ck_instance(4, 48);
    let mut cfg = TesterConfig::new(4, 0.3, 5);
    cfg.repetitions = Some(2);
    for workers in [2u16, 5] {
        assert_bit_identical(&inst.graph, cfg, FaultPlan::none(), workers);
    }
}

#[test]
fn composed_fault_plan_bit_identical() {
    // FaultPlan v2 in one plan: explicit drop, Bernoulli loss, a
    // crash, a cut link, burst loss, and frame corruption — the
    // distributed workers must replay every coin bit-identically.
    let inst = eps_far_instance(30, 5, 0.12, 23);
    let plan = FaultPlan::none()
        .drop_at(1, 2, 0)
        .random_loss(0.05, 99)
        .crash(3, 4)
        .cut_link(0, 1)
        .burst_loss(0.08, 0.5, 41)
        .corrupt_frames(0.04, 17);
    let mut cfg = TesterConfig::new(5, 0.2, 13);
    cfg.repetitions = Some(2);
    for workers in [2u16, 4] {
        assert_bit_identical(&inst.graph, cfg, plan.clone(), workers);
    }
}

#[test]
fn enforced_bandwidth_violation_is_the_oracle_error() {
    // A budget below any real message: both executors must fail with
    // the *same* typed violation (round, node — the distributed merge
    // keeps the lowest node index), not a transport error.
    let g = cycle(12);
    let mut cfg = TesterConfig::new(4, 0.3, 2);
    cfg.repetitions = Some(1);
    let seq = TesterSession::from_config(
        cfg,
        EngineConfig {
            executor: Executor::Sequential,
            bandwidth: BandwidthPolicy::Enforce { bits: 1 },
            ..EngineConfig::default()
        },
    )
    .unwrap()
    .test(&g)
    .unwrap_err();
    let dist = TesterSession::from_config(
        cfg,
        EngineConfig {
            executor: Executor::Distributed { workers: 3 },
            bandwidth: BandwidthPolicy::Enforce { bits: 1 },
            net: fast_net(),
            ..EngineConfig::default()
        },
    )
    .unwrap()
    .test(&g)
    .unwrap_err();
    let (
        EngineError::BandwidthExceeded { round: ra, node: na, port: pa, bits: ba, limit: la },
        EngineError::BandwidthExceeded { round: rb, node: nb, port: pb, bits: bb, limit: lb },
    ) = (&seq, &dist)
    else {
        panic!("expected BandwidthExceeded from both executors, got {seq:?} / {dist:?}");
    };
    assert_eq!((ra, na, pa, ba, la), (rb, nb, pb, bb, lb));
}

// ---------------------------------------------------------------------------
// Barrier edge cases.
// ---------------------------------------------------------------------------

#[test]
fn single_worker_partition_is_identical_and_routes_nothing() {
    let inst = eps_far_instance(24, 4, 0.15, 5);
    let mut cfg = TesterConfig::new(4, 0.25, 9);
    cfg.repetitions = Some(2);
    let run = run_with(
        &inst.graph,
        cfg,
        EngineConfig {
            executor: Executor::Distributed { workers: 1 },
            net: fast_net(),
            ..EngineConfig::default()
        },
    );
    let net = run.outcome.report.net.as_ref().unwrap();
    assert!(net.completed_distributed());
    // One partition owns every node: zero cross-partition messages,
    // but the barrier still seals every round.
    assert_eq!(net.frames_routed, 0);
    assert_eq!(net.frame_bytes, 0);
    assert_eq!(net.barriers, u64::from(run.outcome.report.rounds));
    assert_bit_identical(&inst.graph, cfg, FaultPlan::none(), 1);
}

#[test]
fn partition_aligned_components_route_zero_frames() {
    // Two cliques on disjoint contiguous index ranges, two workers:
    // the cut between partitions carries no edges, so every round's
    // cross-partition traffic is empty and the barrier protocol alone
    // keeps the workers in lock-step.
    let mut b = ck_congest::graph::GraphBuilder::new(8);
    for a in 0..4u32 {
        for c in (a + 1)..4 {
            b.edge(a, c);
        }
    }
    for a in 4..8u32 {
        for c in (a + 1)..8 {
            b.edge(a, c);
        }
    }
    let g = b.build().unwrap();
    let mut cfg = TesterConfig::new(3, 0.3, 4);
    cfg.repetitions = Some(1);
    let run = run_with(
        &g,
        cfg,
        EngineConfig {
            executor: Executor::Distributed { workers: 2 },
            net: fast_net(),
            ..EngineConfig::default()
        },
    );
    assert!(run.reject, "a K4 contains C3");
    let net = run.outcome.report.net.as_ref().unwrap();
    assert!(net.completed_distributed());
    assert_eq!(net.frames_routed, 0, "no edge crosses the partition cut");
    assert_bit_identical(&g, cfg, FaultPlan::none(), 2);
}

#[test]
fn more_workers_than_nodes_leaves_empty_partitions_in_lockstep() {
    let g = cycle(5);
    let mut cfg = TesterConfig::new(5, 0.3, 6);
    cfg.repetitions = Some(2);
    // 9 workers over 5 nodes: at least 4 partitions are empty yet must
    // ack every barrier and report empty verdict slices.
    assert_bit_identical(&g, cfg, FaultPlan::none(), 9);
}

#[test]
fn run_time_does_not_follow_the_heartbeat_interval() {
    // Heartbeats are liveness only: with a 5 s interval no healthy run
    // may wait for a beat, or for the beat thread to notice a stop.
    let inst = eps_far_instance(24, 4, 0.15, 6);
    let mut cfg = TesterConfig::new(4, 0.25, 10);
    cfg.repetitions = Some(2);
    let oracle = run_with(
        &inst.graph,
        cfg,
        EngineConfig { executor: Executor::Sequential, ..EngineConfig::default() },
    );
    let mut session = TesterSession::from_config(
        cfg,
        EngineConfig {
            executor: Executor::Distributed { workers: 2 },
            net: NetOptions { heartbeat_ms: 5_000, ..fast_net() },
            ..EngineConfig::default()
        },
    )
    .unwrap();
    for job in 0..3 {
        let started = Instant::now();
        let run = session.test(&inst.graph).unwrap();
        let took = started.elapsed();
        assert!(
            run.outcome.report.net.as_ref().unwrap().completed_distributed(),
            "job {job} degraded"
        );
        assert_eq!(run.outcome.verdicts, oracle.outcome.verdicts, "job {job} verdicts");
        assert_eq!(run.outcome.report.per_round, oracle.outcome.report.per_round);
        assert!(took < Duration::from_secs(1), "job {job} took {took:?} with 5 s heartbeats");
    }
}

// ---------------------------------------------------------------------------
// Fleet lifecycle: a session spawns its workers once and reuses them.
// ---------------------------------------------------------------------------

fn dist_session(cfg: TesterConfig, workers: u16) -> TesterSession {
    TesterSession::from_config(
        cfg,
        EngineConfig {
            executor: Executor::Distributed { workers },
            net: fast_net(),
            ..EngineConfig::default()
        },
    )
    .unwrap()
}

fn oracle(g: &Graph, cfg: TesterConfig) -> TesterRun {
    run_with(g, cfg, EngineConfig { executor: Executor::Sequential, ..EngineConfig::default() })
}

/// Asserts that `run` completed distributed, spawned its fleet iff
/// `spawned`, and matches the sequential oracle bit for bit.
fn assert_fleet_run(run: &TesterRun, spawned: bool, g: &Graph, cfg: TesterConfig, what: &str) {
    let net = run.outcome.report.net.as_ref().expect("distributed run records a net block");
    assert!(net.completed_distributed(), "{what}: degraded: {:?}", net.fallback);
    assert_eq!(net.fleet_spawned, spawned, "{what}: fleet spawned");
    let seq = oracle(g, cfg);
    assert_eq!(run.reject, seq.reject, "{what}: network verdict");
    assert_eq!(run.repetitions, seq.repetitions, "{what}");
    assert_eq!(run.outcome.verdicts, seq.outcome.verdicts, "{what}: per-node verdicts");
    assert_eq!(run.outcome.report.rounds, seq.outcome.report.rounds, "{what}");
    assert_eq!(run.outcome.report.per_round, seq.outcome.report.per_round, "{what}: round stats");
    assert_eq!(run.outcome.report.faults, seq.outcome.report.faults, "{what}: fault accounting");
}

#[test]
fn fleet_warm_session_reuses_its_workers() {
    // The first test spawns the session's worker fleet; every later
    // test runs over the same links, accept and reject paths alike.
    let inst = eps_far_instance(24, 4, 0.15, 8);
    let free = matched_free_instance(24, 4);
    let mut cfg = TesterConfig::new(4, 0.25, 12);
    cfg.repetitions = Some(2);
    let mut session = dist_session(cfg, 2);
    let first = session.test(&inst.graph).unwrap();
    assert!(first.reject);
    assert_fleet_run(&first, true, &inst.graph, cfg, "first job");
    let second = session.test(&free).unwrap();
    assert!(!second.reject);
    assert_fleet_run(&second, false, &free, cfg, "second job");
    // The third job reproduces the first bit for bit on the reused fleet.
    let third = session.test(&inst.graph).unwrap();
    assert_fleet_run(&third, false, &inst.graph, cfg, "third job");
    assert_eq!(third.outcome.verdicts, first.outcome.verdicts);
    assert_eq!(third.outcome.report.per_round, first.outcome.report.per_round);
    // The same traffic; only the spawn flag and liveness beats differ.
    let traffic = |run: &TesterRun| {
        let net = run.outcome.report.net.clone().unwrap();
        ck_congest::metrics::NetReport { fleet_spawned: false, heartbeats: 0, ..net }
    };
    assert_eq!(traffic(&third), traffic(&first));
}

#[test]
fn fleet_jobs_over_new_graphs_seeds_and_k_match_the_oracle() {
    // One fleet, four jobs that share nothing but the worker count:
    // each job's Spec rebuilds the partitions anew.
    let far4 = eps_far_instance(30, 4, 0.15, 41);
    let far5 = eps_far_instance(36, 5, 0.12, 42);
    let g = gnp(20, 0.3, 43);
    let mut cfg = TesterConfig::new(4, 0.25, 1);
    cfg.repetitions = Some(2);
    let mut session = dist_session(cfg, 3);
    let run = session.test(&far4.graph).unwrap();
    assert_fleet_run(&run, true, &far4.graph, cfg, "k = 4, seed 1");
    session.set_seed(99);
    cfg.seed = 99;
    let run = session.test(&g).unwrap();
    assert_fleet_run(&run, false, &g, cfg, "k = 4, seed 99, G(n, p)");
    let mut five = TesterConfig::new(5, 0.2, 7);
    five.repetitions = Some(2);
    session.reconfigure(five).unwrap();
    let run = session.test(&far5.graph).unwrap();
    assert_fleet_run(&run, false, &far5.graph, five, "reconfigured to k = 5");
    let run = session.test(&far4.graph).unwrap();
    assert_fleet_run(&run, false, &far4.graph, five, "k = 5 on the k = 4 instance");
    // The fault plan travels in each job's Spec as well: the reused
    // fleet replays every fault coin of the oracle.
    let plan = FaultPlan::none().random_loss(0.05, 99).crash(3, 4);
    session.engine_mut().faults = plan.clone();
    let run = session.test(&far5.graph).unwrap();
    let net = run.outcome.report.net.as_ref().unwrap();
    assert!(net.completed_distributed() && !net.fleet_spawned, "faults reuse the fleet: {net:?}");
    let seq = run_with(
        &far5.graph,
        five,
        EngineConfig { executor: Executor::Sequential, faults: plan, ..EngineConfig::default() },
    );
    assert_eq!(run.outcome.verdicts, seq.outcome.verdicts, "faulty job: per-node verdicts");
    assert_eq!(run.outcome.report.per_round, seq.outcome.report.per_round, "faulty job");
    assert_eq!(
        run.outcome.report.faults, seq.outcome.report.faults,
        "faulty job: fault accounting"
    );
}

#[test]
fn fleet_respawns_after_a_chaos_degraded_run_then_reuses() {
    let inst = eps_far_instance(24, 4, 0.15, 19);
    let mut cfg = TesterConfig::new(4, 0.25, 26);
    cfg.repetitions = Some(2);
    let mut session = dist_session(cfg, 2);
    assert_fleet_run(&session.test(&inst.graph).unwrap(), true, &inst.graph, cfg, "healthy");
    // Worker 1 dies when told to run round 1: the run degrades to the
    // oracle within the chaos budget and the fleet is reaped.
    let healthy = session.engine().net.clone();
    let plan = ChaosPlan { abort_at_round: Some(1), ..ChaosPlan::for_worker(1) };
    session.engine_mut().net = chaos_net(plan);
    let started = Instant::now();
    let degraded = session.test(&inst.graph).unwrap();
    assert!(started.elapsed() < CHAOS_BUDGET, "chaos run exceeded the time budget");
    let net = degraded.outcome.report.net.as_ref().unwrap();
    assert!(net.fallback.is_some(), "the injected fault must be detected and recorded");
    assert!(net.fleet_spawned, "new options spawn a new fleet");
    assert_eq!(degraded.outcome.verdicts, oracle(&inst.graph, cfg).outcome.verdicts);
    // Back to the healthy options: the next job respawns, the one after
    // reuses.
    session.engine_mut().net = healthy;
    assert_fleet_run(&session.test(&inst.graph).unwrap(), true, &inst.graph, cfg, "respawn");
    assert_fleet_run(&session.test(&inst.graph).unwrap(), false, &inst.graph, cfg, "reuse");
}

#[test]
fn fleet_respawns_when_the_worker_count_changes() {
    let inst = eps_far_instance(30, 4, 0.15, 27);
    let mut cfg = TesterConfig::new(4, 0.25, 28);
    cfg.repetitions = Some(2);
    let mut session = dist_session(cfg, 2);
    assert_fleet_run(&session.test(&inst.graph).unwrap(), true, &inst.graph, cfg, "2 workers");
    assert_fleet_run(&session.test(&inst.graph).unwrap(), false, &inst.graph, cfg, "2 again");
    session.engine_mut().executor = Executor::Distributed { workers: 3 };
    let run = session.test(&inst.graph).unwrap();
    assert_eq!(run.outcome.report.net.as_ref().unwrap().workers, 3);
    assert_fleet_run(&run, true, &inst.graph, cfg, "3 workers");
    assert_fleet_run(&session.test(&inst.graph).unwrap(), false, &inst.graph, cfg, "3 again");
}

/// Set in the child process that
/// [`fleet_drop_of_an_idle_session_joins_every_worker_thread`] runs
/// itself in.
#[cfg(target_os = "linux")]
const FLEET_DROP_CHILD: &str = "CK_FLEET_DROP_CHILD";

#[cfg(target_os = "linux")]
#[test]
fn fleet_drop_of_an_idle_session_joins_every_worker_thread() {
    // Counting this process's threads needs a process that runs
    // nothing else, so the test re-runs itself alone in a child.
    if std::env::var_os(FLEET_DROP_CHILD).is_none() {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["fleet_drop_of_an_idle_session_joins_every_worker_thread", "--exact"])
            .env(FLEET_DROP_CHILD, "1")
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
        assert!(stdout.contains("1 passed"), "the child ran the test: {stdout}");
        return;
    }
    let threads = || std::fs::read_dir("/proc/self/task").unwrap().count();
    let inst = eps_far_instance(24, 4, 0.15, 29);
    let mut cfg = TesterConfig::new(4, 0.25, 30);
    cfg.repetitions = Some(2);
    let before = threads();
    let mut session = dist_session(cfg, 2);
    for job in 0..2 {
        assert_fleet_run(&session.test(&inst.graph).unwrap(), job == 0, &inst.graph, cfg, "job");
    }
    assert_eq!(threads(), before + 4, "an idle fleet: two workers and their two heartbeats");
    let started = Instant::now();
    drop(session);
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "dropping an idle fleet took {took:?}");
    // A joined thread's task entry goes a moment after the join returns.
    let settled = Instant::now();
    while threads() > before && settled.elapsed() < Duration::from_secs(1) {
        std::thread::yield_now();
    }
    assert_eq!(threads(), before, "every worker and heartbeat thread is joined");
}

// ---------------------------------------------------------------------------
// Chaos: every failure terminates in bounded time, typed or recovered.
// ---------------------------------------------------------------------------

/// Deadline bound for every chaos run: generous against CI jitter,
/// but a hang (the one forbidden outcome) would blow far past it.
const CHAOS_BUDGET: Duration = Duration::from_secs(30);

fn chaos_net(plan: ChaosPlan) -> NetOptions {
    NetOptions {
        connect_timeout_ms: 3_000,
        round_deadline_ms: 1_500,
        heartbeat_ms: 20,
        chaos: Some(plan),
        ..NetOptions::default()
    }
}

fn assert_degraded_matches_oracle(g: &Graph, cfg: TesterConfig, net: NetOptions) {
    let started = Instant::now();
    let run = run_with(
        g,
        cfg,
        EngineConfig {
            executor: Executor::Distributed { workers: 2 },
            net,
            ..EngineConfig::default()
        },
    );
    let elapsed = started.elapsed();
    assert!(elapsed < CHAOS_BUDGET, "chaos run exceeded the time budget: {elapsed:?}");
    let report_net = run.outcome.report.net.as_ref().expect("net block present");
    assert!(report_net.fallback.is_some(), "the injected fault must be detected and recorded");
    assert!(report_net.recovery_ms.is_some(), "fallback records its recovery latency");
    // The degraded run *is* the oracle: verdicts match a plain
    // sequential run exactly.
    let oracle = run_with(
        g,
        cfg,
        EngineConfig { executor: Executor::Sequential, ..EngineConfig::default() },
    );
    assert_eq!(run.reject, oracle.reject);
    assert_eq!(run.outcome.verdicts, oracle.outcome.verdicts);
}

#[test]
fn mid_frame_truncation_degrades_gracefully() {
    let inst = eps_far_instance(24, 4, 0.15, 14);
    let mut cfg = TesterConfig::new(4, 0.25, 21);
    cfg.repetitions = Some(2);
    // The coordinator's link to worker 0 dies mid-frame after 40
    // bytes — inside the Spec frame, the rudest possible cut.
    let plan = ChaosPlan { truncate_after_bytes: Some(40), ..ChaosPlan::for_worker(0) };
    assert_degraded_matches_oracle(&inst.graph, cfg, chaos_net(plan));
}

#[test]
fn worker_abort_mid_run_degrades_gracefully() {
    let inst = eps_far_instance(24, 4, 0.15, 15);
    let mut cfg = TesterConfig::new(4, 0.25, 22);
    cfg.repetitions = Some(3);
    // Worker 1 dies (link drops without a goodbye) when told to run
    // round 2 — crash-stop mid-protocol.
    let plan = ChaosPlan { abort_at_round: Some(2), ..ChaosPlan::for_worker(1) };
    assert_degraded_matches_oracle(&inst.graph, cfg, chaos_net(plan));
}

#[test]
fn coordinator_side_disconnect_degrades_gracefully() {
    let inst = eps_far_instance(24, 4, 0.15, 16);
    let mut cfg = TesterConfig::new(4, 0.25, 23);
    cfg.repetitions = Some(3);
    let plan = ChaosPlan { disconnect_at_round: Some(1), ..ChaosPlan::for_worker(0) };
    assert_degraded_matches_oracle(&inst.graph, cfg, chaos_net(plan));
}

#[test]
fn kill_worker_degrades_gracefully() {
    let inst = eps_far_instance(24, 4, 0.15, 17);
    let mut cfg = TesterConfig::new(4, 0.25, 24);
    cfg.repetitions = Some(3);
    let net = NetOptions {
        connect_timeout_ms: 3_000,
        round_deadline_ms: 1_500,
        heartbeat_ms: 20,
        kill_worker: Some((1, 2)),
        ..NetOptions::default()
    };
    assert_degraded_matches_oracle(&inst.graph, cfg, net);
}

#[test]
fn fallback_disabled_surfaces_the_typed_net_error() {
    let inst = eps_far_instance(24, 4, 0.15, 18);
    let mut cfg = TesterConfig::new(4, 0.25, 25);
    cfg.repetitions = Some(2);
    let plan = ChaosPlan { abort_at_round: Some(1), ..ChaosPlan::for_worker(0) };
    let net = NetOptions { fallback: false, ..chaos_net(plan) };
    let started = Instant::now();
    let err = TesterSession::from_config(
        cfg,
        EngineConfig {
            executor: Executor::Distributed { workers: 2 },
            net,
            ..EngineConfig::default()
        },
    )
    .unwrap()
    .test(&inst.graph)
    .unwrap_err();
    assert!(started.elapsed() < CHAOS_BUDGET);
    let EngineError::Net(ne) = err else {
        panic!("expected a typed NetError, got {err:?}");
    };
    // The lost worker is identified by index, bounded by the deadline.
    let s = ne.to_string();
    assert!(s.contains("worker 0"), "error names the lost worker: {s}");
}

// ---------------------------------------------------------------------------
// Randomized bit-identity sweep (proptest).
// ---------------------------------------------------------------------------

mod sweep {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

        /// Random graphs, worker counts, and composed fault plans:
        /// the distributed run reproduces the sequential oracle
        /// bit-for-bit every time.
        #[test]
        fn distributed_equals_sequential(
            n in 8usize..24,
            p_pct in 15u32..45,
            gseed in 0u64..1000,
            k in 3usize..6,
            workers in 1u16..5,
            drop_pct in 0u32..10,
            corrupt in 0u8..2,
        ) {
            let g = gnp(n, f64::from(p_pct) / 100.0, gseed);
            let mut plan = FaultPlan::none();
            if drop_pct > 1 {
                plan = plan.random_loss(f64::from(drop_pct) / 100.0, gseed ^ 0x5bd1e995);
            }
            if corrupt == 1 {
                plan = plan.corrupt_frames(0.05, gseed.wrapping_add(7));
            }
            let mut cfg = TesterConfig::new(k, 0.3, gseed ^ 0xabcd);
            cfg.repetitions = Some(1);
            assert_bit_identical(&g, cfg, plan, workers);
        }
    }
}

// ---------------------------------------------------------------------------
// Structural sanity on simple topologies.
// ---------------------------------------------------------------------------

#[test]
fn simple_topologies_bit_identical() {
    let mut cfg = TesterConfig::new(4, 0.3, 3);
    cfg.repetitions = Some(1);
    for g in [cycle(8), path(9), complete(6)] {
        assert_bit_identical(&g, cfg, FaultPlan::none(), 3);
    }
}
