//! Emits `BENCH_engine.json` (schema v8; revisions in the order they
//! were added: v2 engine and tester rows, v3 batch, v4 scan (retired),
//! v6 robust, v7 net, soa under the out-of-order id v5, v8 serve):
//! rounds-per-second of the arena engine on the workloads the round
//! loop is actually bottlenecked by:
//!
//! * `minflood-ring` — min-ID flooding on a ring of `n` nodes, the pure
//!   engine stress (every node broadcasts every round while the minimum
//!   propagates), timed against the preserved pre-arena (legacy) engine;
//! * `c4-tester-planted` — the paper's `Ck` tester at `k = 4` on a
//!   random-tree host with planted vertex-disjoint C4 copies;
//! * `ck5-tester-planted` — the full tester at `k = 5` (an odd-`k`
//!   Phase 2 with genuine multi-round prune-and-forward) on the same
//!   planted-host family;
//! * `ck5-tester-behrend` — the full tester at `k = 5` on the
//!   Behrend-style layered hard instance (every edge lies on a planted
//!   C5, so Phase-2 traffic is everywhere).
//!
//! Each workload is timed in two modes — `fast` (`record_rounds: false`,
//! the counter-free delivery path) and `accounted` (`record_rounds:
//! true`, fused wire accounting) — under both executors; every entry
//! records its `executor` and `threads` honestly. The tester rows time
//! a cold `TesterSession` per run, the path callers take. Before
//! timing, the MinFlood verdicts are checked identical across the two
//! engines, and the arena engine's sequential and parallel outputs are
//! asserted **bit-identical** (verdicts and, in accounted mode, the
//! full per-round statistics).
//!
//! The `acceptance` block gates on the same-run MinFlood
//! arena-over-legacy ratio in both modes at the largest `n` (the only
//! comparison immune to machine drift between bench days).
//!
//! Usage: `cargo run --release -p ck-bench --bin bench_engine
//! [--smoke] [OUT.json]` (default output `BENCH_engine.json`; `--smoke`
//! runs a seconds-long tiny-`n` pass for CI, default output
//! `BENCH_smoke.json`).

use ck_bench::legacy_engine::run_legacy;
use ck_bench::workloads::MinFlood;
use ck_congest::batch::effective_shards;
use ck_congest::engine::{EngineConfig, Executor, RunOutcome};
use ck_congest::graph::Graph;
use ck_congest::net::{ChaosPlan, NetOptions};
use ck_congest::session::Session;
use ck_core::batch::BatchJob;
use ck_core::robust::{
    adaptive_vs_fixed, crash_detection_curve, loss_detection_curve, AdaptiveComparison, CrashPoint,
    LossPoint,
};
use ck_core::session::TesterSession;
use ck_core::tester::{NodeVerdict, TesterConfig, TesterRun};
use ck_graphgen::basic::cycle;
use ck_graphgen::behrend::{behrend_ap_free_set, layered_ck};
use ck_graphgen::planted::{eps_far_instance, plant_on_host};
use ck_graphgen::random::random_tree;
use std::fmt::Write as _;
use std::time::Instant;

/// Fixed flood horizon: keeps per-run round counts equal across `n`, so
/// rounds-per-second is comparable along the scaling axis.
const FLOOD_TTL: u32 = 60;
/// Tester repetitions for the `Ck` workloads.
const TESTER_REPS: u32 = 2;

/// Required same-run arena-over-legacy ratio on the MinFlood cases at
/// the largest `n` — the engine acceptance check (the committed record
/// reads 2.4–3.4× there).
const REQUIRED_SPEEDUP: f64 = 1.5;

#[derive(Clone, Copy, PartialEq)]
enum Engine {
    Legacy,
    Arena,
}

impl Engine {
    fn name(self) -> &'static str {
        match self {
            Engine::Legacy => "legacy",
            Engine::Arena => "arena",
        }
    }
}

fn exec_name(e: Executor) -> &'static str {
    match e {
        Executor::Sequential => "sequential",
        Executor::Parallel => "parallel",
        Executor::Distributed { .. } => "distributed",
    }
}

fn exec_threads(e: Executor) -> usize {
    match e {
        Executor::Sequential => 1,
        Executor::Parallel => rayon::current_num_threads(),
        Executor::Distributed { workers } => workers.max(1) as usize,
    }
}

struct Measurement {
    workload: &'static str,
    n: usize,
    engine: Engine,
    /// `"fast"` (no round recording) or `"accounted"` (recorded rounds:
    /// fused wire accounting in the send path).
    mode: &'static str,
    executor: Executor,
    threads: usize,
    rounds: u32,
    runs: u32,
    secs_per_run: f64,
    rounds_per_sec: f64,
}

/// The two measured configurations; `record` selects the engine path
/// (`false` → counter-free delivery, `true` → accounted writes).
const MODES: [(&str, bool); 2] = [("fast", false), ("accounted", true)];

/// Engine/executor combinations measured per workload: the legacy
/// baseline (sequential, MinFlood only), the arena engine on the same
/// executor, and the arena engine under the parallel executor.
const COMBOS: [(Engine, Executor); 3] = [
    (Engine::Legacy, Executor::Sequential),
    (Engine::Arena, Executor::Sequential),
    (Engine::Arena, Executor::Parallel),
];

#[derive(Clone, Copy)]
struct Budget {
    measure_secs: f64,
    max_runs: u32,
}

/// Round-robin noise-floor timing for the variant sets the gated
/// ratios are computed from: every round runs each variant once, in
/// order, until the shared budget (`measure_secs` per variant) or
/// `max_runs` rounds are spent; each variant's *fastest* run is its
/// estimate. Two noise sources motivate the shape. One-sided per-run
/// noise (scheduler ticks, page-cache state) is handled by the
/// minimum — the standard noise-floor estimator, so one slow outlier
/// cannot flip a gate. Slow machine drift (thermal state, a noisy
/// neighbour on a shared host) is handled by the interleaving: timing
/// each variant in its own contiguous window lands a drift episode
/// entirely on whichever variant owned that window and silently biases
/// the ratio, while round-robin sampling gives every variant the same
/// drift profile, so ratios of these estimates are drift-immune by
/// construction. Returns per-variant `(rounds_of_sampling, best_secs,
/// last_run_rounds)`, parallel to `execs`. Each closure performs one
/// full run and returns the run's executed round count.
fn time_runs_min_interleaved(
    budget: &Budget,
    execs: &mut [Box<dyn FnMut() -> u32 + '_>],
) -> Vec<(u32, f64, u32)> {
    let k = execs.len();
    let mut rounds = vec![0u32; k];
    for (i, e) in execs.iter_mut().enumerate() {
        rounds[i] = e(); // warm-up (also primes allocator state)
    }
    let start = Instant::now();
    let mut best = vec![f64::INFINITY; k];
    let mut runs = 0u32;
    while runs < budget.max_runs {
        for (i, e) in execs.iter_mut().enumerate() {
            let t = Instant::now();
            rounds[i] = e();
            best[i] = best[i].min(t.elapsed().as_secs_f64());
        }
        runs += 1;
        if start.elapsed().as_secs_f64() >= budget.measure_secs * k as f64 {
            break;
        }
    }
    (0..k).map(|i| (runs, best[i], rounds[i])).collect()
}

fn minflood_outcome(g: &Graph, engine: Engine, cfg: &EngineConfig) -> RunOutcome<u64> {
    let mk = |init: ck_congest::node::NodeInit| MinFlood::new(&init, FLOOD_TTL);
    match engine {
        Engine::Legacy => run_legacy(g, cfg, mk).expect("measure policy cannot fail"),
        // A fresh session per run: the timed unit stays cold-start,
        // comparable with every earlier schema's arena rows.
        Engine::Arena => Session::builder(g)
            .config(cfg.clone())
            .build()
            .run(mk)
            .expect("measure policy cannot fail"),
    }
}

/// One tester run through a cold `TesterSession` — the path callers
/// take (the session sets `max_rounds` from the schedule itself).
fn tester_outcome(g: &Graph, tcfg: &TesterConfig, cfg: &EngineConfig) -> RunOutcome<NodeVerdict> {
    TesterSession::from_config(*tcfg, cfg.clone())
        .expect("valid config")
        .test(g)
        .expect("measure policy cannot fail")
        .outcome
}

fn engine_config(record: bool, executor: Executor) -> EngineConfig {
    EngineConfig { executor, record_rounds: record, ..EngineConfig::default() }
}

/// Asserts the arena engine's two executors produce bit-identical
/// outputs on this configuration (verdict projection + full per-round
/// statistics when recorded), and returns the sequential outcome.
fn assert_seq_par_identical<V: PartialEq + std::fmt::Debug>(
    label: &str,
    mut run_with: impl FnMut(Executor) -> RunOutcome<V>,
) -> RunOutcome<V> {
    let seq = run_with(Executor::Sequential);
    let par = run_with(Executor::Parallel);
    assert_eq!(seq.verdicts, par.verdicts, "seq/par verdicts diverge: {label}");
    assert_eq!(seq.report.per_round, par.report.per_round, "seq/par stats diverge: {label}");
    assert_eq!(seq.report.rounds, par.report.rounds, "seq/par rounds diverge: {label}");
    seq
}

struct Workload {
    name: &'static str,
    graph: Graph,
    tester: Option<TesterConfig>,
    /// Whether the instance is guaranteed to be rejected (planted/hard
    /// instances) — checked before timing so the benchmark can't
    /// silently measure a trivial accept.
    expect_reject: bool,
}

fn workloads_for(n: usize) -> Vec<Workload> {
    let c4 = TesterConfig { repetitions: Some(TESTER_REPS), ..TesterConfig::new(4, 0.1, 42) };
    let ck5 = TesterConfig { repetitions: Some(TESTER_REPS), ..TesterConfig::new(5, 0.1, 42) };
    let host = random_tree(n, 7);
    // Behrend-style layered C5 instance on ~n nodes. The stride set is
    // capped at 4 so node degrees stay bounded as n scales (the full
    // Behrend set would grow the degree — and the per-round message
    // count — superlinearly, measuring congestion instead of the round
    // loop).
    let width = (n / 5).max(2);
    let strides = behrend_ap_free_set((width as u64) / 10);
    let strides = if strides.is_empty() { vec![1] } else { strides };
    let take = strides.len().min(4);
    let behrend = layered_ck(5, width, &strides[..take]);
    vec![
        Workload { name: "minflood-ring", graph: cycle(n), tester: None, expect_reject: false },
        Workload {
            name: "c4-tester-planted",
            graph: plant_on_host(&host, 4, (n / 40).max(1), 7).graph,
            tester: Some(c4),
            expect_reject: true,
        },
        Workload {
            name: "ck5-tester-planted",
            graph: plant_on_host(&host, 5, (n / 40).max(1), 7).graph,
            tester: Some(ck5),
            expect_reject: true,
        },
        Workload {
            name: "ck5-tester-behrend",
            graph: behrend.graph,
            tester: Some(ck5),
            expect_reject: true,
        },
    ]
}

/// One row of the batch sweep: how one execution strategy ran the
/// whole multi-graph family.
struct BatchRow {
    variant: &'static str,
    mode: &'static str,
    /// Shards the strategy used (1 for the loop and batch-seq rows).
    shards: usize,
    threads: usize,
    runs: u32,
    secs_per_sweep: f64,
    jobs_per_sec: f64,
}

/// Measures the batch runner against the one-by-one loop on a
/// `count`-graph planted sweep: per mode, times (a) the plain
/// `run_tester` loop, (b) the batch runner with one shard, and (c) the
/// batch runner sharded across the thread pool — after asserting all
/// three produce bit-identical per-job outputs. Returns the rows plus
/// the sweep's observed batch-over-loop ratios keyed
/// `"<variant>/<mode>"`.
fn batch_sweep(n: usize, count: usize, budget: &Budget) -> (Vec<BatchRow>, Vec<(String, f64)>) {
    use ck_graphgen::planted::plant_on_host;
    let graphs: Vec<Graph> = (0..count)
        .map(|i| {
            let host = random_tree(n, 7 + i as u64);
            plant_on_host(&host, 5, (n / 40).max(1), 7 + i as u64).graph
        })
        .collect();
    let jobs: Vec<BatchJob> = graphs
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let cfg = TesterConfig {
                repetitions: Some(TESTER_REPS),
                ..TesterConfig::new(5, 0.1, 42 + i as u64)
            };
            BatchJob::labeled(g, cfg, format!("planted/{i}"))
        })
        .collect();
    let digest = |runs: &[TesterRun]| -> Vec<(bool, u32, Vec<NodeVerdict>)> {
        runs.iter()
            .map(|r| (r.reject, r.outcome.report.rounds, r.outcome.verdicts.clone()))
            .collect()
    };
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for (mode, record) in MODES {
        let engine = EngineConfig {
            executor: Executor::Sequential,
            record_rounds: record,
            ..EngineConfig::default()
        };
        // The loop baseline pays full session setup per job (the cost
        // the batch runner amortizes); the batch rows go through one
        // session's sharded runner.
        let run_loop = || -> Vec<TesterRun> {
            jobs.iter()
                .map(|j| {
                    TesterSession::from_config(j.cfg, engine.clone())
                        .expect("valid config")
                        .test(j.graph)
                        .expect("measure policy cannot fail")
                })
                .collect()
        };
        let batch_session =
            TesterSession::builder(5, 0.1).engine(engine.clone()).build().expect("valid config");
        let sharded_width = effective_shards(None, jobs.len());
        let run_batch = |shards: Option<usize>| -> Vec<TesterRun> {
            batch_session.test_batch(&jobs, shards).expect("measure policy cannot fail")
        };

        // Bit-identity across all three strategies, before any timing.
        let reference = run_loop();
        assert!(reference.iter().all(|r| r.reject), "planted sweep instance not rejected [{mode}]");
        for (variant, runs) in
            [("batch-seq", run_batch(Some(1))), ("batch-sharded", run_batch(None))]
        {
            assert_eq!(digest(&reference), digest(&runs), "{variant} diverges from loop [{mode}]");
            if record {
                for (a, b) in reference.iter().zip(&runs) {
                    assert_eq!(
                        a.outcome.report.per_round, b.outcome.report.per_round,
                        "{variant} per-round stats diverge [{mode}]"
                    );
                }
            }
        }

        let mut loop_rate = 0.0f64;
        for (variant, shards, threads) in [
            ("loop", 1usize, 1usize),
            ("batch-seq", 1, 1),
            ("batch-sharded", sharded_width, sharded_width),
        ] {
            let time_sweep = |exec: &dyn Fn() -> Vec<TesterRun>| -> (u32, f64) {
                let _warm = exec();
                let start = Instant::now();
                let mut sweeps = 0u32;
                while sweeps < budget.max_runs {
                    let _ = exec();
                    sweeps += 1;
                    if start.elapsed().as_secs_f64() >= budget.measure_secs {
                        break;
                    }
                }
                (sweeps, start.elapsed().as_secs_f64() / f64::from(sweeps))
            };
            let (runs, secs) = match variant {
                "loop" => time_sweep(&run_loop),
                "batch-seq" => time_sweep(&|| run_batch(Some(1))),
                _ => time_sweep(&|| run_batch(None)),
            };
            let rate = jobs.len() as f64 / secs;
            eprintln!(
                "ck5-batch-planted n={n} jobs={} {variant} [{mode}] shards={shards}: \
                 {secs:.4} s/sweep ({runs} sweeps)",
                jobs.len()
            );
            if variant == "loop" {
                loop_rate = rate;
            } else {
                ratios.push((format!("{variant}/{mode}"), rate / loop_rate));
            }
            rows.push(BatchRow {
                variant,
                mode,
                shards,
                threads,
                runs,
                secs_per_sweep: secs,
                jobs_per_sec: rate,
            });
        }
    }
    (rows, ratios)
}

/// The schema-v6 robustness record: detection-vs-loss and
/// detection-vs-crash curves plus the adaptive (loss-aware inflated
/// schedule) vs fixed (paper schedule) comparison, all on deterministic
/// fault plans so the committed record is reproducible.
struct RobustBlock {
    loss_k: usize,
    loss_eps: f64,
    loss_points: Vec<LossPoint>,
    crash_k: usize,
    crash_eps: f64,
    crash_n: usize,
    crash_points: Vec<CrashPoint>,
    adaptive_k: usize,
    adaptive_eps: f64,
    adaptive: AdaptiveComparison,
}

fn robust_sweep(smoke: bool) -> RobustBlock {
    let (loss_trials, crash_trials, adaptive_trials) = if smoke { (6, 4, 8) } else { (30, 10, 30) };
    // Loss curve: a lone C6 — lossless detection is certain, so the
    // curve isolates what loss alone costs.
    let loss_g = cycle(6);
    let losses = [0.0, 0.05, 0.1, 0.2, 0.4];
    eprintln!("robust: loss curve on C6 ({loss_trials} trials/point)");
    let loss_points = loss_detection_curve(&loss_g, 6, 0.2, &losses, loss_trials, 17);
    // Crash sweep: an ε-far planted instance with 40 nodes; the crashed
    // set rotates per trial.
    let crash_inst = eps_far_instance(40, 4, 0.1, 1);
    let counts = [0usize, 2, 5, 10, 20];
    eprintln!("robust: crash sweep on eps-far n=40 ({crash_trials} trials/point)");
    let crash_points = crash_detection_curve(&crash_inst.graph, 4, 0.1, &counts, crash_trials, 23);
    // Adaptive vs fixed: C4 at 40% i.i.d. loss — the regime where the
    // paper schedule visibly loses the 2/3 floor and the
    // loss_inflation(4, 0.4) = 60× schedule buys it back.
    eprintln!("robust: adaptive-vs-fixed on C4 at loss 0.4 ({adaptive_trials} trials/arm)");
    let adaptive = adaptive_vs_fixed(&cycle(4), 4, 0.3, 0.4, adaptive_trials, 29);
    RobustBlock {
        loss_k: 6,
        loss_eps: 0.2,
        loss_points,
        crash_k: 4,
        crash_eps: 0.1,
        crash_n: crash_inst.graph.n(),
        crash_points,
        adaptive_k: 4,
        adaptive_eps: 0.3,
        adaptive,
    }
}

/// One row of the soa sweep: one (executor, forced worker count)
/// configuration on an accounted tester workload.
struct SoaRow {
    workload: &'static str,
    n: usize,
    executor: &'static str,
    /// Worker count the parallel shim was forced to (`CK_FORCED_WORKERS`
    /// semantics); 0 = unforced sequential row.
    workers: usize,
    rounds: u32,
    runs: u32,
    secs_per_run: f64,
    rounds_per_sec: f64,
}

/// Repetitions for the soa block: a single repetition of Algorithm 1
/// (vs [`TESTER_REPS`] elsewhere), so the cold-session rows weigh the
/// per-run arena setup against one repetition's round work. Detection
/// probability is irrelevant to these rows — the planted instance is
/// asserted rejected before any timing.
const SOA_REPS: u32 = 1;

/// The soa block: the SoA node-state arena on the accounted `Ck`
/// testers — a sequential row plus the threads axis, rounds/sec of the
/// parallel executor at forced worker counts {1, 2, 4, 8}. The timed
/// unit is a cold session per run (arena setup included), matching
/// every other tester row in the record, at a single repetition
/// ([`SOA_REPS`]). Before any timing, the sequential and parallel
/// outcomes are asserted bit-identical (verdicts and full per-round
/// statistics) at every forced worker count.
fn soa_sweep(sizes: &[usize], budget: &Budget, thread_axis: &[usize]) -> Vec<SoaRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        let host = random_tree(n, 7);
        for (name, k) in [("c4-tester-planted", 4usize), ("ck5-tester-planted", 5usize)] {
            let g = plant_on_host(&host, k, (n / 40).max(1), 7).graph;
            let tcfg =
                TesterConfig { repetitions: Some(SOA_REPS), ..TesterConfig::new(k, 0.1, 42) };
            let outcome_of =
                |executor: Executor| tester_outcome(&g, &tcfg, &engine_config(true, executor));
            // Bit-identity across executors and every forced worker
            // count, before any timing.
            let reference = outcome_of(Executor::Sequential);
            assert!(
                reference.verdicts.iter().any(|v| v.rejected),
                "soa sweep instance not rejected: {name}/{n}"
            );
            for &w in thread_axis {
                rayon::force_workers_for_tests(w);
                let got = outcome_of(Executor::Parallel);
                rayon::force_workers_for_tests(0);
                assert_eq!(reference.verdicts, got.verdicts, "verdicts diverge: w={w} {name}/{n}");
                assert_eq!(
                    reference.report.per_round, got.report.per_round,
                    "round stats diverge: w={w} {name}/{n}"
                );
            }
            // The sequential row and the full forced-worker threads axis
            // (backing the monotone gate; forcing above the machine's
            // cores measures oversubscription honestly, the `cores`
            // field names the honest prefix) are sampled round-robin in
            // ONE shared window, so the gate consumes drift-immune
            // ratios: see `time_runs_min_interleaved`. Each parallel
            // closure sets its forced worker count for exactly its own
            // run (the run pins its partition at entry, so mid-window
            // changes between runs are safe by the engine's contract).
            let variants: Vec<(&'static str, usize)> = std::iter::once(("sequential", 0))
                .chain(thread_axis.iter().map(|&w| ("parallel", w)))
                .collect();
            let outcome_of = &outcome_of;
            let mut closures: Vec<Box<dyn FnMut() -> u32 + '_>> = variants
                .iter()
                .map(|&(ename, w)| {
                    let b: Box<dyn FnMut() -> u32 + '_> = if ename == "sequential" {
                        Box::new(move || outcome_of(Executor::Sequential).report.rounds)
                    } else {
                        Box::new(move || {
                            rayon::force_workers_for_tests(w);
                            let o = outcome_of(Executor::Parallel);
                            rayon::force_workers_for_tests(0);
                            o.report.rounds
                        })
                    };
                    b
                })
                .collect();
            let stats = time_runs_min_interleaved(budget, &mut closures);
            drop(closures);
            for (&(ename, w), &(runs, secs, rounds)) in variants.iter().zip(&stats) {
                let wlabel = if ename == "parallel" { format!(" w={w}") } else { String::new() };
                eprintln!(
                    "{name} n={n} {ename}{wlabel} [accounted]: {secs:.4} s/run \
                     (best of {runs} interleaved runs)"
                );
                rows.push(SoaRow {
                    workload: name,
                    n,
                    executor: ename,
                    workers: w,
                    rounds,
                    runs,
                    secs_per_run: secs,
                    rounds_per_sec: f64::from(rounds) / secs,
                });
            }
        }
    }
    rows
}

/// One row of the net sweep: one executor configuration on the
/// distributed-vs-sequential workload.
struct NetRow {
    executor: &'static str,
    workers: u32,
    runs: u32,
    secs_per_run: f64,
    rounds_per_sec: f64,
}

/// The schema-v7 net block: the distributed executor (thread-mode
/// workers speaking the full wire protocol — length-prefixed CkCodec
/// frames, per-round barriers, heartbeats — over loopback TCP) against
/// the in-process sequential oracle, plus a recovery-latency row where
/// a chaos-injected worker abort mid-run must degrade to the oracle
/// within an explicit deadline budget.
struct NetBlock {
    n: usize,
    k: usize,
    rows: Vec<NetRow>,
    /// The worker heartbeat interval every row ran with. Heartbeats
    /// carry liveness only, so a distributed row at or above this per
    /// run waited for one (`ci/bench_gate.py` fails such a record).
    heartbeat_ms: u64,
    /// Cross-partition frames routed per distributed run (2 workers).
    frames_routed: u64,
    /// Sequential-rerun latency recorded by the degraded run.
    recovery_ms: u64,
    /// Wall time of the whole chaos run, failure detection included.
    recovery_wall_ms: u64,
    /// The hard bound the chaos run must finish within.
    recovery_budget_ms: u64,
    recovery_within_budget: bool,
}

fn net_sweep(smoke: bool, budget: &Budget) -> NetBlock {
    let (n, k) = if smoke { (40usize, 4usize) } else { (240, 4) };
    let inst = eps_far_instance(n, k, 0.15, 7);
    let tcfg = TesterConfig { repetitions: Some(TESTER_REPS), ..TesterConfig::new(k, 0.15, 11) };
    let healthy_net = NetOptions {
        connect_timeout_ms: 10_000,
        round_deadline_ms: 10_000,
        heartbeat_ms: 50,
        ..NetOptions::default()
    };
    let run_with = |executor: Executor, net: NetOptions| -> TesterRun {
        TesterSession::from_config(
            tcfg,
            EngineConfig { executor, net, record_rounds: true, ..EngineConfig::default() },
        )
        .expect("valid config")
        .test(&inst.graph)
        .expect("measure policy cannot fail")
    };
    let oracle = run_with(Executor::Sequential, NetOptions::default());
    assert!(oracle.reject, "net sweep instance not rejected");

    // Bit-identity before any timing: every worker count must
    // reproduce the oracle's verdicts and per-round statistics.
    let mut frames_routed = 0u64;
    for workers in [2u16, 4] {
        let dist = run_with(Executor::Distributed { workers }, healthy_net.clone());
        let nr = dist.outcome.report.net.as_ref().expect("distributed run records a net block");
        assert!(
            nr.completed_distributed(),
            "healthy loopback run degraded [{workers} workers]: {:?}",
            nr.fallback
        );
        assert_eq!(dist.outcome.verdicts, oracle.outcome.verdicts, "net verdicts diverge");
        assert_eq!(
            dist.outcome.report.per_round, oracle.outcome.report.per_round,
            "net round stats diverge"
        );
        if workers == 2 {
            frames_routed = nr.frames_routed;
        }
    }

    let mut rows = Vec::new();
    let time_exec = |executor: Executor, net: &NetOptions| -> (u32, f64, u32) {
        let rounds = run_with(executor, net.clone()).outcome.report.rounds; // warm-up
        let start = Instant::now();
        let mut runs = 0u32;
        while runs < budget.max_runs {
            let _ = run_with(executor, net.clone());
            runs += 1;
            if start.elapsed().as_secs_f64() >= budget.measure_secs {
                break;
            }
        }
        (runs, start.elapsed().as_secs_f64() / f64::from(runs), rounds)
    };
    for (name, executor, workers) in [
        ("sequential", Executor::Sequential, 0u32),
        ("distributed", Executor::Distributed { workers: 2 }, 2),
        ("distributed", Executor::Distributed { workers: 4 }, 4),
    ] {
        let (runs, secs, rounds) = time_exec(executor, &healthy_net);
        eprintln!(
            "net-dist-planted n={n} {name}{} : {secs:.4} s/run ({runs} runs)",
            if workers > 0 { format!(" w={workers}") } else { String::new() },
        );
        rows.push(NetRow {
            executor: name,
            workers,
            runs,
            secs_per_run: secs,
            rounds_per_sec: f64::from(rounds) / secs,
        });
    }

    // Recovery-latency row: worker 0 dies (link drops) when told to
    // run round 1; the coordinator must type the loss within the round
    // deadline and finish via the sequential oracle inside the budget.
    let round_deadline_ms = 2_000u64;
    let heartbeat_ms = healthy_net.heartbeat_ms;
    let chaos_net = NetOptions {
        round_deadline_ms,
        chaos: Some(ChaosPlan { abort_at_round: Some(1), ..ChaosPlan::for_worker(0) }),
        ..healthy_net
    };
    let started = Instant::now();
    let rec = run_with(Executor::Distributed { workers: 2 }, chaos_net.clone());
    let recovery_wall_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
    let nr = rec.outcome.report.net.as_ref().expect("degraded run records a net block");
    assert!(nr.fallback.is_some(), "chaos abort not detected");
    let recovery_ms = nr.recovery_ms.expect("degraded run records recovery latency");
    assert_eq!(rec.outcome.verdicts, oracle.outcome.verdicts, "degraded run diverges from oracle");
    // Budget: connect + one tripped deadline + generous slack for the
    // oracle rerun. Blowing this means detection hung, the one
    // forbidden outcome.
    let recovery_budget_ms = chaos_net.connect_timeout_ms + 2 * round_deadline_ms + 15_000;
    let recovery_within_budget = recovery_wall_ms <= recovery_budget_ms;
    assert!(
        recovery_within_budget,
        "recovery took {recovery_wall_ms} ms, budget {recovery_budget_ms} ms"
    );
    eprintln!(
        "net-dist-planted recovery: detected + fell back in {recovery_wall_ms} ms wall \
         (oracle rerun {recovery_ms} ms, budget {recovery_budget_ms} ms)"
    );
    NetBlock {
        n,
        k,
        rows,
        heartbeat_ms,
        frames_routed,
        recovery_ms,
        recovery_wall_ms,
        recovery_budget_ms,
        recovery_within_budget,
    }
}

/// One closed-loop client row: `clients` threads each driving
/// `jobs_per_client` jobs back-to-back through a live service.
struct ServeRow {
    clients: u32,
    jobs_per_client: u32,
    workers: u32,
    secs_total: f64,
    jobs_per_sec: f64,
    /// Service-side submit-to-result latency quantiles for this row's
    /// jobs (each row runs against a fresh service, so the histogram is
    /// row-scoped).
    p50_us: u64,
    p99_us: u64,
    max_us: u64,
}

/// The schema-v8 serve block: the long-running `ckserve` probe service
/// (warm `TesterSession` pool, `ServeMsg` RPC over loopback TCP)
/// driven by closed-loop clients, verdict bit-identity against direct
/// `TesterSession` runs asserted before any timing.
struct ServeBlock {
    n: usize,
    k: usize,
    workers: u32,
    jobs_total: u64,
    rows: Vec<ServeRow>,
}

fn serve_sweep(smoke: bool) -> ServeBlock {
    use ck_serve::{BoundServer, JobRequest, ServeClient, ServeOptions};
    use std::sync::Arc;

    let (n, k, jobs_per_client) = if smoke { (40usize, 4usize, 4u32) } else { (240, 4, 16) };
    let workers = 2u32;
    // The job mix: one warm graph shape, heterogeneous parameters — ε,
    // seed, and repetition count vary job to job, exactly the
    // multi-tenant pattern the session pool's reconfigure path exists
    // for.
    let inst = eps_far_instance(n, k, 0.15, 7);
    let graph = Arc::new(inst.graph);
    let job_for = |client: u32, j: u32| -> JobRequest {
        let i = u64::from(client) * 97 + u64::from(j);
        JobRequest {
            job_id: u64::from(client) * 1_000 + u64::from(j),
            graph: (*graph).clone(),
            k: k as u32,
            eps: if i % 2 == 0 { 0.15 } else { 0.2 },
            seed: 11 + i,
            repetitions: Some(TESTER_REPS),
        }
    };

    // Bit-identity before timing: every distinct job in the sweep is
    // run once through a live service and once directly on a fresh
    // `TesterSession` under the service's own engine template; verdict
    // bit + per-node verdicts must agree exactly.
    let max_clients = 4u32;
    let opts = || ServeOptions { workers: workers as usize, poll_ms: 5, ..ServeOptions::default() };
    {
        let server = BoundServer::bind(opts()).expect("bind serve sweep").spawn();
        let addr = server.addr().to_string();
        let mut client = ServeClient::connect(&addr, 30_000).expect("connect serve sweep");
        for c in 0..max_clients {
            for j in 0..jobs_per_client {
                let job = job_for(c, j);
                let cfg = job.tester_config();
                let direct = TesterSession::from_config(cfg, ck_serve::serve::engine_template())
                    .expect("valid serve-sweep config")
                    .test(&graph)
                    .expect("measure policy cannot fail");
                let res = client.run_job(&job).expect("serve-sweep job");
                let verdict = res.outcome.expect("serve-sweep job refused");
                assert_eq!(verdict.reject, direct.reject, "serve verdict bit diverges");
                assert_eq!(
                    verdict.verdicts, direct.outcome.verdicts,
                    "serve per-node verdicts diverge from the direct session"
                );
            }
        }
        client.shutdown().expect("serve-sweep shutdown");
        let snap = server.join();
        assert_eq!(snap.jobs_completed, u64::from(max_clients * jobs_per_client));
        assert_eq!((snap.in_flight, snap.pool_outstanding), (0, 0));
    }

    // Timed rows: a fresh service per client count, so the service-side
    // latency histogram (and thus p50/p99) is scoped to the row.
    let mut rows = Vec::new();
    let mut jobs_total = 0u64;
    for clients in [1u32, 2, 4] {
        let server = BoundServer::bind(opts()).expect("bind serve row").spawn();
        let addr = server.addr().to_string();
        let start = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.clone();
                let jobs: Vec<JobRequest> = (0..jobs_per_client).map(|j| job_for(c, j)).collect();
                std::thread::spawn(move || {
                    let mut client =
                        ServeClient::connect(&addr, 30_000).expect("connect serve row");
                    for job in &jobs {
                        let res = client.run_job(job).expect("serve row job");
                        let _ = res.outcome.expect("serve row job refused");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("serve row client");
        }
        let secs_total = start.elapsed().as_secs_f64();
        let mut stats_client =
            ServeClient::connect(&addr, 30_000).expect("connect serve row stats");
        let snap = stats_client.stats().expect("serve row stats");
        stats_client.shutdown().expect("serve row shutdown");
        server.join();
        let row_jobs = u64::from(clients * jobs_per_client);
        assert_eq!(snap.jobs_completed, row_jobs, "serve row lost jobs");
        assert_eq!(snap.latency.count, row_jobs);
        jobs_total += row_jobs;
        let jobs_per_sec = row_jobs as f64 / secs_total;
        eprintln!(
            "serve-closed-loop n={n} clients={clients} workers={workers}: \
             {jobs_per_sec:.1} jobs/s (p50 {} µs, p99 {} µs over {row_jobs} jobs)",
            snap.latency.p50_us, snap.latency.p99_us
        );
        rows.push(ServeRow {
            clients,
            jobs_per_client,
            workers,
            secs_total,
            jobs_per_sec,
            p50_us: snap.latency.p50_us,
            p99_us: snap.latency.p99_us,
            max_us: snap.latency.max_us,
        });
    }
    ServeBlock { n, k, workers, jobs_total, rows }
}

fn main() {
    let mut smoke = false;
    let mut out_path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = Some(arg);
        }
    }
    let out_path = out_path.unwrap_or_else(|| {
        if smoke {
            "BENCH_smoke.json".into()
        } else {
            "BENCH_engine.json".into()
        }
    });
    // Smoke budgets are sized for the CI bench-gate job: its same-run
    // ratio floors need sub-millisecond n=300 timings to be stable, so
    // smoke rows average over up to 8 runs within a 0.25 s budget
    // (still a few seconds total) instead of the bitrot-only 2 runs
    // earlier revisions used.
    let (sizes, budget): (&[usize], Budget) = if smoke {
        (&[300], Budget { measure_secs: 0.25, max_runs: 8 })
    } else {
        (&[1_000, 10_000, 100_000], Budget { measure_secs: 1.0, max_runs: 12 })
    };

    let mut measurements: Vec<Measurement> = Vec::new();
    for &n in sizes {
        for w in workloads_for(n) {
            for (mode, record) in MODES {
                // Arena seq-vs-par bit-identity (plus the cross-engine
                // verdict check on MinFlood), before any timing.
                let label = format!("{}/{n}/{mode}", w.name);
                match &w.tester {
                    None => {
                        let arena = assert_seq_par_identical(&label, |exec| {
                            minflood_outcome(&w.graph, Engine::Arena, &engine_config(record, exec))
                        });
                        let legacy = minflood_outcome(
                            &w.graph,
                            Engine::Legacy,
                            &engine_config(record, Executor::Sequential),
                        );
                        assert_eq!(legacy.verdicts, arena.verdicts, "engines disagree: {label}");
                    }
                    Some(tcfg) => {
                        let arena = assert_seq_par_identical(&label, |exec| {
                            tester_outcome(&w.graph, tcfg, &engine_config(record, exec))
                        });
                        if w.expect_reject {
                            assert!(
                                arena.verdicts.iter().any(|v| v.rejected),
                                "hard instance not rejected: {label}"
                            );
                        }
                    }
                }
                // Every combo sampled round-robin in one shared window
                // (the arena-over-legacy acceptance gate is a ratio of
                // the MinFlood rows): see `time_runs_min_interleaved`.
                // The legacy engine times MinFlood only.
                let graph = &w.graph;
                let tester = w.tester.as_ref();
                let combos: Vec<(Engine, Executor)> = COMBOS
                    .iter()
                    .copied()
                    .filter(|&(engine, _)| tester.is_none() || engine == Engine::Arena)
                    .collect();
                let mut closures: Vec<Box<dyn FnMut() -> u32 + '_>> = combos
                    .iter()
                    .map(|&(engine, executor)| {
                        let cfg = engine_config(record, executor);
                        let b: Box<dyn FnMut() -> u32 + '_> = match tester {
                            None => Box::new(move || {
                                minflood_outcome(graph, engine, &cfg).report.rounds
                            }),
                            Some(tcfg) => {
                                Box::new(move || tester_outcome(graph, tcfg, &cfg).report.rounds)
                            }
                        };
                        b
                    })
                    .collect();
                let stats = time_runs_min_interleaved(&budget, &mut closures);
                drop(closures);
                for (&(engine, executor), &(runs, secs, rounds)) in combos.iter().zip(&stats) {
                    eprintln!(
                        "{} n={n} {} {} [{mode}]: {:.4} s/run ({rounds} rounds, best of {runs} \
                         interleaved runs)",
                        w.name,
                        engine.name(),
                        exec_name(executor),
                        secs
                    );
                    measurements.push(Measurement {
                        workload: w.name,
                        n,
                        engine,
                        mode,
                        executor,
                        threads: exec_threads(executor),
                        rounds,
                        runs,
                        secs_per_run: secs,
                        rounds_per_sec: f64::from(rounds) / secs,
                    });
                }
            }
        }
    }

    // ---- batch sweep (schema v3) -------------------------------------
    // The multi-graph family workload: batch-over-loop on a planted
    // sweep, sequential and sharded, bit-identity asserted inside.
    let (batch_n, batch_count) = if smoke { (300, 6) } else { (10_000, 24) };
    let (batch_rows, batch_ratios) = batch_sweep(batch_n, batch_count, &budget);

    // ---- soa/threads sweep (schema v5) -------------------------------
    // The SoA node-state arena's sequential row plus the threads axis at
    // forced worker counts, bit-identity asserted inside at every point.
    let thread_axis = [1usize, 2, 4, 8];
    let soa_sizes: &[usize] = if smoke { &[300] } else { &[100_000, 1_000_000] };
    // Wider sample budget than the engine rows: the thread-axis rows
    // back the gated monotone check, so more samples directly tighten
    // the best-of-N estimator (at n=10⁶ a single run exceeds the budget
    // either way).
    let soa_budget = if smoke {
        Budget { measure_secs: 0.5, max_runs: 20 }
    } else {
        Budget { measure_secs: 10.0, max_runs: 24 }
    };
    let soa_rows = soa_sweep(soa_sizes, &soa_budget, &thread_axis);

    // ---- robustness sweep (schema v6 lineage) ------------------------
    // Loss/crash detection curves and the adaptive-vs-fixed schedule
    // comparison, on deterministic fault plans.
    let robust = robust_sweep(smoke);

    // ---- distributed-executor sweep (schema v7) ----------------------
    // Thread-mode workers over real loopback TCP vs the sequential
    // oracle, bit-identity asserted inside, plus the recovery-latency
    // row under a chaos-injected worker abort.
    let net_block = net_sweep(smoke, &budget);

    // ---- probe-service sweep (schema v8) -----------------------------
    // Closed-loop clients through a live `ckserve` instance (warm
    // TesterSession pool over the ServeMsg RPC), verdicts asserted
    // bit-identical to direct sessions inside, before timing.
    let serve_block = serve_sweep(smoke);

    // ---- render ------------------------------------------------------
    let workload_names =
        ["minflood-ring", "c4-tester-planted", "ck5-tester-planted", "ck5-tester-behrend"];
    let rps_of = |workload: &str, n: usize, engine: Engine, mode: &str, executor: Executor| {
        measurements
            .iter()
            .find(|m| {
                m.workload == workload
                    && m.n == n
                    && m.engine == engine
                    && m.mode == mode
                    && m.executor == executor
            })
            .map(|m| m.rounds_per_sec)
    };
    let case_key = |workload: &str, n: usize, mode: &str| {
        // The fast-mode key keeps the bare `workload/n` form earlier
        // acceptance records were keyed on.
        if mode == "fast" {
            format!("{workload}/{n}")
        } else {
            format!("{workload}/{n}/{mode}")
        }
    };

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"ck-bench/engine/v8\",\n");
    let _ = writeln!(
        json,
        "  \"description\": \"Round-engine throughput of the arena engine (zero-allocation \
         double-buffered inboxes with one segment per sender chunk, one round loop for both \
         in-process executors + clone-free broadcast slots + pooled tester payloads). Mode \
         'fast' = record_rounds off; mode 'accounted' = record_rounds on (fused wire \
         accounting). Every entry records its executor and thread count; arena \
         sequential/parallel outputs are asserted bit-identical before timing. The MinFlood \
         rows also time the legacy engine (per-round Vec allocation, clone-per-port \
         broadcasts), verdicts checked identical first; the tester rows time a cold \
         TesterSession per run, the path callers take. acceptance gates on the same-run \
         MinFlood arena-over-legacy ratio in both modes at the largest n (immune to machine \
         drift between bench days). Schema revisions, in the order they were added: v2 (these \
         rows), v3 batch, v4 scan (retired, no longer emitted), v6 robust, v7 net, v5 soa (an \
         out-of-order id), v8 serve; the current id is v8. The v3 batch block: the sharded \
         multi-graph batch runner (one reusable engine workspace + node-state arena per \
         shard) vs a one-by-one loop of fresh sessions on a multi-graph planted sweep, all \
         three strategies asserted bit-identical per job before timing, shards/threads \
         recorded honestly per row. The v6 robust block: detection-rate curves of the full \
         tester under fault-model v2 — i.i.d. loss on a lone C6 and rotating crash-stop sets \
         on an eps-far instance — plus the adaptive-vs-fixed comparison (paper schedule vs \
         the loss_inflation-inflated schedule at 40% loss), all on deterministic fault plans; \
         acceptance gates the loss curve monotone-nonincreasing within noise and the adaptive \
         arm at the paper's 2/3 detection floor. The v7 net block: the distributed executor \
         (partitioned graph, thread-mode workers speaking the full wire protocol — \
         length-prefixed CkCodec frames with the seq_len context-word handshake, per-round \
         barriers, heartbeats — over loopback TCP) vs the sequential oracle on a planted \
         instance, verdicts and per-round statistics asserted bit-identical per worker count \
         before timing, plus a recovery-latency row: a chaos-injected worker abort mid-run \
         must be detected within the round deadline and degrade to the sequential oracle \
         inside an explicit wall-clock budget, gated. The v5 soa block: the SoA node-state \
         arena (the only node-state layout — lane-major CSR port streams, node-major \
         sequence-set headers, chunk-shared prune workspaces) on the accounted testers, cold \
         session per run at a single repetition (the planted instance is asserted rejected \
         first), best-of-N interleaved timing: a sequential row plus the threads axis, \
         rounds/sec of the parallel executor at forced worker counts {{1,2,4,8}} (the cores \
         field names the honest prefix; counts past it measure oversubscription). Sequential \
         and parallel outputs are asserted bit-identical at every worker count before \
         timing. acceptance gates the parallel curve monotone non-decreasing over the honest \
         prefix. The v8 serve block: the long-running ckserve probe service (one warm \
         TesterSession per worker thread, recycled arena-to-arena across jobs, ServeMsg RPC \
         over length-prefixed loopback-TCP frames) driven by closed-loop clients — each row \
         runs a fresh service at a fixed worker count while N client threads each push their \
         job stream back-to-back (heterogeneous eps/seed per job, the multi-tenant \
         reconfigure pattern), recording end-to-end jobs/sec plus the service-side \
         submit-to-result p50/p99/max latency from the Stats RPC. Every job's verdict (reject \
         bit and per-node verdicts) is asserted bit-identical to a direct TesterSession run \
         under the service's engine template before any timing. acceptance gates verdict \
         bit-identity, zero lost jobs per row (stats completed == driven), and a clean drain \
         (in_flight == pool_outstanding == 0).\","
    );
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    json.push_str("  \"entries\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"n\": {}, \"engine\": \"{}\", \"mode\": \"{}\", \
             \"executor\": \"{}\", \"threads\": {}, \"rounds\": {}, \"runs\": {}, \
             \"secs_per_run\": {:.6}, \"rounds_per_sec\": {:.2}}}",
            m.workload,
            m.n,
            m.engine.name(),
            m.mode,
            exec_name(m.executor),
            m.threads,
            m.rounds,
            m.runs,
            m.secs_per_run,
            m.rounds_per_sec
        );
        json.push_str(if i + 1 < measurements.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"speedups\": [\n");
    let mut speedups: Vec<(String, f64)> = Vec::new();
    for &n in sizes {
        for workload in workload_names {
            for (mode, _) in MODES {
                let (Some(arena), Some(legacy)) = (
                    rps_of(workload, n, Engine::Arena, mode, Executor::Sequential),
                    rps_of(workload, n, Engine::Legacy, mode, Executor::Sequential),
                ) else {
                    continue;
                };
                speedups.push((case_key(workload, n, mode), arena / legacy));
            }
        }
    }
    for (i, (key, s)) in speedups.iter().enumerate() {
        let _ = write!(json, "    {{\"case\": \"{key}\", \"arena_over_legacy\": {s:.3}}}");
        json.push_str(if i + 1 < speedups.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");

    // The v3 batch block: the multi-graph family sweep.
    let _ = writeln!(json, "  \"batch\": {{");
    let _ = writeln!(json, "    \"workload\": \"ck5-batch-planted\",");
    let _ = writeln!(json, "    \"n\": {batch_n},");
    let _ = writeln!(json, "    \"jobs\": {batch_count},");
    let _ = writeln!(json, "    \"bit_identical\": true,");
    json.push_str("    \"entries\": [\n");
    for (i, r) in batch_rows.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"variant\": \"{}\", \"mode\": \"{}\", \"shards\": {}, \"threads\": {}, \
             \"sweeps\": {}, \"secs_per_sweep\": {:.6}, \"jobs_per_sec\": {:.2}}}",
            r.variant, r.mode, r.shards, r.threads, r.runs, r.secs_per_sweep, r.jobs_per_sec
        );
        json.push_str(if i + 1 < batch_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ],\n    \"speedups\": [\n");
    for (i, (case, ratio)) in batch_ratios.iter().enumerate() {
        let _ = write!(json, "      {{\"case\": \"{case}\", \"batch_over_loop\": {ratio:.3}}}");
        json.push_str(if i + 1 < batch_ratios.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ]\n  },\n");

    // The v5 soa block: the arena's sequential row and the threads axis.
    let _ = writeln!(json, "  \"soa\": {{");
    let _ = writeln!(json, "    \"mode\": \"accounted\",");
    let _ = writeln!(json, "    \"repetitions\": {SOA_REPS},");
    let _ = writeln!(
        json,
        "    \"thread_axis\": [{}],",
        thread_axis.iter().map(|w| w.to_string()).collect::<Vec<_>>().join(", ")
    );
    let _ = writeln!(json, "    \"bit_identical\": true,");
    json.push_str("    \"entries\": [\n");
    for (i, r) in soa_rows.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"workload\": \"{}\", \"n\": {}, \"executor\": \"{}\", \
             \"workers\": {}, \"rounds\": {}, \"runs\": {}, \"secs_per_run\": {:.6}, \
             \"rounds_per_sec\": {:.2}}}",
            r.workload,
            r.n,
            r.executor,
            r.workers,
            r.rounds,
            r.runs,
            r.secs_per_run,
            r.rounds_per_sec
        );
        json.push_str(if i + 1 < soa_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ]\n  },\n");

    // The v7 net block: distributed executor vs the sequential oracle.
    let _ = writeln!(json, "  \"net\": {{");
    let _ = writeln!(json, "    \"workload\": \"net-dist-planted\",");
    let _ = writeln!(json, "    \"n\": {},", net_block.n);
    let _ = writeln!(json, "    \"k\": {},", net_block.k);
    let _ = writeln!(json, "    \"transport\": \"loopback-tcp-thread-workers\",");
    let _ = writeln!(json, "    \"bit_identical\": true,");
    let _ = writeln!(json, "    \"heartbeat_ms\": {},", net_block.heartbeat_ms);
    let _ = writeln!(json, "    \"frames_routed\": {},", net_block.frames_routed);
    json.push_str("    \"entries\": [\n");
    for (i, r) in net_block.rows.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"executor\": \"{}\", \"workers\": {}, \"runs\": {}, \
             \"secs_per_run\": {:.6}, \"rounds_per_sec\": {:.2}}}",
            r.executor, r.workers, r.runs, r.secs_per_run, r.rounds_per_sec
        );
        json.push_str(if i + 1 < net_block.rows.len() { ",\n" } else { "\n" });
    }
    let _ = writeln!(
        json,
        "    ],\n    \"recovery\": {{\"fault\": \"worker-abort-at-round-1\", \
         \"recovery_ms\": {}, \"wall_ms\": {}, \"budget_ms\": {}, \
         \"within_budget\": {}}}\n  }},",
        net_block.recovery_ms,
        net_block.recovery_wall_ms,
        net_block.recovery_budget_ms,
        net_block.recovery_within_budget
    );

    // The v8 serve block: closed-loop clients through the live probe
    // service.
    let _ = writeln!(json, "  \"serve\": {{");
    let _ = writeln!(json, "    \"workload\": \"serve-closed-loop-planted\",");
    let _ = writeln!(json, "    \"n\": {},", serve_block.n);
    let _ = writeln!(json, "    \"k\": {},", serve_block.k);
    let _ = writeln!(json, "    \"transport\": \"loopback-tcp-servemsg-rpc\",");
    let _ = writeln!(json, "    \"workers\": {},", serve_block.workers);
    let _ = writeln!(json, "    \"jobs_total\": {},", serve_block.jobs_total);
    let _ = writeln!(json, "    \"bit_identical\": true,");
    json.push_str("    \"entries\": [\n");
    for (i, r) in serve_block.rows.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"clients\": {}, \"jobs_per_client\": {}, \"workers\": {}, \
             \"secs_total\": {:.6}, \"jobs_per_sec\": {:.2}, \"p50_us\": {}, \
             \"p99_us\": {}, \"max_us\": {}}}",
            r.clients,
            r.jobs_per_client,
            r.workers,
            r.secs_total,
            r.jobs_per_sec,
            r.p50_us,
            r.p99_us,
            r.max_us
        );
        json.push_str(if i + 1 < serve_block.rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ]\n  },\n");

    // The v6 robust block: fault-model v2 degradation curves.
    let _ = writeln!(json, "  \"robust\": {{");
    let _ = writeln!(
        json,
        "    \"loss_curve\": {{\"workload\": \"c6-cycle\", \"k\": {}, \"eps\": {}, \"points\": [",
        robust.loss_k, robust.loss_eps
    );
    for (i, p) in robust.loss_points.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"loss\": {}, \"trials\": {}, \"rejects\": {}, \"rate\": {:.4}}}",
            p.loss,
            p.trials,
            p.rejects,
            p.rate()
        );
        json.push_str(if i + 1 < robust.loss_points.len() { ",\n" } else { "\n" });
    }
    let _ = writeln!(
        json,
        "    ]}},\n    \"crash_sweep\": {{\"workload\": \"eps-far-planted\", \"n\": {}, \
         \"k\": {}, \"eps\": {}, \"points\": [",
        robust.crash_n, robust.crash_k, robust.crash_eps
    );
    for (i, p) in robust.crash_points.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"crashed\": {}, \"trials\": {}, \"rejects\": {}, \"rate\": {:.4}}}",
            p.crashed,
            p.trials,
            p.rejects,
            p.rate()
        );
        json.push_str(if i + 1 < robust.crash_points.len() { ",\n" } else { "\n" });
    }
    let a = &robust.adaptive;
    let _ = writeln!(
        json,
        "    ]}},\n    \"adaptive\": {{\"workload\": \"c4-cycle\", \"k\": {}, \"eps\": {}, \
         \"loss\": {}, \"trials\": {}, \"inflation\": {}, \"fixed_rejects\": {}, \
         \"fixed_rate\": {:.4}, \"adaptive_rejects\": {}, \"adaptive_rate\": {:.4}}}\n  }},",
        robust.adaptive_k,
        robust.adaptive_eps,
        a.loss,
        a.trials,
        a.inflation,
        a.fixed_rejects,
        a.fixed_rate(),
        a.adaptive_rejects,
        a.adaptive_rate()
    );

    // Acceptance: the MinFlood case in both modes at the largest
    // measured n must beat the legacy engine by the required ratio in
    // the same run (same machine, same minute — the only comparison
    // that isolates the code from datacenter drift).
    let top_n = sizes.iter().copied().max().unwrap_or(0);
    let mut all_pass = true;
    let mut cases = String::new();
    let mut first = true;
    for (mode, _) in MODES {
        let (Some(arena), Some(legacy)) = (
            rps_of("minflood-ring", top_n, Engine::Arena, mode, Executor::Sequential),
            rps_of("minflood-ring", top_n, Engine::Legacy, mode, Executor::Sequential),
        ) else {
            continue;
        };
        let ratio = arena / legacy;
        let pass = ratio >= REQUIRED_SPEEDUP;
        all_pass &= pass;
        if !first {
            cases.push_str(",\n");
        }
        first = false;
        let _ = write!(
            cases,
            "      {{\"case\": \"{}\", \"arena_rps\": {arena:.2}, \
             \"legacy_rps\": {legacy:.2}, \"arena_over_legacy\": {ratio:.3}, \"pass\": {pass}}}",
            case_key("minflood-ring", top_n, mode)
        );
    }
    if first {
        all_pass = false;
    }
    // Batch acceptance: amortized setup must make the batch runner
    // strictly faster than the one-by-one loop (> 1.0×) in every mode.
    // The sharded row is gated only when the machine actually gave it
    // more than one shard — on a 1-core box it degenerates to the
    // sequential path plus scheduling noise, and its honest
    // shards/threads columns say so.
    let sharded_is_parallel =
        batch_rows.iter().any(|r| r.variant == "batch-sharded" && r.shards > 1);
    let mut batch_pass = true;
    let mut batch_cases = String::new();
    for (i, (case, ratio)) in batch_ratios.iter().enumerate() {
        let gated = case.starts_with("batch-seq") || sharded_is_parallel;
        let pass = !gated || *ratio > 1.0;
        batch_pass &= pass;
        let _ = write!(
            batch_cases,
            "      {{\"case\": \"{case}\", \"batch_over_loop\": {ratio:.3}, \
             \"gated\": {gated}, \"pass\": {pass}}}"
        );
        batch_cases.push_str(if i + 1 < batch_ratios.len() { ",\n" } else { "" });
    }
    if batch_ratios.is_empty() {
        batch_pass = false;
    }
    all_pass &= batch_pass;
    // SoA acceptance: the parallel curve must be monotone
    // non-decreasing, within noise, over the honest thread prefix
    // (forced workers <= physical cores); counts past the prefix
    // measure oversubscription and are never gated.
    const THREADS_MONOTONE_NOISE: f64 = 0.08;
    let mut soa_pass = true;
    let mut soa_cases = String::new();
    let mut soa_first = true;
    for &n in soa_sizes {
        for workload in ["c4-tester-planted", "ck5-tester-planted"] {
            let honest: Vec<f64> = thread_axis
                .iter()
                .filter(|&&w| w <= cores)
                .filter_map(|&w| {
                    soa_rows
                        .iter()
                        .find(|r| {
                            r.workload == workload
                                && r.n == n
                                && r.executor == "parallel"
                                && r.workers == w
                        })
                        .map(|r| r.rounds_per_sec)
                })
                .collect();
            let pass = honest.windows(2).all(|w| w[1] >= w[0] * (1.0 - THREADS_MONOTONE_NOISE));
            soa_pass &= pass;
            if !soa_first {
                soa_cases.push_str(",\n");
            }
            soa_first = false;
            let _ = write!(
                soa_cases,
                "      {{\"case\": \"{workload}/{n}/threads-monotone\", \
                 \"honest_prefix_rps\": [{}], \"gated\": true, \"pass\": {pass}}}",
                honest.iter().map(|r| format!("{r:.2}")).collect::<Vec<_>>().join(", ")
            );
        }
    }
    if soa_first {
        soa_pass = false;
    }
    all_pass &= soa_pass;
    // Robust acceptance, two rules. (1) The loss-detection curve must be
    // monotone non-increasing within sampling noise: more loss can only
    // hurt a fixed schedule, so any later point beating an earlier one
    // by more than the noise margin means the fault injection itself is
    // broken. (2) The adaptive arm — the loss-aware inflated schedule —
    // must recover the paper's 2/3 detection floor on an ε-far instance
    // even at 40% loss; that is the whole point of the degradation
    // layer, so it is gated, not informational.
    const LOSS_CURVE_NOISE: f64 = 0.15;
    let mut loss_monotone = true;
    for w in robust.loss_points.windows(2) {
        loss_monotone &= w[1].rate() <= w[0].rate() + LOSS_CURVE_NOISE;
    }
    let adaptive_floor_met = robust.adaptive.adaptive_rejects * 3 >= robust.adaptive.trials * 2;
    let mut robust_pass = loss_monotone && adaptive_floor_met;
    all_pass &= robust_pass;
    // Net acceptance: the distributed runs were asserted bit-identical
    // to the oracle inside the sweep (reaching here proves it), so the
    // gate is the bounded-time promise — the chaos run finished, typed
    // its worker loss, and recovered within the explicit budget.
    let mut net_pass = net_block.recovery_within_budget;
    all_pass &= net_pass;
    // Serve acceptance: verdict bit-identity, per-row job conservation
    // (stats completed == jobs driven), and the clean drain were all
    // asserted inside the sweep — reaching this line proves them. The
    // rendered gate additionally checks the service-side latency
    // quantiles are ordered per row: p50 <= p99 <= max (the histogram
    // clamps every quantile to the observed max).
    let serve_quantiles_ordered =
        serve_block.rows.iter().all(|r| r.p50_us <= r.p99_us && r.p99_us <= r.max_us);
    let mut serve_pass = serve_quantiles_ordered && !serve_block.rows.is_empty();
    all_pass &= serve_pass;
    // Smoke runs exist to catch bitrot, not to measure: tiny-n runs are
    // setup-dominated, so the perf ratio never gates them (reaching
    // this line at all means both engines and executors ran and agreed,
    // and the batch strategies were bit-identical).
    if smoke {
        all_pass = true;
        batch_pass = true;
        soa_pass = true;
        robust_pass = true;
        net_pass = true;
        serve_pass = true;
    }
    let _ = writeln!(
        json,
        "  \"acceptance\": {{\n    \"required_arena_over_legacy\": {REQUIRED_SPEEDUP},\n    \
         \"seq_par_bit_identical\": true,\n    \"cases\": [\n{cases}\n    ],\n    \
         \"required_batch_over_loop\": 1.0,\n    \"batch_cases\": [\n{batch_cases}\n    ],\n    \
         \"batch_pass\": {batch_pass},\n    \
         \"soa_gates\": {{\"threads_monotone_noise\": {THREADS_MONOTONE_NOISE}, \
         \"honest_thread_prefix\": \"workers <= cores\"}},\n    \
         \"soa_cases\": [\n{soa_cases}\n    ],\n    \
         \"soa_pass\": {soa_pass},\n    \
         \"robust_gates\": {{\"loss_curve_noise\": {LOSS_CURVE_NOISE}, \
         \"adaptive_detection_floor\": \"2/3\"}},\n    \
         \"robust_cases\": [\n      {{\"case\": \"loss-curve-monotone\", \"gated\": true, \
         \"pass\": {loss_monotone}}},\n      {{\"case\": \"adaptive-detection-floor\", \
         \"gated\": true, \"pass\": {adaptive_floor_met}}}\n    ],\n    \
         \"robust_pass\": {robust_pass},\n    \
         \"net_cases\": [\n      {{\"case\": \"distributed-bit-identical\", \"gated\": true, \
         \"pass\": true}},\n      {{\"case\": \"recovery-within-budget\", \"gated\": true, \
         \"pass\": {}}}\n    ],\n    \
         \"net_pass\": {net_pass},\n    \
         \"serve_cases\": [\n      {{\"case\": \"serve-bit-identical\", \"gated\": true, \
         \"pass\": true}},\n      {{\"case\": \"serve-clean-drain\", \"gated\": true, \
         \"pass\": true}},\n      {{\"case\": \"serve-latency-quantiles-ordered\", \
         \"gated\": true, \"pass\": {serve_quantiles_ordered}}}\n    ],\n    \
         \"serve_pass\": {serve_pass},\n    \"pass\": {all_pass}\n  }}",
        net_block.recovery_within_budget
    );
    json.push_str("}\n");

    // Self-check: the record must at least be structurally sound before
    // it is committed or consumed by CI.
    for key in [
        "\"schema\"",
        "\"entries\"",
        "\"speedups\"",
        "\"acceptance\"",
        "\"batch\"",
        "\"soa\"",
        "\"thread_axis\"",
        "\"robust\"",
        "\"net\"",
        "\"serve\"",
        "\"serve_pass\"",
    ] {
        assert!(json.contains(key), "malformed bench record: missing {key}");
    }
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "malformed bench record: unbalanced braces"
    );

    std::fs::write(&out_path, &json).expect("write bench record");
    eprintln!("wrote {out_path} (acceptance pass: {all_pass})");
}
