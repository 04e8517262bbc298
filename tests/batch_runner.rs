//! Property tests for the sharded multi-graph batch runner: its output
//! must be **bit-identical** to one-by-one `run_tester` calls — reports,
//! verdicts, wire/round counters and rejection witnesses — across mixed
//! graph sizes, fault plans, shard counts, and both executors.

use ck_congest::engine::{EngineConfig, Executor};
use ck_congest::fault::FaultPlan;
use ck_congest::graph::Graph;
use ck_core::batch::BatchJob;
use ck_core::session::TesterSession;
use ck_core::tester::{TesterConfig, TesterRun};
use ck_graphgen::basic::cycle;
use ck_graphgen::planted::{eps_far_instance, matched_free_instance};
use proptest::prelude::*;

/// Builds one graph of a mixed family: planted ε-far instances, matched
/// free instances, and bare cycles, across a spread of sizes.
fn build_graph(kind: u8, n: usize, k: usize, seed: u64) -> Graph {
    match kind % 3 {
        0 => eps_far_instance(n, k, 0.1, seed).graph,
        1 => matched_free_instance(n, k),
        _ => cycle(k.max(3)),
    }
}

/// The full observable surface of a run: network verdict, repetitions,
/// every per-node verdict (including the rejection witnesses), round
/// count, and the complete per-round wire statistics (messages, bits,
/// link maxima).
#[allow(clippy::type_complexity)]
fn digest(
    r: &TesterRun,
) -> (bool, u32, Vec<ck_core::tester::NodeVerdict>, u32, bool, Vec<ck_congest::metrics::RoundStats>)
{
    (
        r.reject,
        r.repetitions,
        r.outcome.verdicts.clone(),
        r.outcome.report.rounds,
        r.outcome.report.all_halted,
        r.outcome.report.per_round.clone(),
    )
}

/// One-by-one reference runs: a fresh session per job.
fn run_once(
    g: &Graph,
    cfg: &TesterConfig,
    engine: &EngineConfig,
) -> Result<TesterRun, ck_congest::engine::EngineError> {
    TesterSession::from_config(*cfg, engine.clone()).unwrap().test(g)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Batch output equals the sequential one-by-one loop bit for bit,
    /// for every shard count, and equals the parallel-executor loop in
    /// everything the determinism contract covers (the report's
    /// executor/threads labels are metadata, not output).
    #[test]
    fn batch_is_bit_identical_to_one_by_one(
        specs in proptest::collection::vec((0u8..3, 24usize..44, 4usize..6, 0u64..5), 2..6),
        loss_i in 0usize..3,
        seed in any::<u64>(),
    ) {
        let loss = [0.0, 0.15, 0.4][loss_i];
        let faults = if loss == 0.0 {
            FaultPlan::none()
        } else {
            FaultPlan::none().random_loss(loss, 9)
        };
        let graphs: Vec<(Graph, usize)> = specs
            .iter()
            .map(|&(kind, n, k, gseed)| (build_graph(kind, n, k, gseed), k))
            .collect();
        let jobs: Vec<BatchJob> = graphs
            .iter()
            .enumerate()
            .map(|(i, (g, k))| {
                let cfg = TesterConfig {
                    repetitions: Some(2),
                    ..TesterConfig::new(*k, 0.1, seed.wrapping_add(i as u64))
                };
                BatchJob::new(g, cfg)
            })
            .collect();

        let mut engine = EngineConfig {
            executor: Executor::Sequential,
            faults: faults.clone(),
            ..EngineConfig::default()
        };
        let seq_loop: Vec<TesterRun> =
            jobs.iter().map(|j| run_once(j.graph, &j.cfg, &engine).unwrap()).collect();
        engine.executor = Executor::Parallel;
        let par_loop: Vec<TesterRun> =
            jobs.iter().map(|j| run_once(j.graph, &j.cfg, &engine).unwrap()).collect();

        let session = TesterSession::builder(5, 0.1)
            .engine(EngineConfig { faults: faults.clone(), ..EngineConfig::default() })
            .build()
            .unwrap();
        for shards in [1usize, 2, 5] {
            let batch = session.test_batch(&jobs, Some(shards)).unwrap();
            prop_assert_eq!(batch.len(), jobs.len());
            for (i, (one, b)) in seq_loop.iter().zip(&batch).enumerate() {
                // Sequential one-by-one: exact equality, labels included.
                prop_assert_eq!(digest(one), digest(b), "job {} shards {}", i, shards);
                prop_assert_eq!(one.outcome.report.executor, b.outcome.report.executor);
                prop_assert_eq!(one.outcome.report.threads, b.outcome.report.threads);
                // Parallel one-by-one: identical by the determinism
                // contract (executor labels aside).
                prop_assert_eq!(digest(&par_loop[i]), digest(b), "job {} vs parallel", i);
            }
        }
    }
}

/// The sharded path with genuinely concurrent workers (the shim runs
/// inline on 1-core machines otherwise): force 4 workers and re-check
/// bit-identity on a fixed mixed batch under faults.
#[test]
fn sharded_batch_with_real_threads_is_bit_identical() {
    struct ResetWorkers;
    impl Drop for ResetWorkers {
        fn drop(&mut self) {
            rayon::force_workers_for_tests(0);
        }
    }
    let _reset = ResetWorkers;
    rayon::force_workers_for_tests(4);

    let graphs: Vec<(Graph, usize)> = vec![
        (eps_far_instance(48, 5, 0.1, 1).graph, 5),
        (matched_free_instance(30, 4), 4),
        (cycle(6), 6),
        (eps_far_instance(36, 4, 0.1, 2).graph, 4),
        (matched_free_instance(44, 5), 5),
        (cycle(5), 5),
        (eps_far_instance(40, 5, 0.08, 3).graph, 5),
    ];
    let faults = FaultPlan::none().random_loss(0.2, 5);
    let jobs: Vec<BatchJob> = graphs
        .iter()
        .enumerate()
        .map(|(i, (g, k))| {
            let cfg = TesterConfig { repetitions: Some(3), ..TesterConfig::new(*k, 0.1, i as u64) };
            BatchJob::new(g, cfg)
        })
        .collect();
    let engine = EngineConfig {
        executor: Executor::Sequential,
        faults: faults.clone(),
        ..EngineConfig::default()
    };
    let reference: Vec<TesterRun> =
        jobs.iter().map(|j| run_once(j.graph, &j.cfg, &engine).unwrap()).collect();
    let session = TesterSession::builder(5, 0.1)
        .engine(EngineConfig { faults: faults.clone(), ..EngineConfig::default() })
        .build()
        .unwrap();
    for shards in [2usize, 4, 7] {
        let batch = session.test_batch(&jobs, Some(shards)).unwrap();
        for (one, b) in reference.iter().zip(&batch) {
            assert_eq!(digest(one), digest(b), "shards={shards}");
        }
    }
    // The mixed family exercised both verdicts (sanity on the fixture).
    assert!(reference.iter().any(|r| r.reject) && reference.iter().any(|r| !r.reject));
}

/// PR-5 slot-storage reclaim: a session driving a family of graphs
/// performs exactly one slot-array allocation — every later job of the
/// same program type starts warm (the `Slot` program array moved into
/// `EngineWorkspace`), on both executors.
#[test]
fn session_batch_never_reallocates_slot_storage() {
    // Largest job first so capacity growth cannot masquerade as reuse.
    let graphs: Vec<Graph> = vec![
        eps_far_instance(60, 5, 0.1, 1).graph,
        matched_free_instance(40, 5),
        cycle(5),
        eps_far_instance(36, 5, 0.1, 2).graph,
    ];
    for executor in [Executor::Sequential, Executor::Parallel] {
        let mut session =
            TesterSession::builder(5, 0.1).repetitions(2).executor(executor).build().unwrap();
        for g in &graphs {
            session.test(g).unwrap();
        }
        let stats = session.slot_stats();
        assert_eq!(stats.takes, graphs.len() as u64, "{executor:?}");
        assert_eq!(
            stats.misses, 1,
            "{executor:?}: only the cold first job may allocate the slot array"
        );
    }
}
