//! Outputs stay keyed by node index when nodes step in BFS order.
//!
//! C5 copies planted on a 2,000-node random tree scatter neighbourhoods
//! over the index range (`Graph::row_jump` reads about 0.9), so the
//! in-process executors step and store the nodes in BFS order, while a
//! distributed worker steps its range in index order. Under a fault
//! plan with an explicit drop, random loss, a crash, a cut and frame
//! corruption — all named by node index and port — the sequential
//! executor, the parallel executor at 2 and 4 forced workers and two
//! distributed workers must agree on every verdict, every statistics
//! row and every fault counter. Under an enforced budget every run must
//! fail with the same `BandwidthExceeded`, naming the lowest violating
//! node index.

use ck_congest::engine::{BandwidthPolicy, EngineConfig, EngineError, Executor};
use ck_congest::fault::FaultPlan;
use ck_congest::graph::{Graph, NodeIndex};
use ck_congest::message::{WireMessage, WireParams};
use ck_congest::net::NetOptions;
use ck_core::msg::{CkMsg, EdgeTag};
use ck_core::seq::SeqRows;
use ck_core::session::TesterSession;
use ck_core::tester::{TesterConfig, TesterRun};
use ck_graphgen::planted::plant_on_host;
use ck_graphgen::random::random_tree;

const EXECUTORS: [(&str, Executor, usize); 4] = [
    ("sequential", Executor::Sequential, 0),
    ("parallel, 2 forced workers", Executor::Parallel, 2),
    ("parallel, 4 forced workers", Executor::Parallel, 4),
    ("distributed, 2 workers", Executor::Distributed { workers: 2 }, 0),
];

/// Restores the default worker count when dropped, even on panic.
struct ResetWorkers;

impl Drop for ResetWorkers {
    fn drop(&mut self) {
        rayon::force_workers_for_tests(0);
    }
}

fn tree(k: usize) -> Graph {
    let g = plant_on_host(&random_tree(2_000, 11), k, 50, 11).graph;
    assert!(g.row_jump() > 0.5, "the tree steps in BFS order: row_jump {}", g.row_jump());
    g
}

/// Runs `cfg` on `g` under every executor, as `engine` configures it.
fn runs(
    g: &Graph,
    cfg: TesterConfig,
    engine: &EngineConfig,
) -> Vec<(&'static str, Result<TesterRun, EngineError>)> {
    let _reset = ResetWorkers;
    EXECUTORS
        .iter()
        .map(|&(what, executor, workers)| {
            rayon::force_workers_for_tests(workers);
            let engine = EngineConfig {
                executor,
                net: NetOptions {
                    connect_timeout_ms: 5_000,
                    round_deadline_ms: 5_000,
                    heartbeat_ms: 20,
                    fallback: false,
                    ..NetOptions::default()
                },
                ..engine.clone()
            };
            let run = TesterSession::from_config(cfg, engine).unwrap().test(g);
            (what, run)
        })
        .collect()
}

#[test]
fn faults_are_keyed_by_node_index() {
    let g = tree(5);
    let sender = (0..g.n() as NodeIndex).rev().find(|&v| g.degree(v) >= 2).unwrap();
    let cut = g.edges()[g.m() / 2];
    let faults = FaultPlan::none()
        .drop_at(1, sender, 1)
        .random_loss(0.05, 9)
        .crash(1_234, 2)
        .cut_link(cut.a, cut.b)
        .corrupt_frames(0.02, 4);
    let cfg = TesterConfig { repetitions: Some(2), ..TesterConfig::new(5, 0.1, 3) };
    let engine = EngineConfig { faults, ..EngineConfig::default() };
    let runs = runs(&g, cfg, &engine);
    let (_, first) = &runs[0];
    let first = first.as_ref().unwrap();
    let f = &first.outcome.report.faults;
    assert_eq!(f.dropped_explicit, 1, "{f:?}");
    assert!(f.dropped_random > 0 && f.dropped_crash > 0 && f.dropped_cut > 0, "{f:?}");
    assert!(f.corrupted_delivered + f.corrupted_rejected > 0, "{f:?}");
    assert_eq!(f.crashed_nodes, vec![1_234]);
    for (what, run) in &runs {
        let report = &run.as_ref().unwrap_or_else(|e| panic!("{what}: {e}")).outcome.report;
        assert_eq!(report.per_round.len(), report.rounds as usize, "{what}");
        assert!(report.per_round.iter().enumerate().all(|(i, r)| r.round == i as u32), "{what}");
    }
    for (what, run) in &runs[1..] {
        let run = run.as_ref().unwrap_or_else(|e| panic!("{what}: {e}"));
        if let Some(net) = &run.outcome.report.net {
            assert!(net.completed_distributed(), "{what} fell back: {:?}", net.fallback);
        }
        assert_eq!(run.reject, first.reject, "{what}");
        assert_eq!(run.outcome.verdicts, first.outcome.verdicts, "{what}");
        assert_eq!(run.outcome.report.per_round, first.outcome.report.per_round, "{what}");
        assert_eq!(run.outcome.report.faults, first.outcome.report.faults, "{what}");
    }
}

/// The wire size of a Phase-2 message carrying `rows` sequences of
/// `width` IDs.
fn seqs_bits(params: &WireParams, width: usize, rows: usize) -> u64 {
    let ids = vec![0; width];
    let seqs = SeqRows::from_rows(width, &vec![ids.as_slice(); rows]);
    CkMsg::Seqs { tag: EdgeTag { rank: 1, lo: 0, hi: 1 }, seqs }.wire_bits(params)
}

#[test]
fn a_bandwidth_violation_names_the_lowest_node_index() {
    // Between the Rank and the seed sizes: every node's seed broadcast
    // in round 1 breaks the budget, and node 0's comes first by index.
    let g = tree(5);
    let params = WireParams::for_graph(&g);
    let bits = CkMsg::Rank(1).wire_bits(&params);
    let seed = seqs_bits(&params, 1, 1);
    assert!(bits < seed);
    let cfg = TesterConfig { repetitions: Some(2), ..TesterConfig::new(5, 0.1, 3) };
    let engine =
        EngineConfig { bandwidth: BandwidthPolicy::Enforce { bits }, ..EngineConfig::default() };
    let expected =
        EngineError::BandwidthExceeded { round: 1, node: 0, port: 0, bits: seed, limit: bits };
    for (what, run) in runs(&g, cfg, &engine) {
        assert_eq!(run.err(), Some(expected.clone()), "{what}");
    }

    // At k = 7 one sequence of three IDs fits and two do not: only the
    // nodes that forward several paths in round 3 break the budget. The
    // lowest of them by index is node 751, but node 841 steps first in
    // BFS order, so keeping the first violation seen in step order
    // would name 841. A worker steps its range in index order, so the
    // distributed run serves as oracle.
    let g = tree(7);
    let params = WireParams::for_graph(&g);
    let bits = seqs_bits(&params, 3, 1);
    let cfg = TesterConfig { repetitions: Some(2), ..TesterConfig::new(7, 0.1, 2) };
    let engine =
        EngineConfig { bandwidth: BandwidthPolicy::Enforce { bits }, ..EngineConfig::default() };
    let errors: Vec<_> = runs(&g, cfg, &engine).into_iter().map(|(w, r)| (w, r.err())).collect();
    let (_, oracle) = &errors[3];
    let Some(EngineError::BandwidthExceeded { round: 3, node, .. }) = oracle else {
        panic!("distributed: {oracle:?}");
    };
    assert_eq!(*node, 751, "a subset of the nodes violates: {oracle:?}");
    for (what, err) in &errors {
        assert_eq!(err, oracle, "{what}");
    }
}
