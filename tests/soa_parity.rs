//! SoA/boxed layout parity: the arena-backed tester
//! ([`ck_core::tester::NodeLayout::Soa`]) must be **bit-identical** to
//! the boxed reference layout — verdicts (including witnesses and
//! `pool_outstanding`), reject bits, reports, per-round wire counters —
//! across executors, fault plans, early abort, forced worker counts,
//! and repeated warm-session reuse. The two layouts share one `Program`
//! implementation by construction (`CkTesterCore` is generic over the
//! buffer seam); these tests pin the construction down end to end,
//! where the arena's CSR offsets, chunk-shared scratch, and raw-pointer
//! views could otherwise diverge silently.

use ck_congest::engine::{EngineConfig, Executor};
use ck_congest::fault::FaultPlan;
use ck_core::session::TesterSession;
use ck_core::tester::{NodeLayout, NodeVerdict, TesterConfig, TesterRun};
use ck_graphgen::basic::cycle;
use ck_graphgen::planted::{eps_far_instance, matched_free_instance};
use proptest::prelude::*;

/// Everything observable about a tester run, for exact comparison.
fn digest(r: &TesterRun) -> (bool, u32, Vec<NodeVerdict>, u32, Vec<u64>) {
    (
        r.reject,
        r.repetitions,
        // NodeVerdict carries pool_outstanding and the full witnesses.
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

fn session(cfg: TesterConfig, engine: &EngineConfig, layout: NodeLayout) -> TesterSession {
    TesterSession::from_config(TesterConfig { layout, ..cfg }, engine.clone()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// A warm SoA session equals a warm boxed session bit for bit, on
    /// both executors, with and without faults, run after run and
    /// across graphs of different shapes (arena reprepared per run).
    #[test]
    fn soa_equals_boxed_across_executors_and_faults(
        k in 4usize..6,
        seed in 0u64..50,
        loss_i in 0usize..3,
        early_abort in any::<bool>(),
    ) {
        let loss = [0.0, 0.15, 0.35][loss_i];
        let faults = if loss == 0.0 {
            FaultPlan::none()
        } else {
            FaultPlan::none().random_loss(loss, seed ^ 0x9e3779b9)
        };
        let far = eps_far_instance(40, k, 0.1, seed % 5);
        let free = matched_free_instance(30, k);
        let ck = cycle(k);
        let cfg = TesterConfig {
            repetitions: Some(2),
            early_abort,
            ..TesterConfig::new(k, 0.1, seed)
        };
        for executor in [Executor::Sequential, Executor::Parallel] {
            let engine = EngineConfig {
                executor,
                faults: faults.clone(),
                ..EngineConfig::default()
            };
            let mut boxed = session(cfg, &engine, NodeLayout::Boxed);
            let mut soa = session(cfg, &engine, NodeLayout::Soa);
            // One session pair across three graphs, twice over: the
            // arena re-`prepare` between different shapes and the warm
            // same-shape rerun must both stay invisible.
            for pass in 0..2 {
                for g in [&far.graph, &free, &ck] {
                    let a = boxed.test(g).unwrap();
                    let b = soa.test(g).unwrap();
                    prop_assert_eq!(
                        digest(&a),
                        digest(&b),
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

/// Forced worker counts (the CI thread-matrix leg drives this binary
/// with `CK_FORCED_WORKERS` set): the SoA arena's chunk-shared scratch
/// is keyed off the engine's actual partition, so parity must hold at
/// every worker count, not just the machine's.
#[test]
fn soa_equals_boxed_under_forced_workers() {
    let k = 5;
    let far = eps_far_instance(48, k, 0.1, 3);
    let cfg = TesterConfig { repetitions: Some(2), ..TesterConfig::new(k, 0.1, 11) };
    let engine = EngineConfig { executor: Executor::Parallel, ..EngineConfig::default() };
    let baseline = session(cfg, &engine, NodeLayout::Boxed).test(&far.graph).unwrap();
    for workers in [1, 2, 3, 8] {
        rayon::force_workers_for_tests(workers);
        let a = session(cfg, &engine, NodeLayout::Boxed).test(&far.graph).unwrap();
        let b = session(cfg, &engine, NodeLayout::Soa).test(&far.graph).unwrap();
        rayon::force_workers_for_tests(0);
        assert_eq!(digest(&a), digest(&baseline), "workers={workers} boxed drifted");
        assert_eq!(digest(&b), digest(&baseline), "workers={workers} soa drifted");
    }
}
