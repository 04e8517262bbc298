//! E10 timing: detection on Behrend-style spread-cycle instances, where
//! no density signal helps and the pruning rule carries the detection.

use ck_congest::engine::EngineConfig;
use ck_congest::graph::Edge;
use ck_core::session::TesterSession;
use ck_core::single::detect_ck_through_edge;
use ck_core::tester::TesterConfig;
use ck_graphgen::behrend::behrend_ck_instance;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// Cold-start session per run — the session-API form of the old
/// `run_tester` free function.
fn run_once(
    g: &ck_congest::graph::Graph,
    cfg: &TesterConfig,
    engine: &EngineConfig,
) -> Result<ck_core::tester::TesterRun, ck_congest::engine::EngineError> {
    TesterSession::from_config(*cfg, engine.clone()).expect("valid config").test(g)
}

fn bench_single_edge(c: &mut Criterion) {
    let mut group = c.benchmark_group("behrend/single-edge");
    for &(k, width) in &[(5usize, 64usize), (6, 48)] {
        let inst = behrend_ck_instance(k, width);
        let copy = &inst.planted[0];
        let e = Edge::new(copy[k - 1], copy[0]);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}-w{width}")),
            &k,
            |b, &k| {
                b.iter(|| {
                    black_box(
                        detect_ck_through_edge(&inst.graph, k, e, &EngineConfig::default())
                            .unwrap()
                            .reject,
                    )
                });
            },
        );
    }
    group.finish();
}

fn bench_full_tester(c: &mut Criterion) {
    let mut group = c.benchmark_group("behrend/full-tester");
    group.sample_size(10);
    {
        let &(k, width) = &(5usize, 40usize);
        let inst = behrend_ck_instance(k, width);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}-w{width}")),
            &k,
            |b, &k| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed = seed.wrapping_add(1);
                    let cfg =
                        TesterConfig { repetitions: Some(20), ..TesterConfig::new(k, 0.05, seed) };
                    black_box(run_once(&inst.graph, &cfg, &EngineConfig::default()).unwrap().reject)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_single_edge, bench_full_tester);
criterion_main!(benches);
