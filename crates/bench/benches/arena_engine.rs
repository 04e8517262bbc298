//! Arena engine vs the preserved pre-arena engine on min-ID flooding,
//! plus the full tester through `TesterSession`, small and mid scale.
//!
//! The committed scaling record (including n = 10⁵) lives in
//! `BENCH_engine.json`, produced by the `bench_engine` binary; this
//! criterion bench keeps the comparison runnable interactively via
//! `cargo bench -p ck-bench --bench arena_engine`.

use ck_bench::legacy_engine::run_legacy;
use ck_bench::workloads::MinFlood;
use ck_congest::engine::{EngineConfig, Executor};
use ck_congest::node::Program;
use ck_congest::session::Session;
use ck_core::session::TesterSession;
use ck_core::tester::TesterConfig;
use ck_graphgen::basic::cycle;
use ck_graphgen::planted::plant_on_host;
use ck_graphgen::random::{gnp, random_tree};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// Cold-start session per run — the session-API form of the old `run`
/// free function, keeping the timed unit comparable across schemas.
fn run<'g, P, F>(
    graph: &'g ck_congest::graph::Graph,
    config: &EngineConfig,
    factory: F,
) -> Result<ck_congest::engine::RunOutcome<P::Verdict>, ck_congest::engine::EngineError>
where
    P: Program,
    F: FnMut(ck_congest::node::NodeInit<'g>) -> P,
{
    Session::builder(graph).config(config.clone()).build().run(factory)
}

fn cfg() -> EngineConfig {
    EngineConfig { executor: Executor::Sequential, record_rounds: false, ..EngineConfig::default() }
}

/// `record_rounds: true` routes the arena engine through the accounted
/// send path with fused wire accounting (vs `cfg`'s counter-free
/// delivery).
fn cfg_accounted() -> EngineConfig {
    EngineConfig { record_rounds: true, ..cfg() }
}

fn bench_ring(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/minflood-ring");
    for n in [1_000usize, 10_000] {
        let g = cycle(n);
        group.bench_with_input(BenchmarkId::new("legacy", n), &n, |b, _| {
            b.iter(|| {
                let out = run_legacy(&g, &cfg(), |i| MinFlood::new(&i, 60)).unwrap();
                black_box(out.verdicts[0])
            });
        });
        group.bench_with_input(BenchmarkId::new("arena", n), &n, |b, _| {
            b.iter(|| {
                let out = run(&g, &cfg(), |i| MinFlood::new(&i, 60)).unwrap();
                black_box(out.verdicts[0])
            });
        });
        group.bench_with_input(BenchmarkId::new("legacy-accounted", n), &n, |b, _| {
            b.iter(|| {
                let out = run_legacy(&g, &cfg_accounted(), |i| MinFlood::new(&i, 60)).unwrap();
                black_box(out.report.per_round.len())
            });
        });
        group.bench_with_input(BenchmarkId::new("arena-accounted", n), &n, |b, _| {
            b.iter(|| {
                let out = run(&g, &cfg_accounted(), |i| MinFlood::new(&i, 60)).unwrap();
                black_box(out.report.per_round.len())
            });
        });
    }
    group.finish();
}

fn bench_gnp(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/minflood-gnp2048-p0.01");
    let g = gnp(2048, 0.01, 9);
    group.bench_function("legacy", |b| {
        b.iter(|| {
            let out = run_legacy(&g, &cfg(), |i| MinFlood::new(&i, 20)).unwrap();
            black_box(out.verdicts.len())
        });
    });
    group.bench_function("arena", |b| {
        b.iter(|| {
            let out = run(&g, &cfg(), |i| MinFlood::new(&i, 20)).unwrap();
            black_box(out.verdicts.len())
        });
    });
    group.finish();
}

/// The paper's full Ck tester at k = 5 (heavy pooled `SeqBundle`
/// broadcasts through the clone-free slot path) through a cold
/// `TesterSession` per run — the path callers take — sequential vs
/// parallel, in both accounting modes. The legacy engine keeps only the
/// MinFlood groups above.
fn bench_ck5_tester(c: &mut Criterion) {
    let n = 4000;
    let host = random_tree(n, 7);
    let inst = plant_on_host(&host, 5, n / 40, 7);
    let tcfg = TesterConfig { repetitions: Some(2), ..TesterConfig::new(5, 0.1, 42) };
    let mut group = c.benchmark_group("engine/ck5-tester-planted4000");
    for (mode, record) in [("fast", false), ("accounted", true)] {
        for (name, executor) in
            [("session-seq", Executor::Sequential), ("session-par", Executor::Parallel)]
        {
            let engine =
                EngineConfig { executor, record_rounds: record, ..EngineConfig::default() };
            group.bench_function(BenchmarkId::new(name, mode), |b| {
                b.iter(|| {
                    let run = TesterSession::from_config(tcfg, engine.clone())
                        .unwrap()
                        .test(&inst.graph)
                        .unwrap();
                    black_box(run.outcome.verdicts.len())
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_ring, bench_gnp, bench_ck5_tester);
criterion_main!(benches);
