//! Arena engine vs the preserved pre-arena engine on min-ID flooding,
//! plus the full tester through `TesterSession`, small and mid scale,
//! and one distributed worker's round at n ≈ 10⁵.
//!
//! The committed scaling record (including n = 10⁵) lives in
//! `BENCH_engine.json`, produced by the `bench_engine` binary; this
//! criterion bench keeps the comparison runnable interactively via
//! `cargo bench -p ck-bench --bench arena_engine`.

use ck_bench::legacy_engine::run_legacy;
use ck_bench::workloads::MinFlood;
use ck_congest::engine::{EngineConfig, Executor};
use ck_congest::message::WireParams;
use ck_congest::net::PartitionEngine;
use ck_congest::node::Program;
use ck_congest::session::Session;
use ck_core::session::TesterSession;
use ck_core::tester::TesterConfig;
use ck_graphgen::basic::{cycle, torus};
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

/// The sequential executor under the default engine configuration:
/// every send priced as it lands, one statistics row per round.
fn cfg() -> EngineConfig {
    EngineConfig { executor: Executor::Sequential, ..EngineConfig::default() }
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

/// The paper's full Ck tester at k = 5 (heavy `SeqRows` broadcasts
/// through the clone-free slot path) through a cold `TesterSession` per
/// run — the path callers take — sequential vs parallel. The legacy
/// engine keeps only the MinFlood groups above.
fn bench_ck5_tester(c: &mut Criterion) {
    let n = 4000;
    let host = random_tree(n, 7);
    let inst = plant_on_host(&host, 5, n / 40, 7);
    let tcfg = TesterConfig { repetitions: Some(2), ..TesterConfig::new(5, 0.1, 42) };
    let mut group = c.benchmark_group("engine/ck5-tester-planted4000");
    for (name, executor) in
        [("session-seq", Executor::Sequential), ("session-par", Executor::Parallel)]
    {
        let engine = EngineConfig { executor, ..EngineConfig::default() };
        group.bench_function(name, |b| {
            b.iter(|| {
                let run = TesterSession::from_config(tcfg, engine.clone())
                    .unwrap()
                    .test(&inst.graph)
                    .unwrap();
                black_box(run.outcome.verdicts.len())
            });
        });
    }
    group.finish();
}

/// One round of distributed worker 0 of `W` on a 316 × 316 torus
/// (n = 99,856): the step over its range, the drain of its cut and the
/// commit, in process, with no deliveries routed in. Once min-ID
/// flooding has settled inside the range a round sends nothing, so this
/// times the worker's own round cost, which should fall with its range
/// (`n/W`) rather than stay at `n`.
fn bench_partition_round(c: &mut Criterion) {
    let g = torus(316, 316);
    let params = WireParams::for_graph(&g);
    let mut group = c.benchmark_group("engine/partition-round-torus316");
    for workers in [1u32, 2, 4, 8] {
        let mut part =
            PartitionEngine::new(&g, &cfg(), params, workers, 0, |i| MinFlood::new(&i, u32::MAX));
        let (mut round, mut out) = (0u32, Vec::new());
        group.bench_with_input(BenchmarkId::new("worker0-of", workers), &workers, |b, _| {
            b.iter(|| {
                let digest = part.step_round(round, &mut out);
                out.clear();
                part.commit_round();
                round += 1;
                black_box(digest.messages)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ring, bench_gnp, bench_ck5_tester, bench_partition_round);
criterion_main!(benches);
