//! E11 timing: naive keep-all vs Algorithm 1 on widening spindles. The
//! naive detector's work grows with the fan-in width p; the pruned
//! detector's stays flat (Lemma 3).

use ck_baselines::naive::{naive_detect_through_edge, DropPolicy};
use ck_congest::engine::EngineConfig;
use ck_congest::graph::Edge;
use ck_core::single::detect_ck_through_edge;
use ck_graphgen::basic::spindle;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_naive_vs_pruned(c: &mut Criterion) {
    for p in [8usize, 32, 64] {
        let g = spindle(p, 2);
        let e = Edge::new(0, 1);
        let mut group = c.benchmark_group(format!("congestion/spindle-p{p}"));
        group.bench_function("naive-keepall", |b| {
            b.iter(|| {
                black_box(
                    naive_detect_through_edge(
                        &g,
                        6,
                        e,
                        DropPolicy::KeepAll,
                        &EngineConfig::default(),
                    )
                    .unwrap()
                    .reject,
                )
            });
        });
        group.bench_function("pruned", |b| {
            b.iter(|| {
                black_box(
                    detect_ck_through_edge(&g, 6, e, &EngineConfig::default()).unwrap().reject,
                )
            });
        });
        group.finish();
    }
}

criterion_group!(benches, bench_naive_vs_pruned);
criterion_main!(benches);
