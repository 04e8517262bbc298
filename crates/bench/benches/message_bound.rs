//! E5 timing: single-edge detection cost across k on congestion-heavy
//! topologies (the Lemma 3 regime — message sizes constant in n, growing
//! in k).

use ck_congest::engine::EngineConfig;
use ck_congest::graph::Edge;
use ck_core::single::detect_ck_through_edge;
use ck_graphgen::basic::spindle;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_k_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("single-edge/k-scaling-spindle16");
    for k in [5usize, 6, 8, 10] {
        let g = spindle(16, k - 4); // cycle length = mid + 4 = k
        let e = Edge::new(0, 1);
        group.bench_with_input(BenchmarkId::from_parameter(format!("k{k}")), &k, |b, &k| {
            b.iter(|| {
                black_box(
                    detect_ck_through_edge(&g, k, e, &EngineConfig::default()).unwrap().reject,
                )
            });
        });
    }
    group.finish();
}

fn bench_width_invariance(c: &mut Criterion) {
    // Lemma 3: per-message load is independent of the fan-in width p.
    let mut group = c.benchmark_group("single-edge/width-sweep-k6");
    for p in [8usize, 32, 128] {
        let g = spindle(p, 2);
        let e = Edge::new(0, 1);
        group.bench_with_input(BenchmarkId::from_parameter(format!("p{p}")), &p, |b, _| {
            b.iter(|| {
                black_box(
                    detect_ck_through_edge(&g, 6, e, &EngineConfig::default()).unwrap().reject,
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_k_scaling, bench_width_invariance);
criterion_main!(benches);
