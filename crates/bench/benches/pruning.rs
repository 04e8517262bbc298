//! Micro-benchmarks of the pruning rule: the representative-family
//! implementation vs the literal subset enumeration, across input shapes
//! (common-prefix floods, disjoint floods).

use ck_core::prune::{prune_literal, prune_representative};
use ck_core::seq::SeqRows;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// `count` sequences all sharing the hub id 1: (1, x_i).
fn shared_hub(count: usize) -> SeqRows {
    let mut rows = SeqRows::new(2);
    for i in 0..count as u64 {
        rows.push(&[1, 10 + i]);
    }
    rows
}

/// `count` pairwise-disjoint pairs.
fn disjoint_pairs(count: usize) -> SeqRows {
    let mut rows = SeqRows::new(2);
    for i in 0..count as u64 {
        rows.push(&[2 * i + 10, 2 * i + 11]);
    }
    rows
}

fn bench_representative(c: &mut Criterion) {
    let mut group = c.benchmark_group("prune/representative-k8t3");
    for count in [16usize, 64, 256] {
        let hub = shared_hub(count);
        let disj = disjoint_pairs(count);
        group.bench_with_input(BenchmarkId::new("shared-hub", count), &count, |b, _| {
            b.iter(|| black_box(prune_representative(&hub, 8, 3).len()));
        });
        group.bench_with_input(BenchmarkId::new("disjoint", count), &count, |b, _| {
            b.iter(|| black_box(prune_representative(&disj, 8, 3).len()));
        });
    }
    group.finish();
}

fn bench_literal_vs_representative(c: &mut Criterion) {
    // Small instances where the literal enumeration is feasible.
    let mut group = c.benchmark_group("prune/literal-vs-representative-k6t3");
    let input = disjoint_pairs(8);
    group.bench_function("literal", |b| {
        b.iter(|| black_box(prune_literal(&input, 6, 3).len()));
    });
    group.bench_function("representative", |b| {
        b.iter(|| black_box(prune_representative(&input, 6, 3).len()));
    });
    group.finish();
}

fn bench_deep_rounds(c: &mut Criterion) {
    // Later rounds: longer sequences, deeper transversal search.
    let mut group = c.benchmark_group("prune/representative-depth");
    for (k, t) in [(10usize, 4usize), (12, 5), (14, 6)] {
        let mut input = SeqRows::new(t - 1);
        for i in 0..64u64 {
            let ids: Vec<u64> = (0..t as u64 - 1).map(|j| 100 + i * 16 + j).collect();
            input.push(&ids);
        }
        group.bench_with_input(BenchmarkId::from_parameter(format!("k{k}t{t}")), &t, |b, _| {
            b.iter(|| black_box(prune_representative(&input, k, t).len()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_representative, bench_literal_vs_representative, bench_deep_rounds);
criterion_main!(benches);
