//! Raw simulator throughput: node-steps per second on structured and
//! random topologies, sequential vs rayon-parallel executors.

use ck_congest::engine::{EngineConfig, Executor};
use ck_congest::node::{Inbox, Outbox, Program, Status};
use ck_congest::session::Session;
use ck_graphgen::basic::torus;
use ck_graphgen::random::gnp;
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

/// Flood-min protocol: the standard engine stress (every node broadcasts
/// on improvement for `ttl` rounds).
struct MinFlood {
    best: u64,
    ttl: u32,
    changed: bool,
}

impl Program for MinFlood {
    type Msg = u64;
    type Verdict = u64;
    fn step(&mut self, round: u32, inbox: Inbox<'_, u64>, out: &mut Outbox<u64>) -> Status {
        for inc in inbox.iter() {
            if *inc.msg < self.best {
                self.best = *inc.msg;
                self.changed = true;
            }
        }
        if round >= self.ttl {
            return Status::Halted;
        }
        if round == 0 || self.changed {
            out.broadcast(self.best);
            self.changed = false;
        }
        Status::Running
    }
    fn verdict(&self) -> u64 {
        self.best
    }
}

fn bench_executors(c: &mut Criterion) {
    let g = torus(40, 40); // 1600 nodes, diameter 40
    for exec in [Executor::Sequential, Executor::Parallel] {
        let name = format!("engine/minflood-torus40/{exec:?}");
        c.bench_function(&name, |b| {
            b.iter(|| {
                let cfg = EngineConfig { executor: exec, ..EngineConfig::default() };
                let out = run(&g, &cfg, |init| MinFlood { best: init.id, ttl: 80, changed: false })
                    .unwrap();
                black_box(out.verdicts[0])
            });
        });
    }
}

fn bench_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/minflood-gnp512");
    for p in [0.01f64, 0.05] {
        let g = gnp(512, p, 3);
        group.bench_with_input(BenchmarkId::from_parameter(format!("p{p}")), &p, |b, _| {
            b.iter(|| {
                let cfg = EngineConfig::default();
                let out = run(&g, &cfg, |init| MinFlood { best: init.id, ttl: 20, changed: false })
                    .unwrap();
                black_box(out.verdicts.len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_executors, bench_density);
criterion_main!(benches);
