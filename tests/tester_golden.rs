//! Golden digests of the full `Ck` tester. A fixed grid of 72 cases —
//! `k`, Phase-1 seed, i.i.d. loss, early abort and three graph families
//! — was run once and each run reduced to a 64-bit digest of everything
//! observable about it. Every executor must reproduce that table: the
//! sequential and parallel executors, the parallel executor at forced
//! worker counts, one warm session replaying the whole grid (arena
//! re-prepared across graph shapes, configuration swapped per case),
//! and the distributed executor on the loss-free ε-far cases. The
//! table pins outputs across refactors of the node-state layout, the
//! executors and the worker, independently of any reference
//! implementation kept alongside.
//!
//! The CI thread-matrix job also runs this suite under
//! `CK_FORCED_WORKERS ∈ {2, 4}`.

use ck_congest::engine::{EngineConfig, Executor};
use ck_congest::fault::FaultPlan;
use ck_congest::graph::Graph;
use ck_congest::metrics::RoundStats;
use ck_congest::net::NetOptions;
use ck_core::decide::RejectWitness;
use ck_core::msg::EdgeTag;
use ck_core::seq::IdSeq;
use ck_core::session::TesterSession;
use ck_core::tester::{NodeVerdict, Rejection, TesterConfig, TesterRun};
use ck_graphgen::basic::cycle;
use ck_graphgen::planted::{eps_far_instance, matched_free_instance};

/// FNV-1a-64 over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn seq(&mut self, s: &IdSeq) {
        self.u64(s.len() as u64);
        for id in s.iter() {
            self.u64(id);
        }
    }
}

/// The digest of one run: FNV-1a-64 over this file's own serialization
/// of the reject bit, the repetition and round counts, every
/// `RoundStats` field and every `NodeVerdict` field (witness IDs and
/// `pool_outstanding` included). The executor, thread and net labels
/// are left out. Serializing here, rather than through a library
/// encoding, keeps the table fixed if the distributed worker's verdict
/// wire format changes. The exhaustive destructuring makes a new field
/// a compile error here rather than a silent gap in the digest.
fn digest(run: &TesterRun) -> u64 {
    let mut h = Fnv::new();
    h.u64(u64::from(run.reject));
    h.u64(u64::from(run.repetitions));
    let report = &run.outcome.report;
    h.u64(u64::from(report.rounds));
    h.u64(report.per_round.len() as u64);
    for stats in &report.per_round {
        let RoundStats {
            round,
            active_nodes,
            messages,
            bits,
            max_message_bits,
            max_link_bits,
            max_link_messages,
        } = *stats;
        for v in [
            u64::from(round),
            active_nodes as u64,
            messages,
            bits,
            max_message_bits,
            max_link_bits,
            max_link_messages,
        ] {
            h.u64(v);
        }
    }
    h.u64(run.outcome.verdicts.len() as u64);
    for verdict in &run.outcome.verdicts {
        let NodeVerdict { rejected, first_rejection, max_sent_seqs, pool_outstanding } = verdict;
        h.u64(u64::from(*rejected));
        h.u64(*max_sent_seqs as u64);
        h.u64(*pool_outstanding);
        match first_rejection.as_deref() {
            None => h.u64(0),
            Some(Rejection { repetition, tag, witness }) => {
                let EdgeTag { rank, lo, hi } = *tag;
                let RejectWitness { l1, l2, myid, k } = witness;
                h.u64(1);
                h.u64(u64::from(*repetition));
                h.u64(rank);
                h.u64(lo);
                h.u64(hi);
                h.seq(l1);
                h.seq(l2);
                h.u64(*myid);
                h.u64(*k as u64);
            }
        }
    }
    h.0
}

/// One grid point: a graph, the tester configuration and the fault
/// plan it runs under.
struct Case {
    label: String,
    /// `"eps-far"`, `"free"` or `"cycle"`.
    family: &'static str,
    loss: Option<f64>,
    graph: Graph,
    cfg: TesterConfig,
    faults: FaultPlan,
}

/// The 72-case grid, in table order: k ∈ {4, 5} × seed ∈ {0, 17} ×
/// loss ∈ {none, 0.15, 0.35} × early abort off/on × {ε-far planted,
/// matched C_k-free, C_k}. Each case runs 2 repetitions.
fn grid() -> Vec<Case> {
    let mut cases = Vec::with_capacity(72);
    for k in [4usize, 5] {
        for seed in [0u64, 17] {
            for loss in [None, Some(0.15), Some(0.35)] {
                for early_abort in [false, true] {
                    let graphs = [
                        ("eps-far", eps_far_instance(40, k, 0.1, seed % 5).graph),
                        ("free", matched_free_instance(30, k)),
                        ("cycle", cycle(k)),
                    ];
                    for (family, graph) in graphs {
                        let faults = match loss {
                            None => FaultPlan::none(),
                            Some(p) => FaultPlan::none().random_loss(p, seed ^ 0x9e37_79b9),
                        };
                        let cfg = TesterConfig {
                            repetitions: Some(2),
                            early_abort,
                            ..TesterConfig::new(k, 0.1, seed)
                        };
                        let label =
                            format!("k={k} seed={seed} loss={loss:?} abort={early_abort} {family}");
                        cases.push(Case { label, family, loss, graph, cfg, faults });
                    }
                }
            }
        }
    }
    cases
}

fn engine(case: &Case, executor: Executor) -> EngineConfig {
    EngineConfig {
        executor,
        record_rounds: true,
        faults: case.faults.clone(),
        ..EngineConfig::default()
    }
}

/// The digest of every grid case, in [`grid`] order. Recorded at commit
/// a4f9cd2 from the boxed node-state layout (each node owning its own
/// heap buffers) under the sequential executor; the arena layout on the
/// sequential and parallel executors gave the same 72 digests there
/// (52 distinct values).
const GOLDEN: [u64; 72] = [
    0x2b0b3d44882c1fff, // k=4 seed=0 loss=None abort=false eps-far
    0x949c304a5129d179, // k=4 seed=0 loss=None abort=false free
    0xf2fba9216fc89284, // k=4 seed=0 loss=None abort=false cycle
    0x278cd388b53f71e9, // k=4 seed=0 loss=None abort=true eps-far
    0x949c304a5129d179, // k=4 seed=0 loss=None abort=true free
    0x6765169c569d58c9, // k=4 seed=0 loss=None abort=true cycle
    0xf66469765ef516f7, // k=4 seed=0 loss=Some(0.15) abort=false eps-far
    0xe19030e083762429, // k=4 seed=0 loss=Some(0.15) abort=false free
    0x6c18ca4b01699a21, // k=4 seed=0 loss=Some(0.15) abort=false cycle
    0x74d0d54c3369f0ef, // k=4 seed=0 loss=Some(0.15) abort=true eps-far
    0xe19030e083762429, // k=4 seed=0 loss=Some(0.15) abort=true free
    0x63f6fe05a03703ac, // k=4 seed=0 loss=Some(0.15) abort=true cycle
    0xb6e9b5c5fdc1ac98, // k=4 seed=0 loss=Some(0.35) abort=false eps-far
    0xd72762176f8a6442, // k=4 seed=0 loss=Some(0.35) abort=false free
    0x285d131ffb2c8500, // k=4 seed=0 loss=Some(0.35) abort=false cycle
    0x45b2397fd7057d04, // k=4 seed=0 loss=Some(0.35) abort=true eps-far
    0xd72762176f8a6442, // k=4 seed=0 loss=Some(0.35) abort=true free
    0x285d131ffb2c8500, // k=4 seed=0 loss=Some(0.35) abort=true cycle
    0x52ffdad80ab1aa50, // k=4 seed=17 loss=None abort=false eps-far
    0x949c304a5129d179, // k=4 seed=17 loss=None abort=false free
    0x4c5b7ea8447a3223, // k=4 seed=17 loss=None abort=false cycle
    0x5e58aeb638c13cb1, // k=4 seed=17 loss=None abort=true eps-far
    0x949c304a5129d179, // k=4 seed=17 loss=None abort=true free
    0xde1cada1d1874749, // k=4 seed=17 loss=None abort=true cycle
    0x1031b0c577bba087, // k=4 seed=17 loss=Some(0.15) abort=false eps-far
    0x40374eb6ca8d9f52, // k=4 seed=17 loss=Some(0.15) abort=false free
    0x2c0a60e014ffb083, // k=4 seed=17 loss=Some(0.15) abort=false cycle
    0x991f1e8d68cecebd, // k=4 seed=17 loss=Some(0.15) abort=true eps-far
    0x40374eb6ca8d9f52, // k=4 seed=17 loss=Some(0.15) abort=true free
    0x2c0a60e014ffb083, // k=4 seed=17 loss=Some(0.15) abort=true cycle
    0xe52c3c67b7d7c0eb, // k=4 seed=17 loss=Some(0.35) abort=false eps-far
    0xc3549ab07b72a62b, // k=4 seed=17 loss=Some(0.35) abort=false free
    0xdfc8258b230b3927, // k=4 seed=17 loss=Some(0.35) abort=false cycle
    0xbd818afbdb1eb300, // k=4 seed=17 loss=Some(0.35) abort=true eps-far
    0xc3549ab07b72a62b, // k=4 seed=17 loss=Some(0.35) abort=true free
    0xdfc8258b230b3927, // k=4 seed=17 loss=Some(0.35) abort=true cycle
    0xcb5f972786f2d2d3, // k=5 seed=0 loss=None abort=false eps-far
    0x1063545c8709c9ad, // k=5 seed=0 loss=None abort=false free
    0x3c590a492969a109, // k=5 seed=0 loss=None abort=false cycle
    0xcba70c93be028010, // k=5 seed=0 loss=None abort=true eps-far
    0x1063545c8709c9ad, // k=5 seed=0 loss=None abort=true free
    0x2d1d7b73922eee3d, // k=5 seed=0 loss=None abort=true cycle
    0xd83e48c949f0afe1, // k=5 seed=0 loss=Some(0.15) abort=false eps-far
    0x3e715fe17b656a1f, // k=5 seed=0 loss=Some(0.15) abort=false free
    0xe7d4c9af88dee26d, // k=5 seed=0 loss=Some(0.15) abort=false cycle
    0x86399e9f17e50f7a, // k=5 seed=0 loss=Some(0.15) abort=true eps-far
    0x3e715fe17b656a1f, // k=5 seed=0 loss=Some(0.15) abort=true free
    0x2e7a826206eb5218, // k=5 seed=0 loss=Some(0.15) abort=true cycle
    0xc34df0e3b745ef3a, // k=5 seed=0 loss=Some(0.35) abort=false eps-far
    0x6fb913fc1c18fa65, // k=5 seed=0 loss=Some(0.35) abort=false free
    0xbdba8567a542ae9f, // k=5 seed=0 loss=Some(0.35) abort=false cycle
    0xf8b22d4551d088bb, // k=5 seed=0 loss=Some(0.35) abort=true eps-far
    0x6fb913fc1c18fa65, // k=5 seed=0 loss=Some(0.35) abort=true free
    0xbdba8567a542ae9f, // k=5 seed=0 loss=Some(0.35) abort=true cycle
    0x18d0520621d28107, // k=5 seed=17 loss=None abort=false eps-far
    0x1063545c8709c9ad, // k=5 seed=17 loss=None abort=false free
    0xa9a2fa20dc7317c2, // k=5 seed=17 loss=None abort=false cycle
    0x621698016646fc49, // k=5 seed=17 loss=None abort=true eps-far
    0x1063545c8709c9ad, // k=5 seed=17 loss=None abort=true free
    0x0df3c34d698d6c39, // k=5 seed=17 loss=None abort=true cycle
    0x77b2a20b03f871d1, // k=5 seed=17 loss=Some(0.15) abort=false eps-far
    0xd36c0e94fd8bc6d3, // k=5 seed=17 loss=Some(0.15) abort=false free
    0x233aa4b82f08fd05, // k=5 seed=17 loss=Some(0.15) abort=false cycle
    0x2ef6d8ceb6ee4b59, // k=5 seed=17 loss=Some(0.15) abort=true eps-far
    0xd36c0e94fd8bc6d3, // k=5 seed=17 loss=Some(0.15) abort=true free
    0x71d9294b097b69c1, // k=5 seed=17 loss=Some(0.15) abort=true cycle
    0xc067369674984a85, // k=5 seed=17 loss=Some(0.35) abort=false eps-far
    0x9217f6fa28f8ed95, // k=5 seed=17 loss=Some(0.35) abort=false free
    0x62b703fa02548d7d, // k=5 seed=17 loss=Some(0.35) abort=false cycle
    0xc067369674984a85, // k=5 seed=17 loss=Some(0.35) abort=true eps-far
    0x9217f6fa28f8ed95, // k=5 seed=17 loss=Some(0.35) abort=true free
    0x62b703fa02548d7d, // k=5 seed=17 loss=Some(0.35) abort=true cycle
];

fn run(case: &Case, engine: EngineConfig) -> TesterRun {
    TesterSession::from_config(case.cfg, engine).unwrap().test(&case.graph).unwrap()
}

/// Asserts every case's digest under `executor` against the table.
fn assert_grid(executor: Executor, what: &str) {
    for (case, &golden) in grid().iter().zip(&GOLDEN) {
        let got = digest(&run(case, engine(case, executor)));
        assert_eq!(got, golden, "{what}: {} drifted from the golden table", case.label);
    }
}

#[test]
fn sequential_executor_reproduces_the_table() {
    assert_grid(Executor::Sequential, "sequential");
}

#[test]
fn parallel_executor_reproduces_the_table() {
    assert_grid(Executor::Parallel, "parallel");
}

/// The arena's chunk-shared prune scratch is laid out for the pinned
/// node→thread partition, so the table must hold at every worker count,
/// not just the machine's.
#[test]
fn forced_worker_counts_reproduce_the_table() {
    for workers in [1, 2, 3, 8] {
        rayon::force_workers_for_tests(workers);
        assert_grid(Executor::Parallel, &format!("parallel, {workers} forced workers"));
        rayon::force_workers_for_tests(0);
    }
}

/// One session across the whole grid, twice: every case reconfigures the
/// warm session and swaps its fault plan, so the arena is re-prepared
/// across graph shapes and `k` values and the warm same-shape rerun of
/// the second pass must both stay invisible.
#[test]
fn warm_session_replays_the_grid_twice() {
    let cases = grid();
    let mut session = TesterSession::from_config(cases[0].cfg, EngineConfig::default()).unwrap();
    for pass in 0..2 {
        for (case, &golden) in cases.iter().zip(&GOLDEN) {
            session.reconfigure(case.cfg).unwrap();
            session.engine_mut().faults = case.faults.clone();
            let got = digest(&session.test(&case.graph).unwrap());
            assert_eq!(got, golden, "warm pass {pass}: {} drifted", case.label);
        }
    }
}

/// Two distributed workers (thread mode, loopback TCP) on the 8
/// loss-free ε-far cases: each worker runs its node range over its own
/// arena, and the coordinator's merged outcome must hit the table.
#[test]
fn distributed_executor_reproduces_the_loss_free_eps_far_cases() {
    let net = NetOptions {
        connect_timeout_ms: 5_000,
        round_deadline_ms: 5_000,
        heartbeat_ms: 20,
        ..NetOptions::default()
    };
    let mut checked = 0;
    for (case, &golden) in grid().iter().zip(&GOLDEN) {
        if case.loss.is_some() || case.family != "eps-far" {
            continue;
        }
        let engine = EngineConfig {
            executor: Executor::Distributed { workers: 2 },
            net: net.clone(),
            ..engine(case, Executor::Sequential)
        };
        let dist = run(case, engine);
        let report = dist.outcome.report.net.as_ref().expect("distributed run records a net block");
        assert!(report.completed_distributed(), "{}: fell back: {:?}", case.label, report.fallback);
        assert_eq!(digest(&dist), golden, "distributed: {} drifted", case.label);
        checked += 1;
    }
    assert_eq!(checked, 8);
}
