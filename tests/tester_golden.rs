//! Golden digests of the full `Ck` tester. A fixed grid of 48 cases —
//! `k`, Phase-1 seed, i.i.d. loss and four graph families — was run
//! once and each run reduced to a 64-bit digest of everything
//! observable about it. Every executor must reproduce that table: the
//! sequential and parallel executors, the parallel executor at forced
//! worker counts, one warm session replaying the whole grid (arena
//! re-prepared across graph shapes, configuration swapped per case),
//! and the distributed executor on the loss-free ε-far and tree cases. The
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
use ck_graphgen::planted::{eps_far_instance, matched_free_instance, plant_on_host};
use ck_graphgen::random::random_tree;

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
/// `RoundStats` field and every `NodeVerdict` field (witness IDs
/// included). The executor, thread and net labels are left out.
/// Serializing here, rather than through a library encoding, keeps the
/// table fixed if the distributed worker's verdict wire format changes.
/// The exhaustive destructuring makes a new field a compile error here
/// rather than a silent gap in the digest.
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
        let NodeVerdict { rejected, first_rejection, max_sent_seqs } = verdict;
        h.u64(u64::from(*rejected));
        h.u64(*max_sent_seqs as u64);
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
    /// `"eps-far"`, `"free"`, `"cycle"` or `"tree"`.
    family: &'static str,
    loss: Option<f64>,
    graph: Graph,
    cfg: TesterConfig,
    faults: FaultPlan,
}

/// The 48-case grid, in table order: k ∈ {4, 5} × seed ∈ {0, 17} ×
/// loss ∈ {none, 0.15, 0.35} × {ε-far planted, matched C_k-free, C_k,
/// C_k copies planted on a 2,000-node random tree}. Each case runs 2
/// repetitions.
fn grid() -> Vec<Case> {
    let mut cases = Vec::with_capacity(48);
    for k in [4usize, 5] {
        for seed in [0u64, 17] {
            for loss in [None, Some(0.15), Some(0.35)] {
                let graphs = [
                    ("eps-far", eps_far_instance(40, k, 0.1, seed % 5).graph),
                    ("free", matched_free_instance(30, k)),
                    ("cycle", cycle(k)),
                    ("tree", plant_on_host(&random_tree(2_000, seed), k, 50, seed).graph),
                ];
                for (family, graph) in graphs {
                    let faults = match loss {
                        None => FaultPlan::none(),
                        Some(p) => FaultPlan::none().random_loss(p, seed ^ 0x9e37_79b9),
                    };
                    let cfg =
                        TesterConfig { repetitions: Some(2), ..TesterConfig::new(k, 0.1, seed) };
                    let label = format!("k={k} seed={seed} loss={loss:?} {family}");
                    cases.push(Case { label, family, loss, graph, cfg, faults });
                }
            }
        }
    }
    cases
}

fn engine(case: &Case, executor: Executor) -> EngineConfig {
    EngineConfig { executor, faults: case.faults.clone(), ..EngineConfig::default() }
}

/// The digest of every grid case, in [`grid`] order. First recorded at
/// commit a4f9cd2 from the boxed node-state layout (each node owning its
/// own heap buffers) under the sequential executor, where the arena
/// layout on the sequential and parallel executors gave the same 72
/// digests. Re-recorded at f4c0d61 with the verdicts' payload-pool
/// counter left out of the digest, every other field unchanged: 51
/// distinct values, as four C4 cases under loss differed only in that
/// counter. The 24 `tree` rows were added afterwards, recorded the same
/// way on the library as it stood before any run stepped its nodes in
/// an order other than the index order (the sequential and parallel
/// executors agreeing); every other row kept its value and place in
/// the grid's order. The grid then lost its early-abort axis with the
/// extension itself: the 48 rows it ran with the extension off are the
/// table, each with its recorded value, in their old relative order.
const GOLDEN: [u64; 48] = [
    0x39b6b4c5827c2ee3, // k=4 seed=0 loss=None eps-far
    0x826c1a48751de099, // k=4 seed=0 loss=None free
    0xf6e07bae88bd0784, // k=4 seed=0 loss=None cycle
    0x4b4ddf2e55774740, // k=4 seed=0 loss=None tree
    0xd3698ae0c1d64a68, // k=4 seed=0 loss=Some(0.15) eps-far
    0xb02b6cb5e2849f49, // k=4 seed=0 loss=Some(0.15) free
    0x000ad3ebb5f00381, // k=4 seed=0 loss=Some(0.15) cycle
    0xdd0e8f2fb4f759d5, // k=4 seed=0 loss=Some(0.15) tree
    0x475fe1bdc56aec3b, // k=4 seed=0 loss=Some(0.35) eps-far
    0x410c71110c0ed1e1, // k=4 seed=0 loss=Some(0.35) free
    0x039cdb246a7c0543, // k=4 seed=0 loss=Some(0.35) cycle
    0x2c25b8f59bd9420c, // k=4 seed=0 loss=Some(0.35) tree
    0x9c3b88b3633f8678, // k=4 seed=17 loss=None eps-far
    0x826c1a48751de099, // k=4 seed=17 loss=None free
    0x4bf156aa7ccda903, // k=4 seed=17 loss=None cycle
    0xa43ee16ff471ef3a, // k=4 seed=17 loss=None tree
    0xcc4bcb45b43b800f, // k=4 seed=17 loss=Some(0.15) eps-far
    0xdeafb3fa42d1f0f1, // k=4 seed=17 loss=Some(0.15) free
    0x039cdb246a7c0543, // k=4 seed=17 loss=Some(0.15) cycle
    0x4c32f69da2445c64, // k=4 seed=17 loss=Some(0.15) tree
    0xc562b387cb61792b, // k=4 seed=17 loss=Some(0.35) eps-far
    0xbe335372616447cb, // k=4 seed=17 loss=Some(0.35) free
    0xa8f15e09c9ab3be7, // k=4 seed=17 loss=Some(0.35) cycle
    0x7c0f5405a1581e52, // k=4 seed=17 loss=Some(0.35) tree
    0xcc06d5cb39cace83, // k=5 seed=0 loss=None eps-far
    0xc2470534eb9bf5cd, // k=5 seed=0 loss=None free
    0x4f66be180d2cbdcb, // k=5 seed=0 loss=None cycle
    0xe48bc461444bce3d, // k=5 seed=0 loss=None tree
    0x5c5d863ff6800409, // k=5 seed=0 loss=Some(0.15) eps-far
    0xc30c17a64e6eb8bf, // k=5 seed=0 loss=Some(0.15) free
    0xf1d939e41859a8af, // k=5 seed=0 loss=Some(0.15) cycle
    0xb4089227d6a4dfc5, // k=5 seed=0 loss=Some(0.15) tree
    0xc116e1eb70949ee5, // k=5 seed=0 loss=Some(0.35) eps-far
    0x055c4e455868dfc5, // k=5 seed=0 loss=Some(0.35) free
    0xac686d803191357d, // k=5 seed=0 loss=Some(0.35) cycle
    0xc75605511b607372, // k=5 seed=0 loss=Some(0.35) tree
    0x261f18057a64460b, // k=5 seed=17 loss=None eps-far
    0xc2470534eb9bf5cd, // k=5 seed=17 loss=None free
    0xc978a8298f07f6c0, // k=5 seed=17 loss=None cycle
    0x9af5df170d41247e, // k=5 seed=17 loss=None tree
    0x5f90f2b757688551, // k=5 seed=17 loss=Some(0.15) eps-far
    0x95444e9154265273, // k=5 seed=17 loss=Some(0.15) free
    0xb78d510e620f1567, // k=5 seed=17 loss=Some(0.15) cycle
    0xc171cc32722ce8c8, // k=5 seed=17 loss=Some(0.15) tree
    0xd187050a07af0cc5, // k=5 seed=17 loss=Some(0.35) eps-far
    0x2bb8d0609704a875, // k=5 seed=17 loss=Some(0.35) free
    0x20106dae7480579f, // k=5 seed=17 loss=Some(0.35) cycle
    0x06d39b3fd0893172, // k=5 seed=17 loss=Some(0.35) tree
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
/// loss-free ε-far and tree cases: each worker runs its node range over
/// its own arena, and the coordinator's merged outcome must hit the
/// table. A worker steps its range in index order whatever order an
/// in-process run of the same graph steps in, so the tree cases hold
/// the two against each other.
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
        if case.loss.is_some() || !matches!(case.family, "eps-far" | "tree") {
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
