//! Planted-cycle hunt: the paper's headline guarantee on ε-far inputs.
//!
//! Builds instances that are *certifiably* ε-far from Ck-free (more than
//! εm vertex-disjoint planted copies), runs the full tester across many
//! seeds, and reports the empirical detection rate against the 2/3 bound
//! of Theorem 1 — then shows one recovered witness cycle and checks it
//! against the sequential oracle.
//!
//! ```text
//! cargo run --release --example planted_cycle_hunt
//! ```

use ck_core::session::TesterSession;
use ck_graphgen::farness::{certify_eps_far, is_valid_ck};
use ck_graphgen::planted::eps_far_instance;

fn main() {
    let eps = 0.08;
    let trials = 20u64;
    println!("k | n   | m   | certified packing | reject rate | bound");
    println!("--+-----+-----+-------------------+-------------+------");
    for k in 3..=7 {
        let inst = eps_far_instance(70, k, eps, 0);
        let cert = certify_eps_far(&inst.graph, k, eps);
        assert!(cert.certified);
        let mut rejects = 0;
        let mut sample_witness = None;
        // The seed sweep runs as one sharded session batch: per-shard
        // engine workspaces and node-state arenas are recycled across
        // trials instead of rebuilt per seed.
        let session = TesterSession::builder(k, eps).build().expect("valid parameters");
        let jobs: Vec<_> = (0..trials).map(|seed| session.job(&inst.graph, seed)).collect();
        let runs = session.test_batch(&jobs, None).expect("batch run");
        for run in &runs {
            if run.reject {
                rejects += 1;
                if sample_witness.is_none() {
                    sample_witness = run.rejections().first().map(|r| r.witness.cycle_ids());
                }
            }
        }
        let rate = rejects as f64 / trials as f64;
        println!(
            "{k} | {:3} | {:3} | {:17} | {rate:10.2} | ≥ 0.67",
            inst.graph.n(),
            inst.graph.m(),
            cert.packing,
        );
        if let Some(ids) = sample_witness {
            let idx: Vec<_> = ids.iter().map(|&id| inst.graph.index_of(id).unwrap()).collect();
            assert!(is_valid_ck(&inst.graph, k, &idx), "witness must be a real C{k}");
            println!("    sample witness C{k}: {ids:?} (validated against oracle)");
        }
        assert!(rate >= 2.0 / 3.0, "detection below the Theorem 1 bound");
    }
}
