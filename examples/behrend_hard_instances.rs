//! Behrend-style hard instances: cycles spread by arithmetic structure.
//!
//! The paper's motivation: the sampling techniques behind the C3/C4
//! testers provably fail for k ≥ 5 on Behrend-graph-derived instances,
//! whose many Ck copies give no local density signal. This example builds
//! layered instances with Behrend (3-AP-free) strides, shows that
//! Algorithm 1's per-edge check is deterministic-exact on them, and
//! contrasts it with a budget-1 random-forwarding heuristic (the natural
//! "sampling" generalization).
//!
//! ```text
//! cargo run --release --example behrend_hard_instances
//! ```

use ck_baselines::naive::{naive_detect_through_edge, DropPolicy};
use ck_congest::engine::EngineConfig;
use ck_congest::graph::Edge;
use ck_core::single::detect_ck_through_edge;
use ck_core::tester::test_ck_freeness;
use ck_graphgen::behrend::{behrend_ap_free_set, behrend_ck_instance};

fn main() {
    let s = behrend_ap_free_set(200);
    println!("Behrend 3-AP-free subset of [0,200): {} elements: {s:?}\n", s.len());

    for &(k, width) in &[(5usize, 48usize), (6, 40), (7, 36)] {
        let inst = behrend_ck_instance(k, width);
        let g = &inst.graph;
        println!(
            "k={k}, width={width}: n={}, m={}, planted edge-disjoint copies={} (packing/m = 1/{k})",
            g.n(),
            g.m(),
            inst.planted.len()
        );

        // Per-edge determinism: every closing edge of a planted copy is
        // caught by Algorithm 1, no randomness involved.
        let mut exact = 0;
        let probes = inst.planted.len().min(10);
        for copy in inst.planted.iter().take(probes) {
            let e = Edge::new(copy[k - 1], copy[0]);
            let run = detect_ck_through_edge(g, k, e, &EngineConfig::default()).unwrap();
            if run.reject {
                exact += 1;
            }
        }
        println!("  Algorithm 1 single-edge on {probes} planted edges: {exact}/{probes} rejected");
        assert_eq!(exact, probes, "Phase 2 is exact per edge (Lemma 2)");

        // Budget-1 random forwarding on the same edges.
        let mut sampled = 0;
        for (i, copy) in inst.planted.iter().take(probes).enumerate() {
            let e = Edge::new(copy[k - 1], copy[0]);
            if naive_detect_through_edge(
                g,
                k,
                e,
                DropPolicy::SampleRandom { cap: 1, seed: i as u64 },
                &EngineConfig::default(),
            )
            .unwrap()
            .reject
            {
                sampled += 1;
            }
        }
        println!("  budget-1 random forwarding on the same edges: {sampled}/{probes} rejected");

        // Full tester: the instance is ε-far for ε < 1/k, so detection
        // must clear 2/3.
        let eps = 0.04;
        let hits = (0..6u64).filter(|&seed| test_ck_freeness(g, k, eps, seed).reject).count();
        println!("  full tester (ε={eps}): {hits}/6 runs rejected\n");
        assert!(hits * 3 >= 12);
    }
}
