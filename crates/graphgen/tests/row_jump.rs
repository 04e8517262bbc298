//! The row-jump check on the generated families: `Graph::row_jump` is
//! the share of consecutive node pairs whose smallest neighbours lie
//! more than 64 indices apart, and above one half the in-process round
//! engine steps and stores the nodes in BFS order. Random trees with
//! planted cycles and random graphs read far above that line; cycles,
//! cycle chains and cacti, the Behrend-layered instance and the
//! n = 240 ε-far chains of the small benchmark workloads read 0.00 (a
//! long cycle's wrap-around pair is its one jump), so they keep index
//! order and never build the BFS tables.

use ck_congest::graph::Graph;
use ck_graphgen::basic::{cycle, cycle_cactus};
use ck_graphgen::behrend::layered_ck;
use ck_graphgen::planted::{eps_far_instance, matched_free_instance, plant_on_host};
use ck_graphgen::random::{connected_gnm, gnp, random_tree};

fn reads(what: &str, g: &Graph, lo: f64, hi: f64) {
    let r = g.row_jump();
    println!("{what}: n = {}, row_jump = {r:.3}", g.n());
    assert!((lo..=hi).contains(&r), "{what}: row_jump {r} outside [{lo}, {hi}]");
}

#[test]
fn planted_random_trees_and_random_graphs_scatter() {
    for (n, seed) in [(2_000usize, 0u64), (2_000, 17), (8_000, 7), (20_000, 1), (20_000, 7)] {
        let g = plant_on_host(&random_tree(n, seed), 5, n / 40, seed).graph;
        reads(&format!("planted tree {n}/{seed}"), &g, 0.9, 1.0);
    }
    for (n, seed) in [(2_000usize, 3u64), (20_000, 4)] {
        reads(&format!("gnp {n}/{seed}"), &gnp(n, 4.0 / n as f64, seed), 0.8, 1.0);
        reads(&format!("connected_gnm {n}/{seed}"), &connected_gnm(n, 2 * n, seed), 0.8, 1.0);
    }
}

/// Reads 0.00 to two places.
const STREAMS: f64 = 0.005;

#[test]
fn structured_families_stream_in_index_order() {
    const STRIDES: [u64; 4] = [4, 10, 12, 28];
    for k in [3usize, 5, 8] {
        reads(&format!("C{k}"), &cycle(k), 0.0, STREAMS);
        reads(&format!("C{k} x 1000"), &cycle(1_000 * k), 0.0, STREAMS);
        reads(&format!("cactus of C{k}"), &cycle_cactus(200, k), 0.0, STREAMS);
        reads(&format!("free {k}"), &matched_free_instance(20_000, k), 0.0, STREAMS);
    }
    reads("behrend", &layered_ck(5, 4_000, &STRIDES).graph, 0.0, STREAMS);
    for seed in 0..8 {
        for (k, eps) in [(5usize, 0.1), (5, 0.15), (4, 0.1)] {
            reads(
                &format!("eps-far 240 k={k}"),
                &eps_far_instance(240, k, eps, seed).graph,
                0.0,
                STREAMS,
            );
        }
    }
}
