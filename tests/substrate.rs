//! Substrate cross-validation: topology analysis, classic protocols,
//! fault injection, and the detectors all telling one consistent story.

use ck_baselines::forest::test_cycle_freeness;
use ck_congest::engine::EngineConfig;
use ck_congest::graph::{Edge, Graph};
use ck_congest::protocols::{build_bfs_tree, elect_min_id};
use ck_congest::topology::{bipartition, bridges, core_numbers, is_bipartite, triangle_count};
use ck_core::girth::girth_via_detectors;
use ck_core::single::detect_ck_through_edge;
use ck_graphgen::basic::{cycle_cactus, grid, lollipop, petersen, theta};
use ck_graphgen::families::{circulant, mobius_kantor, pappus, random_bipartite};
use ck_graphgen::farness::{contains_ck, count_ck};
use ck_graphgen::io::{parse_dimacs, to_dimacs};
use ck_graphgen::random::{connected_gnm, gnp, randomize_ids};

/// A bridge lies on no cycle: the single-edge detector must accept every
/// bridge for every k, and must reject some k on at least one non-bridge
/// edge of a cyclic graph.
#[test]
fn bridges_are_invisible_to_cycle_detectors() {
    let graphs: Vec<Graph> = vec![lollipop(5, 4), cycle_cactus(3, 5), theta(3, 2)];
    for g in &graphs {
        let bridge_set: std::collections::HashSet<Edge> = bridges(g).into_iter().collect();
        for &e in g.edges() {
            if !bridge_set.contains(&e) {
                continue;
            }
            for k in 3..=8usize {
                let run = detect_ck_through_edge(g, k, e, &EngineConfig::default()).unwrap();
                assert!(!run.reject, "bridge {e:?} cannot lie on a C{k}");
            }
        }
    }
}

/// Bipartite graphs: the odd-k testers must accept; the distributed
/// forest test agrees with `m ≥ n` on connectivity components.
#[test]
fn bipartite_families_reject_no_odd_k() {
    let graphs: Vec<Graph> =
        vec![mobius_kantor(), pappus(), random_bipartite(7, 9, 0.35, 2), grid(4, 4)];
    for g in &graphs {
        assert!(is_bipartite(g));
        let coloring = bipartition(g).unwrap();
        for e in g.edges() {
            assert_ne!(coloring[e.a as usize], coloring[e.b as usize]);
        }
        for k in [3usize, 5, 7] {
            for &e in g.edges().iter().take(6) {
                let run = detect_ck_through_edge(g, k, e, &EngineConfig::default()).unwrap();
                assert!(!run.reject, "odd C{k} in a bipartite graph?");
            }
        }
    }
}

/// The girth probe built from detectors agrees with the BFS girth on
/// every structured family.
#[test]
fn detector_girth_matches_structural_girth() {
    let graphs: Vec<Graph> =
        vec![mobius_kantor(), pappus(), circulant(11, &[1, 2]), petersen(), gnp(18, 0.2, 4)];
    for g in &graphs {
        let expected = g.girth().filter(|&x| x <= 8).map(|x| x as usize);
        assert_eq!(girth_via_detectors(g, 8), expected);
    }
}

/// Triangle counts: topology census vs the exact Ck oracle at k = 3.
#[test]
fn triangle_census_is_consistent() {
    let graphs: Vec<Graph> = vec![circulant(12, &[1, 2]), gnp(24, 0.25, 9), lollipop(6, 2)];
    for g in &graphs {
        assert_eq!(triangle_count(g), count_ck(g, 3));
        assert_eq!(triangle_count(g) > 0, contains_ck(g, 3));
    }
}

/// The distributed forest test agrees with the structural cycle oracle,
/// and the elected leader really is the minimum ID.
#[test]
fn classic_protocols_agree_with_structure() {
    for seed in 0..5u64 {
        let tree = connected_gnm(20, 19, seed);
        let tree = randomize_ids(&tree, seed + 50);
        let (cyclic, _) = test_cycle_freeness(&tree, &EngineConfig::default()).unwrap();
        assert!(!cyclic);
        let (leader, _) = elect_min_id(&tree, &EngineConfig::default()).unwrap();
        assert_eq!(leader, tree.ids().iter().min().copied());

        let dense = connected_gnm(20, 30, seed);
        let (cyclic, _) = test_cycle_freeness(&dense, &EngineConfig::default()).unwrap();
        assert!(cyclic);
        // BFS tree distances match the sequential BFS.
        let verdicts = build_bfs_tree(&dense, 0, &EngineConfig::default()).unwrap();
        let dist = dense.bfs_distances(0);
        for (v, bv) in verdicts.iter().enumerate() {
            assert_eq!(bv.dist, dist[v]);
        }
    }
}

/// Core numbers lower-bound cycle membership: a node of core < 2 is on
/// no cycle at all, so no witness may ever contain it.
#[test]
fn low_core_nodes_never_appear_in_witnesses() {
    let g = lollipop(6, 5); // clique core 5, tail core 1
    let core = core_numbers(&g);
    for k in 3..=6usize {
        for &e in g.edges() {
            let run = detect_ck_through_edge(&g, k, e, &EngineConfig::default()).unwrap();
            for v in &run.outcome.verdicts {
                for w in &v.all_witnesses {
                    for id in w.cycle_ids() {
                        let idx = g.index_of(id).unwrap();
                        assert!(core[idx as usize] >= 2, "acyclic node {idx} in a witness");
                    }
                }
            }
        }
    }
}

/// DIMACS round trips preserve detector behavior.
#[test]
fn dimacs_round_trip_preserves_verdicts() {
    let g = petersen();
    let h = parse_dimacs(&to_dimacs(&g)).unwrap();
    for k in [5usize, 6] {
        for (i, &e) in g.edges().iter().enumerate() {
            let a = detect_ck_through_edge(&g, k, e, &EngineConfig::default()).unwrap();
            let eh = h.edges()[i];
            let b = detect_ck_through_edge(&h, k, eh, &EngineConfig::default()).unwrap();
            assert_eq!(a.reject, b.reject);
        }
    }
}
