//! Derived applications of the tester: multi-`k` sweeps and distributed
//! girth estimation.
//!
//! Theorem 1 gives a tester per fixed `k`; running the single-edge
//! detector for `k = 3, 4, …` from every edge (or the randomized tester
//! with enough repetitions) yields a *distributed girth probe*: the
//! smallest `k` whose detector rejects. Because the single-edge detector
//! is exact (Lemma 2), sweeping it over all edges computes the girth
//! exactly in `O(g·m)` sequential simulations — the distributed analog
//! of the classical BFS girth algorithm, and a natural "extension"
//! experiment for the paper's machinery.

use crate::session::TesterSession;
use crate::single::detect_ck_through_edge;
use crate::tester::TesterConfig;
use ck_congest::engine::EngineConfig;
use ck_congest::graph::Graph;

/// Result of a multi-`k` freeness sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FreenessProfile {
    /// Smallest `k` probed.
    pub k_min: usize,
    /// Per-`k` verdicts (`true` = a `Ck` was detected), indexed from
    /// `k_min`.
    pub detected: Vec<bool>,
}

impl FreenessProfile {
    /// Smallest detected cycle length, if any: with the exact sweep this
    /// *is* the girth (when ≤ the probed maximum).
    pub fn shortest_detected(&self) -> Option<usize> {
        self.detected.iter().position(|&d| d).map(|i| self.k_min + i)
    }
}

/// Exact sweep: runs the Lemma-2 single-edge detector for every
/// `k ∈ [3, k_max]` over every edge. Deterministic; `detected[k]` is
/// exactly "`g` contains a `Ck`".
pub fn exact_freeness_profile(g: &Graph, k_max: usize) -> FreenessProfile {
    assert!(k_max >= 3);
    let cfg = EngineConfig::default();
    let detected = (3..=k_max)
        .map(|k| {
            g.edges().iter().any(|&e| {
                detect_ck_through_edge(g, k, e, &cfg)
                    // ck-lint: allow(no-panic, reason = "default engine config has no faults, net, or bandwidth cap — the only EngineError sources")
                    .expect("engine run")
                    .reject
            })
        })
        .collect();
    FreenessProfile { k_min: 3, detected }
}

/// Exact distributed girth (up to `k_max`): smallest cycle length
/// detected by the sweep, `None` if the graph has girth > `k_max` (or is
/// a forest).
pub fn girth_via_detectors(g: &Graph, k_max: usize) -> Option<usize> {
    exact_freeness_profile(g, k_max).shortest_detected()
}

/// Randomized sweep using the full tester (constant rounds per `k`,
/// detection probabilistic): the profile a real CONGEST deployment would
/// obtain in `O(k_max/ε)` rounds total.
pub fn sampled_freeness_profile(g: &Graph, k_max: usize, eps: f64, seed: u64) -> FreenessProfile {
    assert!(k_max >= 3);
    let detected = (3..=k_max)
        .map(|k| {
            let cfg = TesterConfig::new(k, eps, seed.wrapping_add(k as u64));
            TesterSession::from_config(cfg, EngineConfig::default())
                // ck-lint: allow(no-panic, reason = "k >= 3 is asserted above and eps comes from the caller contract; config rejection is a harness bug")
                .unwrap_or_else(|e| panic!("{e}"))
                .test(g)
                // ck-lint: allow(no-panic, reason = "default engine config has no faults, net, or bandwidth cap — the only EngineError sources")
                .expect("engine run")
                .reject
        })
        .collect();
    FreenessProfile { k_min: 3, detected }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ck_graphgen::basic::{complete_bipartite, cycle_cactus, grid, heawood, petersen};
    use ck_graphgen::random::random_tree;

    #[test]
    fn girth_matches_bfs_oracle() {
        let cases: Vec<Graph> =
            vec![petersen(), heawood(), grid(3, 4), cycle_cactus(3, 5), complete_bipartite(3, 3)];
        for g in &cases {
            let expected = g.girth().map(|x| x as usize);
            let got = girth_via_detectors(g, 8);
            assert_eq!(got, expected, "girth mismatch");
        }
    }

    #[test]
    fn forest_has_no_detected_cycles() {
        let t = random_tree(24, 5);
        let profile = exact_freeness_profile(&t, 7);
        assert!(profile.detected.iter().all(|&d| !d));
        assert_eq!(profile.shortest_detected(), None);
        assert_eq!(girth_via_detectors(&t, 7), None);
    }

    #[test]
    fn profile_matches_membership_per_k() {
        use ck_graphgen::farness::contains_ck;
        let g = petersen();
        let profile = exact_freeness_profile(&g, 9);
        for (i, &d) in profile.detected.iter().enumerate() {
            let k = 3 + i;
            assert_eq!(d, contains_ck(&g, k), "k={k}");
        }
    }

    #[test]
    fn sampled_profile_is_sound() {
        // Whatever the sampled profile claims detected must be real.
        use ck_graphgen::farness::contains_ck;
        let g = cycle_cactus(4, 4);
        let profile = sampled_freeness_profile(&g, 7, 0.1, 3);
        for (i, &d) in profile.detected.iter().enumerate() {
            if d {
                assert!(contains_ck(&g, 3 + i));
            }
        }
        // The cactus brims with C4s: the k=4 tester should catch one.
        assert!(profile.detected[1], "C4 missed on a C4 cactus");
    }
}
