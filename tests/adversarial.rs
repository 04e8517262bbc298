//! Adversarial inputs: hostile ID assignments, rank-collision storms,
//! and boundary parameters. The paper's guarantees are worst-case over
//! IDs and 1-sided over randomness — these tests poke exactly there.

use ck_congest::engine::EngineConfig;
use ck_congest::graph::{Edge, Graph};
use ck_core::session::TesterSession;
use ck_core::single::detect_ck_through_edge;
use ck_core::tester::TesterConfig;

/// One-shot tester run through a fresh session (the session-API form of
/// the old `run_tester` free function).
fn run_once(
    g: &ck_congest::graph::Graph,
    cfg: &TesterConfig,
    engine: &EngineConfig,
) -> Result<ck_core::tester::TesterRun, ck_congest::engine::EngineError> {
    TesterSession::from_config(*cfg, engine.clone()).unwrap().test(g)
}

use ck_graphgen::basic::{cycle, fan, theta};
use ck_graphgen::farness::{contains_ck, has_ck_through_edge, is_valid_ck};
use ck_graphgen::planted::matched_free_instance;

/// Hostile ID layouts: descending, huge and clustered, and
/// maximally-spread identities. Exactness (Lemma 2) must be label-blind.
#[test]
fn single_edge_exactness_under_hostile_ids() {
    let base = theta(3, 2);
    let n = base.n();
    let layouts: Vec<Vec<u64>> = vec![
        (0..n as u64).rev().collect(),                        // descending
        (0..n as u64).map(|i| u64::MAX - 1000 + i).collect(), // huge
        (0..n as u64).map(|i| i * 1_000_003).collect(),       // spread
        (0..n as u64).map(|i| if i % 2 == 0 { i } else { 1_000_000 + i }).collect(), // zigzag
    ];
    for ids in layouts {
        let g = base.with_ids(ids).unwrap();
        for k in 3..=8usize {
            for &e in g.edges() {
                let expected = has_ck_through_edge(&g, k, e);
                let got =
                    detect_ck_through_edge(&g, k, e, &EngineConfig::default()).unwrap().reject;
                assert_eq!(got, expected, "k={k} e={e:?} ids={:?}", g.ids());
            }
        }
    }
}

/// Rank-collision storm: on tiny graphs (m small) rank collisions are
/// frequent; the deterministic (rank, endpoints) tie-break must still
/// yield a unique arbitration winner and detection must never break on a
/// lone cycle, whatever the seed.
#[test]
fn tie_breaking_never_breaks_detection() {
    for k in 3..=8usize {
        let g = cycle(k);
        for seed in 0..50u64 {
            let cfg = TesterConfig { repetitions: Some(1), ..TesterConfig::new(k, 0.3, seed) };
            let run = run_once(&g, &cfg, &EngineConfig::default()).unwrap();
            assert!(run.reject, "C{k}, seed {seed}");
        }
    }
}

/// 1-sidedness under hostile IDs: no labeling may produce a false
/// reject.
#[test]
fn no_false_rejects_under_hostile_ids() {
    let base = matched_free_instance(36, 5);
    let n = base.n();
    let layouts: Vec<Vec<u64>> =
        vec![(0..n as u64).rev().collect(), (0..n as u64).map(|i| (i * 7919) % 100_000).collect()];
    for ids in layouts {
        let g: Graph = base.with_ids(ids).unwrap();
        for seed in 0..5u64 {
            let cfg = TesterConfig { repetitions: Some(2), ..TesterConfig::new(5, 0.1, seed) };
            assert!(!run_once(&g, &cfg, &EngineConfig::default()).unwrap().reject);
        }
    }
}

/// Boundary parameters: the smallest k (3), the largest supported k on a
/// long cycle, and k exceeding the node count.
#[test]
fn boundary_parameters() {
    // k = 3 on a triangle with extreme IDs.
    let tri = cycle(3).with_ids(vec![0, u64::MAX / 2, u64::MAX - 1]).unwrap();
    let run = detect_ck_through_edge(&tri, 3, Edge::new(0, 1), &EngineConfig::default()).unwrap();
    assert!(run.reject);

    // Large k (k = 15 needs sequences of length 7 — well within MAX_SEQ_LEN).
    let long = cycle(15);
    let run =
        detect_ck_through_edge(&long, 15, Edge::new(0, 14), &EngineConfig::default()).unwrap();
    assert!(run.reject);
    assert!(!contains_ck(&long, 14));

    // k > n: trivially free.
    let small = cycle(4);
    for seed in 0..3u64 {
        let cfg = TesterConfig { repetitions: Some(2), ..TesterConfig::new(9, 0.2, seed) };
        assert!(!run_once(&small, &cfg, &EngineConfig::default()).unwrap().reject);
    }
}

/// Witnesses stay sound under hostile IDs (the reject path reconstructs
/// real cycles whatever the labels look like).
#[test]
fn witnesses_sound_under_hostile_ids() {
    let base = fan(4);
    let n = base.n();
    let g = base.with_ids((0..n as u64).map(|i| (n as u64 - i) * 17).collect()).unwrap();
    for k in [3usize, 5] {
        for &e in g.edges() {
            let run = detect_ck_through_edge(&g, k, e, &EngineConfig::default()).unwrap();
            for v in &run.outcome.verdicts {
                for w in &v.all_witnesses {
                    let idx: Vec<_> = w
                        .cycle_ids()
                        .iter()
                        .map(|&id| g.index_of(id).expect("ids exist"))
                        .collect();
                    assert!(is_valid_ck(&g, k, &idx));
                }
            }
        }
    }
}

/// The minimum supported cycle length is 3 and the cap is MAX_K; both
/// ends of the constructor contract hold.
#[test]
fn k_range_contract() {
    use ck_core::seq::MAX_K;
    let g = cycle(5);
    let e = Edge::new(0, 1);
    let bad_low = std::panic::catch_unwind(|| {
        let _ = detect_ck_through_edge(&g, 2, e, &EngineConfig::default());
    });
    assert!(bad_low.is_err(), "k = 2 must be rejected");
    let bad_high = std::panic::catch_unwind(|| {
        let _ = detect_ck_through_edge(&g, MAX_K + 1, e, &EngineConfig::default());
    });
    assert!(bad_high.is_err(), "k beyond MAX_K must be rejected");
}
