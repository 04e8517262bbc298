//! Closed-form cost model, checked against measurements.
//!
//! The paper's complexity claims are exact enough to predict the
//! simulator's accounting in closed form: engine rounds from the
//! repetition schedule, the per-round Lemma 3 sequence profile, and a
//! worst-case single-message bit bound. The tests pin prediction to
//! measurement — any drift in the protocol implementation breaks them.

use crate::prune::lemma3_bound;
use crate::rank::total_rounds;
use ck_congest::message::{bits_for, WireParams};

/// Per-round Lemma 3 profile: entry `t − 2` bounds the number of
/// sequences a node may send at paper round `t` (`2 ≤ t ≤ ⌊k/2⌋`).
pub fn lemma3_profile(k: usize) -> Vec<u128> {
    (2..=k / 2).map(|t| lemma3_bound(k, t)).collect()
}

/// The worst single Phase-2 payload across the whole run, in sequences:
/// `max_t (k−t+1)^(t−1)` (1 for k ∈ {3, 4, 5} where only seeds or single
/// appends flow).
pub fn worst_sequences_per_message(k: usize) -> u128 {
    lemma3_profile(k).into_iter().max().unwrap_or(1)
}

/// Upper bound on a single tester message in bits under `params`:
/// discriminant + rank + edge tag + the worst sequence payload.
pub fn max_message_bits_bound(k: usize, params: &WireParams) -> u64 {
    let worst_seqs = worst_sequences_per_message(k).min(u128::from(u64::MAX)) as u64;
    let worst_len = (k / 2) as u64; // sequences never exceed ⌊k/2⌋ IDs
    1 + u64::from(params.rank_bits)
        + 2 * u64::from(params.id_bits)
        + u64::from(bits_for(worst_seqs.max(1)))
        + worst_seqs * worst_len * u64::from(params.id_bits)
}

/// Engine rounds of a full tester run — exact, not asymptotic: the
/// protocol always runs the complete schedule.
pub fn predicted_engine_rounds(k: usize, repetitions: u32) -> u32 {
    total_rounds(k, repetitions)
}

/// Phase-1 message count per repetition: one rank message per edge.
pub fn rank_messages_per_repetition(m: usize) -> u64 {
    m as u64
}

/// Seed-round message count per repetition: every node broadcasts its
/// seed on every port ⟹ `2m` messages (assuming every node has an
/// incident edge whose rank it knows, i.e. a reliable network).
pub fn seed_messages_per_repetition(m: usize) -> u64 {
    2 * m as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tester::TesterConfig;

    /// The tests' single-run entry: a fresh session per call.
    fn run_tester(
        g: &ck_congest::graph::Graph,
        cfg: &TesterConfig,
        engine: &EngineConfig,
    ) -> Result<crate::tester::TesterRun, ck_congest::engine::EngineError> {
        crate::session::TesterSession::from_config(*cfg, engine.clone()).unwrap().test(g)
    }

    use ck_congest::engine::EngineConfig;
    use ck_graphgen::basic::{cycle, spindle};
    use ck_graphgen::random::connected_gnm;

    #[test]
    fn profile_values() {
        assert_eq!(lemma3_profile(6), vec![5, 16]);
        assert_eq!(lemma3_profile(9), vec![8, 49, 216]);
        assert!(lemma3_profile(3).is_empty());
        assert_eq!(worst_sequences_per_message(9), 216);
        assert_eq!(worst_sequences_per_message(3), 1);
    }

    #[test]
    fn predicted_rounds_match_measured() {
        for k in [3usize, 4, 5, 8] {
            for reps in [1u32, 3] {
                let g = connected_gnm(24, 32, 5);
                let cfg = TesterConfig { repetitions: Some(reps), ..TesterConfig::new(k, 0.1, 7) };
                let run = run_tester(&g, &cfg, &EngineConfig::default()).unwrap();
                assert_eq!(run.outcome.report.rounds, predicted_engine_rounds(k, reps));
                assert_eq!(
                    predicted_engine_rounds(k, reps),
                    reps * crate::rank::rounds_per_repetition(k)
                );
            }
        }
    }

    #[test]
    fn measured_message_bits_respect_the_bound() {
        for (g, k) in [(spindle(16, 2), 6usize), (cycle(9), 9), (connected_gnm(30, 45, 2), 7)] {
            let params = ck_congest::message::WireParams::for_graph(&g);
            let bound = max_message_bits_bound(k, &params);
            let cfg = TesterConfig { repetitions: Some(2), ..TesterConfig::new(k, 0.1, 3) };
            let run = run_tester(&g, &cfg, &EngineConfig::default()).unwrap();
            let measured = run.outcome.report.max_message_bits();
            assert!(measured <= bound, "k={k}: measured {measured} bits exceeds bound {bound}");
        }
    }

    #[test]
    fn phase1_message_counts_match() {
        // Round 0 of each repetition ships exactly one rank per edge;
        // round 1 ships 2m seed messages.
        let g = connected_gnm(20, 30, 9);
        let cfg = TesterConfig { repetitions: Some(1), ..TesterConfig::new(5, 0.1, 1) };
        let run = run_tester(&g, &cfg, &EngineConfig::default()).unwrap();
        let per_round = &run.outcome.report.per_round;
        assert_eq!(per_round[0].messages, rank_messages_per_repetition(g.m()));
        assert_eq!(per_round[1].messages, seed_messages_per_repetition(g.m()));
    }
}
