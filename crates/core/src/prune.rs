//! The sequence-pruning rule of Algorithm 1 (Instructions 13–24).
//!
//! At round `t` a node has received a set `R` of ordered sequences of
//! `t−1` IDs. It must forward *few* of them (Lemma 3: at most
//! `(k−t+1)^(t−1)` survive) while keeping *enough*: whenever a received
//! sequence lies on a completable `Ck`, some forwarded sequence lies on a
//! `Ck` completable by the same remainder (Lemma 2's invariant). The rule:
//!
//! ```text
//! I ← all IDs in R, plus k−t fake IDs          (fakes occur in no sequence)
//! X ← all (k−t)-subsets of I
//! for L ∈ R:  C ← {X ∈ X : X ∩ L = ∅}
//!             if C ≠ ∅ then accept L; X ← X ∖ C
//! ```
//!
//! This is a distributed implementation of the Erdős–Hajnal–Moon
//! representative-family lemma. Two implementations with identical
//! output:
//!
//! * [`prune_literal`] — enumerates `X` exactly as written. Exponential in
//!   `|I|`, so no protocol runs it: it is the oracle the tests and the
//!   `pruning` bench check the other against.
//! * [`prune_representative`] — the one every protocol runs. It decides
//!   each acceptance by bounded-depth branching, using the invariant
//!   *"X survives ⟺ X intersects every accepted sequence"*: `L` is
//!   accepted iff some `T ⊆ I∖L` with `|T| ≤ k−t` hits every previously
//!   accepted sequence (fake IDs pad the remaining slots — they occur in
//!   no sequence, so they can neither hit nor be blocked). Depth ≤ `k−t`,
//!   fan-out ≤ `t−1`: polynomial for constant `k`, and *provably
//!   identical output* to the literal rule for the same iteration order
//!   (property-tested below).
//!
//! Both take the received set as a [`SeqRows`] of width `t−1` and
//! return indices of accepted rows; [`build_send_set_into`] writes the
//! send set as width-`t` rows.

use crate::seq::{SeqRows, SortScratch};
use ck_congest::graph::NodeId;

/// Upper bound of Lemma 3 on the number of sequences accepted at round
/// `t`: `(k−t+1)^(t−1)`.
pub fn lemma3_bound(k: usize, t: usize) -> u128 {
    assert!(t >= 1 && t <= k);
    (k as u128 - t as u128 + 1).pow(t as u32 - 1)
}

/// Cap on `|X|` for the literal oracle; beyond this the caller should use
/// the representative pruner (identical results).
const LITERAL_ENUM_CAP: u128 = 1 << 22;

fn binomial(n: u128, k: u128) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul(n - i) / (i + 1);
    }
    acc
}

/// Literal Instructions 13–24: returns the indices of accepted sequences,
/// scanning `seqs` in the given order. The test oracle for
/// [`prune_representative`]; no protocol runs it.
///
/// `t` is the Phase-2 round (`2 ≤ t ≤ ⌊k/2⌋`); a nonempty set must have
/// width `t−1`, and no row may contain the executing node's ID (the
/// caller applies Instruction 12 first).
///
/// # Panics
/// Panics when the subset enumeration would exceed an internal cap — use
/// [`prune_representative`] for such inputs.
pub fn prune_literal(seqs: &SeqRows, k: usize, t: usize) -> Vec<usize> {
    validate(seqs, k, t);
    let budget = k - t; // |X| for X ∈ 𝒳, and the number of fake IDs.

    // Ground set: distinct real IDs (sorted for determinism), then fakes.
    let mut real: Vec<NodeId> = seqs.ids().to_vec();
    real.sort_unstable();
    real.dedup();
    let ground = real.len() + budget; // fakes occupy indices real.len()..

    let combos = binomial(ground as u128, budget as u128);
    assert!(
        combos <= LITERAL_ENUM_CAP,
        "literal pruner would enumerate {combos} subsets; use the representative pruner"
    );

    // Enumerate all (k−t)-subsets of the ground set as sorted index vectors.
    let mut all_x: Vec<Vec<usize>> = Vec::with_capacity(combos as usize);
    let mut combo: Vec<usize> = (0..budget).collect();
    if budget == 0 {
        all_x.push(Vec::new());
    } else if budget <= ground {
        loop {
            all_x.push(combo.clone());
            // Next combination in lexicographic order.
            let mut i = budget;
            loop {
                if i == 0 {
                    break;
                }
                i -= 1;
                if combo[i] != i + ground - budget {
                    combo[i] += 1;
                    for j in i + 1..budget {
                        combo[j] = combo[j - 1] + 1;
                    }
                    break;
                }
                if i == 0 {
                    combo.clear();
                    break;
                }
            }
            if combo.is_empty() {
                break;
            }
        }
    }

    // Per-sequence membership over ground indices (fakes never belong).
    let seq_index_sets: Vec<Vec<usize>> = seqs
        .rows()
        // ck-lint: allow(no-panic, reason = "real was built from exactly these sequences' ids and sorted just above")
        .map(|s| s.iter().map(|id| real.binary_search(id).expect("id collected above")).collect())
        .collect();

    let mut alive = vec![true; all_x.len()];
    let mut accepted = Vec::new();
    for (i, members) in seq_index_sets.iter().enumerate() {
        let disjoint = |x: &[usize]| x.iter().all(|gi| !members.contains(gi));
        let c: Vec<usize> =
            (0..all_x.len()).filter(|&xi| alive[xi] && disjoint(&all_x[xi])).collect();
        if !c.is_empty() {
            accepted.push(i);
            for xi in c {
                alive[xi] = false;
            }
        }
    }
    debug_assert!(accepted.len() as u128 <= lemma3_bound(k, t), "Lemma 3 violated");
    accepted
}

/// Representative-family implementation: identical accept/reject decisions
/// to [`prune_literal`] for the same scan order, without enumerating `X`.
pub fn prune_representative(seqs: &SeqRows, k: usize, t: usize) -> Vec<usize> {
    let mut accepted = Vec::new();
    let mut transversal = Vec::new();
    prune_representative_into(seqs, k, t, &mut accepted, &mut transversal);
    accepted
}

/// As [`prune_representative`], writing the accepted indices into a
/// caller-provided buffer (cleared first) — the hot-path form the
/// tester's per-round loop uses so steady state allocates nothing.
/// `transversal` is branching scratch, also caller-recycled.
fn prune_representative_into(
    seqs: &SeqRows,
    k: usize,
    t: usize,
    accepted: &mut Vec<usize>,
    transversal: &mut Vec<NodeId>,
) {
    validate(seqs, k, t);
    let budget = k - t;
    accepted.clear();
    for (i, l) in seqs.rows().enumerate() {
        transversal.clear();
        if admits_transversal(seqs, accepted, l, budget, transversal) {
            accepted.push(i);
        }
    }
    debug_assert!(accepted.len() as u128 <= lemma3_bound(k, t), "Lemma 3 violated");
}

/// Decides whether some `T ⊆ (IDs ∖ L)` with `|T| ≤ budget` intersects
/// every accepted sequence (`accepted` holds indices into `seqs`) —
/// equivalently, whether a surviving witness set `X` (T padded with fake
/// IDs) disjoint from `L` remains.
///
/// Branches on the first accepted sequence not yet hit: every valid `T`
/// must contain one of its eligible elements, so trying each is complete.
fn admits_transversal(
    seqs: &SeqRows,
    accepted: &[usize],
    l: &[NodeId],
    budget: usize,
    transversal: &mut Vec<NodeId>,
) -> bool {
    let unhit =
        accepted.iter().map(|&i| seqs.row(i)).find(|a| !transversal.iter().any(|x| a.contains(x)));
    let Some(a) = unhit else {
        return true; // everything hit; pad with fakes
    };
    if budget == 0 {
        return false;
    }
    for &id in a {
        if l.contains(&id) {
            continue; // T must avoid L
        }
        transversal.push(id);
        if admits_transversal(seqs, accepted, l, budget - 1, transversal) {
            return true;
        }
        transversal.pop();
    }
    false
}

/// Checks the round and, once for the whole set, its width.
fn validate(seqs: &SeqRows, k: usize, t: usize) {
    assert!(k >= 3, "k must be at least 3");
    assert!(t >= 2 && t <= k / 2, "round t={t} outside 2..=⌊k/2⌋ for k={k}");
    assert!(
        seqs.is_empty() || seqs.width() == t - 1,
        "round-{t} sequences must have {} IDs, not {}",
        t - 1,
        seqs.width()
    );
}

/// Reusable buffers for allocation-free repeated send-set construction
/// (every field keeps its capacity across rounds). Each call clears what
/// it uses, so nodes that step one after another on one thread can share
/// one.
#[derive(Debug, Default)]
pub struct SendSetScratch {
    /// Canonicalized received collection (filtered, sorted, deduped).
    filtered: SeqRows,
    /// Accepted indices into `filtered`.
    accepted: Vec<usize>,
    /// Branching scratch of the representative pruner.
    transversal: Vec<NodeId>,
    /// Scratch of [`SeqRows::sort_dedup`].
    sort: SortScratch,
}

impl SendSetScratch {
    /// The sort scratch, for callers canonicalizing their own received
    /// set before [`build_send_set_into`].
    pub fn sort_scratch(&mut self) -> &mut SortScratch {
        &mut self.sort
    }
}

/// Full per-round send-set construction (Instructions 11–24) into a
/// caller-provided set: canonicalize the received collection (set
/// semantics: sort + dedup), drop sequences containing `myid`
/// (Instruction 12), prune, and append `myid` (Instruction 24). `out`
/// (reset to width `t` first) receives the sequences to broadcast at
/// round `t`; the whole call is allocation-free once the scratch buffers
/// have warmed up.
pub fn build_send_set_into(
    received: &SeqRows,
    myid: NodeId,
    k: usize,
    t: usize,
    scratch: &mut SendSetScratch,
    out: &mut SeqRows,
) {
    out.reset(t);
    scratch.filtered.reset(received.width());
    for row in received.rows().filter(|s| !s.contains(&myid)) {
        scratch.filtered.push(row);
    }
    if scratch.filtered.is_empty() {
        return;
    }
    scratch.filtered.sort_dedup(&mut scratch.sort);
    prune_representative_into(
        &scratch.filtered,
        k,
        t,
        &mut scratch.accepted,
        &mut scratch.transversal,
    );
    for &i in &scratch.accepted {
        out.push_appended(scratch.filtered.row(i), myid);
    }
}

/// As [`build_send_set_into`], allocating fresh buffers — the
/// convenience form for one-shot callers and tests.
pub fn build_send_set(received: &SeqRows, myid: NodeId, k: usize, t: usize) -> SeqRows {
    let mut scratch = SendSetScratch::default();
    let mut out = SeqRows::default();
    build_send_set_into(received, myid, k, t, &mut scratch, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seqs(raw: &[&[u64]]) -> SeqRows {
        SeqRows::from_rows(raw.first().map_or(0, |r| r.len()), raw)
    }

    #[test]
    fn lemma3_bound_values() {
        assert_eq!(lemma3_bound(9, 2), 8); // (9-2+1)^1
        assert_eq!(lemma3_bound(9, 3), 49); // 7^2
        assert_eq!(lemma3_bound(9, 4), 216); // 6^3
        assert_eq!(lemma3_bound(4, 2), 3);
        assert_eq!(lemma3_bound(5, 2), 4);
    }

    #[test]
    fn first_sequence_is_always_accepted() {
        // The all-fakes set is always disjoint from the first L — this is
        // exactly the paper's §3.3 point about fake IDs.
        for (k, t) in [(5, 2), (6, 3), (9, 3), (9, 4), (12, 5)] {
            let input = seqs(&[&(0..t as u64 - 1).collect::<Vec<_>>()]);
            assert_eq!(prune_literal(&input, k, t), vec![0], "k={k} t={t}");
            assert_eq!(prune_representative(&input, k, t), vec![0]);
        }
    }

    #[test]
    fn paper_c9_worked_example() {
        // §3.3: C9 with IDs 1..9, detection from edge {1,9}. When node 3
        // receives (1,2) at t=3, I = {1,2} ∪ fakes {−1..−6}; without fakes
        // X would be empty and (1,2) would be dropped; with them it is
        // kept, so (1,2,3) is forwarded.
        let input = seqs(&[&[1, 2]]);
        assert_eq!(prune_literal(&input, 9, 3), vec![0]);
        assert_eq!(prune_representative(&input, 9, 3), vec![0]);
        let sent = build_send_set(&input, 3, 9, 3);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent.row(0), &[1, 2, 3]);
    }

    #[test]
    fn same_set_different_order_collapses() {
        // Two orderings of the same ID set: the first accepted removes all
        // sets disjoint from it, so the second is rejected (Lemma 3's P0).
        let input = seqs(&[&[1, 2], &[2, 1]]);
        assert_eq!(prune_literal(&input, 9, 3), vec![0]);
        assert_eq!(prune_representative(&input, 9, 3), vec![0]);
    }

    #[test]
    fn figure1_both_hub_seeds_survive() {
        // Figure 1's pitfall: x and y each received IDs u=100, v=200; if
        // either forwarded only the u-sequence, z would miss the C5. At
        // t=2, k=5 the pruner must keep both (100) and (200).
        let input = seqs(&[&[100], &[200]]);
        assert_eq!(prune_literal(&input, 5, 2), vec![0, 1]);
        assert_eq!(prune_representative(&input, 5, 2), vec![0, 1]);
    }

    #[test]
    fn k4_t2_keeps_at_most_three() {
        // Lemma 3: at round 2 with k=4 at most (4−2+1)^1 = 3 survive.
        let input = seqs(&[&[1], &[2], &[3], &[4], &[5]]);
        let lit = prune_literal(&input, 4, 2);
        assert_eq!(lit.len(), 3);
        assert_eq!(lit, prune_representative(&input, 4, 2));
    }

    #[test]
    fn saturation_respects_lemma3_bound() {
        // Round t=3, k=6 (budget 3): flood with pairwise-disjoint pairs;
        // bound is (6-3+1)^2 = 16 but with 10 disjoint pairs the
        // acceptance pattern must stop once every surviving X intersects
        // all accepted sequences.
        let mut input = SeqRows::new(2);
        for i in 0..10u64 {
            input.push(&[2 * i, 2 * i + 1]);
        }
        let lit = prune_literal(&input, 6, 3);
        let rep = prune_representative(&input, 6, 3);
        assert_eq!(lit, rep);
        assert!(lit.len() as u128 <= lemma3_bound(6, 3));
        assert!(lit.len() >= 4, "must keep enough witnesses, kept {}", lit.len());
    }

    #[test]
    fn build_send_set_drops_own_id_and_dedupes() {
        let input = seqs(&[&[1, 2], &[1, 2], &[3, 7], &[4, 5]]);
        // myid = 7: the sequence containing 7 is removed (Instruction 12).
        let sent = build_send_set(&input, 7, 9, 3);
        assert_eq!(sent.width(), 3);
        assert!(sent.rows().all(|s| s.last() == Some(&7)));
        assert!(sent.rows().all(|s| s != [3, 7, 7]));
        // (1,2) survives once (dedup), (4,5) survives.
        let bodies: Vec<&[u64]> = sent.rows().collect();
        assert!(bodies.contains(&[1, 2, 7].as_slice()));
        assert!(bodies.contains(&[4, 5, 7].as_slice()));
        assert_eq!(sent.len(), 2);
    }

    #[test]
    fn empty_input_sends_nothing() {
        assert!(build_send_set(&SeqRows::default(), 1, 8, 3).is_empty());
    }

    #[test]
    fn validation_rejects_bad_rounds() {
        let input = seqs(&[&[1]]);
        assert!(std::panic::catch_unwind(|| prune_representative(&input, 3, 2)).is_err());
        assert!(std::panic::catch_unwind(|| prune_representative(&input, 8, 1)).is_err());
        // Wrong sequence length for the round.
        assert!(std::panic::catch_unwind(|| prune_representative(&input, 8, 3)).is_err());
    }

    /// Reference invariant of Lemma 2: for every (k−t)-set C over the IDs
    /// seen (plus arbitrary outside IDs — outside IDs only make
    /// disjointness easier, so testing over seen IDs suffices), if some
    /// input sequence is disjoint from C then some *accepted* sequence is
    /// disjoint from C.
    fn preserves_witnesses(input: &SeqRows, accepted: &[usize], k: usize, t: usize) -> bool {
        let mut ids: Vec<u64> = input.ids().to_vec();
        ids.sort_unstable();
        ids.dedup();
        let budget = k - t;
        // Enumerate all C ⊆ ids with |C| ≤ budget (including smaller C:
        // models cycles whose remainder reuses outside IDs).
        fn rec(
            ids: &[u64],
            start: usize,
            c: &mut Vec<u64>,
            budget: usize,
            input: &SeqRows,
            accepted: &[usize],
        ) -> bool {
            let c_ok = {
                let disj = |s: &[u64]| c.iter().all(|x| !s.contains(x));
                !input.rows().any(disj) || accepted.iter().any(|&i| disj(input.row(i)))
            };
            if !c_ok {
                return false;
            }
            if c.len() == budget {
                return true;
            }
            for i in start..ids.len() {
                c.push(ids[i]);
                if !rec(ids, i + 1, c, budget, input, accepted) {
                    return false;
                }
                c.pop();
            }
            true
        }
        rec(&ids, 0, &mut Vec::new(), budget, input, accepted)
    }

    #[test]
    fn witness_preservation_small_cases() {
        let cases: Vec<(SeqRows, usize, usize)> = vec![
            (seqs(&[&[1], &[2], &[3], &[4]]), 5, 2),
            (seqs(&[&[1, 2], &[2, 3], &[3, 4], &[4, 5], &[5, 6]]), 7, 3),
            (seqs(&[&[1, 2], &[3, 4], &[5, 6], &[7, 8]]), 6, 3),
            (seqs(&[&[1, 2, 3], &[2, 3, 4], &[5, 6, 7]]), 8, 4),
        ];
        for (input, k, t) in cases {
            let literal = prune_literal(&input, k, t);
            let representative = prune_representative(&input, k, t);
            for (name, acc) in [("literal", literal), ("representative", representative)] {
                assert!(
                    preserves_witnesses(&input, &acc, k, t),
                    "witness lost: {name} k={k} t={t} input={input:?} acc={acc:?}"
                );
            }
        }
    }
}
