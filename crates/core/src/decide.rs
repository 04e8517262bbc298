//! The final-round reject decision (Algorithm 1, Instructions 31–42).
//!
//! A node `w` rejects when it can assemble a full `Ck` out of two
//! sequences plus itself: `|L1 ∪ L2 ∪ {ID(w)}| = k`.
//!
//! * **odd `k`** — both sequences were *received* at round `⌊k/2⌋` (each of
//!   length `⌊k/2⌋`); the size condition forces them disjoint and free of
//!   `ID(w)`, and Lemma 1 makes them vertex-disjoint paths from `u` and
//!   `v` to two distinct neighbors of `w`: a genuine `Ck`.
//! * **even `k`** — exactly one sequence comes from the node's *own* final
//!   send `S` (length `k/2`, ending in `ID(w)`), the other was received at
//!   round `k/2`. Pairing two received sequences would be unsound: two
//!   length-`k/2` paths overlapping in exactly one internal node also
//!   reach union size `k` without forming any cycle. This is the even-`k`
//!   correction: the arXiv pseudocode's "`⌊k/2⌋ − 1`" cannot ever reject;
//!   the Lemma 2 proof uses the version implemented here.
//!
//! Both sets arrive as [`SeqRows`]; a set whose width is not `⌊k/2⌋`
//! takes part in no pair. A witness's two rows are copied into the fixed
//! [`IdSeq`] form only once the pair has passed.

use crate::seq::{union_size, IdSeq, SeqRows};
use ck_congest::graph::NodeId;

/// A reject witness: the two sequences that assembled a `Ck` at `myid`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RejectWitness {
    /// The sequence containing `myid` for even `k` (from the node's own
    /// final send), or the first received sequence for odd `k`.
    pub l1: IdSeq,
    /// The second (always received) sequence.
    pub l2: IdSeq,
    /// The deciding node.
    pub myid: NodeId,
    /// Cycle length.
    pub k: usize,
}

impl RejectWitness {
    /// Reconstructs the cycle's vertex sequence
    /// `(x1, …, xℓ, w, ym, …, y1)` from the witness pair.
    pub fn cycle_ids(&self) -> Vec<NodeId> {
        let mut cycle = Vec::with_capacity(self.k);
        cycle.extend(self.l1.iter());
        if self.k % 2 == 1 {
            // Odd: neither sequence contains myid; w sits between them.
            cycle.push(self.myid);
        }
        // Even: l1 already ends with myid.
        cycle.extend(self.l2.iter().rev());
        cycle
    }
}

/// Decides the reject predicate for node `myid`.
///
/// * `own_sent` — the sequences this node broadcast at round `⌊k/2⌋`
///   (each ends with `myid`); only consulted for even `k`.
/// * `received_final` — sequences received at round `⌊k/2⌋` (deduplicated
///   by the caller or not; duplicates cannot create spurious rejects).
///
/// Returns a witness when the node must output **reject**: the first
/// pair [`decide_all_rejects`] would report.
pub fn decide_reject(
    k: usize,
    myid: NodeId,
    own_sent: &SeqRows,
    received_final: &SeqRows,
) -> Option<RejectWitness> {
    let mut first = None;
    for_each_reject(k, myid, own_sent, received_final, |w| {
        first = Some(w);
        false
    });
    first
}

/// Exhaustive variant of [`decide_reject`]: every witnessing pair at this
/// node (used by the ablation probes; the protocol itself only needs
/// one).
pub fn decide_all_rejects(
    k: usize,
    myid: NodeId,
    own_sent: &SeqRows,
    received_final: &SeqRows,
) -> Vec<RejectWitness> {
    let mut out = Vec::new();
    for_each_reject(k, myid, own_sent, received_final, |w| {
        out.push(w);
        true
    });
    out
}

/// Hands every witnessing pair, in scan order, to `found` until it
/// returns `false`.
fn for_each_reject(
    k: usize,
    myid: NodeId,
    own_sent: &SeqRows,
    received_final: &SeqRows,
    mut found: impl FnMut(RejectWitness) -> bool,
) {
    assert!(k >= 3);
    let half = k / 2;
    if received_final.width() != half {
        return;
    }
    let witness = |l1: &[NodeId], l2: &[NodeId]| RejectWitness {
        l1: IdSeq::from_slice(l1),
        l2: IdSeq::from_slice(l2),
        myid,
        k,
    };
    if k % 2 == 1 {
        // Both sequences received, length ⌊k/2⌋ each.
        for (i, l1) in received_final.rows().enumerate() {
            for l2 in received_final.rows().skip(i + 1) {
                if union_size(l1, l2, myid) == k && !found(witness(l1, l2)) {
                    return;
                }
            }
        }
    } else {
        // Exactly one sequence from own S (contains myid), one received.
        if own_sent.width() != half {
            return;
        }
        for l1 in own_sent.rows() {
            debug_assert_eq!(l1.last(), Some(&myid), "own sequences end with myid");
            for l2 in received_final.rows() {
                if union_size(l1, l2, myid) == k && !found(witness(l1, l2)) {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::MAX_SEQ_LEN;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn rows(raw: &[&[u64]]) -> SeqRows {
        SeqRows::from_rows(raw.first().map_or(0, |r| r.len()), raw)
    }

    fn none() -> SeqRows {
        SeqRows::default()
    }

    #[test]
    fn odd_k_detects_disjoint_pair() {
        // C5 at w=50: received (10, 11) and (20, 21).
        let rec = rows(&[&[10, 11], &[20, 21]]);
        let w = decide_reject(5, 50, &none(), &rec).expect("must reject");
        assert_eq!(w.cycle_ids(), vec![10, 11, 50, 21, 20]);
    }

    #[test]
    fn odd_k_ignores_overlap() {
        // Shared internal node 11: union size 4 ≠ 5.
        let rec = rows(&[&[10, 11], &[20, 11]]);
        assert!(decide_reject(5, 50, &none(), &rec).is_none());
    }

    #[test]
    fn odd_k_ignores_sequences_containing_self() {
        let rec = rows(&[&[10, 50], &[20, 21]]);
        assert!(decide_reject(5, 50, &none(), &rec).is_none());
    }

    #[test]
    fn even_k_pairs_own_with_received() {
        // C4 at w=50: own (10, 50), received (20, 21).
        let own = rows(&[&[10, 50]]);
        let rec = rows(&[&[20, 21]]);
        let w = decide_reject(4, 50, &own, &rec).expect("must reject");
        assert_eq!(w.cycle_ids(), vec![10, 50, 21, 20]);
    }

    #[test]
    fn even_k_never_pairs_two_received() {
        // The unsoundness the correction avoids: two received paths
        // sharing one node reach union size k without a cycle.
        let rec = rows(&[&[10, 11], &[20, 21]]);
        assert!(decide_reject(4, 50, &none(), &rec).is_none());
    }

    #[test]
    fn even_k_requires_disjointness() {
        let own = rows(&[&[10, 50]]);
        let rec = rows(&[&[10, 21]]);
        assert!(decide_reject(4, 50, &own, &rec).is_none());
    }

    #[test]
    fn k3_detects_two_seeds() {
        let rec = rows(&[&[1], &[2]]);
        let w = decide_reject(3, 9, &none(), &rec).expect("triangle");
        assert_eq!(w.cycle_ids(), vec![1, 9, 2]);
    }

    #[test]
    fn wrong_lengths_are_skipped() {
        // Stale shorter sequences must not participate, received or own.
        assert!(decide_reject(5, 9, &none(), &rows(&[&[1], &[2]])).is_none());
        let rec = rows(&[&[20, 21]]);
        assert!(decide_reject(4, 50, &rows(&[&[50]]), &rec).is_none());
        assert!(decide_reject(4, 50, &rows(&[&[10, 50]]), &rows(&[&[20]])).is_none());
    }

    #[test]
    fn witness_cycle_has_k_distinct_ids() {
        let rec = rows(&[&[10, 11, 12], &[20, 21, 22]]);
        let w = decide_reject(7, 50, &none(), &rec).unwrap();
        let mut ids = w.cycle_ids();
        assert_eq!(ids.len(), 7);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 7);
    }

    /// Cycle lengths of the random decide cases: the small range the
    /// protocols live in, plus the `MAX_K` boundary (full-length
    /// sequences).
    const KS: [usize; 9] = [3, 4, 5, 6, 7, 8, 9, 32, 33];

    /// First `want` distinct values of `ids`, as a sequence (None when too
    /// few distinct values remain).
    fn distinct_prefix(ids: &[u64], want: usize) -> Option<Vec<u64>> {
        let mut d: Vec<u64> = Vec::with_capacity(want);
        for &x in ids {
            if !d.contains(&x) {
                d.push(x);
                if d.len() == want {
                    return Some(d);
                }
            }
        }
        (want == 0).then(Vec::new)
    }

    /// A random decide-round input: `k`, the deciding node's ID (drawn
    /// from the same small universe so sequences can contain it), a
    /// received set that mostly has the exact width (and otherwise an
    /// off-by-one width the rule must skip), and — for even `k` — an
    /// own-send set whose rows end in `myid`.
    fn arb_decide_case() -> impl Strategy<Value = (usize, u64, SeqRows, SeqRows)> {
        (0usize..KS.len())
            .prop_flat_map(|ki| {
                let k = KS[ki];
                let half = k / 2;
                let universe = 2 * half as u64 + 6;
                (
                    Just(k),
                    0u64..universe,
                    0u8..4,
                    vec(vec(0u64..universe, half + 4), 0..9),
                    vec(vec(0u64..universe, half + 4), 0..4),
                )
            })
            .prop_map(|(k, myid, noise, recv_raw, own_raw)| {
                let half = k / 2;
                let want = match noise {
                    0 if half > 1 => half - 1,
                    1 => (half + 1).min(MAX_SEQ_LEN),
                    _ => half,
                };
                let mut received = SeqRows::new(want);
                for ids in &recv_raw {
                    if let Some(d) = distinct_prefix(ids, want) {
                        received.push(&d);
                    }
                }
                let mut own = SeqRows::new(half);
                for ids in &own_raw {
                    let body: Vec<u64> = ids.iter().copied().filter(|&x| x != myid).collect();
                    if let Some(d) = distinct_prefix(&body, half.saturating_sub(1)) {
                        own.push_appended(&d, myid);
                    }
                }
                (k, myid, own, received)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Every witness the rule reports is a genuine `k`-cycle at the
        /// deciding node: both sequences have length `⌊k/2⌋`, and the
        /// reconstructed cycle has exactly `k` distinct IDs including
        /// `myid`. A received set of another width yields none.
        /// `decide_reject` reports the first of them.
        #[test]
        fn random_witnesses_are_k_distinct_ids((k, myid, own, received) in arb_decide_case()) {
            let all = decide_all_rejects(k, myid, &own, &received);
            if received.width() != k / 2 {
                prop_assert!(all.is_empty());
            }
            for w in &all {
                prop_assert_eq!((w.l1.len(), w.l2.len()), (k / 2, k / 2), "{:?}", w);
                let mut ids = w.cycle_ids();
                prop_assert_eq!(ids.len(), k, "{:?}", w);
                prop_assert!(ids.contains(&myid), "{:?}", w);
                ids.sort_unstable();
                ids.dedup();
                prop_assert_eq!(ids.len(), k, "repeated ID in {:?}", w);
            }
            prop_assert_eq!(decide_reject(k, myid, &own, &received), all.first().cloned());
        }
    }
}
