//! Ordered ID sequences — the unit of Phase-2 communication.
//!
//! Algorithm 1 exchanges ordered sequences of at most `⌊k/2⌋` node IDs.
//! `IdSeq` stores them inline (no heap) with capacity [`MAX_SEQ_LEN`],
//! which supports every `k ≤ 2·MAX_SEQ_LEN + 1 = 33` — far beyond the
//! constant-`k` regime of the paper.

use ck_congest::graph::NodeId;

/// Maximum sequence length (`⌊k/2⌋` for the largest supported `k`).
pub const MAX_SEQ_LEN: usize = 16;

/// Largest cycle length the implementation accepts.
pub const MAX_K: usize = 2 * MAX_SEQ_LEN + 1;

/// An ordered sequence of distinct node IDs, stored inline.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct IdSeq {
    len: u8,
    ids: [NodeId; MAX_SEQ_LEN],
}

impl IdSeq {
    /// The empty sequence.
    pub fn empty() -> Self {
        IdSeq { len: 0, ids: [0; MAX_SEQ_LEN] }
    }

    /// A one-element sequence (the Phase-2 seed `(myid)`).
    pub fn single(id: NodeId) -> Self {
        let mut s = Self::empty();
        // ck-lint: allow(index-literal, reason = "ids is a fixed [NodeId; MAX_SEQ_LEN] array and MAX_SEQ_LEN >= 1")
        s.ids[0] = id;
        s.len = 1;
        s
    }

    /// Builds from a slice (panics if it exceeds capacity).
    pub fn from_slice(ids: &[NodeId]) -> Self {
        assert!(ids.len() <= MAX_SEQ_LEN, "sequence too long: {}", ids.len());
        let mut s = Self::empty();
        s.ids[..ids.len()].copy_from_slice(ids);
        s.len = ids.len() as u8;
        s
    }

    /// Number of IDs.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no IDs are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The IDs as a slice, in order.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.ids[..self.len as usize]
    }

    /// First ID (the extremity at `u` or `v` per Lemma 1), if nonempty.
    pub fn first(&self) -> Option<NodeId> {
        // ck-lint: allow(index-literal, reason = "guarded by len > 0 and ids is a fixed-size array")
        (self.len > 0).then(|| self.ids[0])
    }

    /// Last ID (the sender extremity per Lemma 1), if nonempty.
    pub fn last(&self) -> Option<NodeId> {
        (self.len > 0).then(|| self.ids[self.len as usize - 1])
    }

    /// Membership test (linear scan; sequences are tiny).
    pub fn contains(&self, id: NodeId) -> bool {
        self.as_slice().contains(&id)
    }

    /// Returns the sequence extended by `id` at the tail (Instruction 24:
    /// "append myid at the tail of each L ∈ S").
    pub fn appended(&self, id: NodeId) -> Self {
        assert!((self.len as usize) < MAX_SEQ_LEN, "append past capacity");
        let mut s = *self;
        s.ids[s.len as usize] = id;
        s.len += 1;
        s
    }

    /// True if `self` and `other` share no ID.
    pub fn disjoint_with(&self, other: &IdSeq) -> bool {
        self.as_slice().iter().all(|id| !other.contains(*id))
    }

    /// `|self ∪ other ∪ {extra}|` — the quantity of Instruction 37.
    pub fn union_size_with(&self, other: &IdSeq, extra: NodeId) -> usize {
        let mut buf = [0 as NodeId; 2 * MAX_SEQ_LEN + 1];
        let mut n = 0;
        for &id in self.as_slice() {
            buf[n] = id;
            n += 1;
        }
        for &id in other.as_slice() {
            buf[n] = id;
            n += 1;
        }
        buf[n] = extra;
        n += 1;
        let buf = &mut buf[..n];
        buf.sort_unstable();
        // ck-lint: allow(index-literal, reason = "windows(2) yields exactly-two-element slices")
        1 + buf.windows(2).filter(|w| w[0] != w[1]).count()
    }

    /// Iterator over IDs.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.as_slice().iter().copied()
    }
}

impl std::fmt::Debug for IdSeq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Seq{:?}", self.as_slice())
    }
}

impl PartialOrd for IdSeq {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IdSeq {
    /// Lexicographic over contents (shorter prefixes first) — the
    /// canonical deterministic iteration order used by the pruner.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl<'a> IntoIterator for &'a IdSeq {
    type Item = NodeId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, NodeId>>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let s = IdSeq::single(7);
        assert_eq!(s.len(), 1);
        assert_eq!(s.first(), Some(7));
        assert_eq!(s.last(), Some(7));
        let t = s.appended(9).appended(11);
        assert_eq!(t.as_slice(), &[7, 9, 11]);
        assert_eq!(t.first(), Some(7));
        assert_eq!(t.last(), Some(11));
        assert!(t.contains(9));
        assert!(!t.contains(8));
        assert!(IdSeq::empty().is_empty());
        assert_eq!(IdSeq::empty().first(), None);
    }

    #[test]
    fn from_slice_round_trip() {
        let s = IdSeq::from_slice(&[1, 2, 3]);
        assert_eq!(s.as_slice(), &[1, 2, 3]);
        let collected: Vec<_> = s.iter().collect();
        assert_eq!(collected, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "append past capacity")]
    fn append_past_capacity_panics() {
        let mut s = IdSeq::empty();
        for i in 0..=MAX_SEQ_LEN as u64 {
            s = s.appended(i);
        }
    }

    #[test]
    fn disjointness() {
        let a = IdSeq::from_slice(&[1, 2, 3]);
        let b = IdSeq::from_slice(&[4, 5]);
        let c = IdSeq::from_slice(&[3, 4]);
        assert!(a.disjoint_with(&b));
        assert!(b.disjoint_with(&a));
        assert!(!a.disjoint_with(&c));
        assert!(a.disjoint_with(&IdSeq::empty()));
    }

    #[test]
    fn union_size() {
        let a = IdSeq::from_slice(&[1, 2]);
        let b = IdSeq::from_slice(&[3, 4]);
        assert_eq!(a.union_size_with(&b, 5), 5);
        assert_eq!(a.union_size_with(&b, 4), 4);
        let c = IdSeq::from_slice(&[2, 3]);
        assert_eq!(a.union_size_with(&c, 1), 3);
        assert_eq!(a.union_size_with(&a, 9), 3);
    }

    /// Boundary coverage at full capacity: `MAX_SEQ_LEN`-long sequences
    /// (every slot populated) and unions reaching exactly `MAX_K`.
    #[test]
    fn full_capacity_sequences_scalar() {
        let a = IdSeq::from_slice(&(0..MAX_SEQ_LEN as u64).collect::<Vec<_>>());
        let b =
            IdSeq::from_slice(&(MAX_SEQ_LEN as u64..2 * MAX_SEQ_LEN as u64).collect::<Vec<_>>());
        assert_eq!(a.len(), MAX_SEQ_LEN);
        assert!(a.disjoint_with(&b) && b.disjoint_with(&a));
        // Two full disjoint sequences plus a fresh extra: exactly MAX_K.
        assert_eq!(a.union_size_with(&b, 2 * MAX_SEQ_LEN as u64), MAX_K);
        // Extra already present on either side: MAX_K − 1.
        assert_eq!(a.union_size_with(&b, 0), MAX_K - 1);
        assert_eq!(a.union_size_with(&b, MAX_SEQ_LEN as u64), MAX_K - 1);
        // Self-union stays at capacity regardless of the extra.
        assert_eq!(a.union_size_with(&a, 3), MAX_SEQ_LEN);
        assert_eq!(a.union_size_with(&a, 99), MAX_SEQ_LEN + 1);
        for id in a.iter() {
            assert!(a.contains(id) && !b.contains(id));
        }
        // One shared ID at the last lane breaks disjointness.
        let mut c_ids: Vec<u64> = (100..100 + MAX_SEQ_LEN as u64 - 1).collect();
        c_ids.push(MAX_SEQ_LEN as u64 - 1);
        let c = IdSeq::from_slice(&c_ids);
        assert!(!a.disjoint_with(&c));
        assert_eq!(a.union_size_with(&c, 200), 2 * MAX_SEQ_LEN);
    }

    #[test]
    fn empty_sequence_edge_cases() {
        let e = IdSeq::empty();
        assert!(e.disjoint_with(&e));
        assert!(!e.contains(0));
        assert_eq!(e.union_size_with(&e, 5), 1);
        let a = IdSeq::from_slice(&[1, 2]);
        assert_eq!(e.union_size_with(&a, 1), 2);
        assert_eq!(a.union_size_with(&e, 9), 3);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut v = [
            IdSeq::from_slice(&[2, 1]),
            IdSeq::from_slice(&[1, 2]),
            IdSeq::from_slice(&[1]),
            IdSeq::from_slice(&[1, 2, 3]),
        ];
        v.sort();
        let rendered: Vec<Vec<u64>> = v.iter().map(|s| s.as_slice().to_vec()).collect();
        assert_eq!(rendered, vec![vec![1], vec![1, 2], vec![1, 2, 3], vec![2, 1]]);
    }
}
