//! Ordered ID sequences — the unit of Phase-2 communication.
//!
//! Algorithm 1 exchanges ordered sequences of node IDs. In paper round
//! `t` every sequence has exactly `t−1` IDs (`t ≤ ⌊k/2⌋`), so every set
//! of sequences a node receives, prunes or sends in one round has one
//! common length. [`SeqRows`] stores such a set as rows of one flat
//! `Vec<NodeId>` with the row width fixed to that length: a k = 5 run
//! spends 8 or 16 bytes per sequence, whatever the largest supported
//! `k`. Widths go up to [`MAX_SEQ_LEN`], which supports every
//! `k ≤ 2·MAX_SEQ_LEN + 1 = 33` — far beyond the constant-`k` regime of
//! the paper.
//!
//! [`IdSeq`] is the fixed inline form of one sequence, kept only for the
//! two halves of a reject witness (`crate::decide::RejectWitness`).

use ck_congest::graph::NodeId;

/// Maximum sequence length (`⌊k/2⌋` for the largest supported `k`).
pub const MAX_SEQ_LEN: usize = 16;

/// Largest cycle length the implementation accepts.
pub const MAX_K: usize = 2 * MAX_SEQ_LEN + 1;

/// A set of ID sequences of one common length, stored as rows of one
/// flat buffer: row `i` is `ids[i·width .. (i+1)·width]`.
///
/// Every Phase-2 sequence set is one of these: a node's received set,
/// its send set, its own last send, the payload of a `Seqs` message and
/// the codec's decode output. Two sets are equal when they hold the same
/// rows in the same order; two empty sets are equal whatever their
/// width, because a decoded empty bundle takes the codec's width.
#[derive(Default)]
pub struct SeqRows {
    /// IDs per row (`≤ MAX_SEQ_LEN`; `0` only while the set is empty).
    width: usize,
    /// The rows, back to back.
    ids: Vec<NodeId>,
}

/// Reusable buffers of [`SeqRows::sort_dedup`]: the row permutation and
/// the gather buffer. Warm reruns reuse their capacity.
#[derive(Debug, Default)]
pub struct SortScratch {
    perm: Vec<u32>,
    gather: Vec<NodeId>,
}

impl SeqRows {
    /// An empty set of `width`-ID rows.
    ///
    /// # Panics
    /// Panics when `width` exceeds [`MAX_SEQ_LEN`].
    pub const fn new(width: usize) -> Self {
        assert!(width <= MAX_SEQ_LEN, "row width exceeds MAX_SEQ_LEN");
        SeqRows { width, ids: Vec::new() }
    }

    /// The set holding `rows`, in order (panics on a row of another
    /// length than `width`).
    pub fn from_rows(width: usize, rows: &[&[NodeId]]) -> Self {
        let mut set = SeqRows::new(width);
        set.ids.reserve(rows.len() * width);
        for row in rows {
            set.push(row);
        }
        set
    }

    /// A set of `width`-ID rows over a recycled backing (cleared first).
    pub(crate) fn from_backing(width: usize, mut ids: Vec<NodeId>) -> Self {
        ids.clear();
        let mut set = SeqRows::new(width);
        set.ids = ids;
        set
    }

    /// The backing buffer, for recycling.
    pub(crate) fn into_backing(self) -> Vec<NodeId> {
        self.ids
    }

    /// Empties the set and sets its row width, keeping the capacity.
    ///
    /// # Panics
    /// Panics when `width` exceeds [`MAX_SEQ_LEN`].
    pub fn reset(&mut self, width: usize) {
        assert!(width <= MAX_SEQ_LEN, "row width {width} exceeds MAX_SEQ_LEN");
        self.width = width;
        self.ids.clear();
    }

    /// IDs per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ids.len().checked_div(self.width).unwrap_or(0)
    }

    /// True when the set holds no row.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Every row's IDs, back to back.
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// Row `i` (panics when `i ≥ len()`).
    pub fn row(&self, i: usize) -> &[NodeId] {
        &self.ids[i * self.width..(i + 1) * self.width]
    }

    /// The rows, in order.
    pub fn rows(&self) -> std::slice::ChunksExact<'_, NodeId> {
        // A width-0 set is empty, so the clamp only avoids the
        // zero-chunk-size panic.
        self.ids.chunks_exact(self.width.max(1))
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics when `row` is not exactly `width` IDs long, or the width is 0.
    pub fn push(&mut self, row: &[NodeId]) {
        assert!(self.width > 0, "a width-0 set holds no rows");
        assert_eq!(row.len(), self.width, "row length differs from the set's width");
        self.ids.extend_from_slice(row);
    }

    /// Appends `row` extended by `id` at the tail (Instruction 24:
    /// "append myid at the tail of each L ∈ S").
    ///
    /// # Panics
    /// Panics unless `row` is exactly `width − 1` IDs long.
    pub fn push_appended(&mut self, row: &[NodeId], id: NodeId) {
        assert_eq!(row.len() + 1, self.width, "appended row length differs from the set's width");
        self.ids.extend_from_slice(row);
        self.ids.push(id);
    }

    /// Appends every row of `other` (which must be empty or share this
    /// set's width).
    pub fn extend_rows(&mut self, other: &SeqRows) {
        assert!(
            other.is_empty() || other.width == self.width,
            "extending width-{} rows with width-{} rows",
            self.width,
            other.width
        );
        self.ids.extend_from_slice(&other.ids);
    }

    /// Sorts the rows lexicographically and drops duplicates — set
    /// semantics in the canonical order the pruner scans.
    ///
    /// Sorts a permutation of the row indices and gathers the distinct
    /// rows through `scratch`; at width 1 the IDs are sorted in place.
    pub fn sort_dedup(&mut self, scratch: &mut SortScratch) {
        if self.width == 1 {
            self.ids.sort_unstable();
            self.ids.dedup();
            return;
        }
        let rows = self.len();
        if rows < 2 {
            return;
        }
        assert!(rows <= u32::MAX as usize, "row count beyond the u32 permutation");
        let (w, ids) = (self.width, &self.ids);
        let row = |i: u32| &ids[i as usize * w..(i as usize + 1) * w];
        scratch.perm.clear();
        scratch.perm.extend(0..rows as u32);
        scratch.perm.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
        scratch.gather.clear();
        let mut last: Option<&[NodeId]> = None;
        for &i in &scratch.perm {
            let r = row(i);
            if last != Some(r) {
                scratch.gather.extend_from_slice(r);
                last = Some(r);
            }
        }
        self.ids.clear();
        self.ids.extend_from_slice(&scratch.gather);
    }
}

impl Clone for SeqRows {
    fn clone(&self) -> Self {
        SeqRows { width: self.width, ids: self.ids.clone() }
    }

    /// Copies into the existing buffer, so a warm copy allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.width = source.width;
        self.ids.clone_from(&source.ids);
    }
}

impl PartialEq for SeqRows {
    fn eq(&self, other: &Self) -> bool {
        self.ids == other.ids && (self.ids.is_empty() || self.width == other.width)
    }
}

impl Eq for SeqRows {}

impl std::fmt::Debug for SeqRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Rows{}", self.width)?;
        f.debug_list().entries(self.rows()).finish()
    }
}

/// `|a ∪ b ∪ {extra}|` — the quantity of Instruction 37.
///
/// # Panics
/// Panics when `a` or `b` is longer than [`MAX_SEQ_LEN`].
pub fn union_size(a: &[NodeId], b: &[NodeId], extra: NodeId) -> usize {
    assert!(a.len() <= MAX_SEQ_LEN && b.len() <= MAX_SEQ_LEN, "sequence too long");
    let mut buf = [0 as NodeId; MAX_K];
    let n = a.len() + b.len() + 1;
    buf[..a.len()].copy_from_slice(a);
    buf[a.len()..n - 1].copy_from_slice(b);
    buf[n - 1] = extra;
    let buf = &mut buf[..n];
    buf.sort_unstable();
    // ck-lint: allow(index-literal, reason = "windows(2) yields exactly-two-element slices")
    1 + buf.windows(2).filter(|w| w[0] != w[1]).count()
}

/// One ordered sequence of distinct node IDs, stored inline — the fixed
/// form of a reject witness's two halves.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct IdSeq {
    len: u8,
    ids: [NodeId; MAX_SEQ_LEN],
}

impl IdSeq {
    /// Builds from a slice (panics if it exceeds capacity).
    pub fn from_slice(ids: &[NodeId]) -> Self {
        assert!(ids.len() <= MAX_SEQ_LEN, "sequence too long: {}", ids.len());
        let mut s = IdSeq { len: ids.len() as u8, ids: [0; MAX_SEQ_LEN] };
        s.ids[..ids.len()].copy_from_slice(ids);
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

    /// Iterator over IDs.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        self.as_slice().iter().copied()
    }
}

impl std::fmt::Debug for IdSeq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Seq{:?}", self.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::union_size as size_of_union;
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn construction_and_access() {
        let mut s = SeqRows::new(2);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        s.push(&[7, 9]);
        s.push_appended(&[3], 11);
        assert_eq!((s.width(), s.len()), (2, 2));
        assert_eq!(s.row(1), &[3, 11]);
        assert_eq!(s.ids(), &[7, 9, 3, 11]);
        let rows: Vec<&[u64]> = s.rows().collect();
        assert_eq!(rows, vec![&[7, 9][..], &[3, 11][..]]);
        let mut t = SeqRows::from_rows(2, &[&[1, 2]]);
        t.extend_rows(&s);
        t.extend_rows(&SeqRows::new(5));
        assert_eq!(t, SeqRows::from_rows(2, &[&[1, 2], &[7, 9], &[3, 11]]));
        t.reset(3);
        assert!(t.is_empty() && t.width() == 3);
        // A warm copy reuses the target's buffer.
        let mut u = SeqRows::from_rows(1, &[&[1], &[2], &[3], &[4]]);
        let cap = u.ids.capacity();
        u.clone_from(&s);
        assert_eq!(u, s);
        assert_eq!(u.ids.capacity(), cap);
    }

    #[test]
    fn empty_sequence_edge_cases() {
        // Two empty sets are equal whatever their width.
        assert_eq!(SeqRows::new(0), SeqRows::new(3));
        assert_eq!(SeqRows::new(2), SeqRows::default());
        assert_eq!(SeqRows::new(0).rows().count(), 0);
        // Nonempty sets compare their width too.
        let a = SeqRows::from_rows(2, &[&[1, 2]]);
        let b = SeqRows::from_rows(1, &[&[1], &[2]]);
        assert_eq!(a.ids(), b.ids());
        assert_ne!(a, b);
        // Empty sequences in a union.
        assert_eq!(size_of_union(&[], &[], 5), 1);
        assert_eq!(size_of_union(&[], &[1, 2], 1), 2);
        assert_eq!(size_of_union(&[1, 2], &[], 9), 3);
    }

    #[test]
    #[should_panic(expected = "row length differs")]
    fn push_rejects_a_row_of_the_wrong_length() {
        SeqRows::new(2).push(&[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "appended row length differs")]
    fn push_appended_rejects_a_row_of_the_wrong_length() {
        SeqRows::new(3).push_appended(&[1], 2);
    }

    /// A send set one ID past [`MAX_SEQ_LEN`] cannot be formed.
    #[test]
    #[should_panic(expected = "exceeds MAX_SEQ_LEN")]
    fn append_past_capacity_panics() {
        SeqRows::new(MAX_SEQ_LEN).reset(MAX_SEQ_LEN + 1);
    }

    #[test]
    fn disjointness() {
        // Two rows are disjoint exactly when their union (plus a fresh
        // extra) has every ID: the test decide's size rule relies on.
        assert_eq!(size_of_union(&[1, 2, 3], &[4, 5], 9), 6);
        assert_eq!(size_of_union(&[4, 5], &[1, 2, 3], 9), 6);
        assert_eq!(size_of_union(&[1, 2, 3], &[3, 4], 9), 5);
    }

    #[test]
    fn union_size() {
        assert_eq!(size_of_union(&[1, 2], &[3, 4], 5), 5);
        assert_eq!(size_of_union(&[1, 2], &[3, 4], 4), 4);
        assert_eq!(size_of_union(&[1, 2], &[2, 3], 1), 3);
        assert_eq!(size_of_union(&[1, 2], &[1, 2], 9), 3);
    }

    /// Boundary coverage at full capacity: `MAX_SEQ_LEN`-long sequences
    /// (every slot populated) and unions reaching exactly `MAX_K`.
    #[test]
    fn full_capacity_sequences_scalar() {
        let a: Vec<u64> = (0..MAX_SEQ_LEN as u64).collect();
        let b: Vec<u64> = (MAX_SEQ_LEN as u64..2 * MAX_SEQ_LEN as u64).collect();
        // Two full disjoint sequences plus a fresh extra: exactly MAX_K.
        assert_eq!(size_of_union(&a, &b, 2 * MAX_SEQ_LEN as u64), MAX_K);
        // Extra already present on either side: MAX_K − 1.
        assert_eq!(size_of_union(&a, &b, 0), MAX_K - 1);
        assert_eq!(size_of_union(&a, &b, MAX_SEQ_LEN as u64), MAX_K - 1);
        // Self-union stays at capacity regardless of the extra.
        assert_eq!(size_of_union(&a, &a, 3), MAX_SEQ_LEN);
        assert_eq!(size_of_union(&a, &a, 99), MAX_SEQ_LEN + 1);
        // One shared ID at the last lane.
        let mut c: Vec<u64> = (100..100 + MAX_SEQ_LEN as u64 - 1).collect();
        c.push(MAX_SEQ_LEN as u64 - 1);
        assert_eq!(size_of_union(&a, &c, 200), 2 * MAX_SEQ_LEN);
        // Full-width rows survive a set round trip.
        let mut rows = SeqRows::new(MAX_SEQ_LEN);
        rows.push(&b);
        rows.push(&a);
        rows.sort_dedup(&mut SortScratch::default());
        assert_eq!(rows, SeqRows::from_rows(MAX_SEQ_LEN, &[&a, &b]));
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut s = SeqRows::from_rows(2, &[&[2, 1], &[1, 3], &[1, 2], &[2, 1], &[1, 2]]);
        s.sort_dedup(&mut SortScratch::default());
        assert_eq!(s, SeqRows::from_rows(2, &[&[1, 2], &[1, 3], &[2, 1]]));
        let mut one = SeqRows::from_rows(1, &[&[5], &[2], &[5]]);
        one.sort_dedup(&mut SortScratch::default());
        assert_eq!(one, SeqRows::from_rows(1, &[&[2], &[5]]));
    }

    #[test]
    fn from_slice_round_trip() {
        let s = IdSeq::from_slice(&[1, 2, 3]);
        assert_eq!(s.as_slice(), &[1, 2, 3]);
        assert_eq!((s.len(), s.is_empty()), (3, false));
        assert_eq!(s.iter().rev().collect::<Vec<_>>(), vec![3, 2, 1]);
        assert!(IdSeq::from_slice(&[]).is_empty());
    }

    /// Random sets: `width`, then rows drawn from a small ID universe so
    /// duplicates and shared prefixes are common.
    fn arb_rows() -> impl Strategy<Value = (usize, Vec<Vec<u64>>)> {
        (1usize..=MAX_SEQ_LEN).prop_flat_map(|w| (Just(w), vec(vec(0u64..4, w), 0..24)))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// `sort_dedup` agrees with sort-and-dedup over `Vec<Vec<u64>>`,
        /// with one scratch reused across cases as the tester does.
        #[test]
        fn sort_dedup_matches_nested_vectors((width, raw) in arb_rows()) {
            let mut set = SeqRows::new(width);
            for row in &raw {
                set.push(row);
            }
            let mut scratch = SortScratch::default();
            set.sort_dedup(&mut scratch);
            let mut want = raw.clone();
            want.sort_unstable();
            want.dedup();
            let got: Vec<Vec<u64>> = set.rows().map(<[u64]>::to_vec).collect();
            prop_assert_eq!(got, want);
            // Idempotent.
            let once = set.clone();
            set.sort_dedup(&mut scratch);
            prop_assert_eq!(set, once);
        }
    }
}
