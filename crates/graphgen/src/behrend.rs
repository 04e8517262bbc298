//! Behrend-style hard instances.
//!
//! The paper's motivation (§1.1, citing \[FRST16\]) is that the sampling
//! techniques behind the constant-round C3/C4 testers provably fail for
//! `k ≥ 5` on instances derived from *Behrend graphs*: graphs whose many
//! `Ck` copies are spread so thin that no local density signal survives —
//! each copy is pinned to an arithmetic structure rather than clustered
//! around high-degree hubs.
//!
//! We implement the two classical arithmetic ingredients and the layered
//! graph construction:
//!
//! * [`behrend_ap_free_set`] — Behrend's digit construction of a large
//!   subset of `[N]` with no 3-term arithmetic progression;
//! * [`erdos_turan_sidon`] — the Erdős–Turán Sidon set (`B₂` set: all
//!   pairwise sums distinct) from quadratic residues;
//! * [`layered_ck`] — a cyclically `k`-partite graph with one planted
//!   `Ck` per (offset, stride) pair; the planted copies are pairwise
//!   edge-disjoint by construction.
//!
//! **Substitution note:** we use these as *workload generators*
//! exercising the spread-cycle regime, not as a re-proof of the
//! \[FRST16\] lower bound.

// ck-lint: allow-file(no-panic, reason = "Behrend constructions emit in-range edges by arithmetic on validated parameters")
use ck_congest::graph::{Graph, GraphBuilder, NodeIndex};

/// Behrend's construction: numbers whose base-`(2d−1)` digits are all
/// `< d` and whose squared digit-norm equals the most popular value
/// (the smallest such norm when several are equally popular). Such a
/// set has no 3-term arithmetic progression: digitwise addition never
/// carries, and equal norms force the midpoint to coincide.
///
/// Returns a 3-AP-free subset of `[0, N)`, non-empty for `N ≥ 1`; the
/// set is a function of `N` alone.
pub fn behrend_ap_free_set(n_bound: u64) -> Vec<u64> {
    assert!(n_bound >= 1);
    if n_bound <= 3 {
        return vec![n_bound - 1];
    }
    // Pick digit count D and base 2d−1 to roughly maximize d^D ≤ N.
    let mut best: Vec<u64> = vec![0];
    for digits in 1..=((64 - n_bound.leading_zeros()) as usize).max(1) {
        // Largest d with (2d−1)^digits ≤ N.
        let mut d = 1u64;
        loop {
            let base = 2 * (d + 1) - 1;
            if base.checked_pow(digits as u32).is_none_or(|v| v > n_bound) {
                break;
            }
            d += 1;
        }
        if d < 2 {
            continue;
        }
        let base = 2 * d - 1;
        // Enumerate digit vectors with entries < d, bucket by norm.
        let mut buckets: std::collections::BTreeMap<u64, Vec<u64>> =
            std::collections::BTreeMap::new();
        let mut digit_vec = vec![0u64; digits];
        loop {
            let norm: u64 = digit_vec.iter().map(|&x| x * x).sum();
            let value: u64 = digit_vec.iter().rev().fold(0, |acc, &x| acc * base + x);
            if value < n_bound {
                buckets.entry(norm).or_default().push(value);
            }
            // Odometer increment.
            let mut i = 0;
            loop {
                if i == digits {
                    break;
                }
                digit_vec[i] += 1;
                if digit_vec[i] < d {
                    break;
                }
                digit_vec[i] = 0;
                i += 1;
            }
            if i == digits {
                break;
            }
        }
        // The largest bucket; `max_by_key` keeps the last of equals, so
        // walking the norms downwards hands a tie to the smallest norm.
        if let Some(candidate) = buckets.into_values().rev().max_by_key(|v| v.len()) {
            if candidate.len() > best.len() {
                best = candidate;
            }
        }
    }
    best.sort_unstable();
    best
}

/// Erdős–Turán Sidon set for prime `p`: `{2p·a + (a² mod p) : 0 ≤ a < p}`
/// ⊂ `[0, 2p²)`. All pairwise sums are distinct.
pub fn erdos_turan_sidon(p: u64) -> Vec<u64> {
    assert!(is_prime(p), "{p} must be prime");
    (0..p).map(|a| 2 * p * a + (a * a) % p).collect()
}

/// Trial-division primality (inputs here are tiny).
pub fn is_prime(x: u64) -> bool {
    if x < 2 {
        return false;
    }
    let mut d = 2;
    while d * d <= x {
        if x.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

/// A Behrend-style layered instance plus its planted-copy certificate.
#[derive(Clone, Debug)]
pub struct LayeredInstance {
    pub graph: Graph,
    /// Planted `Ck` copies, each listed layer by layer.
    pub planted: Vec<Vec<NodeIndex>>,
    /// Stride set used.
    pub strides: Vec<u64>,
    /// Residue classes per layer.
    pub width: usize,
}

/// Cyclically `k`-partite layered graph on `k·width` nodes: layer `i`
/// holds residues `Z_width`; for every offset `x ∈ Z_width` and stride
/// `s ∈ strides`, the planted copy visits `(i, x + i·s mod width)` for
/// `i = 0..k`, with edges between consecutive layers and a closing edge
/// from layer `k−1` back to layer 0.
///
/// Every edge between consecutive layers `i, i+1` determines `(x, s)`
/// uniquely: `s` is the residue difference (strides are kept distinct mod
/// `width`) and `x` follows. The closing edge determines `x` directly and
/// `s` through `(k−1)·s mod width`, so strides are additionally filtered
/// to keep `(k−1)·s` residues distinct. The surviving `width·|strides|`
/// planted copies are then pairwise edge-disjoint.
pub fn layered_ck(k: usize, width: usize, strides: &[u64]) -> LayeredInstance {
    assert!(k >= 3);
    assert!(width >= 1);
    let mut sorted: Vec<u64> = strides.iter().map(|&s| s % width as u64).collect();
    sorted.sort_unstable();
    sorted.dedup();
    let mut seen_close = std::collections::BTreeSet::new();
    let strides: Vec<u64> = sorted
        .into_iter()
        .filter(|&s| seen_close.insert((k as u64 - 1) * s % width as u64))
        .collect();
    assert!(!strides.is_empty(), "need at least one stride");
    let node =
        |layer: usize, x: u64| (layer * width) as NodeIndex + (x % width as u64) as NodeIndex;
    let mut b = GraphBuilder::new(k * width);
    let mut planted = Vec::with_capacity(width * strides.len());
    for x in 0..width as u64 {
        for &s in &strides {
            let copy: Vec<NodeIndex> = (0..k).map(|i| node(i, x + i as u64 * s)).collect();
            for i in 0..k {
                b.edge(copy[i], copy[(i + 1) % k]);
            }
            planted.push(copy);
        }
    }
    let graph = b.build().expect("layered graph is valid");
    LayeredInstance { graph, planted, strides, width }
}

/// Convenience: a layered `Ck` instance with Behrend strides, the
/// spread-cycle workload for experiment E10. The strides are a 3-AP-free
/// subset of `[0, width/2k)`, so they stay distinct modulo `width`; a
/// width below `2k` leaves that range empty and uses the one stride 1.
pub fn behrend_ck_instance(k: usize, width: usize) -> LayeredInstance {
    let bound = (width as u64) / (2 * k as u64).max(1);
    let strides = if bound == 0 { vec![1] } else { behrend_ap_free_set(bound) };
    layered_ck(k, width, &strides)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::farness::{contains_ck, greedy_ck_packing, is_valid_ck};
    use std::collections::HashSet;

    fn has_three_ap(s: &[u64]) -> bool {
        let set: HashSet<u64> = s.iter().copied().collect();
        for (i, &a) in s.iter().enumerate() {
            for &b in &s[i + 1..] {
                // a < b; check midpoint extension a, b, 2b - a.
                if set.contains(&(2 * b - a)) && b - a > 0 {
                    return true;
                }
            }
        }
        false
    }

    #[test]
    fn behrend_set_is_ap_free() {
        for &n in &[10u64, 50, 200, 1000, 5000] {
            let s = behrend_ap_free_set(n);
            assert!(!s.is_empty());
            assert!(s.iter().all(|&x| x < n));
            assert!(!has_three_ap(&s), "AP found for N={n}: {s:?}");
        }
    }

    #[test]
    fn behrend_set_is_a_function_of_n() {
        // At these N several norm buckets tie for the largest; the smallest
        // norm wins in every call, in every process.
        for &n in &[25u64, 40, 400, 4_000] {
            let first = behrend_ap_free_set(n);
            for _ in 1..64 {
                assert_eq!(behrend_ap_free_set(n), first, "N = {n}");
            }
        }
        assert_eq!(behrend_ap_free_set(40), [1, 3, 9]);
        assert_eq!(behrend_ap_free_set(400), [4, 10, 12, 28, 30, 36, 82, 84, 90, 108]);
    }

    #[test]
    fn behrend_set_is_reasonably_large() {
        let s = behrend_ap_free_set(1000);
        assert!(s.len() >= 10, "expected a nontrivial set, got {}", s.len());
    }

    #[test]
    fn sidon_sums_are_distinct() {
        for &p in &[5u64, 7, 11, 13] {
            let s = erdos_turan_sidon(p);
            assert_eq!(s.len(), p as usize);
            let mut sums = HashSet::new();
            for i in 0..s.len() {
                for j in i..s.len() {
                    assert!(sums.insert(s[i] + s[j]), "duplicate sum in Sidon set p={p}");
                }
            }
        }
    }

    #[test]
    fn primality() {
        assert!(is_prime(2) && is_prime(13) && is_prime(97));
        assert!(!is_prime(0) && !is_prime(1) && !is_prime(91));
    }

    #[test]
    fn layered_planted_copies_are_valid_and_disjoint() {
        let inst = layered_ck(5, 13, &[1, 2, 5]);
        assert_eq!(inst.strides, vec![1, 2, 5]);
        assert_eq!(inst.planted.len(), 13 * 3);
        let mut used: HashSet<(NodeIndex, NodeIndex)> = HashSet::new();
        for copy in &inst.planted {
            assert!(is_valid_ck(&inst.graph, 5, copy), "invalid copy {copy:?}");
            for i in 0..5 {
                let (a, b) = (copy[i], copy[(i + 1) % 5]);
                let e = if a < b { (a, b) } else { (b, a) };
                assert!(used.insert(e), "planted copies share edge {e:?}");
            }
        }
        assert!(contains_ck(&inst.graph, 5));
    }

    #[test]
    fn layered_packing_at_least_planted() {
        let inst = layered_ck(4, 10, &[1, 3]);
        let packing = greedy_ck_packing(&inst.graph, 4);
        assert!(
            packing.len() >= inst.planted.len() / 4,
            "greedy packing {} too far below planted {}",
            packing.len(),
            inst.planted.len()
        );
    }

    #[test]
    fn colliding_strides_are_filtered() {
        // k=5, width=12: (k−1)·2 = 8 ≡ (k−1)·5 = 20 (mod 12), so stride 5
        // must be dropped to keep closing edges disjoint.
        let inst = layered_ck(5, 12, &[1, 2, 5]);
        assert_eq!(inst.strides, vec![1, 2]);
        assert_eq!(inst.planted.len(), 12 * 2);
    }

    #[test]
    fn behrend_instance_builds() {
        // Widths below 2k leave no Behrend stride and use stride 1.
        for (k, width) in [(5usize, 64usize), (5, 9), (3, 5)] {
            let inst = behrend_ck_instance(k, width);
            assert_eq!(inst.graph.n(), k * width);
            assert!(contains_ck(&inst.graph, k), "k={k} width={width}");
            assert!(!inst.planted.is_empty());
        }
        assert_eq!(behrend_ck_instance(5, 9).strides, [1]);
    }
}
