//! Random graph models, all seed-deterministic.
//!
//! Every generator consumes a `u64` seed and derives its stream through
//! [`ck_congest::rngs`], so a (family, parameters, seed) triple pins the
//! topology exactly across test, experiment, and bench runs.

// ck-lint: allow-file(no-panic, reason = "samplers draw in-range endpoints and retry rejected attempts, so build() only fails on a generator bug; the pairing-model panic is a documented attempt-budget exhaustion")
use ck_congest::graph::{Graph, GraphBuilder, NodeIndex};
use ck_congest::rngs::{derived_rng, labels};
use rand::RngExt;
use std::collections::BTreeSet;

/// Erdős–Rényi `G(n, p)`: every pair independently an edge.
pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p));
    let mut rng = derived_rng(seed, labels::GRAPH_TOPOLOGY, 0, 0);
    let mut b = GraphBuilder::new(n);
    for i in 0..n as NodeIndex {
        for j in (i + 1)..n as NodeIndex {
            if rng.random_bool(p) {
                b.edge(i, j);
            }
        }
    }
    b.build().expect("gnp is valid")
}

/// Uniform `G(n, m)`: exactly `m` distinct edges sampled uniformly.
pub fn gnm(n: usize, m: usize, seed: u64) -> Graph {
    let max_m = n * (n.saturating_sub(1)) / 2;
    assert!(m <= max_m, "requested {m} edges but K_{n} has only {max_m}");
    let mut rng = derived_rng(seed, labels::GRAPH_TOPOLOGY, 1, 0);
    let mut chosen: BTreeSet<(NodeIndex, NodeIndex)> = BTreeSet::new();
    while chosen.len() < m {
        let i = rng.random_range(0..n) as NodeIndex;
        let j = rng.random_range(0..n) as NodeIndex;
        if i == j {
            continue;
        }
        let e = if i < j { (i, j) } else { (j, i) };
        chosen.insert(e);
    }
    let mut b = GraphBuilder::new(n);
    b.edges(chosen);
    b.build().expect("gnm is valid")
}

/// A uniformly random labeled tree on `n` nodes via a random Prüfer
/// sequence. Always connected and cycle-free.
pub fn random_tree(n: usize, seed: u64) -> Graph {
    assert!(n >= 1);
    if n == 1 {
        return GraphBuilder::new(1).build().unwrap();
    }
    if n == 2 {
        return GraphBuilder::new(2).edges([(0, 1)]).build().unwrap();
    }
    let mut rng = derived_rng(seed, labels::GRAPH_TOPOLOGY, 2, 0);
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.random_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &p in &prufer {
        degree[p] += 1;
    }
    let mut b = GraphBuilder::new(n);
    let mut leaf_heap: std::collections::BinaryHeap<std::cmp::Reverse<usize>> =
        (0..n).filter(|&v| degree[v] == 1).map(std::cmp::Reverse).collect();
    for &p in &prufer {
        let std::cmp::Reverse(leaf) = leaf_heap.pop().expect("tree always has a leaf");
        b.edge(leaf as NodeIndex, p as NodeIndex);
        degree[p] -= 1;
        if degree[p] == 1 {
            leaf_heap.push(std::cmp::Reverse(p));
        }
    }
    let rest: Vec<usize> = (0..n).filter(|&v| degree[v] == 1).collect();
    // After consuming the Prüfer sequence exactly two nodes remain; the
    // heap-based elimination leaves them with residual degree 1.
    let (u, v) = (rest[rest.len() - 2], rest[rest.len() - 1]);
    b.edge(u as NodeIndex, v as NodeIndex);
    b.build().expect("tree is valid")
}

/// A connected `G(n, m)`-style graph: a random spanning tree plus
/// `m − (n−1)` extra uniform edges (requires `m ≥ n−1`).
pub fn connected_gnm(n: usize, m: usize, seed: u64) -> Graph {
    assert!(m + 1 >= n, "need at least n-1 edges for connectivity");
    let tree = random_tree(n, seed);
    let mut chosen: BTreeSet<(NodeIndex, NodeIndex)> =
        tree.edges().iter().map(|e| (e.a, e.b)).collect();
    let mut rng = derived_rng(seed, labels::GRAPH_TOPOLOGY, 3, 0);
    let max_m = n * (n - 1) / 2;
    assert!(m <= max_m);
    while chosen.len() < m {
        let i = rng.random_range(0..n) as NodeIndex;
        let j = rng.random_range(0..n) as NodeIndex;
        if i == j {
            continue;
        }
        chosen.insert(if i < j { (i, j) } else { (j, i) });
    }
    let mut b = GraphBuilder::new(n);
    b.edges(chosen);
    b.build().expect("connected gnm is valid")
}

/// Random `d`-regular graph via the pairing model with restarts (requires
/// `n·d` even, `d < n`). Suitable for the moderate sizes of the harness.
pub fn random_regular(n: usize, d: usize, seed: u64) -> Graph {
    assert!((n * d).is_multiple_of(2), "n*d must be even");
    assert!(d < n, "degree must be below n");
    'attempt: for attempt in 0..10_000u64 {
        let mut rng = derived_rng(seed, labels::GRAPH_TOPOLOGY, 4, attempt);
        let mut stubs: Vec<NodeIndex> =
            (0..n as NodeIndex).flat_map(|v| std::iter::repeat_n(v, d)).collect();
        // Fisher–Yates shuffle.
        for i in (1..stubs.len()).rev() {
            let j = rng.random_range(0..=i);
            stubs.swap(i, j);
        }
        let mut seen = BTreeSet::new();
        for pair in stubs.chunks(2) {
            // ck-lint: allow(index-literal, reason = "stubs has even length n*d, so chunks(2) yields exactly-two-element slices")
            let (x, y) = (pair[0], pair[1]);
            if x == y {
                continue 'attempt;
            }
            let e = if x < y { (x, y) } else { (y, x) };
            if !seen.insert(e) {
                continue 'attempt;
            }
        }
        let mut b = GraphBuilder::new(n);
        b.edges(seen);
        return b.build().expect("regular graph is valid");
    }
    panic!("pairing model failed to produce a simple {d}-regular graph on {n} nodes");
}

/// Random graph of girth `> k` built by incremental insertion: a uniformly
/// random candidate edge `{u, v}` is kept only when the current distance
/// `dist(u, v) ≥ k`, so every cycle it closes has length ≥ `k+1`. Since any
/// cycle of the final graph goes through the last of its edges inserted,
/// all cycles are longer than `k`: the result is certifiably `Cj`-free for
/// every `j ≤ k`.
///
/// `attempts` candidate edges are drawn; the density achieved depends on
/// `n` and `k` (higher girth ⟹ necessarily sparser).
pub fn high_girth(n: usize, k: usize, attempts: usize, seed: u64) -> Graph {
    let mut rng = derived_rng(seed, labels::GRAPH_TOPOLOGY, 5, 0);
    let mut adj: Vec<Vec<NodeIndex>> = vec![Vec::new(); n];
    let mut edges: Vec<(NodeIndex, NodeIndex)> = Vec::new();
    let mut dist = vec![u32::MAX; n];
    let mut touched: Vec<usize> = Vec::new();
    for _ in 0..attempts {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u == v {
            continue;
        }
        // Bounded BFS from u to depth k−1: if v is reached the new edge
        // would close a cycle of length ≤ k.
        for &t in &touched {
            dist[t] = u32::MAX;
        }
        touched.clear();
        dist[u] = 0;
        touched.push(u);
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(u);
        let mut reachable = false;
        'bfs: while let Some(x) = queue.pop_front() {
            if dist[x] as usize >= k - 1 {
                continue;
            }
            for &y in &adj[x] {
                if dist[y as usize] == u32::MAX {
                    dist[y as usize] = dist[x] + 1;
                    touched.push(y as usize);
                    if y as usize == v {
                        reachable = true;
                        break 'bfs;
                    }
                    queue.push_back(y as usize);
                }
            }
        }
        if reachable {
            continue;
        }
        adj[u].push(v as NodeIndex);
        adj[v].push(u as NodeIndex);
        edges.push((u as NodeIndex, v as NodeIndex));
    }
    let mut b = GraphBuilder::new(n);
    b.edges(edges);
    b.build().expect("high girth graph is valid")
}

/// Assigns fresh random distinct IDs in `[0, n²)` (polynomial range, as the
/// model allows) to an existing graph.
pub fn randomize_ids(g: &Graph, seed: u64) -> Graph {
    let n = g.n();
    let range = (n as u64).saturating_mul(n as u64).max(n as u64 + 1);
    let mut rng = derived_rng(seed, labels::GRAPH_IDS, 0, 0);
    let mut used = BTreeSet::new();
    let mut ids = Vec::with_capacity(n);
    while ids.len() < n {
        let id = rng.random_range(0..range);
        if used.insert(id) {
            ids.push(id);
        }
    }
    g.with_ids(ids).expect("generated IDs are distinct")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnp_is_deterministic() {
        let a = gnp(40, 0.15, 7);
        let b = gnp(40, 0.15, 7);
        assert_eq!(a.edges(), b.edges());
        let c = gnp(40, 0.15, 8);
        assert_ne!(a.edges(), c.edges());
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(gnp(10, 0.0, 1).m(), 0);
        assert_eq!(gnp(10, 1.0, 1).m(), 45);
    }

    #[test]
    fn gnm_exact_edge_count() {
        for &m in &[0usize, 1, 10, 40] {
            assert_eq!(gnm(12, m, 3).m(), m);
        }
    }

    #[test]
    fn random_tree_is_tree() {
        for seed in 0..10 {
            let t = random_tree(30, seed);
            assert_eq!(t.m(), 29);
            assert!(t.is_connected());
            assert_eq!(t.girth(), None);
        }
    }

    #[test]
    fn random_tree_tiny() {
        assert_eq!(random_tree(1, 0).m(), 0);
        assert_eq!(random_tree(2, 0).m(), 1);
        let t3 = random_tree(3, 5);
        assert_eq!(t3.m(), 2);
        assert!(t3.is_connected());
    }

    #[test]
    fn connected_gnm_is_connected() {
        for seed in 0..8 {
            let g = connected_gnm(25, 40, seed);
            assert_eq!(g.m(), 40);
            assert!(g.is_connected());
        }
    }

    #[test]
    fn random_regular_degrees() {
        let g = random_regular(20, 3, 11);
        assert!((0..20).all(|v| g.degree(v) == 3));
        assert_eq!(g.m(), 30);
    }

    #[test]
    fn high_girth_certified() {
        for k in 3..7 {
            let g = high_girth(60, k, 600, 5);
            if let Some(girth) = g.girth() {
                assert!(girth > k as u32, "girth {girth} must exceed {k}");
            }
            assert!(g.m() > 0, "generator produced an empty graph");
        }
    }

    #[test]
    fn randomize_ids_preserves_topology() {
        let g = gnp(20, 0.3, 2);
        let h = randomize_ids(&g, 99);
        assert_eq!(g.edges(), h.edges());
        let mut ids = h.ids().to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), h.n());
        assert!(ids.iter().all(|&i| i < (20 * 20) as u64));
    }
}
