//! Structural graph analysis beyond the basics in [`crate::graph`].
//!
//! Workload characterization for the experiment harness: bipartiteness
//! (decides odd-cycle-freeness wholesale), bridges (edges on no cycle
//! at all), k-core decomposition and triangle counts. Everything is
//! exact and intended for harness-scale graphs.

use crate::graph::{Edge, Graph, NodeIndex};

/// Two-coloring if the graph is bipartite (`None` otherwise). A bipartite
/// graph contains no odd cycle, hence is `Ck`-free for every odd `k`.
pub fn bipartition(g: &Graph) -> Option<Vec<bool>> {
    let n = g.n();
    let mut color = vec![None; n];
    for s in 0..n {
        if color[s].is_some() {
            continue;
        }
        color[s] = Some(false);
        let mut queue = std::collections::VecDeque::from([s as NodeIndex]);
        while let Some(v) = queue.pop_front() {
            // ck-lint: allow(no-panic, reason = "every node is colored before it is enqueued, and v came off the queue")
            let cv = color[v as usize].unwrap();
            for &w in g.neighbors(v) {
                match color[w as usize] {
                    None => {
                        color[w as usize] = Some(!cv);
                        queue.push_back(w);
                    }
                    Some(cw) if cw == cv => return None,
                    _ => {}
                }
            }
        }
    }
    // ck-lint: allow(no-panic, reason = "the outer loop seeded a BFS from every uncolored node, so all components are fully colored here")
    Some(color.into_iter().map(|c| c.unwrap()).collect())
}

/// True if the graph is bipartite.
pub fn is_bipartite(g: &Graph) -> bool {
    bipartition(g).is_some()
}

/// Bridges (cut edges): edges on **no** cycle. A `Ck` can never pass
/// through a bridge, so the Phase-2 check for a bridge edge is vacuous —
/// useful for workload sanity checks. Iterative Tarjan low-link.
pub fn bridges(g: &Graph) -> Vec<Edge> {
    let n = g.n();
    let mut disc = vec![u32::MAX; n];
    let mut low = vec![u32::MAX; n];
    let mut timer = 0u32;
    let mut out = Vec::new();
    // Iterative DFS frame: (node, parent-edge slot index into adjacency,
    // next child port to explore).
    for s in 0..n as NodeIndex {
        if disc[s as usize] != u32::MAX {
            continue;
        }
        let mut stack: Vec<(NodeIndex, Option<u32>, u32)> = vec![(s, None, 0)];
        disc[s as usize] = timer;
        low[s as usize] = timer;
        timer += 1;
        while let Some(&mut (v, pe, ref mut port)) = stack.last_mut() {
            if (*port as usize) < g.degree(v) {
                let p = *port;
                *port += 1;
                let eidx = g.edge_index_at(v, p);
                if Some(eidx) == pe {
                    continue; // don't walk back the tree edge itself
                }
                let w = g.neighbor_at(v, p);
                if disc[w as usize] == u32::MAX {
                    disc[w as usize] = timer;
                    low[w as usize] = timer;
                    timer += 1;
                    stack.push((w, Some(eidx), 0));
                } else {
                    low[v as usize] = low[v as usize].min(disc[w as usize]);
                }
            } else {
                stack.pop();
                if let Some(&mut (parent, _, _)) = stack.last_mut() {
                    low[parent as usize] = low[parent as usize].min(low[v as usize]);
                    if low[v as usize] > disc[parent as usize] {
                        out.push(Edge::new(parent, v));
                    }
                }
            }
        }
    }
    out.sort_unstable();
    out
}

/// Exact triangle count (each counted once) via ordered neighbor
/// intersection.
pub fn triangle_count(g: &Graph) -> u64 {
    let mut total = 0u64;
    for e in g.edges() {
        let (a, b) = (e.a, e.b);
        // Count common neighbors above max(a, b) to count each triangle
        // at its lexicographically smallest edge exactly once… simpler:
        // count all common neighbors and divide by 3 at the end. Here:
        // common neighbors c with c > b (so each triangle is counted at
        // its lowest two vertices).
        let (mut i, mut j) = (0usize, 0usize);
        let na = g.neighbors(a);
        let nb = g.neighbors(b);
        while i < na.len() && j < nb.len() {
            match na[i].cmp(&nb[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if na[i] > b {
                        total += 1;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    total
}

/// k-core numbers: the largest `k` such that the node survives in the
/// subgraph of minimum degree `k`. Peeling in O(m).
pub fn core_numbers(g: &Graph) -> Vec<u32> {
    let n = g.n();
    let mut degree: Vec<u32> = (0..n).map(|v| g.degree(v as NodeIndex) as u32).collect();
    let mut order: Vec<NodeIndex> = (0..n as NodeIndex).collect();
    order.sort_unstable_by_key(|&v| degree[v as usize]);
    let mut core = vec![0u32; n];
    let mut removed = vec![false; n];
    // Simple peel with a re-sorted bucket queue substitute (harness-scale).
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u32, NodeIndex)>> =
        order.iter().map(|&v| std::cmp::Reverse((degree[v as usize], v))).collect();
    let mut current = 0u32;
    while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
        if removed[v as usize] || d != degree[v as usize] {
            continue; // stale entry
        }
        removed[v as usize] = true;
        current = current.max(d);
        core[v as usize] = current;
        for &w in g.neighbors(v) {
            if !removed[w as usize] {
                degree[w as usize] -= 1;
                heap.push(std::cmp::Reverse((degree[w as usize], w)));
            }
        }
    }
    core
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn g(edges: &[(NodeIndex, NodeIndex)], n: usize) -> Graph {
        GraphBuilder::new(n).edges(edges.iter().copied()).build().unwrap()
    }

    #[test]
    fn bipartite_detection() {
        let even = g(&[(0, 1), (1, 2), (2, 3), (3, 0)], 4); // C4
        assert!(is_bipartite(&even));
        let odd = g(&[(0, 1), (1, 2), (2, 0)], 3); // C3
        assert!(!is_bipartite(&odd));
        let coloring = bipartition(&even).unwrap();
        for e in even.edges() {
            assert_ne!(coloring[e.a as usize], coloring[e.b as usize]);
        }
    }

    #[test]
    fn bridges_of_a_barbell() {
        // Two triangles joined by a bridge 2-3.
        let gr = g(&[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)], 6);
        assert_eq!(bridges(&gr), vec![Edge::new(2, 3)]);
    }

    #[test]
    fn tree_is_all_bridges() {
        let t = g(&[(0, 1), (1, 2), (1, 3), (3, 4)], 5);
        assert_eq!(bridges(&t).len(), 4);
    }

    #[test]
    fn cycle_has_no_bridges() {
        let c = g(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], 5);
        assert!(bridges(&c).is_empty());
    }

    #[test]
    fn triangle_counts() {
        // K4 has 4 triangles.
        let k4 = g(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4);
        assert_eq!(triangle_count(&k4), 4);
        let c5 = g(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], 5);
        assert_eq!(triangle_count(&c5), 0);
    }

    #[test]
    fn core_numbers_of_lollipop() {
        // Triangle 0-1-2 with tail 2-3-4: triangle is 2-core, tail 1-core.
        let gr = g(&[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], 5);
        let core = core_numbers(&gr);
        assert_eq!(core[0], 2);
        assert_eq!(core[1], 2);
        assert_eq!(core[2], 2);
        assert_eq!(core[3], 1);
        assert_eq!(core[4], 1);
    }

    #[test]
    fn core_numbers_of_clique() {
        let k5 = {
            let mut b = GraphBuilder::new(5);
            for i in 0..5u32 {
                for j in i + 1..5 {
                    b.edge(i, j);
                }
            }
            b.build().unwrap()
        };
        assert!(core_numbers(&k5).iter().all(|&c| c == 4));
    }

    #[test]
    fn empty_and_single() {
        let empty = GraphBuilder::new(0).build().unwrap();
        assert!(is_bipartite(&empty));
        assert!(bridges(&empty).is_empty());
        assert_eq!(triangle_count(&empty), 0);
        let single = GraphBuilder::new(1).build().unwrap();
        assert_eq!(core_numbers(&single), vec![0]);
    }
}
