//! Graph surgery: edit-distance experiments around the farness gap.
//!
//! Property testing promises nothing for instances that contain a `Ck`
//! but are *not* ε-far — the paper: "In the case of instances which are
//! nearly satisfying P but not quite, the algorithm can output either
//! ways." These utilities build such *gap* instances: start from an
//! ε-far graph and delete cycle edges until only a few copies survive,
//! or start from a free graph and inject exactly `c` copies.

// ck-lint: allow-file(no-panic, reason = "surgery rebuilds from an already-valid graph, so the edited edge list stays in range")
use ck_congest::graph::{Edge, Graph, GraphBuilder, NodeIndex};
use ck_congest::rngs::{derived_rng, labels};
use rand::RngExt;

use crate::farness::{find_ck_filtered, greedy_ck_packing};

/// Removes edges from `g` (by edge index set) and rebuilds.
pub fn remove_edges(g: &Graph, remove: &[u32]) -> Graph {
    let dead: std::collections::BTreeSet<u32> = remove.iter().copied().collect();
    let mut b = GraphBuilder::new(g.n());
    for (i, e) in g.edges().iter().enumerate() {
        if !dead.contains(&(i as u32)) {
            b.edge(e.a, e.b);
        }
    }
    b.ids(g.ids().to_vec());
    b.build().expect("edge removal keeps the graph valid")
}

/// Adds the given edges (ignoring duplicates) and rebuilds.
pub fn add_edges(g: &Graph, extra: &[(NodeIndex, NodeIndex)]) -> Graph {
    let mut b = GraphBuilder::new(g.n());
    b.edges(g.edges().iter().map(|e| (e.a, e.b)));
    b.edges(extra.iter().copied());
    b.ids(g.ids().to_vec());
    b.build().expect("edge addition keeps the graph valid")
}

/// Deletes one edge from every `Ck` until at most `keep` copies remain
/// (in the greedy-packing sense). Returns the surgically thinned graph
/// and the number of edges removed — a *gap* instance when `keep` is
/// small but positive: it contains a `Ck` yet is far from ε-far.
pub fn thin_to_few_cycles(g: &Graph, k: usize, keep: usize, seed: u64) -> (Graph, usize) {
    let mut rng = derived_rng(seed, labels::GRAPH_TOPOLOGY, 7, 0);
    let mut current = g.clone();
    let mut removed_total = 0;
    loop {
        let packing = greedy_ck_packing(&current, k);
        if packing.len() <= keep {
            return (current, removed_total);
        }
        // Break one copy beyond the quota by removing a random edge of it.
        let surplus = &packing[keep..];
        let victim = &surplus[rng.random_range(0..surplus.len())];
        let i = rng.random_range(0..k);
        let e = Edge::new(victim[i], victim[(i + 1) % k]);
        let idx = current.edges().binary_search(&e).expect("cycle edge exists") as u32;
        current = remove_edges(&current, &[idx]);
        removed_total += 1;
    }
}

/// Destroys **all** `Ck` copies by repeated single-edge deletion; returns
/// the `Ck`-free result and the number of removals (an upper bound on
/// the edit distance to `Ck`-freeness, hence a farness upper bound:
/// `g` is NOT ε-far for any `ε > removals / m`).
pub fn make_ck_free(g: &Graph, k: usize, seed: u64) -> (Graph, usize) {
    let mut rng = derived_rng(seed, labels::GRAPH_TOPOLOGY, 8, 0);
    let mut current = g.clone();
    let mut removed = 0;
    loop {
        let found = find_ck_filtered(&current, k, &|_| true);
        let Some(cycle) = found else {
            return (current, removed);
        };
        let i = rng.random_range(0..k);
        let e = Edge::new(cycle[i], cycle[(i + 1) % k]);
        let idx = current.edges().binary_search(&e).expect("cycle edge exists") as u32;
        current = remove_edges(&current, &[idx]);
        removed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::cycle_cactus;
    use crate::farness::{contains_ck, is_ck_free};
    use crate::planted::cycle_chain;

    #[test]
    fn remove_and_add_round_trip() {
        let g = cycle_cactus(3, 4);
        let removed = remove_edges(&g, &[0]);
        assert_eq!(removed.m(), g.m() - 1);
        let (a, b) = (g.edges()[0].a, g.edges()[0].b);
        let back = add_edges(&removed, &[(a, b)]);
        assert_eq!(back.edges(), g.edges());
        assert_eq!(back.ids(), g.ids());
    }

    #[test]
    fn thinning_reaches_the_quota() {
        let inst = cycle_chain(8, 5);
        let (thin, removed) = thin_to_few_cycles(&inst.graph, 5, 2, 3);
        assert_eq!(greedy_ck_packing(&thin, 5).len(), 2);
        assert!(contains_ck(&thin, 5));
        assert!(removed >= 6, "one removal per surplus copy at least");
    }

    #[test]
    fn make_free_removes_all_copies() {
        let inst = cycle_chain(5, 4);
        let (free, removed) = make_ck_free(&inst.graph, 4, 1);
        assert!(is_ck_free(&free, 4));
        assert!(removed >= 5, "at least one removal per planted copy");
        // Edit distance certificate: removing `removed` edges sufficed.
        assert!(free.m() + removed == inst.graph.m());
    }

    #[test]
    fn thinning_to_zero_equals_freeness() {
        let inst = cycle_chain(4, 6);
        let (thin, _) = thin_to_few_cycles(&inst.graph, 6, 0, 9);
        // keep = 0: greedy packing empty ⟺ no copy survives the greedy
        // search ⟹ graph is Ck-free (greedy finds a copy iff one exists).
        assert!(is_ck_free(&thin, 6));
    }
}
