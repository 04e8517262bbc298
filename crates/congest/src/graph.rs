//! Static, simple, undirected graphs in CSR form.
//!
//! The CONGEST model operates on a connected simple graph whose nodes carry
//! arbitrary distinct identities polynomial in `n`. This module provides the
//! immutable topology the round engine runs on: adjacency in compressed
//! sparse row layout, a canonical edge list, the reverse directed edge of
//! every adjacency slot (where a message sent on that slot lands in the
//! receiver's row, and hence its receiver-side port), and the usual
//! structural queries (connectivity, BFS, girth, degree statistics).
//!
//! A graph has two serial forms: the edge-list text of
//! [`Graph::to_edge_list`] for files, and the varint graph section of
//! [`Graph::write_bytes`] for the wire.

use std::collections::HashMap;
use std::fmt;

use crate::net::frame::{ByteReader, ByteWriter, FrameError};

/// A node identity. The paper assumes IDs are distinct and polynomial in
/// `n`, hence representable in `O(log n)` bits; we use `u64`.
pub type NodeId = u64;

/// Dense node index in `0..n`. Topology internals use indices; protocol
/// payloads use [`NodeId`]s.
pub type NodeIndex = u32;

/// Identifier of a *directed* edge `(v, p)`: node `v`'s adjacency slot
/// for local port `p`, i.e. `offsets[v] + p` in the CSR layout. Directed
/// edges number exactly `2m` and tile `0..2m` contiguously per node,
/// which is what lets the round engine key its flat per-link accounting
/// counters (by the sender's id) and its mailbox (by the receiver's,
/// the [reverse edge](Graph::reverse_edge)) with no hashing and no
/// search.
pub type DirectedEdgeId = u32;

/// An undirected edge in canonical (smaller index, larger index) order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Edge {
    pub a: NodeIndex,
    pub b: NodeIndex,
}

impl Edge {
    /// Canonicalizes the endpoint order.
    pub fn new(x: NodeIndex, y: NodeIndex) -> Self {
        if x <= y {
            Edge { a: x, b: y }
        } else {
            Edge { a: y, b: x }
        }
    }

    /// Returns the endpoint distinct from `v`, or `None` if `v` is not an
    /// endpoint.
    pub fn other(&self, v: NodeIndex) -> Option<NodeIndex> {
        if v == self.a {
            Some(self.b)
        } else if v == self.b {
            Some(self.a)
        } else {
            None
        }
    }

    /// True if `v` is an endpoint of this edge.
    pub fn touches(&self, v: NodeIndex) -> bool {
        v == self.a || v == self.b
    }
}

/// Errors raised while assembling a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A self-loop was inserted; CONGEST graphs are simple.
    SelfLoop(NodeIndex),
    /// An endpoint index is out of the declared node range.
    NodeOutOfRange { node: NodeIndex, n: usize },
    /// Two nodes were assigned the same identity.
    DuplicateId(NodeId),
    /// The ID table length does not match the node count.
    IdTableLength { expected: usize, got: usize },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::SelfLoop(v) => write!(f, "self-loop at node {v}"),
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for n={n}")
            }
            GraphError::DuplicateId(id) => write!(f, "duplicate node identity {id}"),
            GraphError::IdTableLength { expected, got } => {
                write!(f, "ID table has {got} entries, expected {expected}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Incremental builder for [`Graph`]. Parallel edges are merged silently
/// (the model allows at most one edge per node pair); self-loops are
/// rejected at [`GraphBuilder::build`] time.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<Edge>,
    ids: Option<Vec<NodeId>>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder { n, edges: Vec::new(), ids: None }
    }

    /// Number of declared nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds an undirected edge between node indices `x` and `y`.
    pub fn edge(&mut self, x: NodeIndex, y: NodeIndex) -> &mut Self {
        self.edges.push(Edge::new(x, y));
        self
    }

    /// Adds every edge from the iterator.
    pub fn edges<I: IntoIterator<Item = (NodeIndex, NodeIndex)>>(&mut self, it: I) -> &mut Self {
        for (x, y) in it {
            self.edge(x, y);
        }
        self
    }

    /// Installs an explicit ID table (one identity per node index). By
    /// default nodes get identity `index` (a valid polynomial-range
    /// assignment); experiments that need adversarial or randomized IDs
    /// override it here or via [`Graph::with_ids`].
    pub fn ids(&mut self, ids: Vec<NodeId>) -> &mut Self {
        self.ids = Some(ids);
        self
    }

    /// Validates and freezes the topology.
    pub fn build(&self) -> Result<Graph, GraphError> {
        let n = self.n;
        for e in &self.edges {
            if e.a == e.b {
                return Err(GraphError::SelfLoop(e.a));
            }
            if (e.b as usize) >= n {
                return Err(GraphError::NodeOutOfRange { node: e.b, n });
            }
        }
        let mut edges = self.edges.clone();
        edges.sort_unstable();
        edges.dedup();
        Graph::from_sorted_edges(n, edges, self.ids.clone())
    }
}

/// Maps each identity to its node index, failing on the first
/// identity seen twice.
fn index_ids(ids: &[NodeId]) -> Result<HashMap<NodeId, NodeIndex>, GraphError> {
    let mut index_of_id = HashMap::with_capacity(ids.len());
    for (i, &id) in ids.iter().enumerate() {
        if index_of_id.insert(id, i as NodeIndex).is_some() {
            return Err(GraphError::DuplicateId(id));
        }
    }
    Ok(index_of_id)
}

/// The CSR-aligned table of neighbor identities. Recomputed whenever
/// the ID table changes.
fn neighbor_ids_of(neighbors: &[NodeIndex], ids: &[NodeId]) -> Vec<NodeId> {
    neighbors.iter().map(|&w| ids[w as usize]).collect()
}

/// An immutable simple undirected graph with node identities, stored in
/// CSR form. All engine-facing lookups are O(1) or O(log degree).
#[derive(Clone, Debug)]
pub struct Graph {
    n: usize,
    offsets: Vec<u32>,
    neighbors: Vec<NodeIndex>,
    /// Edge index (into `edges`) for each adjacency slot.
    edge_of_slot: Vec<u32>,
    /// Reverse directed edge per slot: for the slot of `v -> w`, the
    /// slot of `w -> v` (in `w`'s row, at `v`'s position). An
    /// involution; the receiver-side port is this id minus `w`'s row
    /// offset.
    rev_edge: Vec<DirectedEdgeId>,
    edges: Vec<Edge>,
    ids: Vec<NodeId>,
    index_of_id: HashMap<NodeId, NodeIndex>,
    /// Identity of `neighbors[s]`, per adjacency slot `s` (CSR-aligned).
    neighbor_ids_flat: Vec<NodeId>,
}

impl Graph {
    /// Freezes `edges`, which must be sorted, free of duplicates and
    /// self-loops, and inside `0..n`, into CSR form. Rows fill in
    /// ascending order without a sort: row `v` receives its lower
    /// neighbours from the edges `(a, v)`, then its higher ones from the
    /// edges `(v, b)`, each run ascending. The allocations are a fixed
    /// set of arrays, none per node.
    fn from_sorted_edges(
        n: usize,
        edges: Vec<Edge>,
        ids: Option<Vec<NodeId>>,
    ) -> Result<Graph, GraphError> {
        debug_assert!(edges.is_sorted_by(|x, y| x < y));
        let mut offsets = vec![0u32; n + 1];
        for e in &edges {
            offsets[e.a as usize + 1] += 1;
            offsets[e.b as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut neighbors = vec![0 as NodeIndex; 2 * edges.len()];
        let mut edge_of_slot = vec![0u32; 2 * edges.len()];
        // rev_edge[slot of (v -> w)] = slot of (w -> v): each edge fills
        // one slot in either row, so the two cursors are the reverse
        // directed edges of each other.
        let mut rev_edge = vec![0 as DirectedEdgeId; 2 * edges.len()];
        for (ei, e) in edges.iter().enumerate() {
            let (a, b) = (e.a as usize, e.b as usize);
            let (ca, cb) = (cursor[a], cursor[b]);
            neighbors[ca as usize] = e.b;
            neighbors[cb as usize] = e.a;
            edge_of_slot[ca as usize] = ei as u32;
            edge_of_slot[cb as usize] = ei as u32;
            rev_edge[ca as usize] = cb;
            rev_edge[cb as usize] = ca;
            cursor[a] += 1;
            cursor[b] += 1;
        }
        debug_assert!((0..n).all(|v| {
            neighbors[offsets[v] as usize..offsets[v + 1] as usize].is_sorted_by(|x, y| x < y)
        }));

        let ids = match ids {
            Some(ids) if ids.len() != n => {
                return Err(GraphError::IdTableLength { expected: n, got: ids.len() });
            }
            Some(ids) => ids,
            None => (0..n as NodeId).collect(),
        };
        let index_of_id = index_ids(&ids)?;
        let neighbor_ids_flat = neighbor_ids_of(&neighbors, &ids);

        Ok(Graph {
            n,
            offsets,
            neighbors,
            edge_of_slot,
            rev_edge,
            edges,
            ids,
            index_of_id,
            neighbor_ids_flat,
        })
    }

    /// Number of nodes (`n` in the paper).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges (`m` in the paper).
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Canonical edge list (sorted lexicographically).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Identity of node `v`.
    pub fn id(&self, v: NodeIndex) -> NodeId {
        self.ids[v as usize]
    }

    /// The full ID table, indexed by node index.
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// Node index carrying identity `id`, if any.
    pub fn index_of(&self, id: NodeId) -> Option<NodeIndex> {
        self.index_of_id.get(&id).copied()
    }

    /// Degree of `v`.
    pub fn degree(&self, v: NodeIndex) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v as NodeIndex)).max().unwrap_or(0)
    }

    /// Average degree `2m/n`.
    pub fn avg_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            2.0 * self.m() as f64 / self.n as f64
        }
    }

    /// Sorted neighbor row of `v`.
    pub fn neighbors(&self, v: NodeIndex) -> &[NodeIndex] {
        let (s, t) = (self.offsets[v as usize] as usize, self.offsets[v as usize + 1] as usize);
        &self.neighbors[s..t]
    }

    /// Neighbor reached from `v` through local port `p`.
    pub fn neighbor_at(&self, v: NodeIndex, p: u32) -> NodeIndex {
        self.neighbors(v)[p as usize]
    }

    /// Port of `v` leading to `w`, if the edge exists.
    pub fn port_to(&self, v: NodeIndex, w: NodeIndex) -> Option<u32> {
        self.neighbors(v).binary_search(&w).ok().map(|p| p as u32)
    }

    /// Port of `v` within `w`'s adjacency row, given `v`'s local port `p`
    /// towards `w` (the receiver-side label of a message sent on `p`):
    /// the [reverse edge](Graph::reverse_edge) minus `w`'s row offset.
    pub fn reverse_port(&self, v: NodeIndex, p: u32) -> u32 {
        let de = self.offsets[v as usize] as usize + p as usize;
        self.rev_edge[de] - self.offsets[self.neighbors[de] as usize]
    }

    /// The reverse of directed edge `(v, p)`: the directed edge `(w, q)`
    /// with `w` the neighbour on `v`'s port `p` and `q` `v`'s position
    /// in `w`'s row. The round engine's mailbox files a message sent on
    /// `(v, p)` under this id, so each receiver's deliveries sit in its
    /// own CSR row, in port order.
    pub fn reverse_edge(&self, v: NodeIndex, p: u32) -> DirectedEdgeId {
        self.rev_edge[self.offsets[v as usize] as usize + p as usize]
    }

    /// Edge index (into [`Graph::edges`]) of the adjacency slot `(v, p)`.
    pub fn edge_index_at(&self, v: NodeIndex, p: u32) -> u32 {
        self.edge_of_slot[self.offsets[v as usize] as usize + p as usize]
    }

    /// Number of directed edges (`2m`): the size of the engine's
    /// mailbox, one slot per link.
    pub fn num_directed_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// Directed-edge id of `(v, p)`.
    pub fn directed_edge(&self, v: NodeIndex, p: u32) -> DirectedEdgeId {
        self.offsets[v as usize] + p
    }

    /// The contiguous directed-edge id range owned by sender `v` — one
    /// id per local port, in port order.
    pub fn directed_edge_range(&self, v: NodeIndex) -> std::ops::Range<DirectedEdgeId> {
        self.offsets[v as usize]..self.offsets[v as usize + 1]
    }

    /// Identities of `v`'s neighbors, indexed by local port — a borrow
    /// of the graph's CSR-aligned table, so handing it to every node
    /// costs nothing.
    pub fn neighbor_ids(&self, v: NodeIndex) -> &[NodeId] {
        let (s, t) = (self.offsets[v as usize] as usize, self.offsets[v as usize + 1] as usize);
        &self.neighbor_ids_flat[s..t]
    }

    /// Reverse directed edge per local port of `v` (the `rev_edge`
    /// row): the mailbox slot each of `v`'s sends is stored in.
    pub(crate) fn rev_edges_row(&self, v: NodeIndex) -> &[DirectedEdgeId] {
        let (s, t) = (self.offsets[v as usize] as usize, self.offsets[v as usize + 1] as usize);
        &self.rev_edge[s..t]
    }

    /// True if `{v, w}` is an edge.
    pub fn has_edge(&self, v: NodeIndex, w: NodeIndex) -> bool {
        if v == w {
            return false;
        }
        let (v, w) = if self.degree(v) <= self.degree(w) { (v, w) } else { (w, v) };
        self.neighbors(v).binary_search(&w).is_ok()
    }

    /// Replaces the ID table, returning a new graph with identical topology.
    pub fn with_ids(&self, ids: Vec<NodeId>) -> Result<Graph, GraphError> {
        if ids.len() != self.n {
            return Err(GraphError::IdTableLength { expected: self.n, got: ids.len() });
        }
        let index_of_id = index_ids(&ids)?;
        let neighbor_ids_flat = neighbor_ids_of(&self.neighbors, &ids);
        Ok(Graph {
            n: self.n,
            offsets: self.offsets.clone(),
            neighbors: self.neighbors.clone(),
            edge_of_slot: self.edge_of_slot.clone(),
            rev_edge: self.rev_edge.clone(),
            edges: self.edges.clone(),
            ids,
            index_of_id,
            neighbor_ids_flat,
        })
    }

    /// BFS distances from `src` (`u32::MAX` marks unreachable nodes).
    pub fn bfs_distances(&self, src: NodeIndex) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.n];
        let mut queue = std::collections::VecDeque::new();
        dist[src as usize] = 0;
        queue.push_back(src);
        while let Some(v) = queue.pop_front() {
            let dv = dist[v as usize];
            for &w in self.neighbors(v) {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = dv + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// True if the graph is connected (the CONGEST model assumes so; the
    /// engine itself tolerates disconnected inputs).
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        self.bfs_distances(0).iter().all(|&d| d != u32::MAX)
    }

    /// Number of connected components.
    pub fn component_count(&self) -> usize {
        let mut comp = vec![usize::MAX; self.n];
        let mut c = 0;
        for s in 0..self.n {
            if comp[s] != usize::MAX {
                continue;
            }
            let mut stack = vec![s as NodeIndex];
            comp[s] = c;
            while let Some(v) = stack.pop() {
                for &w in self.neighbors(v) {
                    if comp[w as usize] == usize::MAX {
                        comp[w as usize] = c;
                        stack.push(w);
                    }
                }
            }
            c += 1;
        }
        c
    }

    /// Eccentricity-based diameter (exact; O(n·m) — for test-scale graphs).
    pub fn diameter(&self) -> Option<u32> {
        if self.n == 0 {
            return Some(0);
        }
        let mut best = 0;
        for v in 0..self.n {
            let d = self.bfs_distances(v as NodeIndex);
            for &x in &d {
                if x == u32::MAX {
                    return None; // disconnected
                }
                best = best.max(x);
            }
        }
        Some(best)
    }

    /// Girth (length of a shortest cycle), or `None` for forests. Standard
    /// BFS-per-vertex bound: O(n·m).
    pub fn girth(&self) -> Option<u32> {
        let mut best: Option<u32> = None;
        let mut dist = vec![u32::MAX; self.n];
        let mut parent = vec![u32::MAX; self.n];
        for s in 0..self.n {
            dist.iter_mut().for_each(|d| *d = u32::MAX);
            parent.iter_mut().for_each(|p| *p = u32::MAX);
            let mut queue = std::collections::VecDeque::new();
            dist[s] = 0;
            queue.push_back(s as NodeIndex);
            while let Some(v) = queue.pop_front() {
                for &w in self.neighbors(v) {
                    if dist[w as usize] == u32::MAX {
                        dist[w as usize] = dist[v as usize] + 1;
                        parent[w as usize] = v;
                        queue.push_back(w);
                    } else if parent[v as usize] != w {
                        // Non-tree edge: cycle through s of length
                        // dist[v] + dist[w] + 1 (an upper bound that is
                        // tight for the BFS root on its shortest cycle).
                        let len = dist[v as usize] + dist[w as usize] + 1;
                        best = Some(best.map_or(len, |b| b.min(len)));
                    }
                }
            }
        }
        best
    }

    /// Total degree histogram, indexed by degree.
    pub fn degree_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.max_degree() + 1];
        for v in 0..self.n {
            h[self.degree(v as NodeIndex)] += 1;
        }
        h
    }

    /// Serializes to a plain edge-list text format (`n m` header, then one
    /// `a b` pair per line, then an `ids` line) — a stable interchange
    /// format for the experiment harness.
    pub fn to_edge_list(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "{} {}", self.n, self.m());
        for e in &self.edges {
            let _ = writeln!(s, "{} {}", e.a, e.b);
        }
        let ids: Vec<String> = self.ids.iter().map(|i| i.to_string()).collect();
        let _ = writeln!(s, "ids {}", ids.join(" "));
        s
    }

    /// Parses the format produced by [`Graph::to_edge_list`].
    pub fn from_edge_list(text: &str) -> Result<Graph, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("missing header")?;
        let mut hp = header.split_whitespace();
        let n: usize = hp.next().ok_or("missing n")?.parse().map_err(|e| format!("bad n: {e}"))?;
        let m: usize = hp.next().ok_or("missing m")?.parse().map_err(|e| format!("bad m: {e}"))?;
        let mut b = GraphBuilder::new(n);
        let mut count = 0;
        let mut ids = None;
        for line in lines {
            if let Some(rest) = line.strip_prefix("ids ") {
                let parsed: Result<Vec<NodeId>, _> =
                    rest.split_whitespace().map(|t| t.parse()).collect();
                ids = Some(parsed.map_err(|e| format!("bad id: {e}"))?);
                continue;
            }
            let mut p = line.split_whitespace();
            let a: NodeIndex = p
                .next()
                .ok_or("missing endpoint")?
                .parse()
                .map_err(|e| format!("bad endpoint: {e}"))?;
            let bidx: NodeIndex = p
                .next()
                .ok_or("missing endpoint")?
                .parse()
                .map_err(|e| format!("bad endpoint: {e}"))?;
            b.edge(a, bidx);
            count += 1;
        }
        if count != m {
            return Err(format!("header claims {m} edges, found {count}"));
        }
        if let Some(ids) = ids {
            b.ids(ids);
        }
        b.build().map_err(|e| e.to_string())
    }

    /// Appends the graph section: the compact form in which a serve
    /// `Submit` and a distributed `Spec` carry their graph. Every
    /// integer is a [`ByteWriter::varint`]:
    ///
    /// ```text
    /// section = [n][m] row×n ids
    /// row     = [count][gap]×count    node v's neighbours w > v, ascending:
    ///                                 gap w₁ − v − 1, then wᵢ − wᵢ₋₁ − 1
    /// ids     = [0]                   identity IDs (node v has ID v)
    ///         | [1][id]×n             an explicit table
    /// ```
    ///
    /// The form is canonical: it cannot express a self-loop or a
    /// duplicate edge, and edges come back sorted by `(a, b)`. On a
    /// sparse graph with small gaps it costs about one byte per node
    /// and one per edge.
    pub fn write_bytes(&self, w: &mut ByteWriter) {
        w.0.reserve(self.n + self.m() + 8);
        w.varint(self.n as u64);
        w.varint(self.m() as u64);
        let mut rest = self.edges.as_slice();
        for v in 0..self.n as NodeIndex {
            let (row, tail) = rest.split_at(rest.partition_point(|e| e.a == v));
            w.varint(row.len() as u64);
            let mut prev = v;
            for e in row {
                w.varint(u64::from(e.b - prev - 1));
                prev = e.b;
            }
            rest = tail;
        }
        if self.ids.iter().enumerate().all(|(i, &id)| id == i as NodeId) {
            w.varint(0);
        } else {
            w.varint(1);
            for &id in &self.ids {
                w.varint(id);
            }
        }
    }

    /// Reads a [`write_bytes`](Graph::write_bytes) section straight
    /// into CSR form. Every failure is a typed [`FrameError`]. `n` and
    /// `m` are checked against the bytes that remain before anything
    /// is sized from them (each node and each edge costs at least one
    /// byte), so a hostile header costs nothing. A neighbour outside
    /// the graph, a gap that overflows, an edge count other than `m`,
    /// an unknown ID flag and a duplicate explicit ID are all
    /// [`FrameError::BadBody`].
    pub fn read_bytes(r: &mut ByteReader<'_>) -> Result<Graph, FrameError> {
        let n = r.varint()?;
        let m = r.varint()?;
        if n > u64::from(u32::MAX) || m > u64::from(u32::MAX / 2) {
            return Err(FrameError::BadBody("graph section size past the index range"));
        }
        // The ID flag takes one byte more.
        if n + m >= r.remaining() as u64 {
            return Err(FrameError::BadBody("graph section announces more than its bytes hold"));
        }
        let (n, m) = (n as usize, m as usize);
        let mut edges = Vec::with_capacity(m);
        for v in 0..n as NodeIndex {
            let count = r.varint()?;
            if count > (m - edges.len()) as u64 {
                return Err(FrameError::BadBody("graph section holds more edges than announced"));
            }
            let mut prev = u64::from(v);
            for _ in 0..count {
                let w = r
                    .varint()?
                    .checked_add(prev + 1)
                    .filter(|&w| w < n as u64)
                    .ok_or(FrameError::BadBody("graph section neighbour outside the graph"))?;
                edges.push(Edge { a: v, b: w as NodeIndex });
                prev = w;
            }
        }
        if edges.len() != m {
            return Err(FrameError::BadBody("graph section holds fewer edges than announced"));
        }
        let ids = match r.varint()? {
            0 => None,
            1 => {
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    ids.push(r.varint()?);
                }
                Some(ids)
            }
            _ => return Err(FrameError::BadBody("unknown graph ID flag")),
        };
        Graph::from_sorted_edges(n, edges, ids)
            .map_err(|_| FrameError::BadBody("graph section repeats a node identity"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        GraphBuilder::new(3).edges([(0, 1), (1, 2), (0, 2)]).build().unwrap()
    }

    #[test]
    fn builds_triangle() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 2);
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn rejects_self_loop() {
        let err = GraphBuilder::new(2).edges([(0, 0)]).build().unwrap_err();
        assert_eq!(err, GraphError::SelfLoop(0));
    }

    #[test]
    fn rejects_out_of_range() {
        let err = GraphBuilder::new(2).edges([(0, 5)]).build().unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 5, n: 2 }));
    }

    #[test]
    fn dedups_parallel_edges() {
        let g = GraphBuilder::new(2).edges([(0, 1), (1, 0), (0, 1)]).build().unwrap();
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn rejects_duplicate_ids() {
        let err = GraphBuilder::new(2).edges([(0, 1)]).ids(vec![7, 7]).build().unwrap_err();
        assert_eq!(err, GraphError::DuplicateId(7));
    }

    #[test]
    fn reverse_ports_are_consistent() {
        let g = GraphBuilder::new(5)
            .edges([(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4)])
            .build()
            .unwrap();
        for v in 0..g.n() as NodeIndex {
            for p in 0..g.degree(v) as u32 {
                let w = g.neighbor_at(v, p);
                let q = g.reverse_port(v, p);
                assert_eq!(g.neighbor_at(w, q), v, "rev port must lead back");
            }
        }
    }

    /// On random graphs — isolated nodes, n ≤ 1 and explicit ID tables
    /// included — `rev_edge` is an involution, the reverse of `(v, p)`
    /// lies in the row of `neighbors(v)[p]` at `v`'s position, and
    /// `reverse_port` is that id minus the row offset.
    #[test]
    fn reverse_edges_invert_and_land_in_the_receivers_row() {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) % bound.max(1)
        };
        for case in 0..300u64 {
            let n = next(24) as usize;
            let mut b = GraphBuilder::new(n);
            // Every other case leaves the last node isolated.
            let span = if case % 2 == 0 { n.saturating_sub(1) } else { n } as u64;
            if span >= 2 {
                for _ in 0..next(3 * span) {
                    let (x, y) = (next(span) as NodeIndex, next(span) as NodeIndex);
                    if x != y {
                        b.edge(x, y);
                    }
                }
            }
            if case % 3 == 0 {
                b.ids((0..n as NodeId).map(|i| (i * 7919 + 13) ^ 0x5a5a).collect());
            }
            let g = b.build().unwrap();
            assert_eq!(g.rev_edge.len(), g.num_directed_edges());
            for (de, &back) in g.rev_edge.iter().enumerate() {
                assert_eq!(g.rev_edge[back as usize] as usize, de, "case {case}: involution");
            }
            for v in 0..g.n() as NodeIndex {
                for p in 0..g.degree(v) as u32 {
                    let (w, back) = (g.neighbor_at(v, p), g.reverse_edge(v, p));
                    let row = g.directed_edge_range(w);
                    assert!(row.contains(&back), "case {case}: ({v}, {p}) lands in {w}'s row");
                    let q = back - row.start;
                    assert_eq!(g.neighbor_at(w, q), v, "case {case}: at {v}'s position");
                    assert_eq!(g.reverse_edge(w, q), g.directed_edge(v, p));
                    assert_eq!(g.reverse_port(v, p), q, "case {case}: reverse_port");
                }
            }
        }
    }

    #[test]
    fn edge_index_agrees_with_edge_list() {
        let g = GraphBuilder::new(4).edges([(0, 1), (1, 2), (2, 3), (0, 3)]).build().unwrap();
        for v in 0..g.n() as NodeIndex {
            for p in 0..g.degree(v) as u32 {
                let w = g.neighbor_at(v, p);
                let e = g.edges()[g.edge_index_at(v, p) as usize];
                assert_eq!(e, Edge::new(v, w));
            }
        }
    }

    #[test]
    fn bfs_and_diameter() {
        // Path 0-1-2-3-4.
        let g = GraphBuilder::new(5).edges([(0, 1), (1, 2), (2, 3), (3, 4)]).build().unwrap();
        assert_eq!(g.bfs_distances(0), vec![0, 1, 2, 3, 4]);
        assert_eq!(g.diameter(), Some(4));
        assert!(g.is_connected());
        assert_eq!(g.component_count(), 1);
        assert_eq!(g.girth(), None);
    }

    #[test]
    fn girth_of_cycles() {
        for k in 3..12u32 {
            let mut b = GraphBuilder::new(k as usize);
            for i in 0..k {
                b.edge(i, (i + 1) % k);
            }
            let g = b.build().unwrap();
            assert_eq!(g.girth(), Some(k), "girth of C{k}");
        }
    }

    #[test]
    fn girth_of_petersen_is_five() {
        // Petersen graph: outer C5, inner pentagram, spokes.
        let mut b = GraphBuilder::new(10);
        for i in 0..5u32 {
            b.edge(i, (i + 1) % 5);
            b.edge(5 + i, 5 + ((i + 2) % 5));
            b.edge(i, 5 + i);
        }
        let g = b.build().unwrap();
        assert_eq!(g.m(), 15);
        assert_eq!(g.girth(), Some(5));
    }

    #[test]
    fn disconnected_component_count() {
        let g = GraphBuilder::new(4).edges([(0, 1), (2, 3)]).build().unwrap();
        assert!(!g.is_connected());
        assert_eq!(g.component_count(), 2);
        assert_eq!(g.diameter(), None);
    }

    #[test]
    fn edge_list_round_trip() {
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
            .ids(vec![10, 20, 30, 40])
            .build()
            .unwrap();
        let text = g.to_edge_list();
        let h = Graph::from_edge_list(&text).unwrap();
        assert_eq!(g.n(), h.n());
        assert_eq!(g.edges(), h.edges());
        assert_eq!(g.ids(), h.ids());
    }

    #[test]
    fn graph_section_roundtrip() {
        let g =
            GraphBuilder::new(6).edges([(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]).build().unwrap();
        for g in [g.clone(), g.with_ids(vec![60, 50, 40, 30, 20, 1 << 40]).unwrap()] {
            let mut w = ByteWriter::new();
            g.write_bytes(&mut w);
            let mut r = ByteReader::new(&w.0);
            let h = Graph::read_bytes(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!((h.n(), h.edges(), h.ids()), (g.n(), g.edges(), g.ids()));
        }
        // n, m, then per row its count and gaps, then the identity flag.
        let mut w = ByteWriter::new();
        g.write_bytes(&mut w);
        assert_eq!(w.0, [6, 5, 3, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn hostile_node_count_is_a_bad_body_before_any_allocation() {
        // n = 2^32 − 1 in five bytes and m = 0: six bytes that would
        // size tens of gigabytes if trusted.
        let section = [0xff, 0xff, 0xff, 0xff, 0x0f, 0x00];
        let err = Graph::read_bytes(&mut ByteReader::new(&section)).unwrap_err();
        assert!(matches!(err, FrameError::BadBody(_)), "{err:?}");
    }

    #[test]
    fn with_ids_replaces_identities() {
        let g = triangle().with_ids(vec![100, 50, 75]).unwrap();
        assert_eq!(g.id(0), 100);
        assert_eq!(g.index_of(50), Some(1));
        assert!(g.with_ids(vec![1, 1, 2]).is_err());
        assert!(g.with_ids(vec![1, 2]).is_err());
    }

    #[test]
    fn directed_edges_tile_and_invert() {
        let g = GraphBuilder::new(5)
            .edges([(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4)])
            .build()
            .unwrap();
        assert_eq!(g.num_directed_edges(), 2 * g.m());
        let mut seen = vec![false; g.num_directed_edges()];
        for v in 0..g.n() as NodeIndex {
            let range = g.directed_edge_range(v);
            assert_eq!(range.len(), g.degree(v));
            for p in 0..g.degree(v) as u32 {
                let de = g.directed_edge(v, p);
                assert!(range.contains(&de));
                assert!(!seen[de as usize], "directed ids must tile 0..2m");
                seen[de as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn id_views_are_csr_aligned_and_follow_relabeling() {
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (0, 2), (0, 3), (2, 3)])
            .ids(vec![40, 30, 20, 10])
            .build()
            .unwrap();
        for v in 0..g.n() as NodeIndex {
            let ids = g.neighbor_ids(v);
            assert_eq!(ids.len(), g.degree(v));
            for (p, &nid) in ids.iter().enumerate() {
                assert_eq!(nid, g.id(g.neighbor_at(v, p as u32)));
            }
        }
        // Relabeling rebuilds the view.
        let h = g.with_ids(vec![1, 2, 3, 4]).unwrap();
        for v in 0..h.n() as NodeIndex {
            for (p, &nid) in h.neighbor_ids(v).iter().enumerate() {
                assert_eq!(nid, h.id(h.neighbor_at(v, p as u32)));
            }
        }
    }

    #[test]
    fn edge_other_and_touches() {
        let e = Edge::new(3, 1);
        assert_eq!((e.a, e.b), (1, 3));
        assert_eq!(e.other(1), Some(3));
        assert_eq!(e.other(3), Some(1));
        assert_eq!(e.other(2), None);
        assert!(e.touches(1) && e.touches(3) && !e.touches(0));
    }
}
