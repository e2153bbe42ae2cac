//! Mutable adjacency structure for streaming graphs.
//!
//! Message passing needs two views of every vertex `u`:
//!
//! * `in_neighbors(u)` — the vertices whose messages `u` aggregates
//!   (`N(u)` in the paper's `α_u = A(m_v : v ∈ N(u))`);
//! * `out_neighbors(u)` — the vertices a change at `u` propagates to.
//!
//! Neighbor lists are kept sorted so membership tests and edge removal are
//! `O(log d)` and iteration is cache-friendly. Undirected graphs (all six
//! benchmark datasets) mirror every edge so the two views coincide, and
//! store only the out-lists: the in-view reads them too.

use crate::{EdgeOp, VertexId};

/// A sorted adjacency list.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct SortedAdj(Vec<VertexId>);

impl SortedAdj {
    #[inline]
    fn contains(&self, v: VertexId) -> bool {
        self.0.binary_search(&v).is_ok()
    }

    /// Returns false if already present.
    #[inline]
    fn insert(&mut self, v: VertexId) -> bool {
        match self.0.binary_search(&v) {
            Ok(_) => false,
            Err(pos) => {
                self.0.insert(pos, v);
                true
            }
        }
    }

    /// Returns false if absent.
    #[inline]
    fn remove(&mut self, v: VertexId) -> bool {
        match self.0.binary_search(&v) {
            Ok(pos) => {
                self.0.remove(pos);
                true
            }
            Err(_) => false,
        }
    }
}

/// A mutable directed or undirected graph with sorted neighbor lists.
///
/// ```
/// use ink_graph::DynGraph;
///
/// let mut g = DynGraph::new(3, false);
/// g.insert_edge(0, 1);
/// g.insert_edge(1, 2);
/// assert_eq!(g.in_neighbors(1), &[0, 2]); // undirected edges are mirrored
/// g.remove_edge(2, 1);
/// assert_eq!(g.num_edges(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DynGraph {
    directed: bool,
    out: Vec<SortedAdj>,
    /// In-lists of a directed graph; empty for an undirected one, whose
    /// in-lists are its out-lists.
    inn: Vec<SortedAdj>,
    num_edges: usize,
}

impl DynGraph {
    /// An edgeless graph with `n` vertices.
    pub fn new(n: usize, directed: bool) -> Self {
        Self {
            directed,
            out: vec![SortedAdj::default(); n],
            inn: if directed { vec![SortedAdj::default(); n] } else { Vec::new() },
            num_edges: 0,
        }
    }

    /// Convenience: undirected graph from an edge list (duplicates and
    /// self-loops are skipped).
    pub fn undirected_from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let mut g = Self::new(n, false);
        for &(u, v) in edges {
            g.insert_edge(u, v);
        }
        g
    }

    /// Convenience: directed graph from an edge list.
    pub fn directed_from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let mut g = Self::new(n, true);
        for &(u, v) in edges {
            g.insert_edge(u, v);
        }
        g
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.len()
    }

    /// Number of edges. Undirected edges count once.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Whether the graph is directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Adds an isolated vertex, returning its id.
    pub fn add_vertex(&mut self) -> VertexId {
        self.out.push(SortedAdj::default());
        if self.directed {
            self.inn.push(SortedAdj::default());
        }
        (self.out.len() - 1) as VertexId
    }

    /// True when the edge `u → v` exists (either direction implies the other
    /// for undirected graphs).
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.out[u as usize].contains(v)
    }

    /// Inserts `u → v` (and the mirror for undirected graphs). Returns false
    /// for self-loops and duplicates.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        if !self.out[u as usize].insert(v) {
            return false;
        }
        if self.directed {
            self.inn[v as usize].insert(u);
        } else {
            self.out[v as usize].insert(u);
        }
        self.num_edges += 1;
        true
    }

    /// Removes `u → v`. Returns false if absent.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if !self.out[u as usize].remove(v) {
            return false;
        }
        if self.directed {
            self.inn[v as usize].remove(u);
        } else {
            self.out[v as usize].remove(u);
        }
        self.num_edges -= 1;
        true
    }

    /// Applies one edge change. Returns false when it was a no-op.
    pub fn apply(&mut self, change: crate::EdgeChange) -> bool {
        match change.op {
            EdgeOp::Insert => self.insert_edge(change.src, change.dst),
            EdgeOp::Remove => self.remove_edge(change.src, change.dst),
        }
    }

    #[inline]
    fn in_lists(&self) -> &[SortedAdj] {
        if self.directed {
            &self.inn
        } else {
            &self.out
        }
    }

    /// Vertices whose messages `u` aggregates — `N(u)`.
    #[inline]
    pub fn in_neighbors(&self, u: VertexId) -> &[VertexId] {
        &self.in_lists()[u as usize].0
    }

    /// Vertices a change at `u` propagates to.
    #[inline]
    pub fn out_neighbors(&self, u: VertexId) -> &[VertexId] {
        &self.out[u as usize].0
    }

    /// In-degree of `u` (`|N(u)|`, the mean-aggregation denominator).
    #[inline]
    pub fn in_degree(&self, u: VertexId) -> usize {
        self.in_lists()[u as usize].0.len()
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: VertexId) -> usize {
        self.out[u as usize].0.len()
    }

    /// Removes all edges incident to `u` (vertex deletion keeps the id slot to
    /// avoid renumbering the embedding tables; the vertex simply becomes
    /// isolated). Returns the removed edges as `(src, dst)` pairs.
    pub fn isolate_vertex(&mut self, u: VertexId) -> Vec<(VertexId, VertexId)> {
        let mut removed = Vec::new();
        for v in self.out[u as usize].0.clone() {
            if self.remove_edge(u, v) {
                removed.push((u, v));
            }
        }
        for v in self.in_neighbors(u).to_vec() {
            if self.remove_edge(v, u) {
                removed.push((v, u));
            }
        }
        removed
    }

    /// All edges as `(src, dst)` pairs; for undirected graphs each edge is
    /// reported once with `src < dst`.
    pub fn edges(&self) -> Vec<(VertexId, VertexId)> {
        let mut out = Vec::with_capacity(self.num_edges);
        for (u, adj) in self.out.iter().enumerate() {
            let u = u as VertexId;
            for &v in &adj.0 {
                if self.directed || u < v {
                    out.push((u, v));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeltaBatch, EdgeChange};

    #[test]
    fn insert_and_query_undirected() {
        let mut g = DynGraph::new(4, false);
        assert!(g.insert_edge(0, 1));
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0), "undirected edges are mirrored");
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.in_neighbors(0), &[1]);
        assert_eq!(g.out_neighbors(1), &[0]);
    }

    #[test]
    fn insert_and_query_directed() {
        let mut g = DynGraph::new(3, true);
        assert!(g.insert_edge(0, 1));
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.in_neighbors(1), &[0]);
        assert_eq!(g.in_neighbors(0), &[] as &[VertexId]);
    }

    #[test]
    fn duplicate_and_self_loop_rejected() {
        let mut g = DynGraph::new(3, false);
        assert!(g.insert_edge(0, 1));
        assert!(!g.insert_edge(0, 1));
        assert!(!g.insert_edge(1, 0), "mirror duplicate rejected");
        assert!(!g.insert_edge(2, 2));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn remove_undoes_insert() {
        let mut g = DynGraph::new(3, false);
        g.insert_edge(0, 1);
        assert!(g.remove_edge(1, 0), "either direction removes an undirected edge");
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.num_edges(), 0);
        assert!(!g.remove_edge(0, 1), "double remove is a no-op");
    }

    #[test]
    fn neighbor_lists_stay_sorted() {
        let mut g = DynGraph::new(6, false);
        for v in [5, 2, 4, 1, 3] {
            g.insert_edge(0, v);
        }
        assert_eq!(g.in_neighbors(0), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn add_vertex_extends_graph() {
        let mut g = DynGraph::new(2, false);
        let v = g.add_vertex();
        assert_eq!(v, 2);
        assert_eq!(g.num_vertices(), 3);
        assert!(g.insert_edge(0, v));
    }

    #[test]
    fn isolate_vertex_removes_all_incident_edges() {
        let mut g = DynGraph::new(4, false);
        g.insert_edge(0, 1);
        g.insert_edge(0, 2);
        g.insert_edge(1, 2);
        let removed = g.isolate_vertex(0);
        assert_eq!(removed.len(), 2);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.out_degree(0), 0);
        assert!(g.has_edge(1, 2));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn edges_reports_each_undirected_edge_once() {
        let mut g = DynGraph::new(3, false);
        g.insert_edge(2, 0);
        g.insert_edge(1, 2);
        let mut e = g.edges();
        e.sort_unstable();
        assert_eq!(e, vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn apply_delta_roundtrip() {
        let mut g = DynGraph::new(4, false);
        g.insert_edge(0, 1);
        let batch = DeltaBatch::new(vec![
            EdgeChange::remove(0, 1),
            EdgeChange::insert(2, 3),
        ]);
        batch.apply(&mut g);
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(2, 3));
        batch.revert(&mut g);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(2, 3));
    }
}
