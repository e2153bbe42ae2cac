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

use crate::{prefetch, EdgeOp, VertexId};
use std::collections::TryReserveError;

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
        Self::try_new(n, directed).expect("adjacency allocation failed")
    }

    /// [`DynGraph::new`] with fallible allocation: a vertex count read from
    /// a file must come back as an error, not an allocation abort.
    pub(crate) fn try_new(n: usize, directed: bool) -> Result<Self, TryReserveError> {
        let lists = |len: usize| -> Result<Vec<SortedAdj>, TryReserveError> {
            let mut v = Vec::new();
            v.try_reserve_exact(len)?;
            v.resize(len, SortedAdj::default());
            Ok(v)
        };
        let out = lists(n)?;
        let inn = lists(if directed { n } else { 0 })?;
        Ok(Self { directed, out, inn, num_edges: 0 })
    }

    /// Undirected graph from an edge list (duplicates, mirrored duplicates
    /// and self-loops are skipped): the graph [`DynGraph::insert_edge`]
    /// builds from the same pairs, built in bulk.
    pub fn undirected_from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        Self::new(n, false).with_edges(edges)
    }

    /// Directed graph from an edge list (duplicates and self-loops are
    /// skipped), built in bulk like [`DynGraph::undirected_from_edges`].
    pub fn directed_from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        Self::new(n, true).with_edges(edges)
    }

    /// Fills an edgeless graph with `edges`, equal to inserting them one at
    /// a time with [`DynGraph::insert_edge`] but without its per-insert
    /// binary search and shift: count every list's entries, reserve exactly
    /// that, push both directions (no self-loops), then sort and dedup each
    /// list once. A vertex id past the last vertex panics, as it does in
    /// `insert_edge`.
    pub(crate) fn with_edges(mut self, edges: &[(VertexId, VertexId)]) -> Self {
        debug_assert_eq!(self.num_edges, 0, "the bulk build starts from an edgeless graph");
        let mut out_deg = vec![0u32; self.out.len()];
        let mut in_deg = vec![0u32; self.inn.len()];
        for &(u, v) in edges {
            if u == v {
                continue;
            }
            out_deg[u as usize] += 1;
            if self.directed {
                in_deg[v as usize] += 1;
            } else {
                out_deg[v as usize] += 1;
            }
        }
        let lists = self.out.iter_mut().zip(&out_deg).chain(self.inn.iter_mut().zip(&in_deg));
        for (adj, &d) in lists {
            adj.0.reserve_exact(d as usize);
        }
        for &(u, v) in edges {
            if u == v {
                continue;
            }
            self.out[u as usize].0.push(v);
            if self.directed {
                self.inn[v as usize].0.push(u);
            } else {
                self.out[v as usize].0.push(u);
            }
        }
        for adj in self.out.iter_mut().chain(self.inn.iter_mut()) {
            adj.0.sort_unstable();
            adj.0.dedup();
        }
        let entries: usize = self.out.iter().map(|adj| adj.0.len()).sum();
        self.num_edges = if self.directed { entries } else { entries / 2 };
        self
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

    /// Asks the cache for `u`'s in-list header — where the list lives and
    /// how long it is — ahead of [`DynGraph::in_neighbors`] or
    /// [`DynGraph::in_degree`]. A no-op past the last vertex.
    #[inline(always)]
    pub fn prefetch_in_header(&self, u: VertexId) {
        prefetch(self.in_lists(), u as usize);
    }

    /// Asks the cache for the first 16 ids of `u`'s in-list (at most two
    /// lines, wherever the list starts). Reads the header, so fetch that
    /// first with [`DynGraph::prefetch_in_header`].
    #[inline(always)]
    pub fn prefetch_in_neighbors(&self, u: VertexId) {
        if let Some(adj) = self.in_lists().get(u as usize) {
            prefetch(&adj.0, 0);
            prefetch(&adj.0, 15);
        }
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
    fn prefetch_hints_accept_any_vertex() {
        for directed in [false, true] {
            let mut g = DynGraph::new(3, directed);
            g.insert_edge(0, 1);
            // Empty lists, a real one, and ids past the last vertex.
            for u in [0, 1, 2, 3, VertexId::MAX] {
                g.prefetch_in_header(u);
                g.prefetch_in_neighbors(u);
            }
            assert_eq!(g.in_neighbors(1), &[0]);
        }
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

    /// The graph `insert_edge` builds from `edges`, one pair at a time.
    fn inserted_one_by_one(n: usize, directed: bool, edges: &[(VertexId, VertexId)]) -> DynGraph {
        let mut g = DynGraph::new(n, directed);
        for &(u, v) in edges {
            g.insert_edge(u, v);
        }
        g
    }

    #[test]
    fn bulk_build_equals_incremental_build() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xB01C);
        let mut cases: Vec<(usize, Vec<(VertexId, VertexId)>)> =
            vec![(0, vec![]), (5, vec![]), (3, vec![(1, 1), (2, 2)])];
        for _ in 0..200 {
            // More vertex ids than the edges reach, so some stay isolated.
            let n = rng.random_range(1..40usize);
            let reach = rng.random_range(1..=n) as VertexId;
            let mut edges = Vec::new();
            for _ in 0..rng.random_range(0..120usize) {
                let (u, v) = (rng.random_range(0..reach), rng.random_range(0..reach));
                edges.push((u, v));
                match rng.random_range(0..6u32) {
                    0 => edges.push((u, v)),
                    1 => edges.push((v, u)),
                    2 => edges.push((u, u)),
                    _ => {}
                }
            }
            cases.push((n, edges));
        }
        for (n, edges) in &cases {
            let undirected = DynGraph::undirected_from_edges(*n, edges);
            let want = inserted_one_by_one(*n, false, edges);
            assert_eq!(undirected, want, "undirected, {n} vertices, {edges:?}");
            assert_eq!(undirected.num_edges(), want.num_edges());
            let directed = DynGraph::directed_from_edges(*n, edges);
            let want = inserted_one_by_one(*n, true, edges);
            assert_eq!(directed, want, "directed, {n} vertices, {edges:?}");
            assert_eq!(directed.num_edges(), want.num_edges());
        }
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
