//! Neighbor sampling (Hamilton et al.) — the *PyG (+SAGE sampler)* baseline
//! configuration, and the cached-neighborhood diffing that lets InkStream
//! support sampling (paper §II-E).

use crate::full::Neighborhood;
use ink_graph::{DeltaBatch, DynGraph, EdgeChange, VertexId};
use rand::rngs::StdRng;
use rand::RngExt;

/// A per-vertex sampled in-neighborhood (at most `k` neighbors each).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampledGraph {
    adj: Vec<Vec<VertexId>>,
}

impl SampledGraph {
    /// Samples at most `k` in-neighbors per vertex, uniformly without
    /// replacement. Sampled lists are kept sorted so diffs are linear.
    pub fn sample(g: &DynGraph, k: usize, rng: &mut StdRng) -> Self {
        let n = g.num_vertices();
        let mut adj = Vec::with_capacity(n);
        for u in 0..n {
            let nbrs = g.in_neighbors(u as VertexId);
            let mut chosen: Vec<VertexId> = if nbrs.len() <= k {
                nbrs.to_vec()
            } else {
                // Partial Fisher–Yates over a scratch copy.
                let mut scratch = nbrs.to_vec();
                for i in 0..k {
                    let j = rng.random_range(i..scratch.len());
                    scratch.swap(i, j);
                }
                scratch.truncate(k);
                scratch
            };
            chosen.sort_unstable();
            adj.push(chosen);
        }
        Self { adj }
    }

    /// The ΔG between two sampled neighborhoods: the paper's recipe for
    /// supporting samplers — cache the sampled structure from the last
    /// timestamp and express the difference as edge removals/insertions.
    pub fn diff(old: &SampledGraph, new: &SampledGraph) -> DeltaBatch {
        assert_eq!(old.adj.len(), new.adj.len(), "vertex count changed");
        let mut changes = Vec::new();
        for (u, (o, n)) in old.adj.iter().zip(&new.adj).enumerate() {
            let u = u as VertexId;
            // Merge-walk the two sorted lists.
            let (mut i, mut j) = (0, 0);
            while i < o.len() || j < n.len() {
                match (o.get(i), n.get(j)) {
                    (Some(&a), Some(&b)) if a == b => {
                        i += 1;
                        j += 1;
                    }
                    (Some(&a), Some(&b)) if a < b => {
                        changes.push(EdgeChange::remove(a, u));
                        i += 1;
                    }
                    (Some(_), Some(&b)) => {
                        changes.push(EdgeChange::insert(b, u));
                        j += 1;
                    }
                    (Some(&a), None) => {
                        changes.push(EdgeChange::remove(a, u));
                        i += 1;
                    }
                    (None, Some(&b)) => {
                        changes.push(EdgeChange::insert(b, u));
                        j += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }
        }
        DeltaBatch::new(changes)
    }

    /// Materialises the sampled view as a *directed* [`DynGraph`] (edges
    /// `v → u` for each sampled in-neighbor `v` of `u`), which the
    /// incremental engine can then evolve with [`SampledGraph::diff`] deltas.
    pub fn to_dyn_graph(&self) -> DynGraph {
        let mut g = DynGraph::new(self.adj.len(), true);
        for (u, nbrs) in self.adj.iter().enumerate() {
            for &v in nbrs {
                g.insert_edge(v, u as VertexId);
            }
        }
        g
    }
}

impl Neighborhood for SampledGraph {
    fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    fn in_neighbors(&self, u: VertexId) -> &[VertexId] {
        &self.adj[u as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn star() -> DynGraph {
        // vertex 0 connected to 1..=9
        let edges: Vec<_> = (1..10).map(|v| (0, v as VertexId)).collect();
        DynGraph::undirected_from_edges(10, &edges)
    }

    #[test]
    fn sampling_caps_degree() {
        let g = star();
        let s = SampledGraph::sample(&g, 4, &mut StdRng::seed_from_u64(1));
        assert_eq!(s.in_neighbors(0).len(), 4);
        assert_eq!(s.in_neighbors(1), &[0], "small neighborhoods kept whole");
    }

    #[test]
    fn sampled_neighbors_are_real_neighbors() {
        let g = star();
        let s = SampledGraph::sample(&g, 3, &mut StdRng::seed_from_u64(2));
        for u in 0..10 {
            for &v in s.in_neighbors(u) {
                assert!(g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn diff_of_identical_samples_is_empty() {
        let g = star();
        let s = SampledGraph::sample(&g, 4, &mut StdRng::seed_from_u64(3));
        assert!(SampledGraph::diff(&s, &s).is_empty());
    }

    #[test]
    fn diff_expresses_resample_as_edge_changes() {
        let old = SampledGraph { adj: vec![vec![1, 2], vec![], vec![]] };
        let new = SampledGraph { adj: vec![vec![2, 3], vec![], vec![]] };
        let d = SampledGraph::diff(&old, &new);
        let ops: Vec<_> = d.changes().to_vec();
        assert!(ops.contains(&EdgeChange::remove(1, 0)));
        assert!(ops.contains(&EdgeChange::insert(3, 0)));
        assert_eq!(ops.len(), 2);
    }

    #[test]
    fn to_dyn_graph_preserves_in_neighborhoods() {
        let s = SampledGraph { adj: vec![vec![2], vec![0, 2], vec![]] };
        let g = s.to_dyn_graph();
        assert!(g.is_directed());
        assert_eq!(g.in_neighbors(0), &[2]);
        assert_eq!(g.in_neighbors(1), &[0, 2]);
        assert_eq!(g.in_neighbors(2), &[] as &[VertexId]);
    }
}
