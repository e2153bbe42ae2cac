//! k-hop neighborhoods.
//!
//! The **theoretical affected area** of a k-layer GNN after a batch of edge
//! changes is the ball of radius `k−1` (following out-edges) around the
//! destination endpoints of the changed edges — a node affected in layer 1
//! can influence nodes at most `k−1` hops away through the remaining layers.

use crate::{DeltaBatch, DynGraph, VertexId};

/// Ball of radius `hops` around `seeds`, following out-edges. Returns a
/// sorted, deduplicated vertex list that always includes the seeds.
pub fn k_hop_out(g: &DynGraph, seeds: &[VertexId], hops: usize) -> Vec<VertexId> {
    let mut visited = vec![false; g.num_vertices()];
    let mut result: Vec<VertexId> = Vec::new();
    let mut frontier: Vec<VertexId> = Vec::new();
    for &s in seeds {
        if !visited[s as usize] {
            visited[s as usize] = true;
            frontier.push(s);
            result.push(s);
        }
    }
    for _ in 0..hops {
        if frontier.is_empty() {
            break;
        }
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in g.out_neighbors(u) {
                if !visited[v as usize] {
                    visited[v as usize] = true;
                    next.push(v);
                    result.push(v);
                }
            }
        }
        frontier = next;
    }
    result.sort_unstable();
    result
}

/// The seeds of effect propagation for a delta: destination endpoints of the
/// directed changes. Undirected graphs mirror every change, so both endpoints
/// seed.
pub fn delta_seeds(g: &DynGraph, delta: &DeltaBatch) -> Vec<VertexId> {
    let mut seeds: Vec<VertexId> = Vec::with_capacity(delta.len() * 2);
    for c in delta.changes() {
        seeds.push(c.dst);
        if !g.is_directed() {
            seeds.push(c.src);
        }
    }
    seeds.sort_unstable();
    seeds.dedup();
    seeds
}

/// Theoretical affected area of a `layers`-layer GNN for `delta`: the ball of
/// radius `layers − 1` around the delta seeds, measured on the post-change
/// graph (the paper computes it on the newest snapshot).
pub fn theoretical_affected_area(
    g: &DynGraph,
    delta: &DeltaBatch,
    layers: usize,
) -> Vec<VertexId> {
    assert!(layers >= 1);
    k_hop_out(g, &delta_seeds(g, delta), layers - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeChange;

    /// A directed path 0 → 1 → 2 → 3 → 4.
    fn path(n: usize) -> DynGraph {
        let edges: Vec<_> = (0..n - 1).map(|i| (i as VertexId, i as VertexId + 1)).collect();
        DynGraph::directed_from_edges(n, &edges)
    }

    #[test]
    fn zero_hops_returns_seeds() {
        let g = path(5);
        assert_eq!(k_hop_out(&g, &[2], 0), vec![2]);
    }

    #[test]
    fn forward_ball_follows_out_edges() {
        let g = path(5);
        assert_eq!(k_hop_out(&g, &[1], 2), vec![1, 2, 3]);
        assert_eq!(k_hop_out(&g, &[1], 10), vec![1, 2, 3, 4], "ball saturates");
    }

    #[test]
    fn duplicate_seeds_are_deduped() {
        let g = path(4);
        assert_eq!(k_hop_out(&g, &[0, 0, 1], 1), vec![0, 1, 2]);
    }

    #[test]
    fn undirected_ball_spreads_both_ways() {
        let edges: Vec<_> = (0..4).map(|i| (i as VertexId, i as VertexId + 1)).collect();
        let g = DynGraph::undirected_from_edges(5, &edges);
        assert_eq!(k_hop_out(&g, &[2], 1), vec![1, 2, 3]);
    }

    #[test]
    fn delta_seeds_directed_uses_destinations() {
        let g = path(5);
        let d = DeltaBatch::new(vec![EdgeChange::insert(0, 3), EdgeChange::remove(1, 2)]);
        assert_eq!(delta_seeds(&g, &d), vec![2, 3]);
    }

    #[test]
    fn delta_seeds_undirected_uses_both_endpoints() {
        let g = DynGraph::undirected_from_edges(4, &[(0, 1)]);
        let d = DeltaBatch::new(vec![EdgeChange::insert(2, 3)]);
        assert_eq!(delta_seeds(&g, &d), vec![2, 3]);
    }

    #[test]
    fn affected_area_grows_with_layers() {
        let g = path(6);
        let d = DeltaBatch::new(vec![EdgeChange::insert(0, 1)]);
        // layer 1: only the destination; each extra layer adds one hop.
        assert_eq!(theoretical_affected_area(&g, &d, 1), vec![1]);
        assert_eq!(theoretical_affected_area(&g, &d, 2), vec![1, 2]);
        assert_eq!(theoretical_affected_area(&g, &d, 3), vec![1, 2, 3]);
    }
}
