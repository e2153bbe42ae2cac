//! Partition-quality statistics for the partitioned engine and its benchmark.

use crate::DynGraph;

/// Quality measures of a vertex partitioning — how good an edge cut a
/// partitioner produced and how evenly it spread the vertices. Computed by
/// [`partition_quality`]; `PartitionSummary` and the repo benchmark's
/// `partition.*` metrics report these.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionQuality {
    /// Number of partitions the assignment names (its maximum label + 1,
    /// but at least the requested count).
    pub parts: usize,
    /// Edges whose endpoints live in different partitions (undirected edges
    /// count once).
    pub cut_edges: usize,
    /// `cut_edges / edges` — 0.0 for a perfect cut, approaching 1.0 when
    /// almost every edge crosses.
    pub cut_fraction: f64,
    /// Mean number of partitions each vertex is *present* on (its owner
    /// plus every partition holding it as a boundary replica). 1.0 means no
    /// replication at all.
    pub replication_factor: f64,
    /// Vertices in the largest partition.
    pub max_part: usize,
    /// Vertices in the smallest partition.
    pub min_part: usize,
    /// `max_part / (n / parts)` — 1.0 is perfectly balanced; 2.0 means the
    /// biggest partition is twice the ideal size.
    pub balance: f64,
}

/// Computes [`PartitionQuality`] for `assignment` (one owning-partition
/// label per vertex) over `g`, for `parts` partitions. Replication follows
/// the boundary rule of the partitioned engine: a vertex is replicated onto
/// every *other* partition that owns a neighbor across a cut edge (for
/// directed graphs, onto the partitions owning its out-neighbors — the side
/// that must aggregate its messages).
///
/// # Panics
///
/// When `assignment` is not one label per vertex, `parts` is 0, or a label
/// is out of range.
pub fn partition_quality(g: &DynGraph, assignment: &[u32], parts: usize) -> PartitionQuality {
    let n = g.num_vertices();
    assert_eq!(assignment.len(), n, "one partition label per vertex");
    assert!(parts > 0, "need at least one partition");
    assert!(
        assignment.iter().all(|&p| (p as usize) < parts),
        "partition labels must be < parts"
    );
    let mut sizes = vec![0usize; parts];
    for &p in assignment {
        sizes[p as usize] += 1;
    }
    let mut cut_edges = 0usize;
    // Per-vertex set of *foreign* partitions holding a replica.
    let mut mirrors: crate::FxHashSet<(u32, u32)> = crate::FxHashSet::default();
    for (u, v) in g.edges() {
        let (pu, pv) = (assignment[u as usize], assignment[v as usize]);
        if pu != pv {
            cut_edges += 1;
            // The aggregating side needs the source's messages: for an
            // undirected edge both sides replicate, for a directed edge
            // only the source replicates onto the target's partition.
            mirrors.insert((u, pv));
            if !g.is_directed() {
                mirrors.insert((v, pu));
            }
        }
    }
    let edges = g.num_edges();
    let (max_part, min_part) = sizes
        .iter()
        .fold((0usize, usize::MAX), |(mx, mn), &s| (mx.max(s), mn.min(s)));
    PartitionQuality {
        parts,
        cut_edges,
        cut_fraction: if edges == 0 { 0.0 } else { cut_edges as f64 / edges as f64 },
        replication_factor: if n == 0 {
            1.0
        } else {
            (n + mirrors.len()) as f64 / n as f64
        },
        max_part,
        min_part,
        balance: if n == 0 { 1.0 } else { max_part as f64 / (n as f64 / parts as f64) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_single_partition_is_perfect() {
        let g = DynGraph::undirected_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let q = partition_quality(&g, &[0, 0, 0, 0], 1);
        assert_eq!(q.cut_edges, 0);
        assert_eq!(q.cut_fraction, 0.0);
        assert_eq!(q.replication_factor, 1.0);
        assert_eq!((q.max_part, q.min_part), (4, 4));
        assert_eq!(q.balance, 1.0);
    }

    #[test]
    fn quality_undirected_cut_and_replication() {
        // 0-1 inside part 0, 2-3 inside part 1, cut edge 1-2.
        let g = DynGraph::undirected_from_edges(4, &[(0, 1), (2, 3), (1, 2)]);
        let q = partition_quality(&g, &[0, 0, 1, 1], 2);
        assert_eq!(q.cut_edges, 1);
        assert_eq!(q.cut_fraction, 1.0 / 3.0);
        // Vertices 1 and 2 each gain one mirror → (4 + 2) / 4.
        assert_eq!(q.replication_factor, 1.5);
        assert_eq!((q.max_part, q.min_part), (2, 2));
        assert_eq!(q.balance, 1.0);
    }

    #[test]
    fn quality_directed_replicates_source_only() {
        // Directed cut edge 0→2: only the source (0) mirrors onto part 1.
        let g = DynGraph::directed_from_edges(4, &[(0, 1), (0, 2), (2, 3)]);
        let q = partition_quality(&g, &[0, 0, 1, 1], 2);
        assert_eq!(q.cut_edges, 1);
        assert_eq!(q.replication_factor, 5.0 / 4.0);
    }

    #[test]
    fn quality_reports_imbalance() {
        let g = DynGraph::undirected_from_edges(6, &[(0, 1)]);
        let q = partition_quality(&g, &[0, 0, 0, 0, 0, 1], 2);
        assert_eq!((q.max_part, q.min_part), (5, 1));
        assert_eq!(q.balance, 5.0 / 3.0);
    }

    #[test]
    fn quality_counts_mirror_once_per_foreign_part() {
        // Vertex 0 has two cut edges into part 1 — it mirrors there once.
        let g = DynGraph::undirected_from_edges(3, &[(0, 1), (0, 2)]);
        let q = partition_quality(&g, &[0, 1, 1], 2);
        assert_eq!(q.cut_edges, 2);
        // 0 mirrors on part 1 (once); 1 and 2 each mirror on part 0.
        assert_eq!(q.replication_factor, 2.0);
    }
}
