//! Graph statistics used by the experiment reports.

use crate::DynGraph;

/// Summary statistics of a graph.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Vertex count.
    pub vertices: usize,
    /// Edge count (undirected edges count once).
    pub edges: usize,
    /// Mean in-degree.
    pub avg_degree: f64,
    /// Maximum in-degree.
    pub max_degree: usize,
    /// Edge density `m / (n·(n−1)/2)` for undirected graphs.
    pub density: f64,
}

/// Computes [`GraphStats`] for `g`.
pub fn graph_stats(g: &DynGraph) -> GraphStats {
    let n = g.num_vertices();
    let mut max_degree = 0;
    let mut total = 0usize;
    for u in 0..n {
        let d = g.in_degree(u as u32);
        total += d;
        max_degree = max_degree.max(d);
    }
    let pairs = if g.is_directed() {
        n.saturating_mul(n.saturating_sub(1))
    } else {
        n.saturating_mul(n.saturating_sub(1)) / 2
    };
    GraphStats {
        vertices: n,
        edges: g.num_edges(),
        avg_degree: if n == 0 { 0.0 } else { total as f64 / n as f64 },
        max_degree,
        density: if pairs == 0 { 0.0 } else { g.num_edges() as f64 / pairs as f64 },
    }
}

/// In-degree histogram with logarithmic buckets `[1, 2, 4, 8, ...)`; bucket 0
/// counts isolated vertices.
pub fn degree_histogram(g: &DynGraph) -> Vec<usize> {
    let mut hist = vec![0usize; 2];
    for u in 0..g.num_vertices() {
        let d = g.in_degree(u as u32);
        let bucket = if d == 0 { 0 } else { (d.ilog2() as usize) + 1 };
        if bucket >= hist.len() {
            hist.resize(bucket + 1, 0);
        }
        hist[bucket] += 1;
    }
    hist
}

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
    fn stats_of_triangle() {
        let g = DynGraph::undirected_from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let s = graph_stats(&g);
        assert_eq!(s.vertices, 3);
        assert_eq!(s.edges, 3);
        assert_eq!(s.avg_degree, 2.0);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.density, 1.0);
    }

    #[test]
    fn stats_of_empty_graph() {
        let s = graph_stats(&DynGraph::new(0, false));
        assert_eq!(s.vertices, 0);
        assert_eq!(s.avg_degree, 0.0);
        assert_eq!(s.density, 0.0);
    }

    #[test]
    fn histogram_buckets() {
        // degrees: 0, 1, 2, 3 → buckets 0, 1, 2, 2
        let g = DynGraph::directed_from_edges(
            5,
            &[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)],
        );
        let h = degree_histogram(&g);
        assert_eq!(h[0], 2); // vertices 0 and 4 have in-degree 0
        assert_eq!(h[1], 1); // vertex 1: degree 1
        assert_eq!(h[2], 2); // vertices 2 (deg 2) and 3 (deg 3)
    }

    #[test]
    fn histogram_counts_all_vertices() {
        let g = DynGraph::undirected_from_edges(10, &[(0, 1), (2, 3)]);
        assert_eq!(degree_histogram(&g).iter().sum::<usize>(), 10);
    }

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
