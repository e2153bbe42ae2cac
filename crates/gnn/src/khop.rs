//! The *k-hop* baseline: recompute only the theoretical affected area.
//!
//! Following DyGNN's core idea (and the paper's baseline of the same name),
//! this method takes only the newest graph snapshot — no cached intermediate
//! state — computes the k-hop neighborhood of the changed edges, and
//! recomputes embeddings for it from scratch. Because layer `l` outputs on a
//! set need layer `l−1` inputs on that set *plus its in-neighbors*, the
//! method must fetch an input cone that can reach `2k` hops from the changes
//! — the redundancy InkStream's cached `m⁻`/`α⁻` eliminates.

use crate::cost::CostMeter;
use crate::Model;
use ink_graph::bfs::theoretical_affected_area;
use ink_graph::{DeltaBatch, DynGraph, FxHashMap, VertexId};
use ink_tensor::Matrix;

/// Result of one k-hop update.
pub struct KhopOutput {
    /// New output embeddings for every node in the affected area.
    pub updated_h: FxHashMap<VertexId, Vec<f32>>,
    /// The theoretical affected area that was recomputed.
    pub affected: Vec<VertexId>,
    /// Sizes of the per-layer input cones `|S_0| ≥ … ≥ |S_k|`.
    pub cone_sizes: Vec<usize>,
}

/// Recomputes the affected area of `delta` on the (already-updated) graph
/// `g`, from raw `features`. The model must not contain exact GraphNorm
/// (whole-graph statistics contradict partial recomputation).
pub fn khop_update(
    model: &Model,
    g: &DynGraph,
    features: &Matrix,
    delta: &DeltaBatch,
    meter: Option<&CostMeter>,
) -> KhopOutput {
    let k = model.num_layers();
    let affected = theoretical_affected_area(g, delta, k);

    // Input cones: sets[k] = affected, sets[l] = sets[l+1] ∪ N_in(sets[l+1]).
    let mut sets: Vec<Vec<VertexId>> = vec![Vec::new(); k + 1];
    sets[k] = affected.clone();
    for l in (0..k).rev() {
        let mut expanded: Vec<VertexId> = sets[l + 1].clone();
        for &u in &sets[l + 1] {
            expanded.extend_from_slice(g.in_neighbors(u));
        }
        expanded.sort_unstable();
        expanded.dedup();
        sets[l] = expanded;
    }
    let cone_sizes: Vec<usize> = sets.iter().map(Vec::len).collect();

    // h_0 on S_0: raw feature fetch.
    let mut h: FxHashMap<VertexId, Vec<f32>> = FxHashMap::default();
    for &u in &sets[0] {
        h.insert(u, features.row(u as usize).to_vec());
    }
    if let Some(m) = meter {
        m.read(sets[0].len() * features.cols());
        m.visit_nodes(sets[0].len());
    }

    for l in 0..k {
        let conv = &model.layer(l).conv;
        let dim = conv.msg_dim();
        // Messages on S_l (with the source-side degree weight when scaled).
        let msgs: FxHashMap<VertexId, Vec<f32>> =
            sets[l].iter().map(|&u| (u, model.message(l, &h[&u], g.in_degree(u)))).collect();
        // Aggregate + update on S_{l+1}.
        let mut h_next: FxHashMap<VertexId, Vec<f32>> = FxHashMap::default();
        let mut gathered = 0usize;
        for &u in &sets[l + 1] {
            let mut alpha = vec![0.0; dim];
            conv.aggregator()
                .aggregate_into(g.in_neighbors(u).iter().map(|v| msgs[v].as_slice()), &mut alpha);
            gathered += g.in_degree(u);
            let mut out = vec![0.0; conv.out_dim()];
            model.next_hidden_into(l, &alpha, &msgs[&u], g.in_degree(u), &mut out);
            h_next.insert(u, out);
        }
        if let Some(m) = meter {
            // message reads/writes on S_l; gather on S_{l+1}; update output.
            m.read(sets[l].len() * conv.in_dim() + gathered * dim + sets[l + 1].len() * dim);
            m.write(sets[l].len() * dim + sets[l + 1].len() * (dim + conv.out_dim()));
            m.visit_nodes(sets[l + 1].len());
        }
        h = h_next;
    }

    KhopOutput { updated_h: h, affected, cone_sizes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full::full_inference;
    use crate::{Aggregator, Model};
    use ink_graph::EdgeChange;
    use ink_tensor::init::seeded_rng;

    fn line_graph(n: usize) -> DynGraph {
        let edges: Vec<_> = (0..n - 1).map(|i| (i as VertexId, i as VertexId + 1)).collect();
        DynGraph::undirected_from_edges(n, &edges)
    }

    fn feats(n: usize, d: usize) -> Matrix {
        Matrix::from_fn(n, d, |r, c| ((r * 31 + c * 7) % 13) as f32 * 0.3 - 1.0)
    }

    /// The k-hop baseline must agree exactly with full recomputation on the
    /// affected area — it is the same arithmetic on a subgraph whose input
    /// cone is complete.
    #[test]
    fn matches_full_inference_on_affected_area() {
        for agg in [Aggregator::Max, Aggregator::Mean, Aggregator::Sum] {
            let mut rng = seeded_rng(7);
            let model = Model::gcn(&mut rng, &[4, 5, 3], agg);
            let mut g = line_graph(12);
            let x = feats(12, 4);
            let delta = DeltaBatch::new(vec![EdgeChange::insert(2, 9)]);
            delta.apply(&mut g);
            let reference = full_inference(&model, &g, &x, None);
            let out = khop_update(&model, &g, &x, &delta, None);
            assert!(!out.updated_h.is_empty());
            for (&u, h) in &out.updated_h {
                assert_eq!(
                    h.as_slice(),
                    reference.h.row(u as usize),
                    "{agg:?} vertex {u} must match full recompute bitwise"
                );
            }
        }
    }

    #[test]
    fn cone_sizes_shrink_toward_output() {
        let mut rng = seeded_rng(8);
        let model = Model::gcn(&mut rng, &[3, 3, 3], Aggregator::Mean);
        let mut g = line_graph(30);
        let delta = DeltaBatch::new(vec![EdgeChange::remove(10, 11)]);
        delta.apply(&mut g);
        let out = khop_update(&model, &g, &feats(30, 3), &delta, None);
        for w in out.cone_sizes.windows(2) {
            assert!(w[0] >= w[1], "input cones must not grow: {:?}", out.cone_sizes);
        }
    }

    #[test]
    fn affected_area_matches_bfs() {
        let mut rng = seeded_rng(9);
        let model = Model::gcn(&mut rng, &[3, 3, 3], Aggregator::Max);
        let mut g = line_graph(20);
        let delta = DeltaBatch::new(vec![EdgeChange::insert(0, 10)]);
        delta.apply(&mut g);
        let out = khop_update(&model, &g, &feats(20, 3), &delta, None);
        assert_eq!(out.affected, theoretical_affected_area(&g, &delta, 2));
        assert_eq!(out.updated_h.len(), out.affected.len());
    }

    #[test]
    fn meter_records_cone_traffic() {
        let mut rng = seeded_rng(10);
        let model = Model::gcn(&mut rng, &[3, 3, 3], Aggregator::Max);
        let mut g = line_graph(20);
        let delta = DeltaBatch::new(vec![EdgeChange::insert(0, 10)]);
        delta.apply(&mut g);
        let meter = CostMeter::new();
        khop_update(&model, &g, &feats(20, 3), &delta, Some(&meter));
        assert!(meter.reads() > 0);
        assert!(meter.nodes_visited() > 0);
    }

    /// Self-dependent models propagate to the node itself; the k-hop area
    /// still covers everything because it is a superset.
    #[test]
    fn sage_matches_full_inference() {
        let mut rng = seeded_rng(11);
        let model = Model::sage(&mut rng, &[4, 4, 4], Aggregator::Max);
        let mut g = line_graph(15);
        let x = feats(15, 4);
        let delta = DeltaBatch::new(vec![EdgeChange::insert(3, 12), EdgeChange::remove(7, 8)]);
        delta.apply(&mut g);
        let reference = full_inference(&model, &g, &x, None);
        let out = khop_update(&model, &g, &x, &delta, None);
        for (&u, h) in &out.updated_h {
            assert_eq!(h.as_slice(), reference.h.row(u as usize), "vertex {u}");
        }
    }
}
