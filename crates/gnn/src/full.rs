//! Full-graph inference — the classic method and the *PyG* baseline.
//!
//! Besides producing output embeddings, full inference is how InkStream
//! bootstraps: the paper's workflow saves the embedding *before and after
//! aggregation* (`m_l`, `α_l`) for the whole node set in all layers, and the
//! incremental engine evolves that cache. [`FullState`] is that cache.

use crate::cost::CostMeter;
use crate::{GraphNormMode, Model};
use ink_graph::{prefetch_lines, DynGraph, VertexId};
use ink_tensor::gemm::GemmScratch;
use ink_tensor::Matrix;
use rayon::prelude::*;

/// Anything that exposes per-vertex in-neighborhoods (the full graph or a
/// sampled view of it).
pub trait Neighborhood: Sync {
    /// Vertex count.
    fn num_vertices(&self) -> usize;
    /// Vertices whose messages `u` aggregates.
    fn in_neighbors(&self, u: VertexId) -> &[VertexId];
}

impl Neighborhood for DynGraph {
    fn num_vertices(&self) -> usize {
        DynGraph::num_vertices(self)
    }

    fn in_neighbors(&self, u: VertexId) -> &[VertexId] {
        DynGraph::in_neighbors(self, u)
    }
}

impl Neighborhood for ink_graph::Csr {
    fn num_vertices(&self) -> usize {
        ink_graph::Csr::num_vertices(self)
    }

    fn in_neighbors(&self, u: VertexId) -> &[VertexId] {
        self.neighbors(u)
    }
}

/// The cached intermediate state of one full inference: the paper's two
/// checkpoints per layer (messages `m_l` and aggregated neighborhoods `α_l`)
/// plus the final output `h`.
#[derive(Clone)]
pub struct FullState {
    /// `m[l]` — messages entering layer `l`'s aggregation (`n × msg_dim(l)`).
    pub m: Vec<Matrix>,
    /// `alpha[l]` — aggregated neighborhoods of layer `l` (`n × msg_dim(l)`).
    pub alpha: Vec<Matrix>,
    /// Final output embeddings (`n × out_dim`).
    pub h: Matrix,
    /// Per-layer GraphNorm statistics captured when the layer ran in exact
    /// mode (for freezing into the cached approximation).
    pub norm_stats: Vec<Option<NormStats>>,
}

impl FullState {
    /// An empty cache ready to be filled in place by an `_into` bootstrap —
    /// matrices get their real shapes (capacity-preserving) on first use.
    pub fn empty() -> Self {
        Self { m: Vec::new(), alpha: Vec::new(), h: Matrix::zeros(0, 0), norm_stats: Vec::new() }
    }

    /// Bytes held by the cached state (the paper's §III-E memory overhead).
    pub fn cache_bytes(&self) -> usize {
        self.m.iter().map(Matrix::nbytes).sum::<usize>()
            + self.alpha.iter().map(Matrix::nbytes).sum::<usize>()
            + self.h.nbytes()
    }

    /// Bytes *reserved* by the cached state (capacities, not lengths) — the
    /// observable the steady-state allocation tests track across repeated
    /// in-place recompute epochs.
    pub fn reserved_bytes(&self) -> usize {
        self.m.iter().map(Matrix::capacity_bytes).sum::<usize>()
            + self.alpha.iter().map(Matrix::capacity_bytes).sum::<usize>()
            + self.h.capacity_bytes()
    }
}

/// Computes messages for every vertex into caller-owned storage:
/// `m_l = message(h_l)` (one batched GEMM for transform-first layers), times
/// the source-side degree weight for degree-scaled layers (LightGCN-style).
/// `h` is the flat row-major input (`n × in_dim`), `m` is reshaped in place
/// (capacity retained). Returns the GEMM flop count.
pub fn batch_message_into<N: Neighborhood>(
    model: &Model,
    l: usize,
    h: &[f32],
    view: &N,
    m: &mut Matrix,
    scratch: &mut GemmScratch,
) -> u64 {
    let conv = &model.layer(l).conv;
    let scaled = conv.degree_scaled();
    let dim = conv.msg_dim();
    let n = view.num_vertices();
    m.resize_to(n, dim);
    let flops = conv.message_batch_into(n, h, m.as_mut_slice(), scratch);
    if scaled {
        m.as_mut_slice().par_chunks_mut(dim).enumerate().for_each(|(u, out)| {
            let s = conv.degree_scale(view.in_neighbors(u as VertexId).len());
            ink_tensor::ops::scale(out, s);
        });
    }
    flops
}

/// How many vertices ahead [`batch_aggregate_into`] asks for the neighbor
/// rows it will gather. A vertex folds every row of its in-list, each at an
/// unrelated address in an `m_l` far larger than the cache, so the rows of
/// the next vertex but one are enough to keep the misses overlapped.
const GATHER_AHEAD: usize = 2;

/// Aggregates every vertex's in-neighborhood into caller-owned storage:
/// `α_l[u] = A(m_l[v] : v∈N(u))`. `alpha` is reshaped in place (capacity
/// retained). While it folds `u`, it asks the cache for the neighbor rows
/// of `u + GATHER_AHEAD`; the hints change timing only.
pub fn batch_aggregate_into<N: Neighborhood>(
    model: &Model,
    l: usize,
    view: &N,
    m: &Matrix,
    alpha: &mut Matrix,
) {
    let conv = &model.layer(l).conv;
    let agg = conv.aggregator();
    let dim = conv.msg_dim();
    let n = view.num_vertices();
    alpha.resize_to(n, dim);
    alpha
        .as_mut_slice()
        .par_chunks_mut(dim)
        .enumerate()
        .for_each(|(u, out)| {
            if u + GATHER_AHEAD < n {
                for &v in view.in_neighbors((u + GATHER_AHEAD) as VertexId) {
                    prefetch_lines(m.row(v as usize));
                }
            }
            agg.aggregate_into(
                view.in_neighbors(u as VertexId).iter().map(|&v| m.row(v as usize)),
                out,
            );
        });
}

/// Aggregates every vertex's in-neighborhood: `α_l[u] = A(m_l[v] : v∈N(u))`.
/// Allocating wrapper over [`batch_aggregate_into`].
pub fn batch_aggregate<N: Neighborhood>(model: &Model, l: usize, view: &N, m: &Matrix) -> Matrix {
    let mut alpha = Matrix::zeros(0, 0);
    batch_aggregate_into(model, l, view, m, &mut alpha);
    alpha
}

/// Captured per-layer GraphNorm statistics: `(mean, var)`.
pub type NormStats = (Vec<f32>, Vec<f32>);

/// One layer's update phase into caller-owned storage:
/// `h_{l+1} = act(norm(T(α, m)))` as one batched GEMM chain, handling exact
/// GraphNorm (whole-vertex-set statistics) when present. `h` is the flat
/// row-major output (`alpha.rows() × out_dim`). Returns the captured
/// statistics for exact norms plus the GEMM flop count.
pub fn batch_update_into<N: Neighborhood>(
    model: &Model,
    l: usize,
    alpha: &Matrix,
    m: &Matrix,
    view: &N,
    h: &mut [f32],
    scratch: &mut GemmScratch,
) -> (Option<NormStats>, u64) {
    let layer = model.layer(l);
    let conv = &layer.conv;
    let out_dim = conv.out_dim();
    let dim = conv.msg_dim();
    let n = alpha.rows();
    let self_msg: &[f32] = if conv.self_dependent() { m.as_slice() } else { &[] };
    let flops = if conv.degree_scaled() {
        // Fold the target-side degree weight into a scaled copy of α first —
        // the same `a[j] * s` the per-node path performs before its update.
        let mut scaled_alpha = scratch.take(n * dim);
        ink_tensor::gemm::gather_rows_scaled_into(
            alpha,
            (0..n).map(|u| (u, conv.update_scale(view.in_neighbors(u as VertexId).len()))),
            &mut scaled_alpha,
        );
        let flops = conv.update_batch_into(n, &scaled_alpha, self_msg, h, scratch);
        scratch.put(scaled_alpha);
        flops
    } else {
        conv.update_batch_into(n, alpha.as_slice(), self_msg, h, scratch)
    };

    let mut captured = None;
    match &layer.norm {
        Some(GraphNormMode::Exact(norm)) => {
            captured = Some(norm.apply_exact(h));
        }
        Some(cached @ GraphNormMode::Cached { .. }) => {
            h.par_chunks_mut(out_dim).for_each(|row| cached.apply_cached(row));
        }
        None => {}
    }
    layer.act.apply(h);
    (captured, flops)
}

/// Classic full-graph inference over `view`, rebuilding `state` in place:
/// every cached matrix is reshaped capacity-preserving and all temporaries
/// (the inter-layer hidden buffer, GEMM packing, MLP ping-pong) come from
/// `scratch`, so repeated recompute epochs over same-shaped inputs perform no
/// allocation after the first. At most one hidden matrix is out of the pool
/// at a time: `h_l` goes back as soon as `m_l` is built from it, and the last
/// layer writes straight into `state.h`. Returns the total GEMM flop count.
///
/// When a `meter` is given, the embedding traffic of every phase is recorded
/// (analytically per layer, to keep the counters off the hot path).
pub fn full_inference_into<N: Neighborhood>(
    model: &Model,
    view: &N,
    features: &Matrix,
    meter: Option<&CostMeter>,
    state: &mut FullState,
    scratch: &mut GemmScratch,
) -> u64 {
    assert_eq!(features.cols(), model.in_dim(), "feature dim must match model input");
    assert_eq!(features.rows(), view.num_vertices(), "one feature row per vertex");
    let n = view.num_vertices();
    let k = model.num_layers();
    state.m.resize_with(k, || Matrix::zeros(0, 0));
    state.alpha.resize_with(k, || Matrix::zeros(0, 0));
    state.norm_stats.clear();
    state.norm_stats.resize(k, None);
    let FullState { m, alpha, h, norm_stats } = state;
    let mut flops = 0;
    // `cur` carries h_l between layers; layer 0 reads the features directly.
    let mut cur = Vec::new();

    for l in 0..k {
        let conv = &model.layer(l).conv;
        let h_in: &[f32] = if l == 0 { features.as_slice() } else { &cur };
        flops += batch_message_into(model, l, h_in, view, &mut m[l], scratch);
        if l > 0 {
            // `m[l]` is all this layer needs of h_l: its buffer goes back to
            // the pool now, so the update below can reuse it.
            scratch.put(std::mem::take(&mut cur));
        }
        batch_aggregate_into(model, l, view, &m[l], &mut alpha[l]);
        let out: &mut [f32] = if l + 1 == k {
            h.resize_to(n, conv.out_dim());
            h.as_mut_slice()
        } else {
            cur = scratch.take(n * conv.out_dim());
            &mut cur
        };
        let (stats, f) = batch_update_into(model, l, &alpha[l], &m[l], view, out, scratch);
        norm_stats[l] = stats;
        flops += f;
        if let Some(meter) = meter {
            let entries: usize = (0..n).map(|u| view.in_neighbors(u as VertexId).len()).sum();
            // message: read h, write m; aggregate: gather msgs, write α;
            // update: read α (+ self msg), write h.
            meter.read(n * conv.in_dim() + entries * conv.msg_dim() + n * conv.msg_dim());
            if conv.self_dependent() {
                meter.read(n * conv.msg_dim());
            }
            meter.write(n * conv.msg_dim() + n * conv.msg_dim() + n * conv.out_dim());
            meter.visit_nodes(n);
        }
    }
    flops
}

/// Classic full-graph inference over `view`, caching all intermediates.
/// Allocating wrapper over [`full_inference_into`].
pub fn full_inference<N: Neighborhood>(
    model: &Model,
    view: &N,
    features: &Matrix,
    meter: Option<&CostMeter>,
) -> FullState {
    let mut state = FullState::empty();
    full_inference_into(model, view, features, meter, &mut state, &mut GemmScratch::new());
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Aggregator;
    use ink_tensor::init::seeded_rng;

    fn toy_graph() -> DynGraph {
        // 0 – 1 – 2 triangle plus a pendant 3.
        DynGraph::undirected_from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)])
    }

    fn toy_features(n: usize, d: usize) -> Matrix {
        Matrix::from_fn(n, d, |r, c| (r * d + c) as f32 * 0.1 - 0.5)
    }

    #[test]
    fn state_shapes_match_model() {
        let mut rng = seeded_rng(1);
        let model = Model::gcn(&mut rng, &[6, 4, 3], Aggregator::Max);
        let g = toy_graph();
        let st = full_inference(&model, &g, &toy_features(4, 6), None);
        assert_eq!(st.m.len(), 2);
        assert_eq!(st.m[0].shape(), (4, 4));
        assert_eq!(st.alpha[0].shape(), (4, 4));
        assert_eq!(st.m[1].shape(), (4, 3));
        assert_eq!(st.h.shape(), (4, 3));
    }

    #[test]
    fn isolated_vertex_gets_zero_alpha() {
        let mut rng = seeded_rng(2);
        let model = Model::gcn(&mut rng, &[3, 2], Aggregator::Max);
        let g = DynGraph::new(2, false); // no edges at all
        let st = full_inference(&model, &g, &toy_features(2, 3), None);
        assert_eq!(st.alpha[0].row(0), &[0.0, 0.0]);
    }

    #[test]
    fn sum_aggregation_hand_checked() {
        // Identity GCN-ish layer: W = I, b = 0 → h1[u] = Σ_{v∈N(u)} x[v].
        let lin = ink_tensor::Linear::identity(2);
        let conv = crate::GcnConv::from_linear(lin, Aggregator::Sum);
        let model = Model::new(vec![crate::LayerDef {
            conv: Box::new(conv),
            norm: None,
            act: ink_tensor::Activation::Identity,
        }]);
        let g = toy_graph();
        let x = Matrix::from_vec(4, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0]);
        let st = full_inference(&model, &g, &x, None);
        // N(0) = {1, 2} → [1, 2]; N(3) = {2} → [1, 1]
        assert_eq!(st.h.row(0), &[1.0, 2.0]);
        assert_eq!(st.h.row(3), &[1.0, 1.0]);
    }

    #[test]
    fn csr_view_matches_dyn_graph() {
        let mut rng = seeded_rng(3);
        let model = Model::sage(&mut rng, &[5, 4, 3], Aggregator::Mean);
        let g = toy_graph();
        let x = toy_features(4, 5);
        let a = full_inference(&model, &g, &x, None);
        let csr = ink_graph::Csr::from_graph(&g);
        let b = full_inference(&model, &csr, &x, None);
        assert_eq!(a.h, b.h);
    }

    #[test]
    fn meter_counts_scale_with_layers() {
        let mut rng = seeded_rng(4);
        let model = Model::gcn(&mut rng, &[3, 3, 3], Aggregator::Mean);
        let g = toy_graph();
        let x = toy_features(4, 3);
        let meter = CostMeter::new();
        full_inference(&model, &g, &x, Some(&meter));
        assert!(meter.total_traffic() > 0);
        assert_eq!(meter.nodes_visited(), 8, "4 nodes × 2 layers");
    }

    #[test]
    fn exact_graphnorm_stats_are_captured() {
        let mut rng = seeded_rng(5);
        let model = Model::gcn(&mut rng, &[3, 4, 2], Aggregator::Mean).with_exact_graphnorm();
        let g = toy_graph();
        let st = full_inference(&model, &g, &toy_features(4, 3), None);
        assert!(st.norm_stats[0].is_some());
        assert!(st.norm_stats[1].is_none(), "last layer is unnormalised");
        let (mean, var) = st.norm_stats[0].as_ref().unwrap();
        assert_eq!(mean.len(), 4);
        assert_eq!(var.len(), 4);
    }

    #[test]
    fn frozen_stats_reproduce_exact_inference_on_same_graph() {
        let mut rng = seeded_rng(6);
        let g = toy_graph();
        let x = toy_features(4, 3);
        let exact = Model::gcn(&mut rng, &[3, 4, 2], Aggregator::Mean).with_exact_graphnorm();
        let st = full_inference(&exact, &g, &x, None);
        let frozen = exact.freeze_graphnorm_stats(&st.norm_stats);
        let st2 = full_inference(&frozen, &g, &x, None);
        assert!(st.h.allclose(&st2.h, 1e-5), "same graph → same statistics → same output");
    }
}
