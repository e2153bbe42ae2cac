//! The message-passing layer abstraction.
//!
//! The paper's expressiveness condition (§II) is that one node's next message
//! depends only on its own message and aggregated neighborhood:
//! `m_{l+1,u} = act(T(α_{l,u}, m_{l,u}))`. A [`Conv`] implementation supplies
//! the two halves of that equation:
//!
//! * [`Conv::message_into`] — `m_{l,u}` from `h_{l,u}` (identity for
//!   aggregate-first layers, a linear transform for transform-first layers);
//! * [`Conv::update_into`] — the combination `T(α, m_u)` *without* the final
//!   activation, which the owning [`crate::Model`] applies after optional
//!   normalisation.
//!
//! [`Conv::self_dependent`] tells the incremental engine whether a changed
//! message propagates to the node itself in the next layer (true for
//! GraphSAGE and GIN, false for GCN) — the distinction behind the paper's
//! observation that GCN enjoys larger speedups.
//!
//! [`Conv::alpha_weight`] tells it whether `T` is *affine in α*
//! (`T(α, m) = α·W + g(m)`). Only then can a change `Δα` be turned into the
//! change `Δα·W` of the output without re-evaluating `T` — the property the
//! engine's delta rows rest on (GraphSAGE has it; GIN's MLP does not).

use crate::Aggregator;
use ink_tensor::{GemmScratch, Matrix};

/// One GNN convolution layer (combination + aggregation, minus activation).
pub trait Conv: Send + Sync {
    /// Dimensionality of the layer input `h_l`.
    fn in_dim(&self) -> usize;

    /// Dimensionality of the message `m_l` entering aggregation.
    fn msg_dim(&self) -> usize;

    /// Dimensionality of the layer output `h_{l+1}`.
    fn out_dim(&self) -> usize;

    /// The aggregation function of this layer.
    fn aggregator(&self) -> Aggregator;

    /// Computes `m_{l,u}` from `h_{l,u}` into `out` (`msg_dim` long).
    fn message_into(&self, h: &[f32], out: &mut [f32]);

    /// True when the message is the identity (`m = h`), letting callers skip
    /// the copy.
    fn message_is_identity(&self) -> bool {
        false
    }

    /// Computes the pre-activation output `T(α_{l,u}, m_{l,u})` into `out`
    /// (`out_dim` long). Implementations that are not
    /// [self-dependent](Conv::self_dependent) ignore `self_msg`.
    fn update_into(&self, alpha: &[f32], self_msg: &[f32], out: &mut [f32]);

    /// Whether [`Conv::update_into`] reads `self_msg` — i.e. whether a change
    /// at a node propagates to the node itself in the next layer.
    fn self_dependent(&self) -> bool;

    /// Parameter count (for the memory model).
    fn param_count(&self) -> usize;

    /// The α-side weight of an update that is affine in α: `Some(W)`
    /// (`msg_dim × out_dim`) iff `update_into(α, m) = α·W + g(m)` with `g`
    /// independent of α. A caller may then update a cached output by
    /// `Δα·W` instead of re-running the update. `None` (the default)
    /// promises nothing — an MLP over `α`, or a layer that simply does not
    /// expose its weight.
    fn alpha_weight(&self) -> Option<&Matrix> {
        None
    }

    /// True when the layer's aggregation weights depend on vertex degrees —
    /// the topology-only weighted sum the paper names LightGCN-style
    /// (§II, *Expressiveness*). Engines then scale each stored message by
    /// [`Conv::degree_scale`] of its *source* and each aggregate by
    /// [`Conv::update_scale`] of its *target*, and the incremental engine
    /// additionally rescales cached messages of vertices whose degree a ΔG
    /// batch changed.
    fn degree_scaled(&self) -> bool {
        false
    }

    /// Source-side weight applied to a vertex's message
    /// (`1/√d` for symmetric normalisation; `1` by default).
    fn degree_scale(&self, _degree: usize) -> f32 {
        1.0
    }

    /// Target-side weight applied to the aggregated neighborhood before
    /// [`Conv::update_into`] (`1/√d` for symmetric normalisation).
    fn update_scale(&self, _degree: usize) -> f32 {
        1.0
    }

    /// Batched [`Conv::message_into`] over `rows` row-major input vectors:
    /// `h` is `rows × in_dim`, `out` receives `rows × msg_dim`. Each output
    /// row must be bitwise-identical to `message_into` on the matching input
    /// row; transform-first layers override this with one GEMM over the
    /// whole batch (borrowing pack/ping-pong buffers from `scratch`).
    /// Returns the GEMM flop count (0 for the per-row fallback, which runs
    /// no GEMM).
    fn message_batch_into(
        &self,
        rows: usize,
        h: &[f32],
        out: &mut [f32],
        _scratch: &mut GemmScratch,
    ) -> u64 {
        let (kd, md) = (self.in_dim(), self.msg_dim());
        for (hrow, orow) in
            h.chunks_exact(kd.max(1)).zip(out.chunks_exact_mut(md.max(1))).take(rows)
        {
            self.message_into(hrow, orow);
        }
        0
    }

    /// Batched [`Conv::update_into`]: `alpha` is `rows × msg_dim` (already
    /// target-scaled where [`Conv::degree_scaled`] applies), `self_msg` is
    /// `rows × msg_dim` for [self-dependent](Conv::self_dependent) layers or
    /// empty otherwise, `out` receives `rows × out_dim` pre-activation
    /// values. Each output row must be bitwise-identical to `update_into` on
    /// the matching rows. Returns the GEMM flop count.
    fn update_batch_into(
        &self,
        rows: usize,
        alpha: &[f32],
        self_msg: &[f32],
        out: &mut [f32],
        _scratch: &mut GemmScratch,
    ) -> u64 {
        let (md, od) = (self.msg_dim(), self.out_dim());
        for i in 0..rows {
            let srow: &[f32] =
                if self_msg.is_empty() { &[] } else { &self_msg[i * md..(i + 1) * md] };
            self.update_into(&alpha[i * md..(i + 1) * md], srow, &mut out[i * od..(i + 1) * od]);
        }
        0
    }

    /// Allocating convenience wrapper around [`Conv::message_into`].
    fn message(&self, h: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; self.msg_dim()];
        self.message_into(h, &mut out);
        out
    }

    /// Allocating convenience wrapper around [`Conv::update_into`].
    fn update(&self, alpha: &[f32], self_msg: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; self.out_dim()];
        self.update_into(alpha, self_msg, out.as_mut_slice());
        out
    }
}
