//! GIN convolution (Xu et al.): `h'_u = MLP((1+ε)·h_u + A(h_v : v ∈ N(u)))`.
//!
//! GIN's canonical aggregator is sum; the paper's InkStream-m variant swaps
//! in max. Like GraphSAGE it is self-dependent through the `(1+ε)·h_u` term,
//! and its 5-layer benchmark depth is what makes the theoretical affected
//! area explode on dense graphs.

use crate::{Aggregator, Conv};
use ink_tensor::gemm::GemmScratch;
use ink_tensor::{Activation, Mlp};
use rand::rngs::StdRng;

/// A GIN layer with a 2-layer MLP combination function (the structure used
/// in the original paper and the benchmark).
#[derive(Clone, Debug)]
pub struct GinConv {
    mlp: Mlp,
    eps: f32,
    agg: Aggregator,
}

impl GinConv {
    /// Glorot-initialised layer with an `in → out → out` MLP.
    pub fn new(rng: &mut StdRng, in_dim: usize, out_dim: usize, eps: f32, agg: Aggregator) -> Self {
        Self { mlp: Mlp::new(rng, &[in_dim, out_dim, out_dim], Activation::Relu), eps, agg }
    }
}

impl Conv for GinConv {
    fn in_dim(&self) -> usize {
        self.mlp.in_dim()
    }

    fn msg_dim(&self) -> usize {
        self.mlp.in_dim()
    }

    fn out_dim(&self) -> usize {
        self.mlp.out_dim()
    }

    fn aggregator(&self) -> Aggregator {
        self.agg
    }

    fn message_into(&self, h: &[f32], out: &mut [f32]) {
        out.copy_from_slice(h);
    }

    fn message_is_identity(&self) -> bool {
        true
    }

    fn update_into(&self, alpha: &[f32], self_msg: &[f32], out: &mut [f32]) {
        let mut pre = alpha.to_vec();
        ink_tensor::ops::axpy(&mut pre, 1.0 + self.eps, self_msg);
        out.copy_from_slice(&self.mlp.forward_vec(&pre));
    }

    /// Identity message: one bulk copy instead of a per-row loop.
    fn message_batch_into(
        &self,
        _rows: usize,
        h: &[f32],
        out: &mut [f32],
        _scratch: &mut GemmScratch,
    ) -> u64 {
        out.copy_from_slice(&h[..out.len()]);
        0
    }

    /// Builds `(1+ε)·h + α` for the whole batch in a pooled pre-buffer
    /// (same copy-then-axpy operation order as [`Conv::update_into`]), then
    /// runs the MLP as one batched GEMM chain.
    fn update_batch_into(
        &self,
        rows: usize,
        alpha: &[f32],
        self_msg: &[f32],
        out: &mut [f32],
        scratch: &mut GemmScratch,
    ) -> u64 {
        let md = self.mlp.in_dim();
        let mut pre = scratch.take(rows * md);
        pre.copy_from_slice(&alpha[..rows * md]);
        for (prow, srow) in pre.chunks_exact_mut(md).zip(self_msg.chunks_exact(md)) {
            ink_tensor::ops::axpy(prow, 1.0 + self.eps, srow);
        }
        let flops = self.mlp.forward_batch_into(rows, &pre, out, scratch);
        scratch.put(pre);
        flops
    }

    fn self_dependent(&self) -> bool {
        true
    }

    fn param_count(&self) -> usize {
        self.mlp.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ink_tensor::init::seeded_rng;
    use ink_tensor::Linear;

    fn identity_mlp(dim: usize) -> Mlp {
        Mlp::from_layers(vec![Linear::identity(dim)], Activation::Relu)
    }

    #[test]
    fn update_combines_alpha_and_scaled_self() {
        let conv = GinConv { mlp: identity_mlp(2), eps: 0.5, agg: Aggregator::Sum };
        // (1 + 0.5)·[2, 4] + [1, 1] = [4, 7]
        assert_eq!(conv.update(&[1.0, 1.0], &[2.0, 4.0]), vec![4.0, 7.0]);
    }

    #[test]
    fn zero_eps_is_plain_sum() {
        let conv = GinConv { mlp: identity_mlp(2), eps: 0.0, agg: Aggregator::Sum };
        assert_eq!(conv.update(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
    }

    #[test]
    fn gin_is_self_dependent_identity_message() {
        let mut rng = seeded_rng(1);
        let conv = GinConv::new(&mut rng, 4, 4, 0.1, Aggregator::Max);
        assert!(conv.self_dependent());
        assert!(conv.message_is_identity());
        assert_eq!(conv.message(&[1.0, 2.0, 3.0, 4.0]), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn batched_update_is_bitwise_equal_to_per_node() {
        let mut rng = seeded_rng(23);
        let conv = GinConv::new(&mut rng, 4, 5, 0.3, Aggregator::Sum);
        let alpha = ink_tensor::init::uniform(&mut rng, 8, 4, -1.0, 1.0);
        let selfm = ink_tensor::init::uniform(&mut rng, 8, 4, -1.0, 1.0);
        let mut batched = vec![0.0; 8 * 5];
        let mut scratch = GemmScratch::new();
        conv.update_batch_into(8, alpha.as_slice(), selfm.as_slice(), &mut batched, &mut scratch);
        for r in 0..8 {
            let single = conv.update(alpha.row(r), selfm.row(r));
            assert_eq!(single.as_slice(), &batched[r * 5..(r + 1) * 5], "row {r}");
        }
    }

    #[test]
    fn mlp_depth_is_two() {
        let mut rng = seeded_rng(2);
        let conv = GinConv::new(&mut rng, 3, 5, 0.0, Aggregator::Sum);
        assert_eq!((conv.in_dim(), conv.msg_dim(), conv.out_dim()), (3, 3, 5));
        assert_eq!(conv.param_count(), (3 * 5 + 5) + (5 * 5 + 5));
    }
}
