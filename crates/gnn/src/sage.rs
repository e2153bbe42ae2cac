//! GraphSAGE convolution (Hamilton et al.):
//! `h'_u = W₁·A(h_v : v ∈ N(u)) + W₂·h_u`.
//!
//! The message is the identity (`m = h`, aggregate-first), and the update
//! reads the node's own message through the `W₂` term — the *self-impact*
//! that, per the paper's Fig. 8 discussion, makes GraphSAGE's embeddings
//! sensitive and its exposed-reset fraction non-negligible.

use crate::{Aggregator, Conv};
use ink_tensor::gemm::{self, GemmScratch};
use ink_tensor::{Linear, Matrix};
use rand::rngs::StdRng;

/// A GraphSAGE layer with a configurable neighborhood aggregator.
#[derive(Clone, Debug)]
pub struct SageConv {
    w_neigh: Linear,
    w_self: Linear,
    agg: Aggregator,
}

impl SageConv {
    /// Glorot-initialised layer (`W₁` carries the bias, matching PyG).
    pub fn new(rng: &mut StdRng, in_dim: usize, out_dim: usize, agg: Aggregator) -> Self {
        Self {
            w_neigh: Linear::new(rng, in_dim, out_dim),
            w_self: Linear::from_parts(
                ink_tensor::init::glorot_uniform(rng, in_dim, out_dim),
                vec![0.0; out_dim],
            ),
            agg,
        }
    }

    /// Layer from explicit parameter blocks.
    pub fn from_parts(w_neigh: Linear, w_self: Linear, agg: Aggregator) -> Self {
        assert_eq!(w_neigh.in_dim(), w_self.in_dim());
        assert_eq!(w_neigh.out_dim(), w_self.out_dim());
        Self { w_neigh, w_self, agg }
    }
}

impl Conv for SageConv {
    fn in_dim(&self) -> usize {
        self.w_neigh.in_dim()
    }

    fn msg_dim(&self) -> usize {
        self.w_neigh.in_dim()
    }

    fn out_dim(&self) -> usize {
        self.w_neigh.out_dim()
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
        self.w_neigh.forward_vec(alpha, out);
        let mut self_part = vec![0.0; out.len()];
        self.w_self.weight().vecmul(self_msg, &mut self_part);
        ink_tensor::ops::add_assign(out, &self_part);
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

    /// Two GEMMs per batch (`α·W₁ + b` then `h·W₂` added in), replicating
    /// the per-element operation order of [`Conv::update_into`] exactly:
    /// neighbor term with bias first, self term added second.
    fn update_batch_into(
        &self,
        rows: usize,
        alpha: &[f32],
        self_msg: &[f32],
        out: &mut [f32],
        scratch: &mut GemmScratch,
    ) -> u64 {
        let (k, m) = (self.w_self.in_dim(), self.w_self.out_dim());
        let mut flops = self.w_neigh.forward_batch_into(rows, alpha, out, scratch);
        let mut self_part = scratch.take(rows * m);
        gemm::gemm_into(rows, k, m, self_msg, self.w_self.weight().as_slice(), &mut self_part, scratch, true);
        flops += gemm::gemm_flops(rows, k, m);
        for (orow, srow) in out.chunks_exact_mut(m).zip(self_part.chunks_exact(m)) {
            ink_tensor::ops::add_assign(orow, srow);
        }
        scratch.put(self_part);
        flops
    }

    fn self_dependent(&self) -> bool {
        true
    }

    fn param_count(&self) -> usize {
        self.w_neigh.param_count() + self.w_self.param_count()
    }

    /// `update_into(α, m) = α·W₁ + (b + m·W₂)`.
    fn alpha_weight(&self) -> Option<&Matrix> {
        Some(self.w_neigh.weight())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GcnConv, GinConv, LightGcnConv};
    use ink_tensor::init::seeded_rng;

    fn ident_linear(dim: usize) -> Linear {
        Linear::identity(dim)
    }

    #[test]
    fn message_is_identity() {
        let mut rng = seeded_rng(1);
        let conv = SageConv::new(&mut rng, 3, 2, Aggregator::Max);
        assert!(conv.message_is_identity());
        assert_eq!(conv.message(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn update_sums_neighbor_and_self_terms() {
        // W1 = I, W2 = 2I → update = α + 2·h_u.
        let w2 = Linear::from_parts(Matrix::from_vec(2, 2, vec![2.0, 0.0, 0.0, 2.0]), vec![0.0; 2]);
        let conv = SageConv::from_parts(ident_linear(2), w2, Aggregator::Sum);
        assert_eq!(conv.update(&[1.0, 1.0], &[10.0, -3.0]), vec![21.0, -5.0]);
    }

    #[test]
    fn sage_is_self_dependent() {
        let mut rng = seeded_rng(2);
        let conv = SageConv::new(&mut rng, 3, 3, Aggregator::Mean);
        assert!(conv.self_dependent());
        let a = conv.update(&[1.0, 2.0, 3.0], &[0.0, 0.0, 0.0]);
        let b = conv.update(&[1.0, 2.0, 3.0], &[1.0, 0.0, 0.0]);
        assert_ne!(a, b, "self message must influence the update");
    }

    #[test]
    fn batched_update_is_bitwise_equal_to_per_node() {
        let mut rng = seeded_rng(17);
        let conv = SageConv::new(&mut rng, 4, 3, Aggregator::Mean);
        let alpha = ink_tensor::init::uniform(&mut rng, 9, 4, -1.5, 1.5);
        let selfm = ink_tensor::init::uniform(&mut rng, 9, 4, -1.5, 1.5);
        let mut batched = vec![0.0; 9 * 3];
        let mut scratch = GemmScratch::new();
        conv.update_batch_into(9, alpha.as_slice(), selfm.as_slice(), &mut batched, &mut scratch);
        for r in 0..9 {
            let single = conv.update(alpha.row(r), selfm.row(r));
            assert_eq!(single.as_slice(), &batched[r * 3..(r + 1) * 3], "row {r}");
        }
        let mut msg = vec![0.0; 9 * 4];
        conv.message_batch_into(9, alpha.as_slice(), &mut msg, &mut scratch);
        assert_eq!(&msg[..], alpha.as_slice(), "identity message is a copy");
    }

    #[test]
    fn update_is_affine_in_alpha_with_the_advertised_weight() {
        let mut rng = seeded_rng(18);
        let conv = SageConv::new(&mut rng, 6, 4, Aggregator::Mean);
        let w = conv.alpha_weight().expect("SAGE is affine in α");
        assert_eq!(w.shape(), (conv.msg_dim(), conv.out_dim()));
        let rows = ink_tensor::init::uniform(&mut rng, 3, 6, -1.0, 1.0);
        let (alpha, delta, m) = (rows.row(0), rows.row(1), rows.row(2));
        let shifted: Vec<f32> = alpha.iter().zip(delta).map(|(a, d)| a + d).collect();
        let (base, moved) = (conv.update(alpha, m), conv.update(&shifted, m));
        let mut dw = vec![0.0; 4];
        w.vecmul(delta, &mut dw);
        for j in 0..4 {
            let got = moved[j] - base[j];
            assert!((got - dw[j]).abs() < 1e-5, "channel {j}: {got} vs δ·W₁ = {}", dw[j]);
        }
    }

    #[test]
    fn only_sage_hands_out_an_alpha_weight() {
        let mut rng = seeded_rng(19);
        assert!(GcnConv::new(&mut rng, 4, 3, Aggregator::Sum).alpha_weight().is_none());
        assert!(GinConv::new(&mut rng, 4, 3, 0.1, Aggregator::Sum).alpha_weight().is_none());
        assert!(LightGcnConv::new(4).alpha_weight().is_none());
    }

    #[test]
    fn msg_dim_is_input_dim() {
        let mut rng = seeded_rng(3);
        let conv = SageConv::new(&mut rng, 5, 2, Aggregator::Max);
        assert_eq!((conv.in_dim(), conv.msg_dim(), conv.out_dim()), (5, 5, 2));
        assert_eq!(conv.param_count(), (5 * 2 + 2) + (5 * 2 + 2));
    }

    #[test]
    #[should_panic]
    fn from_parts_rejects_dim_mismatch() {
        let _ = SageConv::from_parts(
            Linear::identity(2),
            Linear::identity(3),
            Aggregator::Max,
        );
    }
}
