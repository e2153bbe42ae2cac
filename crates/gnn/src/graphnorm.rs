//! GraphNorm (Cai et al.) and the paper's cached-statistics approximation.
//!
//! GraphNorm standardises each channel across the *whole vertex set* —
//! exactly the non-local dependency that breaks incremental updates: any
//! vertex change perturbs μ and σ² and would force every vertex to rescale.
//! The paper's fix (§II-E): freeze the statistics captured at training time
//! and reuse them between retraining phases, turning the layer into a purely
//! element-wise affine map. [`GraphNormMode`] carries both variants; the
//! incremental engine accepts only the cached form, while full inference can
//! run either (and capture fresh statistics for later caching).

/// Learnable GraphNorm parameters (scale γ, shift β).
#[derive(Clone, Debug, PartialEq)]
pub struct GraphNorm {
    /// Per-channel scale.
    pub gamma: Vec<f32>,
    /// Per-channel shift.
    pub beta: Vec<f32>,
    /// Numerical-stability epsilon added to the variance.
    pub eps: f32,
}

impl GraphNorm {
    /// γ = 1, β = 0 — the freshly-initialised layer.
    pub fn unit(dim: usize) -> Self {
        Self { gamma: vec![1.0; dim], beta: vec![0.0; dim], eps: 1e-5 }
    }

    /// Channel count.
    pub fn dim(&self) -> usize {
        self.gamma.len()
    }

    /// Normalises one row in place with the given statistics:
    /// `x ← γ·(x − μ)/√(σ² + ε) + β`.
    pub fn apply_with_stats(&self, x: &mut [f32], mean: &[f32], var: &[f32]) {
        debug_assert_eq!(x.len(), self.gamma.len());
        for i in 0..x.len() {
            x[i] = self.gamma[i] * (x[i] - mean[i]) / (var[i] + self.eps).sqrt() + self.beta[i];
        }
    }

    /// Computes the exact vertex-set statistics of the row-major `_ × dim`
    /// block `h` and normalises every row. Returns the `(mean, var)` it used,
    /// for caching.
    pub fn apply_exact(&self, h: &mut [f32]) -> (Vec<f32>, Vec<f32>) {
        let mean = ink_tensor::reduce::col_mean(h, self.dim());
        let var = ink_tensor::reduce::col_var(h, &mean);
        for row in h.chunks_exact_mut(self.dim().max(1)) {
            self.apply_with_stats(row, &mean, &var);
        }
        (mean, var)
    }
}

/// How a model layer's GraphNorm evaluates its statistics.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphNormMode {
    /// Recompute μ/σ² across the vertex set on every inference (exact; only
    /// full-graph inference supports it).
    Exact(GraphNorm),
    /// Use frozen training-time statistics (the paper's approximation —
    /// element-wise, so incremental updates go through unchanged).
    Cached {
        /// The layer parameters.
        norm: GraphNorm,
        /// Frozen per-channel mean.
        mean: Vec<f32>,
        /// Frozen per-channel variance.
        var: Vec<f32>,
    },
}

impl GraphNormMode {
    /// The underlying layer parameters.
    pub fn norm(&self) -> &GraphNorm {
        match self {
            GraphNormMode::Exact(n) => n,
            GraphNormMode::Cached { norm, .. } => norm,
        }
    }

    /// True for the cached (incremental-update-compatible) form.
    pub fn is_cached(&self) -> bool {
        matches!(self, GraphNormMode::Cached { .. })
    }

    /// Applies the cached statistics to one row. Panics on the exact form —
    /// callers must check [`GraphNormMode::is_cached`] (the incremental
    /// engine surfaces this as a configuration error instead).
    pub fn apply_cached(&self, x: &mut [f32]) {
        match self {
            GraphNormMode::Cached { norm, mean, var } => norm.apply_with_stats(x, mean, var),
            GraphNormMode::Exact(_) => {
                panic!("exact GraphNorm cannot be applied per-row; cache statistics first")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ink_tensor::Matrix;

    #[test]
    fn unit_norm_standardises() {
        let norm = GraphNorm::unit(1);
        let mut h = Matrix::from_vec(4, 1, vec![1.0, 3.0, 5.0, 7.0]);
        let (mean, var) = norm.apply_exact(h.as_mut_slice());
        assert_eq!(mean, vec![4.0]);
        assert_eq!(var, vec![5.0]);
        let sum: f32 = h.as_slice().iter().sum();
        assert!(sum.abs() < 1e-5, "standardised columns sum to ~0");
    }

    #[test]
    fn gamma_beta_rescale() {
        let norm = GraphNorm { gamma: vec![2.0], beta: vec![10.0], eps: 0.0 };
        let mut x = vec![5.0];
        norm.apply_with_stats(&mut x, &[3.0], &[4.0]);
        // 2·(5−3)/2 + 10 = 12
        assert_eq!(x, vec![12.0]);
    }

    #[test]
    fn cached_mode_matches_exact_when_stats_agree() {
        let norm = GraphNorm::unit(2);
        let mut h = Matrix::from_vec(3, 2, vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0]);
        let mut h2 = h.clone();
        let (mean, var) = norm.apply_exact(h.as_mut_slice());
        let cached = GraphNormMode::Cached { norm, mean, var };
        for r in 0..3 {
            cached.apply_cached(h2.row_mut(r));
        }
        assert!(h.allclose(&h2, 1e-6));
    }

    #[test]
    #[should_panic(expected = "exact GraphNorm")]
    fn exact_mode_rejects_per_row_use() {
        let mode = GraphNormMode::Exact(GraphNorm::unit(2));
        let mut x = vec![1.0, 2.0];
        mode.apply_cached(&mut x);
    }

    #[test]
    fn zero_variance_is_stable() {
        let norm = GraphNorm::unit(1);
        let mut h = Matrix::full(3, 1, 7.0);
        norm.apply_exact(h.as_mut_slice());
        assert!(h.as_slice().iter().all(|x| x.is_finite()));
    }
}
