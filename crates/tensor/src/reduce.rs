//! Column-wise reductions over row sets.
//!
//! GraphNorm needs per-channel mean and variance across the whole vertex set.
//!
//! [`fold_rows_max_into`] folds a contiguous row-major panel (`rows × dim`,
//! rows back-to-back) into one `dim`-wide accumulator with the per-channel
//! maximum of `ink_gnn::Aggregator::aggregate_into`. No engine path calls it:
//! it stays because the repo benchmark's `tensor.fold_max_gbps` probe times
//! the max fold kernel through it.

use crate::ops;

/// Per-column mean of the row-major `_ × cols` block `data`. Returns zeros
/// when it has no rows.
pub fn col_mean(data: &[f32], cols: usize) -> Vec<f32> {
    let mut mean = vec![0.0f64; cols];
    if data.is_empty() {
        return vec![0.0; cols];
    }
    for row in data.chunks_exact(cols.max(1)) {
        for (acc, &x) in mean.iter_mut().zip(row) {
            *acc += x as f64;
        }
    }
    let n = (data.len() / cols.max(1)) as f64;
    mean.into_iter().map(|x| (x / n) as f32).collect()
}

/// Per-column (population) variance of the row-major `_ × mean.len()` block
/// `data`.
pub fn col_var(data: &[f32], mean: &[f32]) -> Vec<f32> {
    let cols = mean.len();
    let mut var = vec![0.0f64; cols];
    if data.is_empty() {
        return vec![0.0; cols];
    }
    for row in data.chunks_exact(cols.max(1)) {
        for ((acc, &x), &mu) in var.iter_mut().zip(row).zip(mean) {
            let d = (x - mu) as f64;
            *acc += d * d;
        }
    }
    let n = (data.len() / cols.max(1)) as f64;
    var.into_iter().map(|x| (x / n) as f32).collect()
}

/// Folds every `dim`-wide row of `panel` into `out` with per-channel
/// maximum, in row order. `out` must carry the caller's identity (e.g.
/// `-inf`) or running value.
pub fn fold_rows_max_into(panel: &[f32], dim: usize, out: &mut [f32]) {
    debug_assert_eq!(out.len(), dim);
    debug_assert!(dim == 0 || panel.len().is_multiple_of(dim), "panel is not whole rows");
    if dim == 0 {
        return;
    }
    for row in panel.chunks_exact(dim) {
        ops::max_assign(out, row);
    }
}

/// Row index of the maximum value in a slice (ties → first).
pub fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    #[test]
    fn mean_and_var_of_constant_rows() {
        let m = Matrix::full(5, 3, 2.0);
        let mean = col_mean(m.as_slice(), m.cols());
        assert_eq!(mean, vec![2.0, 2.0, 2.0]);
        assert_eq!(col_var(m.as_slice(), &mean), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn mean_and_var_hand_checked() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 0.0, 3.0, 4.0]);
        let mean = col_mean(m.as_slice(), m.cols());
        assert_eq!(mean, vec![2.0, 2.0]);
        assert_eq!(col_var(m.as_slice(), &mean), vec![1.0, 4.0]);
    }

    #[test]
    fn empty_matrix_yields_zeros() {
        let m = Matrix::zeros(0, 4);
        assert_eq!(col_mean(m.as_slice(), m.cols()), vec![0.0; 4]);
    }

    #[test]
    fn fold_rows_match_scalar_loops_bitwise() {
        // Deterministic awkward values so accumulation-order differences
        // would actually show up bitwise.
        let dim = 5;
        let rows = 13;
        let mut s = 0xC0FFEEu32;
        let panel: Vec<f32> = (0..rows * dim)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                ((s >> 8) as f32 / (1u32 << 24) as f32 - 0.5) * 3.0
            })
            .collect();

        let mut mx = vec![f32::NEG_INFINITY; dim];
        fold_rows_max_into(&panel, dim, &mut mx);

        let mut want_mx = vec![f32::NEG_INFINITY; dim];
        for row in panel.chunks_exact(dim) {
            ops::max_assign(&mut want_mx, row);
        }
        assert!(ops::eq_exact(&mx, &want_mx));
    }

    #[test]
    fn fold_rows_on_empty_panel_keep_identity() {
        let mut out = vec![f32::NEG_INFINITY; 3];
        fold_rows_max_into(&[], 3, &mut out);
        assert!(out.iter().all(|&x| x == f32::NEG_INFINITY));
        let mut out = vec![0.0f32; 0];
        fold_rows_max_into(&[], 0, &mut out); // dim == 0 is a no-op
    }

    #[test]
    fn argmax_prefers_first_on_tie() {
        assert_eq!(argmax(&[1.0, 5.0, 5.0, 2.0]), 1);
        assert_eq!(argmax(&[-3.0]), 0);
    }
}
