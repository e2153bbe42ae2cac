//! Row-major dense `f32` matrix.
//!
//! Node embedding tables are matrices with many rows (one per vertex) and few
//! columns (the hidden dimension, 16–256). The layout is row-major so a single
//! node's embedding is one contiguous slice — the unit the event system moves
//! around.

use crate::gemm::{self, GemmScratch};

/// A row-major dense matrix of `f32`.
///
/// ```
/// use ink_tensor::Matrix;
///
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let id = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
/// assert_eq!(a.matmul(&id), a);
/// assert_eq!(a.row(1), &[3.0, 4.0]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// An all-zeros matrix with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { data: vec![0.0; rows * cols], rows, cols }
    }

    /// A matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { data: vec![value; rows * cols], rows, cols }
    }

    /// Builds a matrix by calling `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { data, rows, cols }
    }

    /// Wraps an existing buffer. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape {rows}x{cols}");
        Self { data, rows, cols }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The whole backing buffer, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the backing buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `r` as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies `src` into row `r`.
    #[inline]
    pub fn set_row(&mut self, r: usize, src: &[f32]) {
        self.row_mut(r).copy_from_slice(src);
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Appends a row. Panics on column mismatch.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "row length mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Dense matmul: `self (n×k) · rhs (k×m) → (n×m)`.
    ///
    /// Allocating convenience wrapper over [`Matrix::matmul_into`] /
    /// [`gemm::gemm_into`] — the blocked, panel-packed kernel with strict
    /// per-element k-order accumulation, so the result is bitwise-identical
    /// to the naive i-k-j loop at any thread count. The kernel is dense:
    /// NaN/Inf anywhere in either operand propagates to the output.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out, &mut GemmScratch::new());
        out
    }

    /// Dense matmul into caller-owned storage: `out` is reshaped (capacity
    /// retained) to `self.rows × rhs.cols` and fully overwritten, and the
    /// packing buffer comes from `scratch` — steady-state callers allocate
    /// nothing. Bitwise-identical to [`Matrix::matmul`].
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix, scratch: &mut GemmScratch) {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch {:?}x{:?}", self.shape(), rhs.shape());
        let (n, k, m) = (self.rows, self.cols, rhs.cols);
        out.resize_to(n, m);
        gemm::gemm_into(n, k, m, &self.data, &rhs.data, &mut out.data, scratch, true);
    }

    /// `vec (1×k) · self (k×m) → (1×m)`, sequential; the hot path for
    /// single-node incremental updates.
    ///
    /// This is the *dense* kernel: every term is multiplied and accumulated
    /// in k order, so a NaN in either the vector or the matrix poisons the
    /// output instead of being silently dropped (the seed kernel's
    /// `a == 0.0` skip turned `0.0 × NaN` into `0.0`, hiding corrupted
    /// weights from the drift auditor).
    pub fn vecmul(&self, vec: &[f32], out: &mut [f32]) {
        assert_eq!(vec.len(), self.rows, "vecmul shape mismatch");
        assert_eq!(out.len(), self.cols, "vecmul output shape mismatch");
        out.fill(0.0);
        for (kk, &a) in vec.iter().enumerate() {
            let brow = &self.data[kk * self.cols..(kk + 1) * self.cols];
            for (o, &b) in out.iter_mut().zip(brow) {
                *o += a * b;
            }
        }
    }

    /// Reshapes to `rows × cols`, zero-filling contents and keeping the
    /// backing buffer's capacity. The in-place analogue of
    /// [`Matrix::zeros`] for steady-state buffer reuse.
    pub fn resize_to(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Transposed copy. Walks the matrix in square tiles so both the source
    /// rows and the destination columns of a tile stay cache-resident —
    /// a plain row-major sweep strides the destination by `rows` floats per
    /// element and thrashes once matrices outgrow L1.
    pub fn transpose(&self) -> Matrix {
        const TILE: usize = 32;
        let mut out = Matrix::zeros(self.cols, self.rows);
        for rb in (0..self.rows).step_by(TILE) {
            let r_end = (rb + TILE).min(self.rows);
            for cb in (0..self.cols).step_by(TILE) {
                let c_end = (cb + TILE).min(self.cols);
                for r in rb..r_end {
                    for c in cb..c_end {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// Maximum absolute element-wise difference to `other`. NaN anywhere in
    /// either matrix propagates to the result — a `f32::max` fold would
    /// silently drop NaN and report corrupted state as a diff of `0.0`,
    /// which is exactly the failure mode drift verification exists to catch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f32, crate::ops::nan_max)
    }

    /// True when every element differs by at most `tol`. NaN in either
    /// matrix fails the check (NaN is never close to anything).
    pub fn allclose(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other) <= tol
    }

    /// True when any element is NaN or infinite — the cheap corruption scan
    /// the drift auditor runs over cached state.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Bytes occupied by the backing buffer (capacity ignored).
    pub fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Bytes *reserved* by the backing buffer (capacity, not length) — the
    /// observable the steady-state allocation tests track for caller-owned
    /// matrices that shrink and regrow via [`Matrix::resize_to`].
    pub fn capacity_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_contents() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
    }

    #[test]
    fn set_row_and_push_row() {
        let mut m = Matrix::zeros(1, 2);
        m.set_row(0, &[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn push_row_rejects_wrong_width() {
        let mut m = Matrix::zeros(1, 2);
        m.push_row(&[1.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_roundtrip() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let id = Matrix::from_fn(4, 4, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&id).as_slice(), a.as_slice());
    }

    #[test]
    fn vecmul_agrees_with_matmul() {
        let w = Matrix::from_fn(3, 2, |r, c| (r + c) as f32 * 0.5);
        let v = [1.0, -2.0, 0.5];
        let mut out = [0.0; 2];
        w.vecmul(&v, &mut out);
        let m = Matrix::from_vec(1, 3, v.to_vec()).matmul(&w);
        assert_eq!(out.as_slice(), m.as_slice());
    }

    #[test]
    fn matmul_into_reuses_capacity_and_matches_matmul() {
        let a = Matrix::from_fn(9, 5, |r, c| (r * 5 + c) as f32 * 0.25 - 2.0);
        let b = Matrix::from_fn(5, 7, |r, c| (r as f32 - c as f32) * 0.5);
        let mut out = Matrix::zeros(64, 64); // larger than needed: capacity must survive
        let cap = out.capacity_bytes();
        let mut scratch = GemmScratch::new();
        a.matmul_into(&b, &mut out, &mut scratch);
        assert_eq!(out.shape(), (9, 7));
        assert_eq!(out, a.matmul(&b));
        assert_eq!(out.capacity_bytes(), cap, "resize_to must keep capacity");
    }

    #[test]
    fn vecmul_propagates_nan_past_zero_coefficients() {
        // Regression for the seed kernel's `a == 0.0` skip: a NaN weight row
        // selected by a zero coefficient must still poison the output.
        let mut w = Matrix::from_fn(3, 2, |r, c| (r + c) as f32);
        w.set(1, 0, f32::NAN);
        let mut out = [0.0; 2];
        w.vecmul(&[1.0, 0.0, 1.0], &mut out);
        assert!(out[0].is_nan(), "dense vecmul must propagate 0·NaN");
        assert!(!out[1].is_nan());

        // NaN in the vector itself propagates too.
        let w = Matrix::from_fn(2, 2, |_, _| 1.0);
        w.vecmul(&[f32::NAN, 1.0], &mut out);
        assert!(out.iter().all(|x| x.is_nan()));
    }

    #[test]
    fn matmul_propagates_nan_past_zero_coefficients() {
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let mut b = Matrix::from_fn(2, 2, |_, _| 2.0);
        b.set(0, 0, f32::NAN);
        let c = a.matmul(&b);
        assert!(c.get(0, 0).is_nan(), "dense matmul must propagate 0·NaN");
        assert!(!c.get(0, 1).is_nan());
    }

    #[test]
    fn resize_to_zeroes_and_reshapes() {
        let mut m = Matrix::from_fn(2, 2, |_, _| 9.0);
        m.resize_to(3, 1);
        assert_eq!(m.shape(), (3, 1));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(2, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn blocked_transpose_matches_naive_on_awkward_shapes() {
        // Shapes straddling the 32-wide tile: exact multiples, one-off
        // remainders, degenerate rows/columns.
        for (rows, cols) in
            [(1, 1), (1, 97), (97, 1), (31, 33), (32, 32), (33, 31), (64, 96), (65, 97)]
        {
            let a = Matrix::from_fn(rows, cols, |r, c| (r * cols + c) as f32 * 0.5 - 3.0);
            let naive = {
                let mut out = Matrix::zeros(cols, rows);
                for r in 0..rows {
                    for c in 0..cols {
                        out.set(c, r, a.get(r, c));
                    }
                }
                out
            };
            assert_eq!(a.transpose(), naive, "{rows}x{cols}");
        }
    }

    #[test]
    fn allclose_respects_tolerance() {
        let a = Matrix::full(2, 2, 1.0);
        let mut b = a.clone();
        b.set(0, 0, 1.05);
        assert!(a.allclose(&b, 0.1));
        assert!(!a.allclose(&b, 0.01));
    }

    #[test]
    fn max_abs_diff_zero_for_identical() {
        let a = Matrix::from_fn(3, 3, |r, c| (r + c) as f32);
        assert_eq!(a.max_abs_diff(&a.clone()), 0.0);
    }

    #[test]
    fn max_abs_diff_propagates_nan() {
        let a = Matrix::from_fn(2, 3, |r, c| (r + c) as f32);
        let mut b = a.clone();
        b.set(0, 1, f32::NAN);
        // Regression: the old `fold(0.0, f32::max)` dropped NaN and reported
        // a poisoned matrix as bitwise identical (diff 0.0).
        assert!(a.max_abs_diff(&b).is_nan());
        assert!(b.max_abs_diff(&a).is_nan());
        // NaN in an early element must survive later finite elements.
        let mut c = a.clone();
        c.set(0, 0, f32::NAN);
        assert!(a.max_abs_diff(&c).is_nan());
    }

    #[test]
    fn allclose_fails_on_nan() {
        let a = Matrix::full(2, 2, 1.0);
        let mut b = a.clone();
        b.set(1, 1, f32::NAN);
        assert!(!a.allclose(&b, f32::INFINITY), "NaN must never verify clean");
        assert!(!b.allclose(&b, 0.0), "even against itself");
    }

    #[test]
    fn has_non_finite_detects_nan_and_inf() {
        let mut m = Matrix::zeros(2, 2);
        assert!(!m.has_non_finite());
        m.set(0, 1, f32::NAN);
        assert!(m.has_non_finite());
        m.set(0, 1, f32::INFINITY);
        assert!(m.has_non_finite());
        m.set(0, 1, -1.0);
        assert!(!m.has_non_finite());
    }
}
