//! Element-wise vector kernels.
//!
//! These are the primitives the aggregation phase is built from. The
//! monotonic-aggregation rules in InkStream reason channel-by-channel about
//! equality between an old aggregate and a deleted message, so the comparison
//! kernels here are deliberately *bit-exact* (`==` on `f32`), matching the
//! paper's claim of bit-level identical results for max/min aggregation.

/// `dst += src`.
#[inline]
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// `dst += a * src` (fused multiply-add over the slice).
#[inline]
pub fn axpy(dst: &mut [f32], a: f32, src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d += a * s;
    }
}

/// `dst *= a`.
#[inline]
pub fn scale(dst: &mut [f32], a: f32) {
    for d in dst.iter_mut() {
        *d *= a;
    }
}

/// Element-wise maximum into `dst`: `d` takes `s` only where `s > d`, so a
/// NaN on either side and a `±0.0` tie keep `d`.
///
/// Written as a select rather than a conditional store. The rule is the
/// same, but the select compiles to `maxps` on the x86-64 baseline, whose
/// result is its first operand only when that operand is strictly greater:
/// this rule exactly. The conditional store compiles to a compare plus one
/// branch and scalar store per lane. `f32::max` is not this rule: it drops
/// NaN.
#[inline]
pub fn max_assign(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d = if *s > *d { *s } else { *d };
    }
}

/// Element-wise minimum into `dst`: `d` takes `s` only where `s < d`. The
/// mirror of [`max_assign`], compiled to `minps`.
#[inline]
pub fn min_assign(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d = if *s < *d { *s } else { *d };
    }
}

/// Dot product.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// NaN-propagating maximum: any NaN operand makes the result NaN, unlike
/// `f32::max`, which silently drops NaN. Drift auditing folds deviations
/// with this so corrupted state can never report a clean diff.
#[inline]
pub fn nan_max(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else {
        a.max(b)
    }
}

/// One Neumaier (improved Kahan) step: `sum += v`, tracking the rounding
/// error of the addition in `comp`. The true running total is `sum + comp`.
#[inline]
pub fn neumaier_step(sum: &mut f32, comp: &mut f32, v: f32) {
    let t = *sum + v;
    if sum.abs() >= v.abs() {
        *comp += (*sum - t) + v;
    } else {
        *comp += (v - t) + *sum;
    }
    *sum = t;
}

/// Compensated `sum += src` over slices: per-channel Neumaier accumulation
/// with the running error kept in `comp`. Callers fold `comp` into `sum`
/// once (e.g. via [`add_assign`]) when the stream of addends ends.
#[inline]
pub fn neumaier_add_assign(sum: &mut [f32], comp: &mut [f32], src: &[f32]) {
    debug_assert_eq!(sum.len(), src.len());
    debug_assert_eq!(sum.len(), comp.len());
    for ((s, c), v) in sum.iter_mut().zip(comp.iter_mut()).zip(src) {
        neumaier_step(s, c, *v);
    }
}

/// Bit-exact slice equality (`f32 ==` per channel; NaN never equal).
#[inline]
pub fn eq_exact(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y)
}

/// True when every channel differs by at most `tol`.
#[inline]
pub fn allclose(a: &[f32], b: &[f32], tol: f32) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
}

/// Maximum absolute difference between two slices. NaN anywhere in either
/// slice propagates to the result (a `f32::max` fold would drop it and
/// report corrupted data as identical).
#[inline]
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, nan_max)
}

/// Euclidean norm.
#[inline]
pub fn norm2(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_adds() {
        let mut a = vec![1.0, 2.0, 3.0];
        add_assign(&mut a, &[0.5, -1.0, 2.0]);
        assert_eq!(a, vec![1.5, 1.0, 5.0]);
    }

    #[test]
    fn axpy_matches_manual() {
        let mut a = vec![1.0, 1.0];
        axpy(&mut a, 2.0, &[3.0, -4.0]);
        assert_eq!(a, vec![7.0, -7.0]);
    }

    #[test]
    fn scale_by_zero_clears() {
        let mut a = vec![5.0, -3.0];
        scale(&mut a, 0.0);
        assert_eq!(a, vec![0.0, 0.0]);
    }

    #[test]
    fn max_min_assign_select_per_channel() {
        let mut mx = vec![1.0, 5.0, -2.0];
        max_assign(&mut mx, &[3.0, 4.0, -2.0]);
        assert_eq!(mx, vec![3.0, 5.0, -2.0]);
        let mut mn = vec![1.0, 5.0, -2.0];
        min_assign(&mut mn, &[3.0, 4.0, -2.0]);
        assert_eq!(mn, vec![1.0, 4.0, -2.0]);
    }

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn eq_exact_is_bitwise() {
        assert!(eq_exact(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(!eq_exact(&[1.0], &[1.0 + f32::EPSILON]));
        assert!(!eq_exact(&[f32::NAN], &[f32::NAN]));
        assert!(!eq_exact(&[1.0], &[1.0, 2.0]));
    }

    #[test]
    fn allclose_tolerance_boundary() {
        assert!(allclose(&[1.0], &[1.1], 0.100001));
        assert!(!allclose(&[1.0], &[1.2], 0.1));
    }

    #[test]
    fn max_abs_diff_picks_worst_channel() {
        assert_eq!(max_abs_diff(&[0.0, 1.0, 2.0], &[0.0, 3.0, 2.5]), 2.0);
    }

    #[test]
    fn max_abs_diff_propagates_nan() {
        assert!(max_abs_diff(&[0.0, f32::NAN, 1.0], &[0.0, 0.0, 1.0]).is_nan());
        assert!(max_abs_diff(&[1.0, 2.0], &[f32::NAN, 2.0]).is_nan());
        // NaN early in the slice must survive later finite channels.
        assert!(max_abs_diff(&[f32::NAN, 0.0, 0.0], &[0.0, 0.0, 0.0]).is_nan());
        assert!(!allclose(&[f32::NAN], &[f32::NAN], 1.0), "NaN never verifies clean");
    }

    #[test]
    fn nan_max_never_drops_nan() {
        assert!(nan_max(f32::NAN, 1.0).is_nan());
        assert!(nan_max(1.0, f32::NAN).is_nan());
        assert_eq!(nan_max(1.0, 2.0), 2.0);
    }

    #[test]
    fn neumaier_recovers_cancellation_error() {
        // 1.0 + 2^-60 - 1.0 in plain f32 loses the tiny addend entirely;
        // Neumaier keeps it in the compensation channel.
        let tiny = 2.0_f32.powi(-60);
        let mut sum = vec![0.0f32];
        let mut comp = vec![0.0f32];
        for v in [1.0, tiny, -1.0] {
            neumaier_add_assign(&mut sum, &mut comp, &[v]);
        }
        add_assign(&mut sum, &comp);
        assert_eq!(sum[0], tiny);
        let mut plain = 0.0f32;
        for v in [1.0f32, tiny, -1.0] {
            plain += v;
        }
        assert_eq!(plain, 0.0, "plain f32 summation loses the tiny addend");
    }
}
