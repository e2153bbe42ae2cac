//! Intra-layer incremental update for accumulative aggregation (paper §II-C2).
//!
//! Sum and mean are fully reversible, so a node's new aggregated
//! neighborhood always evolves from the old one:
//!
//! * sum:  `α = α⁻ + Σ msg`
//! * mean: `α = (α⁻·d⁻ + Σ msg_raw) / d` — the event payloads carry *raw*
//!   message deltas (`Δm`, `+m`, `−m⁻`), and the degrees reconcile the
//!   denominators. This is algebraically the paper's
//!   `α = (d⁻/d)(α⁻ + Σ msg/d⁻)` form, written to avoid dividing each
//!   payload.
//!
//! There is no pruning decision here: accumulative updates are always
//! applied and always propagate (paper Algorithm 1, lines 18-21).
//!
//! # The delta rule
//!
//! Propagation is where the cost sits: a hub's changed message reaches
//! thousands of targets, and rebuilding each target's output row
//! `h_u = T(α_u, m_u)` means a transform per target although the only new
//! information is `Δα_u`. Where `h_u` is *affine in α* — `delta_weight`
//! decides that per layer, from the model alone — the transform moves to the
//! source: every pushed payload is widened to `[Δm ‖ Δm·W]`, the group phase
//! sums both halves in one slot, and a target whose self term and denominator
//! did not move is committed as
//!
//! * sum:  `h_u += Σ Δm·W`
//! * mean: `h_u += (Σ Δm·W)·(1/d_u)` — only while `d_u` is unchanged
//!
//! ([`delta_row_scale`]). A target whose degree changed under mean (the old
//! `α⁻·W` term would need the `d⁻/d` factor, and `h` does not store it
//! separately from the self term) or whose own message changed (the `g(m_u)`
//! term moved) takes the full transform as before. The cached `h` row then
//! carries one rounding per update of its own, next to α's; `audit_vertex`'s
//! chain check measures it and `resync()` clears it.
//!
//! A delta row needs nothing the full transform computes, so the engine
//! commits it where its reduced payload is read: the apply phase updates the
//! α row in place with `accumulate_in_place` — the per-channel expression
//! of [`apply_accumulative_into`], no staging copy — and then the `h` row
//! with `apply_delta_row`, both on rows its shard owns (see
//! `pipeline::ShardRows`). The two change tests it returns are all the
//! write phase still needs of the row.

use ink_gnn::{Aggregator, Model};
use ink_tensor::{Activation, Matrix};

/// Applies the accumulative update: writes the new `α` into `out`.
///
/// `degree_new` is the target's in-degree in the *current* graph;
/// `degree_delta` is the net change contributed by ΔG events, so the old
/// degree is `degree_new − degree_delta`.
///
/// With `compensated` the arithmetic widens to `f64` and rounds once per
/// channel — for mean this replaces three `f32` roundings
/// (`a·d⁻`, `+s`, `·1/d`) with one, which is the dominant per-round drift
/// source on long streams (see DESIGN.md, "Drift auditing and resync").
pub fn apply_accumulative_into(
    agg: Aggregator,
    alpha_old: &[f32],
    sum: &[f32],
    degree_new: usize,
    degree_delta: i32,
    compensated: bool,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), alpha_old.len());
    out.copy_from_slice(alpha_old);
    accumulate_in_place(agg, out, sum, degree_new, degree_delta, compensated);
}

/// In-place form of [`apply_accumulative_into`]: `alpha` holds `α⁻` on
/// entry and `α` on return, every channel computed by the same expression,
/// so both forms agree bit for bit. Returns true when any channel changed
/// bitwise — the apply phase's change test, without a second copy of the
/// row to compare against.
pub(crate) fn accumulate_in_place(
    agg: Aggregator,
    alpha: &mut [f32],
    sum: &[f32],
    degree_new: usize,
    degree_delta: i32,
    compensated: bool,
) -> bool {
    debug_assert!(agg.is_accumulative());
    debug_assert_eq!(alpha.len(), sum.len());
    #[inline(always)]
    fn update(alpha: &mut [f32], sum: &[f32], f: impl Fn(f32, f32) -> f32) -> bool {
        let mut changed = false;
        for (a, &s) in alpha.iter_mut().zip(sum) {
            let new = f(*a, s);
            changed |= new != *a;
            *a = new;
        }
        changed
    }
    match agg {
        Aggregator::Sum => update(alpha, sum, |a, s| a + s),
        Aggregator::Mean => {
            let degree_old = degree_new as i64 - degree_delta as i64;
            debug_assert!(degree_old >= 0, "degree bookkeeping went negative");
            if degree_new == 0 {
                // Empty-neighborhood convention: zeros.
                update(alpha, sum, |_, _| 0.0)
            } else if compensated {
                let d_old = degree_old as f64;
                let inv_new = 1.0 / degree_new as f64;
                update(alpha, sum, |a, s| ((a as f64 * d_old + s as f64) * inv_new) as f32)
            } else {
                let d_old = degree_old as f32;
                let inv_new = 1.0 / degree_new as f32;
                update(alpha, sum, |a, s| (a * d_old + s) * inv_new)
            }
        }
        _ => unreachable!("monotonic aggregators use apply_monotonic"),
    }
}

/// `Some(W)` iff layer `l`'s cached output rows are affine in α with weight
/// `W` and may therefore be updated by the delta rule: the last layer (its
/// output is the cached `h`; an inner layer's feeds an activation whose
/// pre-image is not cached), an accumulative aggregator, no activation, norm
/// or degree scaling between `T` and the cache, and a conv that hands out its
/// α-side weight ([`ink_gnn::Conv::alpha_weight`]). The one place this is
/// decided — from the model alone, never from a config field.
pub(crate) fn delta_weight(model: &Model, l: usize) -> Option<&Matrix> {
    let layer = model.layer(l);
    let affine = l + 1 == model.num_layers()
        && layer.conv.aggregator().is_accumulative()
        && layer.act == Activation::Identity
        && layer.norm.is_none()
        && !layer.conv.degree_scaled();
    if affine {
        layer.conv.alpha_weight()
    } else {
        None
    }
}

/// The delta rule for one target of a layer affine in α (see the module
/// docs) whose own message did not change this round: `Some(s)` when its
/// cached output row may be updated as `h += s · Σ Δm·W`, `None` when it must
/// take the full transform. Sum always qualifies (`s = 1`); mean only while
/// the target's degree is unchanged and non-zero (`s = 1/d`) — with a changed
/// degree the old `α⁻·W` share of `h` would have to be rescaled by `d⁻/d`,
/// and `h` does not keep it apart from the self term.
pub fn delta_row_scale(agg: Aggregator, degree_new: usize, degree_delta: i32) -> Option<f32> {
    match agg {
        Aggregator::Sum => Some(1.0),
        Aggregator::Mean if degree_delta == 0 && degree_new > 0 => Some(1.0 / degree_new as f32),
        _ => None,
    }
}

/// Commits one delta row, `h += scale · w_sum`; true when any channel of `h`
/// changed bitwise (the same test the full transform's commit applies).
pub(crate) fn apply_delta_row(h: &mut [f32], scale: f32, w_sum: &[f32]) -> bool {
    debug_assert_eq!(h.len(), w_sum.len());
    let mut changed = false;
    for (h, &w) in h.iter_mut().zip(w_sum) {
        let new = *h + w * scale;
        changed |= new != *h;
        *h = new;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use ink_gnn::{Conv, GraphNorm, GraphNormMode, LayerDef, SageConv};
    use ink_tensor::init::seeded_rng;

    /// The new `α` of [`apply_accumulative_into`], allocated.
    fn apply_accumulative(
        agg: Aggregator,
        alpha_old: &[f32],
        sum: &[f32],
        degree: usize,
        dd: i32,
        compensated: bool,
    ) -> Vec<f32> {
        let mut alpha = vec![0.0; alpha_old.len()];
        apply_accumulative_into(agg, alpha_old, sum, degree, dd, compensated, &mut alpha);
        alpha
    }

    #[test]
    fn only_an_alpha_affine_last_layer_takes_the_delta_rule() {
        let eligible = |model: &Model| -> Vec<bool> {
            (0..model.num_layers()).map(|l| delta_weight(model, l).is_some()).collect()
        };
        // Model::sage's shape, with the last layer's epilogue up to the case.
        let sage_with = |agg, act, norm: Option<GraphNormMode>| {
            let mut rng = seeded_rng(1);
            let conv = |rng: &mut _, i, o| Box::new(SageConv::new(rng, i, o, agg)) as Box<dyn Conv>;
            Model::new(vec![
                LayerDef { conv: conv(&mut rng, 4, 5), norm: None, act: Activation::Relu },
                LayerDef { conv: conv(&mut rng, 5, 3), norm, act },
            ])
        };
        let sage = |agg| sage_with(agg, Activation::Identity, None);
        for agg in [Aggregator::Sum, Aggregator::Mean] {
            // The inner layer feeds a ReLU; the last one is cached as is.
            assert_eq!(eligible(&sage(agg)), [false, true], "{agg:?}");
        }
        assert_eq!(eligible(&sage(Aggregator::Max)), [false, false]);
        let relu_last = sage_with(Aggregator::Mean, Activation::Relu, None);
        assert_eq!(eligible(&relu_last), [false, false]);
        let frozen = GraphNormMode::Cached {
            norm: GraphNorm::unit(3),
            mean: vec![0.0; 3],
            var: vec![1.0; 3],
        };
        let norm_last = sage_with(Aggregator::Mean, Activation::Identity, Some(frozen));
        assert_eq!(eligible(&norm_last), [false, false]);

        // No α-side weight handed out: GCN, GIN's MLP, LightGCN's scaling.
        let gcn = Model::gcn(&mut seeded_rng(2), &[4, 5, 3], Aggregator::Sum);
        assert_eq!(eligible(&gcn), [false, false]);
        let gin = Model::gin(&mut seeded_rng(3), 4, 5, 2, 0.1, Aggregator::Sum);
        assert_eq!(eligible(&gin), [false, false]);
        assert_eq!(eligible(&Model::lightgcn(4, 2)), [false, false]);
    }

    #[test]
    fn delta_row_scale_follows_the_denominator() {
        assert_eq!(delta_row_scale(Aggregator::Sum, 5, 0), Some(1.0));
        assert_eq!(delta_row_scale(Aggregator::Sum, 0, -3), Some(1.0), "sum has no denominator");
        assert_eq!(delta_row_scale(Aggregator::Mean, 4, 0), Some(0.25));
        assert_eq!(delta_row_scale(Aggregator::Mean, 4, 1), None, "d⁻/d would rescale α⁻·W");
        assert_eq!(delta_row_scale(Aggregator::Mean, 4, -1), None);
        assert_eq!(delta_row_scale(Aggregator::Mean, 0, 0), None, "empty neighborhood");
        assert_eq!(delta_row_scale(Aggregator::Max, 4, 0), None);
    }

    #[test]
    fn delta_row_matches_the_transform_of_the_new_alpha() {
        // h = α·W + g with W = [[1, 2], [0, -1]], g = (10, 20); mean over d = 2.
        let transform = |a: &[f32]| [a[0] + 10.0, 2.0 * a[0] - a[1] + 20.0];
        let (alpha_old, sum) = ([3.0f32, 1.0], [2.0f32, -4.0]);
        let alpha_new = apply_accumulative(Aggregator::Mean, &alpha_old, &sum, 2, 0, false);
        let w_sum = [sum[0], 2.0 * sum[0] - sum[1]];
        let mut h = transform(&alpha_old);
        let scale = delta_row_scale(Aggregator::Mean, 2, 0).unwrap();
        assert!(apply_delta_row(&mut h, scale, &w_sum));
        assert_eq!(h, transform(&alpha_new));
        assert!(!apply_delta_row(&mut h, scale, &[0.0, 0.0]), "a zero delta changes nothing");
    }

    /// The in-place commit of a delta row and the staged update agree bit
    /// for bit, and its change test is the row comparison.
    #[test]
    fn in_place_update_matches_the_staged_one_bitwise() {
        let alpha_old = [0.1f32, -3.7, 2.5e7, 0.0, 1.0 / 3.0];
        let sum = [0.3f32, 3.7, 1.0, 0.0, -1.0e-9];
        for agg in [Aggregator::Sum, Aggregator::Mean] {
            for (degree, dd) in [(7usize, 0i32), (8, 1), (3, -2), (0, -1)] {
                for compensated in [false, true] {
                    let staged =
                        apply_accumulative(agg, &alpha_old, &sum, degree, dd, compensated);
                    let mut alpha = alpha_old;
                    let changed =
                        accumulate_in_place(agg, &mut alpha, &sum, degree, dd, compensated);
                    let bits = |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let what = format!("{agg:?} d={degree} dd={dd} compensated={compensated}");
                    assert_eq!(bits(&alpha), bits(&staged), "{what}");
                    assert_eq!(changed, staged[..] != alpha_old[..], "{what}");
                }
            }
        }
        let mut alpha = [1.0f32, 2.0];
        assert!(!accumulate_in_place(Aggregator::Sum, &mut alpha, &[0.0, -0.0], 2, 0, false));
    }

    #[test]
    fn sum_adds_payload() {
        let alpha = apply_accumulative(Aggregator::Sum, &[1.0, 2.0], &[0.5, -1.0], 3, 0, false);
        assert_eq!(alpha, vec![1.5, 1.0]);
    }

    #[test]
    fn sum_ignores_degree() {
        let a = apply_accumulative(Aggregator::Sum, &[1.0], &[1.0], 5, 2, false);
        let b = apply_accumulative(Aggregator::Sum, &[1.0], &[1.0], 9, -3, false);
        assert_eq!(a, b);
    }

    #[test]
    fn mean_with_stable_degree() {
        // α⁻ = mean of 2 msgs = 3.0 (total 6.0); one neighbor changed by +2.0
        // (raw), degree unchanged → new mean = 8/2 = 4.0.
        let alpha = apply_accumulative(Aggregator::Mean, &[3.0], &[2.0], 2, 0, false);
        assert_eq!(alpha, vec![4.0]);
    }

    #[test]
    fn mean_with_inserted_edge() {
        // Old: 2 neighbors, mean 3.0 (total 6.0). Insert a neighbor with
        // message 9.0 → new mean = 15/3 = 5.0.
        let alpha = apply_accumulative(Aggregator::Mean, &[3.0], &[9.0], 3, 1, false);
        assert_eq!(alpha, vec![5.0]);
    }

    #[test]
    fn mean_with_removed_edge() {
        // Old: 3 neighbors, mean 5.0 (total 15.0). Remove a neighbor whose
        // message was 9.0 (payload −9) → new mean = 6/2 = 3.0.
        let alpha = apply_accumulative(Aggregator::Mean, &[5.0], &[-9.0], 2, -1, false);
        assert_eq!(alpha, vec![3.0]);
    }

    #[test]
    fn mean_losing_all_neighbors_goes_to_zero() {
        let alpha = apply_accumulative(Aggregator::Mean, &[5.0, -2.0], &[-5.0, 2.0], 0, -1, false);
        assert_eq!(alpha, vec![0.0, 0.0]);
    }

    #[test]
    fn mean_first_neighbor_from_empty() {
        // Old degree 0 (α⁻ = 0 by convention); insert a neighbor with message 7.
        let alpha = apply_accumulative(Aggregator::Mean, &[0.0], &[7.0], 1, 1, false);
        assert_eq!(alpha, vec![7.0]);
    }

    #[test]
    fn compensated_mean_agrees_on_exact_cases() {
        for (alpha, sum, d, dd, want) in [
            (vec![3.0f32], vec![2.0f32], 2usize, 0i32, vec![4.0f32]),
            (vec![3.0], vec![9.0], 3, 1, vec![5.0]),
            (vec![5.0], vec![-9.0], 2, -1, vec![3.0]),
        ] {
            assert_eq!(apply_accumulative(Aggregator::Mean, &alpha, &sum, d, dd, true), want);
        }
    }

    #[test]
    fn compensated_mean_rounds_once() {
        // Values chosen so the f32 intermediate (a·d⁻ + s) rounds: the
        // widened path must land at least as close to the exact answer.
        let a = [0.1f32];
        let s = [0.3f32];
        let exact = (0.1f64 * 7.0 + 0.3f32 as f64) / 8.0;
        let plain = apply_accumulative(Aggregator::Mean, &a, &s, 8, 1, false)[0];
        let comp = apply_accumulative(Aggregator::Mean, &a, &s, 8, 1, true)[0];
        assert!(
            (comp as f64 - exact).abs() <= (plain as f64 - exact).abs(),
            "compensated ({comp}) must be no further from exact ({exact}) than plain ({plain})"
        );
    }
}
