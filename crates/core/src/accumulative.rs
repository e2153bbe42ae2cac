//! Intra-layer incremental update for accumulative aggregation (paper §II-C2).
//!
//! Sum and mean are fully reversible, so a node's new aggregated
//! neighborhood always evolves from the old one:
//!
//! * sum:  `α = α⁻ + Σ msg`
//! * mean: `α = α⁻ + (Σ msg_raw − α⁻·Δd)·(1/d)` — the event payloads carry
//!   *raw* message deltas (`Δm`, `+m`, `−m⁻`), and the degree change `Δd`
//!   reconciles the denominators. This is algebraically the paper's
//!   `α = (d⁻/d)(α⁻ + Σ msg/d⁻)` form: `α·d = α⁻·d⁻ + Σ` with
//!   `d⁻ = d − Δd`, written as a correction to `α⁻` so that no payload is
//!   divided and an update that moves nothing leaves `α⁻` exactly as it was
//!   (see `accumulate_in_place`).
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
//! α row in place with `accumulate_in_place` and then the `h` row with
//! `apply_delta_row`, both on rows its shard owns (see `pipeline::ShardRows`).
//! The two change tests it returns are all the write phase still needs of
//! the row.

use ink_gnn::{Aggregator, Model};
use ink_tensor::{Activation, Matrix};

/// Applies the accumulative update in place: `alpha` holds `α⁻` on entry
/// and `α` on return. Returns true when any channel changed bitwise — the
/// apply phase's change test, without a second copy of the row to compare
/// against.
///
/// `degree_new` is the target's in-degree in the *current* graph;
/// `degree_delta` is the net change `Δd` contributed by ΔG events, so the
/// old degree is `degree_new − degree_delta`.
///
/// Mean is updated as `α⁻ + (Σ − α⁻·Δd)·(1/d)`, in `f32`. The textbook
/// `(α⁻·d⁻ + Σ)·(1/d)` is biased: `fl(α·d)·fl(1/d)` need not round back to
/// `α`, so even a zero `Σ` at an unchanged degree can move `α⁻`
/// (`0.1·3·fl(1/3)` is `0.10000001`), and every update of the vertex pays
/// that relative error again. Here the roundings touch only the correction
/// term, which is exactly zero when nothing moved, and the result rounds
/// once more when it is added to `α⁻`. An empty new neighborhood gives
/// zeros, and an old-empty target (`α⁻ = 0`, `Δd = d`) gives `Σ·(1/d)`.
pub(crate) fn accumulate_in_place(
    agg: Aggregator,
    alpha: &mut [f32],
    sum: &[f32],
    degree_new: usize,
    degree_delta: i32,
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
            debug_assert!(
                degree_new as i64 >= degree_delta as i64,
                "degree bookkeeping went negative"
            );
            if degree_new == 0 {
                // Empty-neighborhood convention: zeros.
                update(alpha, sum, |_, _| 0.0)
            } else {
                let dd = degree_delta as f32;
                let inv_new = 1.0 / degree_new as f32;
                update(alpha, sum, |a, s| a + (s - a * dd) * inv_new)
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

    /// The new `α` of `accumulate_in_place`, allocated.
    fn apply_accumulative(
        agg: Aggregator,
        alpha_old: &[f32],
        sum: &[f32],
        degree: usize,
        dd: i32,
    ) -> Vec<f32> {
        let mut alpha = alpha_old.to_vec();
        accumulate_in_place(agg, &mut alpha, sum, degree, dd);
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
        let alpha_new = apply_accumulative(Aggregator::Mean, &alpha_old, &sum, 2, 0);
        let w_sum = [sum[0], 2.0 * sum[0] - sum[1]];
        let mut h = transform(&alpha_old);
        let scale = delta_row_scale(Aggregator::Mean, 2, 0).unwrap();
        assert!(apply_delta_row(&mut h, scale, &w_sum));
        assert_eq!(h, transform(&alpha_new));
        assert!(!apply_delta_row(&mut h, scale, &[0.0, 0.0]), "a zero delta changes nothing");
    }

    /// The change test is the row comparison, for both aggregators and for
    /// growing, shrinking, stable and emptied neighborhoods.
    #[test]
    fn change_test_is_the_row_comparison() {
        let alpha_old = [0.1f32, -3.7, 2.5e7, 0.0, 1.0 / 3.0];
        let sum = [0.3f32, 3.7, 1.0, 0.0, -1.0e-9];
        for agg in [Aggregator::Sum, Aggregator::Mean] {
            for (degree, dd) in [(7usize, 0i32), (8, 1), (3, -2), (0, -1)] {
                let mut alpha = alpha_old;
                let changed = accumulate_in_place(agg, &mut alpha, &sum, degree, dd);
                assert_eq!(changed, alpha != alpha_old, "{agg:?} d={degree} dd={dd}");
            }
        }
        let mut alpha = [1.0f32, 2.0];
        assert!(!accumulate_in_place(Aggregator::Sum, &mut alpha, &[0.0, -0.0], 2, 0));
    }

    /// The mean update is unbiased: at an unchanged degree a zero sum leaves
    /// α bitwise where it was and reports no change, for every degree, where
    /// `(α·d)·(1/d)` moves 0.1 to 0.10000001 at d = 3. An old-empty target
    /// gets `Σ·(1/d)` bit for bit, and a case where the textbook form's
    /// intermediate `α·d⁻ + Σ` rounds still lands on the nearest `f32`. The
    /// rows are 37 channels wide, so a release build runs the vectorized
    /// loop body as well as its scalar tail.
    #[test]
    fn mean_update_is_unbiased() {
        const DIM: usize = 37;
        let values = [0.1f32, -3.7, 1.0 / 3.0, 2.5e7, 0.7, -1.0e-3];
        let alpha: Vec<f32> = (0..DIM).map(|c| values[c % values.len()]).collect();
        let bits = |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for degree in 2..12usize {
            let mut row = alpha.clone();
            let changed = accumulate_in_place(Aggregator::Mean, &mut row, &[0.0; DIM], degree, 0);
            assert_eq!(bits(&row), bits(&alpha), "d={degree}");
            assert!(!changed, "d={degree}");
        }

        // An old-empty target (α⁻ = 0, Δd = d) takes Σ·(1/d) as it is.
        let sum: Vec<f32> = (0..DIM).map(|c| values[(c + 1) % values.len()] * 0.3).collect();
        for degree in 1..12usize {
            let got = apply_accumulative(Aggregator::Mean, &[0.0; DIM], &sum, degree, degree as i32);
            let inv = 1.0 / degree as f32;
            let want: Vec<f32> = sum.iter().map(|&s| s * inv).collect();
            assert_eq!(bits(&got), bits(&want), "d={degree}");
        }

        let (a, s) = (0.1f32, 0.3f32);
        let exact = (a as f64 * 7.0 + s as f64) / 8.0;
        let got = apply_accumulative(Aggregator::Mean, &[a], &[s], 8, 1)[0];
        let half_ulp = (got.next_up() - got) as f64 / 2.0;
        assert!((got as f64 - exact).abs() <= half_ulp, "{got} is not {exact} rounded");
    }

    #[test]
    fn sum_adds_payload() {
        let alpha = apply_accumulative(Aggregator::Sum, &[1.0, 2.0], &[0.5, -1.0], 3, 0);
        assert_eq!(alpha, vec![1.5, 1.0]);
    }

    #[test]
    fn sum_ignores_degree() {
        let a = apply_accumulative(Aggregator::Sum, &[1.0], &[1.0], 5, 2);
        let b = apply_accumulative(Aggregator::Sum, &[1.0], &[1.0], 9, -3);
        assert_eq!(a, b);
    }

    #[test]
    fn mean_with_stable_degree() {
        // α⁻ = mean of 2 msgs = 3.0 (total 6.0); one neighbor changed by +2.0
        // (raw), degree unchanged → new mean = 8/2 = 4.0.
        let alpha = apply_accumulative(Aggregator::Mean, &[3.0], &[2.0], 2, 0);
        assert_eq!(alpha, vec![4.0]);
    }

    #[test]
    fn mean_with_inserted_edge() {
        // Old: 2 neighbors, mean 3.0 (total 6.0). Insert a neighbor with
        // message 9.0 → new mean = 15/3 = 5.0.
        let alpha = apply_accumulative(Aggregator::Mean, &[3.0], &[9.0], 3, 1);
        assert_eq!(alpha, vec![5.0]);
    }

    #[test]
    fn mean_with_removed_edge() {
        // Old: 3 neighbors, mean 5.0 (total 15.0). Remove a neighbor whose
        // message was 9.0 (payload −9) → new mean = 6/2 = 3.0.
        let alpha = apply_accumulative(Aggregator::Mean, &[5.0], &[-9.0], 2, -1);
        assert_eq!(alpha, vec![3.0]);
    }

    #[test]
    fn mean_losing_all_neighbors_goes_to_zero() {
        let alpha = apply_accumulative(Aggregator::Mean, &[5.0, -2.0], &[-5.0, 2.0], 0, -1);
        assert_eq!(alpha, vec![0.0, 0.0]);
    }

    #[test]
    fn mean_first_neighbor_from_empty() {
        // Old degree 0 (α⁻ = 0 by convention); insert a neighbor with message 7.
        let alpha = apply_accumulative(Aggregator::Mean, &[0.0], &[7.0], 1, 1);
        assert_eq!(alpha, vec![7.0]);
    }
}
