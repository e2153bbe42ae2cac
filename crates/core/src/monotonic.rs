//! Intra-layer incremental update for monotonic aggregation (paper §II-C1).
//!
//! Given a target's old aggregated neighborhood `α⁻` and its reduced event
//! group, the rule is stated — and applied — **per channel**. With
//! `D = { i : α⁻[i] == m⁻_A[i] }` the reset channels:
//!
//! * **No reset** — `D` is empty, so the deletions were never the per-channel
//!   extreme: `α = A(α⁻, m_A)`. If nothing changes the node is *resilient*
//!   and propagation is pruned.
//! * **Covered reset** — the reduced addition dominates the deleted value on
//!   every channel of `D`; by transitivity it dominates every hidden neighbor
//!   too, so `α = A(α⁻, m_A)` is still exact.
//! * **Exposed reset** — some channels of `D` are not covered: there the
//!   extreme was deleted and nothing at hand bounds the remaining neighbors.
//!   Only *those* channels are unknown. On every other channel
//!   `A(α⁻, m_A)` is exact: a channel outside `D` has `m⁻_A[i]` strictly
//!   inside `α⁻[i]`, so the neighbor holding the extreme is not among the
//!   deleted messages and still bounds the rest; a covered channel of `D` is
//!   the covered-reset argument. The check therefore hands back the exposed
//!   channel list, and the caller re-aggregates just those channels from the
//!   neighborhood ([`Aggregator::aggregate_channels_into`]).
//!
//! All comparisons are bit-exact `f32` equality — that is what makes the
//! incremental result *bitwise identical* to recomputation.

use ink_gnn::Aggregator;

/// Which of the paper's conditions a target fell into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Condition {
    /// No reset and the addition changed nothing — propagation pruned.
    Resilient,
    /// No reset; the addition updated some channels.
    NoReset,
    /// Reset channels fully covered by the addition.
    CoveredReset,
    /// Some reset channels not covered — those channels are re-aggregated
    /// from the neighborhood.
    ExposedReset,
}

impl Condition {
    /// Cost rank (higher = more expensive): used to keep a node's *worst*
    /// condition when it is processed in several layers (paper Fig. 8).
    pub fn severity(self) -> u8 {
        match self {
            Condition::Resilient => 0,
            Condition::NoReset => 1,
            Condition::CoveredReset => 2,
            Condition::ExposedReset => 3,
        }
    }
}

/// Outcome of the evolvability check.
pub enum MonoOutcome {
    /// Incremental update applied; `alpha` is the new aggregated
    /// neighborhood (possibly equal to the old one when resilient).
    Updated {
        /// The condition that allowed the update.
        condition: Condition,
        /// The new aggregated neighborhood.
        alpha: Vec<f32>,
    },
    /// Exposed reset: `alpha` is `A(α⁻, m_A)`, exact on every channel except
    /// the listed ones, which the caller must re-aggregate from the
    /// neighborhood.
    Exposed {
        /// `A(α⁻, m_A)` — final on every channel not in `channels`.
        alpha: Vec<f32>,
        /// The exposed channels (reset and not covered), ascending.
        channels: Vec<u32>,
    },
}

/// Classifies the reduced group against `alpha_old` and applies the
/// incremental update, complete or up to the exposed channels.
pub fn apply_monotonic(
    agg: Aggregator,
    alpha_old: &[f32],
    del: Option<&[f32]>,
    add: Option<&[f32]>,
) -> MonoOutcome {
    let mut alpha = vec![0.0; alpha_old.len()];
    let mut channels = Vec::new();
    match apply_monotonic_into(agg, alpha_old, del, add, &mut alpha, &mut channels) {
        Condition::ExposedReset => MonoOutcome::Exposed { alpha, channels },
        condition => MonoOutcome::Updated { condition, alpha },
    }
}

/// Allocation-free form of [`apply_monotonic`]: always writes
/// `A(α⁻, m_A)` into `out`, appends the exposed channels (ascending) to the
/// caller's reusable `exposed` buffer, and returns the condition —
/// [`Condition::ExposedReset`] exactly when it appended any, in which case
/// the caller must re-aggregate those channels of `out`. The buffer is
/// never cleared, so one buffer can collect the lists of many targets.
pub fn apply_monotonic_into(
    agg: Aggregator,
    alpha_old: &[f32],
    del: Option<&[f32]>,
    add: Option<&[f32]>,
    out: &mut [f32],
    exposed: &mut Vec<u32>,
) -> Condition {
    debug_assert!(agg.is_monotonic());
    debug_assert_eq!(out.len(), alpha_old.len());

    out.copy_from_slice(alpha_old);
    if let Some(add) = add {
        agg.combine_into(out, add);
    }

    // Reset channels: D = { i : α⁻[i] == m⁻_A[i] }; a reset channel is
    // covered iff the reduced addition dominates the deleted value there.
    let listed = exposed.len();
    let mut reset = false;
    if let Some(del) = del {
        for (i, (a, d)) in alpha_old.iter().zip(del).enumerate() {
            if a == d {
                reset = true;
                if !add.is_some_and(|add| agg.dominates(add[i], *d)) {
                    exposed.push(i as u32);
                }
            }
        }
    }

    if exposed.len() > listed {
        Condition::ExposedReset
    } else if reset {
        Condition::CoveredReset
    } else if &*out == alpha_old {
        Condition::Resilient
    } else {
        Condition::NoReset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unwrap_updated(out: MonoOutcome) -> (Condition, Vec<f32>) {
        match out {
            MonoOutcome::Updated { condition, alpha } => (condition, alpha),
            MonoOutcome::Exposed { .. } => panic!("expected an incremental update"),
        }
    }

    fn unwrap_exposed(out: MonoOutcome) -> (Vec<f32>, Vec<u32>) {
        match out {
            MonoOutcome::Exposed { alpha, channels } => (alpha, channels),
            MonoOutcome::Updated { .. } => panic!("expected an exposed reset"),
        }
    }

    /// Paper Fig. 5, "no reset": deletion below the old max everywhere.
    #[test]
    fn no_reset_with_improvement() {
        let out = apply_monotonic(
            Aggregator::Max,
            &[14.0, 16.0, 12.0, 3.0],
            Some(&[13.0, 13.0, 3.0, 2.0]),
            Some(&[15.0, 10.0, 10.0, 1.0]),
        );
        let (cond, alpha) = unwrap_updated(out);
        assert_eq!(cond, Condition::NoReset);
        assert_eq!(alpha, vec![15.0, 16.0, 12.0, 3.0]);
    }

    #[test]
    fn resilient_when_addition_is_dominated() {
        let out = apply_monotonic(
            Aggregator::Max,
            &[14.0, 16.0],
            Some(&[1.0, 2.0]),
            Some(&[3.0, 4.0]),
        );
        let (cond, alpha) = unwrap_updated(out);
        assert_eq!(cond, Condition::Resilient);
        assert_eq!(alpha, vec![14.0, 16.0]);
    }

    /// Paper Fig. 4f: deleting the dominating neighbor but the new addition
    /// covers the reset channels.
    #[test]
    fn covered_reset_applies_incrementally() {
        // α⁻ = [14, 16, 12, 3]; delete [14, 16, 8, 1] → resets at channels 0, 1;
        // add [15, 18, 14, 0] dominates there.
        let out = apply_monotonic(
            Aggregator::Max,
            &[14.0, 16.0, 12.0, 3.0],
            Some(&[14.0, 16.0, 8.0, 1.0]),
            Some(&[15.0, 18.0, 14.0, 0.0]),
        );
        let (cond, alpha) = unwrap_updated(out);
        assert_eq!(cond, Condition::CoveredReset);
        assert_eq!(alpha, vec![15.0, 18.0, 14.0, 3.0]);
    }

    /// Paper Fig. 4d: deletion exposes channels no addition covers.
    #[test]
    fn exposed_reset_forces_recompute() {
        let out = apply_monotonic(
            Aggregator::Max,
            &[14.0, 16.0, 12.0, 3.0],
            Some(&[14.0, 16.0, 8.0, 1.0]),
            Some(&[11.0, 16.0, 13.0, 3.0]),
        );
        // channel 0: reset (14 == 14) and add 11 < 14 → exposed. Channel 1
        // resets too but the tie 16 == 16 covers it; channels 2 and 3 never
        // reset and take the plain update.
        let (alpha, channels) = unwrap_exposed(out);
        assert_eq!(channels, vec![0]);
        assert_eq!(alpha, vec![14.0, 16.0, 13.0, 3.0]);
    }

    #[test]
    fn exposed_channels_beyond_a_machine_word_are_listed() {
        // 130 channels; resets at 0, 64, 65 and 129, the addition covers 65.
        let dim = 130;
        let alpha_old = vec![5.0f32; dim];
        let mut del = vec![1.0f32; dim];
        let mut add = vec![2.0f32; dim];
        for c in [0, 64, 65, 129] {
            del[c] = 5.0;
        }
        add[65] = 6.0;
        let out = apply_monotonic(Aggregator::Max, &alpha_old, Some(&del), Some(&add));
        let (alpha, channels) = unwrap_exposed(out);
        assert_eq!(channels, vec![0, 64, 129]);
        let mut want = alpha_old.clone();
        want[65] = 6.0;
        assert_eq!(alpha, want);
    }

    #[test]
    fn exposed_channels_append_to_the_buffer() {
        let mut out = [0.0f32; 2];
        let mut exposed = vec![7, 8, 9];
        let cond = apply_monotonic_into(
            Aggregator::Max,
            &[10.0, 20.0],
            Some(&[10.0, 5.0]),
            None,
            &mut out,
            &mut exposed,
        );
        assert_eq!((cond, exposed.as_slice()), (Condition::ExposedReset, &[7u32, 8, 9, 0][..]));
        let cond = apply_monotonic_into(
            Aggregator::Max,
            &[10.0, 20.0],
            Some(&[5.0, 5.0]),
            None,
            &mut out,
            &mut exposed,
        );
        assert_eq!(cond, Condition::Resilient);
        assert_eq!(exposed, [7, 8, 9, 0], "a target with nothing exposed appends nothing");
    }

    #[test]
    fn deletion_only_with_no_reset_is_resilient() {
        let out =
            apply_monotonic(Aggregator::Max, &[10.0, 20.0], Some(&[5.0, 5.0]), None);
        let (cond, alpha) = unwrap_updated(out);
        assert_eq!(cond, Condition::Resilient);
        assert_eq!(alpha, vec![10.0, 20.0]);
    }

    #[test]
    fn deletion_only_with_reset_recomputes() {
        let out =
            apply_monotonic(Aggregator::Max, &[10.0, 20.0], Some(&[10.0, 5.0]), None);
        let (alpha, channels) = unwrap_exposed(out);
        assert_eq!(channels, vec![0]);
        assert_eq!(alpha, vec![10.0, 20.0], "nothing added: α⁻ stands on channel 1");
    }

    #[test]
    fn addition_only_never_recomputes() {
        let out = apply_monotonic(Aggregator::Max, &[1.0, 2.0], None, Some(&[5.0, 0.0]));
        let (cond, alpha) = unwrap_updated(out);
        assert_eq!(cond, Condition::NoReset);
        assert_eq!(alpha, vec![5.0, 2.0]);
    }

    #[test]
    fn tie_between_add_and_del_counts_as_covered() {
        // The deleted value equals the added value on the reset channel: the
        // remaining neighbors are ≤ that value, so the tie is exact.
        let out = apply_monotonic(Aggregator::Max, &[7.0], Some(&[7.0]), Some(&[7.0]));
        let (cond, alpha) = unwrap_updated(out);
        assert_eq!(cond, Condition::CoveredReset);
        assert_eq!(alpha, vec![7.0]);
    }

    #[test]
    fn min_aggregation_mirrors_max() {
        // α⁻ = [3, 5]; delete the per-channel minimum [3, 9] → reset at 0;
        // add [2, 10] dominates (2 < 3) → covered.
        let out = apply_monotonic(
            Aggregator::Min,
            &[3.0, 5.0],
            Some(&[3.0, 9.0]),
            Some(&[2.0, 10.0]),
        );
        let (cond, alpha) = unwrap_updated(out);
        assert_eq!(cond, Condition::CoveredReset);
        assert_eq!(alpha, vec![2.0, 5.0]);

        // add [4, 10] does not reach the deleted minimum → exposed.
        let out = apply_monotonic(
            Aggregator::Min,
            &[3.0, 5.0],
            Some(&[3.0, 9.0]),
            Some(&[4.0, 10.0]),
        );
        let (alpha, channels) = unwrap_exposed(out);
        assert_eq!(channels, vec![0]);
        assert_eq!(alpha, vec![3.0, 5.0]);
    }

    #[test]
    fn no_events_is_resilient() {
        let out = apply_monotonic(Aggregator::Max, &[1.0], None, None);
        let (cond, alpha) = unwrap_updated(out);
        assert_eq!(cond, Condition::Resilient);
        assert_eq!(alpha, vec![1.0]);
    }
}
