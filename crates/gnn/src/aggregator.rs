//! Aggregation functions — `A()` in the paper's notation.
//!
//! InkStream's two-level savings hinge on a split the paper draws between
//! **monotonic** aggregators (max, min — *selective*: only the extreme
//! neighbor matters per channel, so updates can be pruned) and
//! **accumulative** aggregators (sum, mean — *fully reversible*: a neighbor's
//! old impact can always be subtracted out).
//!
//! Empty-neighborhood convention: aggregating zero messages yields the zero
//! vector for every aggregator (applied by [`Aggregator::finalize`]); the
//! incremental engine and the recompute baselines share this code so they
//! agree bitwise.

use std::cell::Cell;

thread_local! {
    /// The Neumaier compensation row [`Aggregator::aggregate_into`] reuses on
    /// this thread, so a full pass allocates it once per thread rather than
    /// once per vertex.
    static COMP: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// The four aggregation functions InkStream supports natively.
///
/// ```
/// use ink_gnn::Aggregator;
///
/// let msgs: [&[f32]; 2] = [&[1.0, 4.0], &[3.0, 2.0]];
/// let mut out = vec![0.0; 2];
/// Aggregator::Max.aggregate_into(msgs.iter().copied(), &mut out);
/// assert_eq!(out, vec![3.0, 4.0]);
/// assert!(Aggregator::Max.is_monotonic());
/// assert!(Aggregator::Mean.is_accumulative());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Aggregator {
    /// Channel-wise maximum (monotonic).
    Max,
    /// Channel-wise minimum (monotonic).
    Min,
    /// Channel-wise sum (accumulative).
    Sum,
    /// Channel-wise arithmetic mean (accumulative).
    Mean,
}

impl Aggregator {
    /// Max/min — selective aggregators whose propagation can be pruned.
    #[inline]
    pub fn is_monotonic(self) -> bool {
        matches!(self, Aggregator::Max | Aggregator::Min)
    }

    /// Sum/mean — fully reversible aggregators.
    #[inline]
    pub fn is_accumulative(self) -> bool {
        !self.is_monotonic()
    }

    /// The identity element of the reduction (`-∞` for max, `+∞` for min,
    /// `0` for sum/mean) — the *reset* value in the paper's Fig. 4.
    #[inline]
    pub fn identity(self) -> f32 {
        match self {
            Aggregator::Max => f32::NEG_INFINITY,
            Aggregator::Min => f32::INFINITY,
            Aggregator::Sum | Aggregator::Mean => 0.0,
        }
    }

    /// Scalar reduction of two values. A classification helper (it backs
    /// [`Aggregator::dominates`]), **not** the fold kernel: `f32::max`/`min`
    /// treat `±0.0` ties and NaN differently from the `s > d` / `s < d`
    /// compare of [`Aggregator::combine_into`], so never rebuild an aggregate
    /// with it.
    #[inline]
    pub fn combine_scalar(self, a: f32, b: f32) -> f32 {
        match self {
            Aggregator::Max => a.max(b),
            Aggregator::Min => a.min(b),
            Aggregator::Sum | Aggregator::Mean => a + b,
        }
    }

    /// `acc = A(acc, msg)` channel-wise. Mean accumulates a running sum here;
    /// the division happens in [`Aggregator::finalize`].
    #[inline]
    pub fn combine_into(self, acc: &mut [f32], msg: &[f32]) {
        match self {
            Aggregator::Max => ink_tensor::ops::max_assign(acc, msg),
            Aggregator::Min => ink_tensor::ops::min_assign(acc, msg),
            Aggregator::Sum | Aggregator::Mean => ink_tensor::ops::add_assign(acc, msg),
        }
    }

    /// Turns a running reduction over `degree` messages into the final
    /// aggregate: divides by the degree for mean, and maps an empty
    /// neighborhood to the zero vector for every aggregator.
    #[inline]
    pub fn finalize(self, acc: &mut [f32], degree: usize) {
        if degree == 0 {
            acc.fill(0.0);
            return;
        }
        if self == Aggregator::Mean {
            let inv = 1.0 / degree as f32;
            ink_tensor::ops::scale(acc, inv);
        }
    }

    /// Aggregates an iterator of messages into `out` (including
    /// [`Aggregator::finalize`]). `out.len()` is the channel count. The
    /// sum/mean compensation row is a per-thread buffer reused across calls,
    /// so a warm caller allocates nothing.
    ///
    /// Accumulative aggregators (sum/mean) use Neumaier-compensated
    /// summation so the full-recompute reference — which the incremental
    /// engine bootstraps from and drift audits compare against — carries
    /// O(1) rounding error instead of O(degree). Max/min are unaffected
    /// (bit-exact and order-independent either way).
    pub fn aggregate_into<'a>(
        self,
        msgs: impl Iterator<Item = &'a [f32]>,
        out: &mut [f32],
    ) {
        out.fill(self.identity());
        let mut degree = 0usize;
        if self.is_accumulative() {
            // Taken rather than borrowed: a message iterator that aggregates
            // on its own gets a fresh buffer, not a borrow panic.
            let mut comp = COMP.take();
            comp.clear();
            comp.resize(out.len(), 0.0);
            for m in msgs {
                ink_tensor::ops::neumaier_add_assign(out, &mut comp, m);
                degree += 1;
            }
            ink_tensor::ops::add_assign(out, &comp);
            COMP.set(comp);
        } else {
            for m in msgs {
                self.combine_into(out, m);
                degree += 1;
            }
        }
        self.finalize(out, degree);
    }

    /// Re-aggregates only the listed `channels` of `out` over `msgs`, in
    /// message order; every other channel of `out` is left as it is. The
    /// per-channel counterpart of [`Aggregator::aggregate_into`] for the
    /// exposed-reset repair: each listed channel is reset to the identity,
    /// folded with the compare [`Aggregator::combine_into`] uses (`s > d` for
    /// max, `s < d` for min) and finalized (zero for an empty neighborhood),
    /// so it is **bitwise-identical** to `aggregate_into` on those channels —
    /// `±0.0` ties included — while reading `channels.len()` floats per
    /// message instead of the whole row.
    ///
    /// # Panics
    ///
    /// For sum/mean: an accumulative aggregate is reversible and never needs
    /// a channel repair.
    pub fn aggregate_channels_into<'a>(
        self,
        msgs: impl Iterator<Item = &'a [f32]>,
        channels: &[u32],
        out: &mut [f32],
    ) {
        for &c in channels {
            out[c as usize] = self.identity();
        }
        let degree = match self {
            Aggregator::Max => fold_channels(msgs, channels, out, |s, d| s > d),
            Aggregator::Min => fold_channels(msgs, channels, out, |s, d| s < d),
            Aggregator::Sum | Aggregator::Mean => {
                panic!("aggregate_channels_into serves monotonic aggregators only")
            }
        };
        if degree == 0 {
            for &c in channels {
                out[c as usize] = 0.0;
            }
        }
    }

    /// True when `a` wins the reduction against `b` (`A(a, b) == a`). Used by
    /// the covered-reset check: the added message must *dominate* the deleted
    /// one on every reset channel. Classification only — see
    /// [`Aggregator::combine_scalar`].
    #[inline]
    pub fn dominates(self, a: f32, b: f32) -> bool {
        self.combine_scalar(a, b) == a
    }
}

/// `out[c] = m[c]` wherever `wins(m[c], out[c])`, for every message and every
/// listed channel, messages outermost so each row is visited once. Returns
/// the message count. Written as a select, like
/// `ink_tensor::ops::max_assign` and for the same reason: no branch per
/// channel.
fn fold_channels<'a>(
    msgs: impl Iterator<Item = &'a [f32]>,
    channels: &[u32],
    out: &mut [f32],
    wins: impl Fn(f32, f32) -> bool,
) -> usize {
    let mut degree = 0usize;
    for m in msgs {
        for &c in channels {
            let c = c as usize;
            out[c] = if wins(m[c], out[c]) { m[c] } else { out[c] };
        }
        degree += 1;
    }
    degree
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Aggregator; 4] =
        [Aggregator::Max, Aggregator::Min, Aggregator::Sum, Aggregator::Mean];

    #[test]
    fn classification_is_exhaustive() {
        for a in ALL {
            assert_ne!(a.is_monotonic(), a.is_accumulative());
        }
        assert!(Aggregator::Max.is_monotonic());
        assert!(Aggregator::Min.is_monotonic());
        assert!(Aggregator::Sum.is_accumulative());
        assert!(Aggregator::Mean.is_accumulative());
    }

    #[test]
    fn identity_is_neutral() {
        for a in ALL {
            assert_eq!(a.combine_scalar(a.identity(), 3.5), 3.5, "{a:?}");
            assert_eq!(a.combine_scalar(3.5, a.identity()), 3.5, "{a:?}");
        }
    }

    #[test]
    fn aggregate_hand_checked() {
        let msgs: Vec<&[f32]> = vec![&[1.0, 4.0], &[3.0, 2.0]];
        let mut out = vec![0.0; 2];
        Aggregator::Max.aggregate_into(msgs.iter().copied(), &mut out);
        assert_eq!(out, vec![3.0, 4.0]);
        Aggregator::Min.aggregate_into(msgs.iter().copied(), &mut out);
        assert_eq!(out, vec![1.0, 2.0]);
        Aggregator::Sum.aggregate_into(msgs.iter().copied(), &mut out);
        assert_eq!(out, vec![4.0, 6.0]);
        Aggregator::Mean.aggregate_into(msgs.iter().copied(), &mut out);
        assert_eq!(out, vec![2.0, 3.0]);
    }

    #[test]
    fn empty_neighborhood_is_zero_for_all() {
        for a in ALL {
            let mut out = vec![9.0; 3];
            a.aggregate_into(std::iter::empty(), &mut out);
            assert_eq!(out, vec![0.0; 3], "{a:?}");
        }
    }

    #[test]
    fn single_message_passes_through() {
        for a in ALL {
            let msgs: Vec<&[f32]> = vec![&[-1.5, 0.0, 2.0]];
            let mut out = vec![0.0; 3];
            a.aggregate_into(msgs.iter().copied(), &mut out);
            assert_eq!(out, vec![-1.5, 0.0, 2.0], "{a:?}");
        }
    }

    #[test]
    fn dominates_matches_semantics() {
        assert!(Aggregator::Max.dominates(5.0, 3.0));
        assert!(!Aggregator::Max.dominates(3.0, 5.0));
        assert!(Aggregator::Min.dominates(3.0, 5.0));
        assert!(Aggregator::Max.dominates(3.0, 3.0), "ties dominate");
    }

    #[test]
    fn mean_divides_by_degree_not_channel_count() {
        let msgs: Vec<&[f32]> = vec![&[3.0], &[5.0], &[10.0]];
        let mut out = vec![0.0; 1];
        Aggregator::Mean.aggregate_into(msgs.iter().copied(), &mut out);
        assert_eq!(out, vec![6.0]);
    }

    /// The channel fold against `aggregate_into` restricted to the listed
    /// channels, bit for bit; untouched channels keep their sentinel.
    fn assert_channel_fold_matches(a: Aggregator, msgs: &[&[f32]], channels: &[u32]) {
        let dim = msgs[0].len();
        let mut want = vec![f32::NAN; dim];
        a.aggregate_into(msgs.iter().copied(), &mut want);
        const SENTINEL: f32 = 12345.0;
        let mut got = vec![SENTINEL; dim];
        a.aggregate_channels_into(msgs.iter().copied(), channels, &mut got);
        for c in 0..dim {
            let expect = if channels.contains(&(c as u32)) { want[c] } else { SENTINEL };
            assert_eq!(
                got[c].to_bits(),
                expect.to_bits(),
                "{a:?} channel {c} of {channels:?} over {msgs:?}"
            );
        }
    }

    #[test]
    fn channel_fold_matches_full_row_fold_bitwise() {
        let dim = 67; // more than 64 channels: nothing may assume a word mask
        let mut s = 0xFEEDu32;
        for degree in [1usize, 2, 7, 33] {
            let rows: Vec<Vec<f32>> = (0..degree)
                .map(|_| {
                    (0..dim)
                        .map(|_| {
                            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                            // Coarse grid so ties between neighbors are common.
                            ((s >> 28) as f32 - 8.0) * 0.25
                        })
                        .collect()
                })
                .collect();
            let msgs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
            for a in [Aggregator::Max, Aggregator::Min] {
                for channels in [&[][..], &[0], &[66], &[3, 64, 65], &[1, 2, 5, 8, 13, 21, 34, 55]] {
                    assert_channel_fold_matches(a, &msgs, channels);
                }
                let all: Vec<u32> = (0..dim as u32).collect();
                assert_channel_fold_matches(a, &msgs, &all);
            }
        }
    }

    #[test]
    fn channel_fold_keeps_the_first_signed_zero_like_the_row_fold() {
        // `s > d` / `s < d` never replace +0.0 by -0.0 or the reverse, so the
        // first zero met wins — in both orders, for both aggregators.
        for a in [Aggregator::Max, Aggregator::Min] {
            assert_channel_fold_matches(a, &[&[0.0, -0.0], &[-0.0, 0.0]], &[0, 1]);
            assert_channel_fold_matches(a, &[&[-0.0, 0.0], &[0.0, -0.0]], &[0, 1]);
        }
        let mut out = [9.0f32; 2];
        Aggregator::Max.aggregate_channels_into(
            [&[-0.0f32, 0.0][..], &[0.0, -0.0]].into_iter(),
            &[0, 1],
            &mut out,
        );
        assert_eq!(out.map(f32::to_bits), [(-0.0f32).to_bits(), 0.0f32.to_bits()]);
    }

    #[test]
    fn channel_fold_of_an_empty_neighborhood_is_zero_not_identity() {
        for a in [Aggregator::Max, Aggregator::Min] {
            let mut out = [7.0f32; 4];
            a.aggregate_channels_into(std::iter::empty(), &[1, 3], &mut out);
            assert_eq!(out, [7.0, 0.0, 7.0, 0.0], "{a:?}");
        }
    }

    #[test]
    #[should_panic(expected = "monotonic aggregators only")]
    fn channel_fold_rejects_accumulative_aggregators() {
        Aggregator::Sum.aggregate_channels_into(std::iter::empty(), &[0], &mut [0.0]);
    }

    /// The fold rule as the literal conditional store: `d` takes `s` only
    /// where `s > d` (max) or `s < d` (min).
    fn reference_fold(a: Aggregator, dst: &mut [f32], src: &[f32]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            match a {
                Aggregator::Max => {
                    if s > *d {
                        *d = s;
                    }
                }
                Aggregator::Min => {
                    if s < *d {
                        *d = s;
                    }
                }
                Aggregator::Sum | Aggregator::Mean => unreachable!("monotonic only"),
            }
        }
    }

    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}: {got:?} vs {want:?}");
    }

    #[test]
    fn monotonic_folds_match_the_scalar_rule_bitwise() {
        // Signed zeros, NaNs with distinct payloads and signs, infinities,
        // subnormals and plain values, so every tie and every NaN side shows.
        let pool = [
            0.0,
            -0.0,
            f32::NAN,
            f32::from_bits(0xFFC0_1234),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            -f32::from_bits(0x0040_0000),
            1.0,
            -1.0,
            2.5,
        ];
        let mut s = 0xF01D_u32;
        let mut draw = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|_| {
                    s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                    pool[(s >> 16) as usize % pool.len()]
                })
                .collect()
        };
        // Every length from empty through several vector steps, so every
        // scalar tail length shows too.
        for dim in 0..=67 {
            let acc = draw(dim);
            let rows: Vec<Vec<f32>> = (0..4).map(|_| draw(dim)).collect();
            let panel = rows.concat();
            let msgs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
            for a in [Aggregator::Max, Aggregator::Min] {
                let kernel = match a {
                    Aggregator::Max => ink_tensor::ops::max_assign,
                    _ => ink_tensor::ops::min_assign,
                };
                // A running accumulator that already holds NaN, ±0, ±∞.
                let mut want = acc.clone();
                reference_fold(a, &mut want, &rows[0]);
                let mut got = acc.clone();
                kernel(&mut got, &rows[0]);
                assert_same_bits(&got, &want, &format!("{a:?} assign, dim {dim}"));

                if a == Aggregator::Max {
                    let mut want = acc.clone();
                    for row in &rows {
                        reference_fold(a, &mut want, row);
                    }
                    let mut got = acc.clone();
                    ink_tensor::reduce::fold_rows_max_into(&panel, dim, &mut got);
                    assert_same_bits(&got, &want, &format!("{a:?} fold_rows, dim {dim}"));
                }

                // Whole aggregates over 0..=4 messages, finalize included.
                for degree in 0..=msgs.len() {
                    let mut want = vec![a.identity(); dim];
                    for m in &msgs[..degree] {
                        reference_fold(a, &mut want, m);
                    }
                    if degree == 0 {
                        want.fill(0.0);
                    }
                    let what = format!("{a:?} aggregate, dim {dim}, degree {degree}");
                    let mut got = vec![7.0; dim];
                    a.aggregate_into(msgs[..degree].iter().copied(), &mut got);
                    assert_same_bits(&got, &want, &what);
                    let thirds: Vec<u32> = (0..dim as u32).step_by(3).collect();
                    let mut got = vec![7.0; dim];
                    a.aggregate_channels_into(msgs[..degree].iter().copied(), &thirds, &mut got);
                    let want: Vec<f32> = (0..dim)
                        .map(|c| if c % 3 == 0 { want[c] } else { 7.0 })
                        .collect();
                    assert_same_bits(&got, &want, &format!("{what}, channels"));
                }
            }
        }
    }

    #[test]
    fn compensated_sum_beats_naive_on_cancellation() {
        // A large value, a tiny value, and the large value's negation: plain
        // left-to-right f32 summation returns 0.0, compensated keeps `tiny`.
        let tiny = [2.0_f32.powi(-40)];
        let msgs: Vec<&[f32]> = vec![&[3.0e7], &tiny, &[-3.0e7]];
        let mut out = vec![0.0; 1];
        Aggregator::Sum.aggregate_into(msgs.iter().copied(), &mut out);
        assert_eq!(out, vec![tiny[0]]);
    }
}
