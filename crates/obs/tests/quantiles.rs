//! Property tests: histogram quantile estimates stay within one bucket
//! boundary of the exact sample quantiles, across adversarial distributions
//! (constant, bimodal, heavy-tail).

use ink_obs::{bucket_bounds, bucket_index, Histogram};
use proptest::collection;
use proptest::prelude::*;
use proptest::TestCaseError;

const QS: [f64; 4] = [0.50, 0.90, 0.99, 0.999];

/// Exact quantile under the same rank rule the histogram uses:
/// the sample of rank `ceil(q * n)` (1-based).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let target = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(target - 1) as usize]
}

fn check_distribution(samples: &[u64]) -> Result<(), TestCaseError> {
    let h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();

    prop_assert_eq!(h.count(), samples.len() as u64);

    for q in QS {
        let exact = exact_quantile(&sorted, q);
        let est = h.quantile(q);
        // The estimate never undershoots and lands in the same log bucket as
        // the exact quantile, so the error is bounded by one bucket width.
        prop_assert!(est >= exact, "q={q}: estimate {est} < exact {exact}");
        prop_assert!(
            bucket_index(est) == bucket_index(exact),
            "q={q}: estimate {est} left the exact quantile's bucket (exact {exact})"
        );
        let (lo, hi) = bucket_bounds(bucket_index(exact));
        prop_assert!(est - exact <= hi - lo, "q={q}: error exceeds bucket width");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn constant_distribution(value in 0u64..(1u64 << 40), len in 1usize..500) {
        let samples = vec![value; len];
        check_distribution(&samples)?;
        // Degenerate case: every quantile of a constant stream sits in the
        // constant's own bucket.
        let h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        prop_assert_eq!(bucket_index(h.quantile(0.5)), bucket_index(value));
    }

    #[test]
    fn bimodal_distribution(
        low in 0u64..1_000,
        high in (1u64 << 20)..(1u64 << 30),
        n_low in 1usize..300,
        n_high in 1usize..300,
    ) {
        let mut samples = vec![low; n_low];
        samples.extend(std::iter::repeat_n(high, n_high));
        check_distribution(&samples)?;
    }

    #[test]
    fn heavy_tail_distribution(
        parts in collection::vec((1u64..16, 0u32..50), 1..400),
    ) {
        // mantissa << shift spans ~15 orders of magnitude with log-uniform
        // mass — most samples tiny, a few enormous.
        let samples: Vec<u64> = parts.iter().map(|&(m, s)| m << s).collect();
        check_distribution(&samples)?;
    }

    #[test]
    fn mixed_arbitrary_distribution(samples in collection::vec(0u64..u64::MAX, 1..600)) {
        check_distribution(&samples)?;
    }
}
