//! Steady-state guarantees of the record path: no allocation growth after
//! construction (mirroring the core pipeline's `scratch_pool_bytes_stable_
//! after_reuse` check) and correctness under concurrent recording with no
//! locks on the sample path.

use ink_obs::{Histogram, MetricsRegistry};
use std::sync::Arc;

/// The histogram's heap footprint is fixed at construction; heavy recording
/// across the full value range must not change it. This is the observability
/// analogue of the scratch-pool `bytes()` stability test in `ink-core`.
#[test]
fn histogram_bytes_stable_after_heavy_recording() {
    let h = Histogram::new();
    let before = h.bytes();
    assert!(before > 0);
    for i in 0..200_000u64 {
        // Sweep many octaves so every code path in bucket_index runs.
        h.record(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 64));
    }
    assert_eq!(h.bytes(), before, "record path must not allocate");
    assert_eq!(h.count(), 200_000);
}

/// Registry re-lookup does not grow state either: scraping between bursts
/// returns the same instruments and the same footprint.
#[test]
fn registry_scrape_does_not_grow_instruments() {
    let r = MetricsRegistry::new();
    let h = r.histogram("ink_test_latency_ns", "test");
    let before = h.bytes();
    for round in 0..10 {
        for i in 0..1_000u64 {
            h.record(i * (round + 1));
        }
        let _ = r.render_prometheus();
        // Re-registering the same name must hand back the same histogram.
        let again = r.histogram("ink_test_latency_ns", "test");
        assert_eq!(again.count(), h.count());
    }
    assert_eq!(r.len(), 1);
    assert_eq!(h.bytes(), before);
}

/// Concurrent recorders never lose samples — the record path is atomics-only,
/// so totals must be exact regardless of interleaving.
#[test]
fn concurrent_recording_is_lossless() {
    let h = Arc::new(Histogram::new());
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 20_000;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    h.record(t * PER_THREAD + i);
                }
            })
        })
        .collect();
    for jh in handles {
        jh.join().unwrap();
    }
    let n = THREADS * PER_THREAD;
    assert_eq!(h.count(), n);
    assert_eq!(h.sum(), n * (n - 1) / 2);
    assert_eq!(h.bucket_counts().iter().sum::<u64>(), n);
}
