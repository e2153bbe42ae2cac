//! Embedding-traffic cost model.
//!
//! The paper's Table V reports RMC — *reduction in memory cost* — between
//! InkStream and the k-hop baseline. Absolute DRAM traffic is not observable
//! from safe Rust, so every engine in this repo counts the quantity the paper
//! models: `f32` values of embedding data read and written (weights are
//! shared and cached, and are excluded on all sides). Counters are relaxed
//! atomics so rayon-parallel loops can share one meter.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared traffic counters.
#[derive(Debug, Default)]
pub struct CostMeter {
    reads: AtomicU64,
    writes: AtomicU64,
    nodes_visited: AtomicU64,
}

impl CostMeter {
    /// A zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` embedding values read.
    #[inline]
    pub fn read(&self, n: usize) {
        self.reads.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Records `n` embedding values written.
    #[inline]
    pub fn write(&self, n: usize) {
        self.writes.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Records `n` node visits.
    #[inline]
    pub fn visit_nodes(&self, n: usize) {
        self.nodes_visited.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Total `f32` values read.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Total `f32` values written.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Total values moved (reads + writes) — the RMC numerator/denominator.
    pub fn total_traffic(&self) -> u64 {
        self.reads() + self.writes()
    }

    /// Total node visits — the RNVV numerator/denominator.
    pub fn nodes_visited(&self) -> u64 {
        self.nodes_visited.load(Ordering::Relaxed)
    }

    /// Resets all counters.
    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.nodes_visited.store(0, Ordering::Relaxed);
    }

    /// Snapshot of `(reads, writes, nodes_visited)`.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (self.reads(), self.writes(), self.nodes_visited())
    }

    /// Adds another meter's current totals into this one — lets a harness
    /// keep one cumulative meter while measuring scenarios with fresh ones.
    pub fn absorb(&self, other: &CostMeter) {
        let (r, w, v) = other.snapshot();
        self.reads.fetch_add(r, Ordering::Relaxed);
        self.writes.fetch_add(w, Ordering::Relaxed);
        self.nodes_visited.fetch_add(v, Ordering::Relaxed);
    }

    /// Publishes the meter's current totals into `registry` as gauges named
    /// `<prefix>_reads`, `<prefix>_writes`, `<prefix>_nodes_visited` and
    /// `<prefix>_total_traffic`.
    ///
    /// Gauges rather than counters because meters are resettable — a scrape
    /// sees whatever epoch of traffic the owner is currently accounting.
    /// `prefix` must be a valid Prometheus metric-name stem (e.g.
    /// `ink_gnn_khop_pm`); the registry panics on invalid names.
    pub fn export(&self, registry: &ink_obs::MetricsRegistry, prefix: &str) {
        let set = |suffix: &str, help: &str, v: u64| {
            registry.gauge(&format!("{prefix}_{suffix}"), help).set_u64(v);
        };
        set("reads", "Embedding f32 values read", self.reads());
        set("writes", "Embedding f32 values written", self.writes());
        set("nodes_visited", "Nodes whose embedding the engine touched", self.nodes_visited());
        set("total_traffic", "Embedding f32 values moved (reads + writes)", self.total_traffic());
    }
}

/// Percentage reduction of `ours` relative to `baseline`
/// (`100 · (1 − ours/baseline)`), clamped below at 0.
pub fn reduction_pct(baseline: u64, ours: u64) -> f64 {
    if baseline == 0 {
        return 0.0;
    }
    (100.0 * (1.0 - ours as f64 / baseline as f64)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = CostMeter::new();
        m.read(10);
        m.read(5);
        m.write(3);
        m.visit_nodes(3);
        assert_eq!(m.snapshot(), (15, 3, 3));
        assert_eq!(m.total_traffic(), 18);
    }

    #[test]
    fn reset_zeroes() {
        let m = CostMeter::new();
        m.read(7);
        m.reset();
        assert_eq!(m.snapshot(), (0, 0, 0));
    }

    #[test]
    fn meter_is_shareable_across_threads() {
        let m = std::sync::Arc::new(CostMeter::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.read(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.reads(), 4000);
    }

    #[test]
    fn absorb_accumulates_other_meters() {
        let total = CostMeter::new();
        for _ in 0..3 {
            let scenario = CostMeter::new();
            scenario.read(10);
            scenario.write(4);
            scenario.visit_nodes(2);
            total.absorb(&scenario);
        }
        assert_eq!(total.snapshot(), (30, 12, 6));
    }

    #[test]
    fn export_publishes_gauges() {
        let m = CostMeter::new();
        m.read(100);
        m.write(40);
        m.visit_nodes(7);
        let registry = ink_obs::MetricsRegistry::new();
        m.export(&registry, "ink_gnn_test");
        let text = registry.render_prometheus();
        assert!(text.contains("ink_gnn_test_reads 100"), "{text}");
        assert!(text.contains("ink_gnn_test_writes 40"), "{text}");
        assert!(text.contains("ink_gnn_test_nodes_visited 7"), "{text}");
        assert!(text.contains("ink_gnn_test_total_traffic 140"), "{text}");
        // Re-export after more traffic updates the same gauges in place.
        m.read(1);
        m.export(&registry, "ink_gnn_test");
        assert!(registry.render_prometheus().contains("ink_gnn_test_reads 101"));
    }

    #[test]
    fn reduction_percentage() {
        assert_eq!(reduction_pct(100, 30), 70.0);
        assert_eq!(reduction_pct(100, 100), 0.0);
        assert_eq!(reduction_pct(100, 150), 0.0, "clamped at zero");
        assert_eq!(reduction_pct(0, 5), 0.0, "empty baseline");
    }
}
