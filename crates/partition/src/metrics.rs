//! The `ink_partition_*` instrument set.
//!
//! Registered into a shared [`MetricsRegistry`] so a serving front end can
//! scrape partition behaviour next to the session metrics. Per-partition
//! wall time uses one counter per partition (`ink_partition_p<i>_wall_ns_total`)
//! — the registry is name-keyed, so partition index lives in the name.

use ink_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::Arc;

/// The partition driver's instruments (see module docs for the catalogue).
pub struct PartitionInstruments {
    /// Partition count (static after construction).
    pub parts: Arc<Gauge>,
    /// Current cut-edge count on the global replica graph.
    pub cut_edges: Arc<Gauge>,
    /// Current `(vertex, partition)` mirror pairs.
    pub replicas: Arc<Gauge>,
    /// Routed changes whose endpoints had different owners.
    pub boundary_events: Arc<Counter>,
    /// Ghost message rows pushed owner → mirror between layers.
    pub replica_refreshes: Arc<Counter>,
    /// All-layer message-row snapshots seeding brand-new mirrors.
    pub mirror_seeds: Arc<Counter>,
    /// Partitioned update rounds driven to completion.
    pub rounds: Arc<Counter>,
    /// Per-round spread between slowest and fastest partition step, in
    /// nanoseconds — the straggler signal.
    pub step_skew: Arc<Histogram>,
    /// Cumulative per-partition wall time inside rescale/process steps.
    pub wall_ns: Vec<Arc<Counter>>,
    /// Per partition and step, the delay from the step's start to that
    /// engine's block starting on the rayon pool: the hand-off cost.
    pub park_ns: Arc<Histogram>,
    /// Engine steps that panicked (each one poisons the driver until
    /// resync).
    pub panics: Arc<Counter>,
}

impl PartitionInstruments {
    /// Registers the instrument set for `parts` partitions.
    pub fn register(r: &MetricsRegistry, parts: usize) -> Self {
        Self {
            parts: r.gauge("ink_partition_parts", "Number of graph partitions"),
            cut_edges: r.gauge("ink_partition_cut_edges", "Edges crossing the partition cut"),
            replicas: r.gauge(
                "ink_partition_replicas",
                "(vertex, partition) boundary mirror pairs",
            ),
            boundary_events: r.counter(
                "ink_partition_boundary_events_total",
                "Routed edge changes crossing the cut",
            ),
            replica_refreshes: r.counter(
                "ink_partition_replica_refreshes_total",
                "Ghost message rows refreshed owner to mirror",
            ),
            mirror_seeds: r.counter(
                "ink_partition_mirror_seeds_total",
                "All-layer snapshots seeding new mirrors",
            ),
            rounds: r.counter("ink_partition_rounds_total", "Partitioned update rounds"),
            step_skew: r.histogram(
                "ink_partition_step_skew_ns",
                "Slowest minus fastest partition step per round",
            ),
            wall_ns: (0..parts)
                .map(|i| {
                    r.counter(
                        &format!("ink_partition_p{i}_wall_ns_total"),
                        "Wall time this partition spent inside round steps",
                    )
                })
                .collect(),
            park_ns: r.histogram(
                "ink_partition_pool_park_ns",
                "Delay from a step's start to one engine's block starting on the pool",
            ),
            panics: r.counter(
                "ink_partition_pool_panics_total",
                "Engine step panics captured (driver poisoned until resync)",
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_per_partition_counters() {
        let r = MetricsRegistry::new();
        let inst = PartitionInstruments::register(&r, 3);
        assert_eq!(inst.wall_ns.len(), 3);
        inst.wall_ns[2].add(42);
        inst.boundary_events.inc();
        let text = r.render_prometheus();
        assert!(text.contains("ink_partition_p2_wall_ns_total 42"));
        assert!(text.contains("ink_partition_boundary_events_total 1"));
    }
}
