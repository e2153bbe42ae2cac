//! Metric catalogue, sample statistics and the result line.
//!
//! `BENCHMARK.json` at the repo root lists the same names, units and
//! directions; `run.sh --check` fails when the two disagree.

use std::fmt::Write as _;

/// `(name, unit, better)`.
pub type Spec = (&'static str, &'static str, &'static str);

pub const END_TO_END: &[Spec] = &[
    ("update_latency_us_p50", "us", "lower"),
    ("update_latency_us_p90", "us", "lower"),
    ("throughput_eps", "events/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
];

pub const PER_LAYER: &[Spec] = &[
    // ink-core: mean wall per update, from UpdateReport::per_layer[l].phases.
    ("core.phase_generate_us", "us", "lower"),
    ("core.phase_group_us", "us", "lower"),
    ("core.phase_apply_us", "us", "lower"),
    ("core.phase_write_us", "us", "lower"),
    ("core.phase_next_messages_us", "us", "lower"),
    ("core.l0_us", "us", "lower"),
    ("core.l1_us", "us", "lower"),
    ("core.l1_group_us", "us", "lower"),
    ("core.l1_apply_us", "us", "lower"),
    ("core.l1_next_messages_us", "us", "lower"),
    ("core.unattributed_us", "us", "lower"),
    ("core.update_us_p99", "us", "lower"),
    // ink-core: work per update; repeats exactly for a fixed seed.
    ("core.events_created", "count", "lower"),
    ("core.targets", "count", "lower"),
    ("core.alpha_changed", "count", "lower"),
    ("core.nodes_visited", "count", "lower"),
    ("core.real_affected", "count", "lower"),
    ("core.output_changed", "count", "lower"),
    ("core.f32_moved", "count", "lower"),
    ("core.gemm_flops", "count", "lower"),
    ("core.batched_rows", "count", "higher"),
    ("core.batched_apply_rows", "count", "higher"),
    ("core.skipped_changes", "count", "lower"),
    ("core.cond_resilient_share", "share", "higher"),
    ("core.cond_no_reset_share", "share", "higher"),
    ("core.cond_covered_reset_share", "share", "higher"),
    ("core.cond_exposed_reset_share", "share", "lower"),
    ("core.cond_accumulative_share", "share", "lower"),
    ("core.snapshot_publish_us", "us", "lower"),
    ("core.state_mb", "MiB", "lower"),
    ("core.scratch_mb", "MiB", "lower"),
    ("graph.build_s", "s", "lower"),
    ("graph.coalesce_us", "us", "lower"),
    ("graph.delta_apply_us", "us", "lower"),
    ("gnn.bootstrap_s", "s", "lower"),
    ("gnn.full_inference_ms", "ms", "lower"),
    ("gnn.speedup_vs_full", "x", "higher"),
    ("tensor.gemm_gflops", "GFLOP/s", "higher"),
    ("tensor.fold_max_gbps", "GB/s", "higher"),
    ("partition.partition_s", "s", "lower"),
    ("partition.cut_fraction", "share", "lower"),
    ("partition.replication_factor", "x", "lower"),
    ("partition.balance", "x", "lower"),
    ("partition.boundary_events", "count", "lower"),
    ("partition.replica_refreshes", "count", "lower"),
    ("partition.mirror_seeds", "count", "lower"),
    ("partition.part_wall_max_us", "us", "lower"),
    ("partition.part_wall_min_us", "us", "lower"),
    ("partition.skew_share", "share", "lower"),
    ("partition.pool_park_us", "us", "lower"),
    ("partition.route_us", "us", "lower"),
    ("partition.output_gather_us", "us", "lower"),
    ("serve.ack_us_p50", "us", "lower"),
    ("serve.ack_to_flushed_us_p50", "us", "lower"),
    ("serve.update_us_p99", "us", "lower"),
    ("serve.admission_wait_us_mean", "us", "lower"),
    ("serve.apply_us_mean", "us", "lower"),
    ("serve.query_us_mean", "us", "lower"),
    ("serve.unattributed_us_mean", "us", "lower"),
    ("serve.read_us_p50", "us", "lower"),
    ("serve.read_us_p90", "us", "lower"),
    ("serve.burst_eps", "events/s", "higher"),
    ("serve.epochs", "count", "lower"),
    ("serve.events_received", "count", "higher"),
    ("serve.events_applied", "count", "higher"),
    ("serve.coalesce_ratio", "x", "lower"),
    ("serve.updates_rejected", "count", "lower"),
    ("serve.queue_depth_max", "count", "lower"),
    ("serve.conn_stalls", "count", "lower"),
    ("serve.encode_us", "us", "lower"),
    ("serve.decode_us", "us", "lower"),
    ("harness.gen_late_us_p90", "us", "lower"),
    ("harness.calib_ms", "ms", "lower"),
    ("harness.calib_drift", "x", "lower"),
    ("harness.cpu_us_per_event", "us", "lower"),
    ("harness.trace_overhead_share", "share", "lower"),
];

/// The metrics of one pass. Starts with every name of its catalogue at zero
/// — a layer a workload never enters reports 0 — and rejects any other name.
pub struct Metrics {
    specs: &'static [Spec],
    values: Vec<f64>,
}

impl Metrics {
    pub fn new(specs: &'static [Spec]) -> Self {
        Self {
            specs,
            values: vec![0.0; specs.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .specs
            .iter()
            .position(|s| s.0 == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.values[i] = value;
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.specs
            .iter()
            .zip(&self.values)
            .map(|(s, &v)| (s.0, v, s.1))
    }
}

/// The end-to-end metrics of a timed pass, from the per-op latencies (each
/// distinct op at its fastest time) and the set-up times of the run.
pub fn end_to_end(
    workload: &str,
    best_us: &mut [f64],
    throughput_eps: f64,
    peak_rss_mb: f64,
    setups_s: &mut [f64],
) -> Metrics {
    println!("{workload}/latency_samples {} count", best_us.len());
    let mut metrics = Metrics::new(END_TO_END);
    metrics.set("update_latency_us_p50", percentile(best_us, 0.50));
    metrics.set("update_latency_us_p90", percentile(best_us, 0.90));
    metrics.set("throughput_eps", throughput_eps);
    metrics.set("peak_rss_mb", peak_rss_mb);
    metrics.set("setup_s", median(setups_s));
    metrics
}

/// What one pass of one workload produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line the driver reads: one JSON object, printed last.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            assert!(value.is_finite(), "metric {name} is not finite");
            write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .unwrap();
        }
        s.push_str("}}");
        s
    }
}

/// Nearest-rank percentile of an unsorted sample (`p` in `[0, 1]`).
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    samples.sort_unstable_by(f64::total_cmp);
    samples[((samples.len() - 1) as f64 * p).round() as usize]
}

pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}
