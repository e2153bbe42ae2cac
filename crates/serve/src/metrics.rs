//! Server-side counters and query-latency tracking, built on `ink-obs`.
//!
//! [`ServerMetrics`] registers its instruments into the *session's* metrics
//! registry, so one `Metrics` scrape covers the whole stack — pipeline,
//! drift auditor, and serving layer — in a single Prometheus document, and
//! the session [`ServerHandle::shutdown`](crate::ServerHandle::shutdown)
//! hands back still holds them. Query latencies go into a lock-free
//! log-bucket [`Histogram`], so the per-request record path is atomics-only.
//! The counters accumulate over every server a session is served on; the
//! queue and epoch gauges belong to one server and restart with the next.

use ink_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::Arc;
use std::time::Duration;

/// The serving layer's instruments (one instance per server). Each field
/// is the instrument [`ServerMetrics::register`] names; its help text there
/// says what it counts, and the notes below add what the help text cannot.
#[derive(Debug)]
pub(crate) struct ServerMetrics {
    pub updates_enqueued: Arc<Counter>,
    pub updates_rejected: Arc<Counter>,
    pub events_received: Arc<Counter>,
    pub events_applied: Arc<Counter>,
    pub queries: Arc<Counter>,
    pub flushes: Arc<Counter>,
    pub accept_errors: Arc<Counter>,
    /// A full ingest queue under Block parked one connection's update until
    /// the next drain.
    pub stalls: Arc<Counter>,
    /// The batch of a refused epoch is applied all the same: the epoch still
    /// publishes and its flush barriers still resolve.
    pub apply_errors: Arc<Counter>,
    pub connections: Arc<Gauge>,
    query_latency: Arc<Histogram>,
    /// Queue admission until the epoch containing the batch was published
    /// (queueing + pipeline wait).
    pub admission_wait: Arc<Histogram>,
    /// Engine ingest plus snapshot publish, excluding any queueing.
    pub apply_latency: Arc<Histogram>,
    /// The snapshot-publish part of `apply_latency`.
    pub publish_latency: Arc<Histogram>,
    /// On the delta path the previous epoch's changed rows plus this one's.
    pub publish_rows: Arc<Histogram>,
    /// The first publish, a reader still pinning the recycled buffer, or
    /// unknown row sets.
    pub publish_full: Arc<Counter>,
    // The four gauges below mirror the writer and the queue as of the last
    // `Shared::refresh_gauges`.
    pub epochs: Arc<Gauge>,
    pub queue_depth: Arc<Gauge>,
    pub queue_depth_max: Arc<Gauge>,
    pub lock_poisoned: Arc<Gauge>,
}

impl ServerMetrics {
    /// Registers the serving-layer instruments into `registry` (idempotent —
    /// re-registering returns the same atomics).
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            updates_enqueued: registry
                .counter("ink_serve_updates_enqueued_total", "Updates admitted to the queue"),
            updates_rejected: registry
                .counter("ink_serve_updates_rejected_total", "Updates rejected by admission control"),
            events_received: registry.counter(
                "ink_serve_events_received_total",
                "Edge changes received across admitted updates (pre-coalescing)",
            ),
            events_applied: registry.counter(
                "ink_serve_events_applied_total",
                "Edge changes applied after coalescing",
            ),
            queries: registry
                .counter("ink_serve_queries_total", "Queries answered (embedding + top-k)"),
            flushes: registry.counter("ink_serve_flushes_total", "Flush barriers honoured"),
            accept_errors: registry.counter(
                "ink_serve_accept_errors_total",
                "Transient accept() failures the listener retried past",
            ),
            stalls: registry.counter(
                "ink_serve_conn_stalls_total",
                "Connection stalls from Block backpressure (full queue paused one connection)",
            ),
            apply_errors: registry.counter(
                "ink_serve_apply_errors_total",
                "Epochs whose ingest failed its drift audit (DriftAction::Fail)",
            ),
            connections: registry.gauge("ink_serve_connections", "Live client connections"),
            query_latency: registry.histogram(
                "ink_serve_query_latency_ns",
                "Per-query service latency in nanoseconds",
            ),
            admission_wait: registry.histogram(
                "ink_serve_admission_wait_ns",
                "Admission-to-apply wait per drained update batch in nanoseconds",
            ),
            apply_latency: registry.histogram(
                "ink_serve_apply_ns",
                "Apply-only service time per non-empty epoch in nanoseconds",
            ),
            publish_latency: registry.histogram(
                "ink_serve_publish_ns",
                "Snapshot publish time per non-empty epoch in nanoseconds",
            ),
            publish_rows: registry.histogram(
                "ink_serve_publish_rows",
                "Rows copied into the published buffer per publish",
            ),
            publish_full: registry.counter(
                "ink_serve_publish_full_total",
                "Publishes that fell back to copying the whole output matrix",
            ),
            epochs: registry.gauge("ink_serve_epochs", "Last published snapshot epoch"),
            queue_depth: registry.gauge("ink_serve_queue_depth", "Ingest queue depth"),
            queue_depth_max: registry
                .gauge("ink_serve_queue_depth_max", "Deepest the ingest queue ever got"),
            lock_poisoned: registry.gauge(
                "ink_serve_lock_poisoned",
                "Poisoned-lock recoveries on the queue's read-only stats paths",
            ),
        }
    }

    /// Records one query's service time (lock-free, allocation-free).
    pub fn record_query(&self, elapsed: Duration) {
        self.queries.inc();
        self.query_latency.record(elapsed.as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_render_in_the_scrape() {
        let registry = MetricsRegistry::new();
        let m = ServerMetrics::register(&registry);
        m.updates_enqueued.add(5);
        for i in 1..=100u64 {
            m.record_query(Duration::from_micros(i));
        }
        m.epochs.set_u64(7);
        m.queue_depth.set_u64(2);
        m.queue_depth_max.set_u64(9);
        m.lock_poisoned.set_u64(1);
        // A second server on the same registry shares the instruments.
        ServerMetrics::register(&registry).updates_enqueued.inc();
        let text = registry.render_prometheus();
        for line in [
            "ink_serve_updates_enqueued_total 6",
            "ink_serve_queries_total 100",
            "ink_serve_query_latency_ns_count 100",
            "ink_serve_epochs 7",
            "ink_serve_queue_depth 2",
            "ink_serve_queue_depth_max 9",
            "ink_serve_lock_poisoned 1",
        ] {
            assert!(text.contains(&format!("{line}\n")), "scrape lacks {line:?}");
        }
    }

    #[test]
    fn latency_histogram_is_bounded_and_lock_free() {
        // The histogram keeps *all* samples at fixed memory.
        let registry = MetricsRegistry::new();
        let m = ServerMetrics::register(&registry);
        let before = m.query_latency.bytes();
        for _ in 0..10_000 {
            m.record_query(Duration::from_micros(1));
        }
        assert_eq!(m.queries.get(), 10_000);
        assert_eq!(m.query_latency.count(), 10_000);
        assert_eq!(m.query_latency.bytes(), before, "record path must not allocate");
    }
}
