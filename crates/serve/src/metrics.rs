//! Server-side counters and query-latency tracking, built on `ink-obs`.
//!
//! [`ServerMetrics`] registers its instruments into the *session's* metrics
//! registry, so one `Metrics` scrape covers the whole stack — pipeline,
//! drift auditor, and serving layer — in a single Prometheus document.
//! Query latencies go into a lock-free log-bucket
//! [`Histogram`], so the per-request record path is atomics-only.
//! [`ServerMetrics::serve_stats`] folds the instruments into a
//! [`ServeStats`] for in-process callers (the value
//! [`ServerHandle::shutdown`](crate::ServerHandle::shutdown) returns).

use ink_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use inkstream::json::{rounded, Json};
use inkstream::session::latency_quantiles;
use std::sync::Arc;
use std::time::Duration;

/// The serving layer's counters, folded from the registry instruments:
/// admission control outcomes, coalescing effectiveness, snapshot epochs,
/// queue depth and per-query latency.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Update requests admitted to the ingest queue.
    pub updates_enqueued: u64,
    /// Update requests turned away (reject-with-retry-after backpressure).
    pub updates_rejected: u64,
    /// Edge changes received across admitted updates (pre-coalescing).
    pub events_received: u64,
    /// Edge changes actually applied (post-coalescing).
    pub events_applied: u64,
    /// Query requests answered from snapshots.
    pub queries: u64,
    /// Flush barriers honoured.
    pub flushes: u64,
    /// Transient `accept()` failures the listener retried past
    /// (ECONNABORTED, EMFILE, ...).
    pub accept_errors: u64,
    /// Snapshot epochs published (excluding the bootstrap epoch 0).
    pub epochs: u64,
    /// Ingest queue depth at the last gauge refresh.
    pub queue_depth: u64,
    /// Deepest the ingest queue ever got.
    pub max_queue_depth: u64,
    /// Poisoned-lock recoveries on the queue's read-only stats paths.
    /// Non-zero means a thread panicked while holding the queue lock; the
    /// metrics endpoint kept answering instead of taking the server down.
    pub lock_poisoned: u64,
    /// Per-query service latency: (p50, p90, p99, max).
    pub query_latency: (Duration, Duration, Duration, Duration),
    /// Admission-to-apply latency — how long an admitted update batch waited
    /// in the ingest queue plus pipeline before the epoch that contains it
    /// was published: (p50, p90, p99, max). Separates queueing wait from
    /// service time.
    pub admission_wait: (Duration, Duration, Duration, Duration),
    /// Apply-only latency — engine ingest + snapshot publish per non-empty
    /// epoch, excluding any queueing: (p50, p90, p99, max).
    pub apply_latency: (Duration, Duration, Duration, Duration),
}

/// Renders a `(p50, p90, p99, max)` latency tuple as microseconds.
fn latency_json(l: &(Duration, Duration, Duration, Duration)) -> Json {
    let us = |d: Duration| rounded(d.as_secs_f64() * 1e6, 3);
    Json::obj([("p50", us(l.0)), ("p90", us(l.1)), ("p99", us(l.2)), ("max", us(l.3))])
}

impl ServeStats {
    /// JSON rendering, used by the serve bench artifact.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("updates_enqueued", Json::from(self.updates_enqueued)),
            ("updates_rejected", Json::from(self.updates_rejected)),
            ("events_received", Json::from(self.events_received)),
            ("events_applied", Json::from(self.events_applied)),
            ("queries", Json::from(self.queries)),
            ("flushes", Json::from(self.flushes)),
            ("accept_errors", Json::from(self.accept_errors)),
            ("epochs", Json::from(self.epochs)),
            ("queue_depth", Json::from(self.queue_depth)),
            ("max_queue_depth", Json::from(self.max_queue_depth)),
            ("lock_poisoned", Json::from(self.lock_poisoned)),
            ("query_latency_us", latency_json(&self.query_latency)),
            ("admission_wait_us", latency_json(&self.admission_wait)),
            ("apply_latency_us", latency_json(&self.apply_latency)),
        ])
    }
}

/// Shared request counters (one instance per server), backed by registry
/// instruments.
#[derive(Debug)]
pub struct ServerMetrics {
    /// Updates admitted to the queue.
    pub updates_enqueued: Arc<Counter>,
    /// Updates rejected by admission control.
    pub updates_rejected: Arc<Counter>,
    /// Edge changes received across admitted updates.
    pub events_received: Arc<Counter>,
    /// Edge changes applied after coalescing.
    pub events_applied: Arc<Counter>,
    /// Queries answered (embedding + top-k).
    pub queries: Arc<Counter>,
    /// Flush barriers honoured.
    pub flushes: Arc<Counter>,
    /// Transient `accept()` failures the listener retried past.
    pub accept_errors: Arc<Counter>,
    /// Connection stalls from Block backpressure (a full ingest queue parked
    /// one connection's update until the next drain).
    pub stalls: Arc<Counter>,
    /// Epochs whose ingest failed its drift audit under a `Fail` policy.
    /// The batch is applied all the same: the epoch still publishes and its
    /// flush barriers still resolve.
    pub apply_errors: Arc<Counter>,
    /// Live client connections.
    pub connections: Arc<Gauge>,
    /// Per-query service latency in nanoseconds.
    query_latency: Arc<Histogram>,
    /// Admission-to-apply wait per drained update batch in nanoseconds —
    /// time from queue admission until the epoch containing the batch was
    /// published (queueing + pipeline wait).
    pub admission_wait: Arc<Histogram>,
    /// Apply-only service time per non-empty epoch in nanoseconds — engine
    /// ingest plus snapshot publish, excluding any queueing.
    pub apply_latency: Arc<Histogram>,
    /// The snapshot-publish part of `apply_latency`, in nanoseconds.
    pub publish_latency: Arc<Histogram>,
    /// Rows copied into the published buffer per publish — on the delta
    /// path the previous epoch's changed rows plus this one's.
    pub publish_rows: Arc<Histogram>,
    /// Publishes that copied the whole output instead (the first one, a
    /// reader still pinning the recycled buffer, unknown row sets).
    pub publish_full: Arc<Counter>,
    /// Last published snapshot epoch (gauge mirror of the writer's counter,
    /// for scrapes).
    epochs: Arc<Gauge>,
    /// Ingest queue depth at the last refresh.
    queue_depth: Arc<Gauge>,
    /// Deepest the ingest queue ever got, at the last refresh.
    queue_depth_max: Arc<Gauge>,
    /// Poisoned-lock recoveries on the queue's read-only stats paths, at the
    /// last refresh.
    lock_poisoned: Arc<Gauge>,
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

    /// Refreshes the scrape-visible gauges that live with the queue and the
    /// writer rather than with a request handler.
    pub fn set_queue_gauges(
        &self,
        epochs: u64,
        queue_depth: u64,
        max_queue_depth: u64,
        lock_poisoned: u64,
    ) {
        self.epochs.set_u64(epochs);
        self.queue_depth.set_u64(queue_depth);
        self.queue_depth_max.set_u64(max_queue_depth);
        self.lock_poisoned.set_u64(lock_poisoned);
    }

    /// Folds the instruments into a [`ServeStats`]. The queue/epoch fields
    /// read the gauges as of their last [`ServerMetrics::set_queue_gauges`].
    /// Latency percentiles are histogram estimates (within one log bucket,
    /// ≤ 12.5 % relative); the max is exact.
    pub fn serve_stats(&self) -> ServeStats {
        ServeStats {
            updates_enqueued: self.updates_enqueued.get(),
            updates_rejected: self.updates_rejected.get(),
            events_received: self.events_received.get(),
            events_applied: self.events_applied.get(),
            queries: self.queries.get(),
            flushes: self.flushes.get(),
            accept_errors: self.accept_errors.get(),
            epochs: self.epochs.get() as u64,
            queue_depth: self.queue_depth.get() as u64,
            max_queue_depth: self.queue_depth_max.get() as u64,
            lock_poisoned: self.lock_poisoned.get() as u64,
            query_latency: latency_quantiles(&self.query_latency),
            admission_wait: latency_quantiles(&self.admission_wait),
            apply_latency: latency_quantiles(&self.apply_latency),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_fold_counters_and_percentiles() {
        let registry = MetricsRegistry::new();
        let m = ServerMetrics::register(&registry);
        m.updates_enqueued.add(5);
        m.events_received.add(50);
        m.events_applied.add(40);
        for i in 1..=100u64 {
            m.record_query(Duration::from_micros(i));
        }
        m.admission_wait.record(Duration::from_micros(200).as_nanos() as u64);
        m.apply_latency.record(Duration::from_micros(30).as_nanos() as u64);
        m.set_queue_gauges(7, 2, 9, 1);
        let s = m.serve_stats();
        assert_eq!(s.updates_enqueued, 5);
        assert_eq!(s.admission_wait.3, Duration::from_micros(200), "max is exact");
        assert_eq!(s.apply_latency.3, Duration::from_micros(30), "max is exact");
        assert_eq!(s.queries, 100);
        assert_eq!(s.epochs, 7);
        assert_eq!(s.queue_depth, 2);
        assert_eq!(s.max_queue_depth, 9);
        assert_eq!(s.lock_poisoned, 1);
        assert_eq!(s.query_latency.3, Duration::from_micros(100), "max is exact");
        assert!(s.query_latency.0 <= s.query_latency.2);
        // Histogram estimates never undershoot the exact percentile and stay
        // within one log bucket (≤ 12.5 % relative).
        let p50 = s.query_latency.0.as_nanos() as f64;
        assert!((50_000.0..=57_000.0).contains(&p50), "p50 estimate {p50} out of bucket");
        // The same numbers are scrapeable.
        let text = registry.render_prometheus();
        assert!(text.contains("ink_serve_updates_enqueued_total 5"));
        assert!(text.contains("ink_serve_query_latency_ns_count 100"));
        assert!(text.contains("ink_serve_epochs 7"));
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
