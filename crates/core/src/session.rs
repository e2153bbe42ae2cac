//! Streaming session: the operational wrapper a deployment actually runs.
//!
//! [`StreamSession`] owns an [`InkStream`] and adds the concerns the paper's
//! evaluation protocol implies but the core algorithm doesn't cover:
//! splitting oversized deltas into refresh batches (speedup falls with ΔG —
//! paper Fig. 7 — so bounded batches keep latency predictable), latency
//! statistics, and a drift auditor for accumulative aggregation,
//! where float drift is bounded but nonzero.
//!
//! The auditor is governed by a [`DriftPolicy`]: cheap *spot audits*
//! recompute a handful of sampled vertices per interval
//! (`O(samples · deg · dim)` — independent of graph size), *full audits*
//! compare the whole output against a fresh bootstrap, and a breach triggers
//! the configured [`DriftAction`] — fail the ingest, log and continue, or
//! self-heal with [`InkStream::resync`]. NaN anywhere in the audited state
//! always reads as a breach (audits propagate NaN instead of dropping it).
//! [`DriftStats`] keeps the audit/resync bookkeeping separate from ingest
//! latency. See DESIGN.md, "Drift auditing and resync".
//!
//! # Observability
//!
//! Every session owns an [`ink_obs::MetricsRegistry`] and an
//! [`ink_obs::Tracer`] (see [`StreamSession::metrics`] /
//! [`StreamSession::tracer`]). The registry instruments — counters for
//! ingests/changes/audits, log-bucket histograms for batch latency and the
//! five pipeline phases, gauges for scratch-pool occupancy and worst drift —
//! are the only source: [`SessionSummary`] (its batch-latency percentiles,
//! phase sums and [`DriftStats`] included) is a view folded from them at
//! [`StreamSession::summary`] time, and a Prometheus scrape of the same
//! registry reads the same numbers. The tracer records one span
//! per batch plus one per phase (synthesized from the engine's own phase
//! timings) and per audit/resync, dumpable as Chrome `trace_event` JSON.
//! Metric names are catalogued in DESIGN.md §8.

use crate::{InkStream, PhaseTimes};
use ink_graph::{DeltaBatch, VertexId};
use ink_obs::{Counter, Gauge, Histogram, MetricsRegistry, Tracer};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default capacity of the session's span ring (events retained for a
/// [`Tracer::dump_chrome_trace`] dump).
pub const DEFAULT_TRACE_CAPACITY: usize = 8192;

/// `(p50, p90, p99, max)` of a nanosecond latency histogram. The
/// percentiles are bucket estimates (never below the exact value, at most
/// one log bucket — 12.5 % — above it); the max is exact.
pub fn latency_quantiles(h: &Histogram) -> (Duration, Duration, Duration, Duration) {
    let q = |p: f64| Duration::from_nanos(h.quantile(p));
    (q(0.50), q(0.90), q(0.99), Duration::from_nanos(h.max()))
}

/// What to do when an audit measures drift beyond tolerance (or NaN).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriftAction {
    /// Return a [`DriftError`] from the ingest (the state stays drifted).
    Fail,
    /// Record the breach in [`DriftStats`] and carry on.
    Warn,
    /// Self-heal: rebuild all cached state via [`InkStream::resync`], after
    /// which the output is bitwise equal to full recomputation.
    Resync,
}

/// When and how hard to audit the incremental state against recomputation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftPolicy {
    /// Spot-audit every `n` ingests (None = never): recompute
    /// [`DriftPolicy::spot_samples`] random vertices from cached inputs.
    pub spot_every: Option<usize>,
    /// Vertices sampled per spot audit.
    pub spot_samples: usize,
    /// Full-audit every `n` ingests (None = never): NaN-scan the whole
    /// state, then compare the output against a fresh bootstrap. Takes
    /// priority over a spot audit due on the same ingest.
    pub full_every: Option<usize>,
    /// Maximum per-channel deviation tolerated. NaN breaches regardless.
    pub tolerance: f32,
    /// Response to a breach.
    pub action: DriftAction,
}

/// Seed of the spot-sampling sequence, so every session audits the same
/// vertices for the same stream.
const SPOT_SEED: u64 = 0x1a5d_93b7_c4e2_f016;

impl Default for DriftPolicy {
    fn default() -> Self {
        Self {
            spot_every: None,
            spot_samples: 8,
            full_every: None,
            tolerance: 1e-3,
            action: DriftAction::Fail,
        }
    }
}

impl DriftPolicy {
    /// Full audit every `every` ingests with the given tolerance.
    pub fn full(every: usize, tolerance: f32) -> Self {
        Self { full_every: Some(every), tolerance, ..Self::default() }
    }

    /// Spot audit of `samples` vertices every `every` ingests.
    pub fn spot(every: usize, samples: usize, tolerance: f32) -> Self {
        Self { spot_every: Some(every), spot_samples: samples, tolerance, ..Self::default() }
    }

    /// Same policy with a different breach action.
    pub fn with_action(mut self, action: DriftAction) -> Self {
        self.action = action;
        self
    }

    fn enabled(&self) -> bool {
        self.spot_every.is_some() || self.full_every.is_some()
    }
}

/// Session tunables.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Split incoming deltas into batches of at most this many changes.
    pub max_batch: usize,
    /// Drift auditing policy.
    pub drift: DriftPolicy,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self { max_batch: 1_000, drift: DriftPolicy::default() }
    }
}

/// The kind of audit an ingest ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditKind {
    /// Sampled per-vertex recomputation.
    Spot,
    /// Whole-state NaN scan + output vs. fresh bootstrap.
    Full,
}

/// Rolling audit/resync bookkeeping, kept apart from ingest latency so audit
/// cost never pollutes the update-speed numbers.
#[derive(Clone, Copy, Debug, Default)]
pub struct DriftStats {
    /// Spot audits run.
    pub spot_audits: u64,
    /// Full audits run.
    pub full_audits: u64,
    /// Audits that breached tolerance (including NaN detections).
    pub breaches: u64,
    /// Breaches answered with a resync.
    pub resyncs: u64,
    /// Audits that found non-finite state.
    pub nan_detected: u64,
    /// Worst *finite* deviation ever measured (NaNs are counted, not folded).
    pub max_deviation: f32,
    /// Wall time spent inside audits.
    pub audit_time: Duration,
    /// Wall time spent inside resyncs.
    pub resync_time: Duration,
}

/// The incremental state drifted past the audit tolerance and the policy
/// said [`DriftAction::Fail`]. Carries the ingest's report: the batches were
/// already applied — the error describes state quality, not lost work.
#[derive(Clone, Debug)]
pub struct DriftError {
    /// Observed maximum deviation (NaN when the state held non-finite
    /// values).
    pub max_diff: f32,
    /// Configured tolerance.
    pub tolerance: f32,
    /// What the ingest did before failing verification.
    pub report: IngestReport,
}

impl std::fmt::Display for DriftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.max_diff.is_nan() {
            write!(f, "incremental state is poisoned: audit found non-finite values")
        } else {
            write!(
                f,
                "incremental state drifted: max diff {} > tolerance {}",
                self.max_diff, self.tolerance
            )
        }
    }
}

impl std::error::Error for DriftError {}

/// What one [`StreamSession::ingest`] call did.
#[derive(Clone, Debug, Default)]
pub struct IngestReport {
    /// Batches the delta was split into.
    pub batches: usize,
    /// Changes applied (excluding skipped no-ops).
    pub changes_applied: usize,
    /// No-op changes skipped.
    pub skipped: usize,
    /// Nodes whose final output changed (summed over batches).
    pub output_changed: u64,
    /// Wall-clock time of the whole ingest (batches + audit + resync).
    pub elapsed: Duration,
    /// Max deviation measured, when this ingest triggered an audit. NaN
    /// means the audit found non-finite state.
    pub verified_diff: Option<f32>,
    /// Which audit ran, if any.
    pub audit: Option<AuditKind>,
    /// Wall time of the audit alone.
    pub audit_time: Duration,
    /// True when the audit breached tolerance (or found NaN).
    pub drift_breached: bool,
    /// True when the breach was answered with a resync.
    pub resynced: bool,
}

/// Summary of a session since it started, folded from its registry.
#[derive(Clone, Debug, Default)]
pub struct SessionSummary {
    /// Total ingest calls.
    pub ingests: usize,
    /// Total edge changes applied.
    pub changes: usize,
    /// Per-batch latency over every batch ever run, from the
    /// `ink_session_batch_latency_ns` histogram: (p50, p90, p99, max), see
    /// [`latency_quantiles`].
    pub latency: (Duration, Duration, Duration, Duration),
    /// Mean real-affected nodes per batch (over all batches ever run).
    pub avg_real_affected: f64,
    /// Per-phase pipeline wall time accumulated over every batch — shows
    /// where the session's update budget actually goes.
    pub phase_times: PhaseTimes,
    /// Audit/resync bookkeeping.
    pub drift: DriftStats,
}

/// An engine plus operational bookkeeping for long-running streams.
///
/// ```
/// use ink_graph::{DeltaBatch, DynGraph, EdgeChange};
/// use ink_gnn::{Aggregator, Model};
/// use ink_tensor::init;
/// use inkstream::{DriftAction, DriftPolicy, InkStream, SessionConfig, StreamSession, UpdateConfig};
///
/// let mut rng = init::seeded_rng(1);
/// let g = DynGraph::undirected_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
/// let x = init::uniform(&mut rng, 4, 6, -1.0, 1.0);
/// let model = Model::gcn(&mut rng, &[6, 8, 4], Aggregator::Mean);
/// let engine = InkStream::new(model, g, x, UpdateConfig::default()).unwrap();
///
/// // Spot-audit 4 vertices every ingest; self-heal on a breach.
/// let mut session = StreamSession::with_config(
///     engine,
///     SessionConfig {
///         drift: DriftPolicy::spot(1, 4, 1e-3).with_action(DriftAction::Resync),
///         ..SessionConfig::default()
///     },
/// );
/// let report = session
///     .ingest(&DeltaBatch::new(vec![EdgeChange::insert(0, 3)]))
///     .unwrap();
/// assert_eq!(report.changes_applied, 1);
/// assert!(report.verified_diff.is_some());
/// assert_eq!(session.summary().drift.spot_audits, 1);
///
/// // Everything the summary reports is also scrapeable as Prometheus text
/// // and traceable as Chrome trace_event JSON.
/// let scrape = session.metrics().render_prometheus();
/// assert!(scrape.contains("ink_session_ingests_total 1"));
/// assert!(scrape.contains("ink_drift_spot_audits_total 1"));
/// assert!(session.tracer().dump_chrome_trace().contains("\"name\":\"generate\""));
/// ```
pub struct StreamSession {
    engine: InkStream,
    config: SessionConfig,
    registry: Arc<MetricsRegistry>,
    tracer: Arc<Tracer>,
    inst: SessionInstruments,
    sample_state: u64,
}

/// The session's registry instruments. These atomics are the only source of
/// everything [`SessionSummary`] reports; see the module docs.
struct SessionInstruments {
    ingests: Arc<Counter>,
    changes: Arc<Counter>,
    skipped: Arc<Counter>,
    batches: Arc<Counter>,
    affected: Arc<Counter>,
    output_changed: Arc<Counter>,
    batch_latency: Arc<Histogram>,
    /// One histogram per pipeline phase, in [`PHASE_NAMES`] order.
    phases: [Arc<Histogram>; 5],
    spot_audits: Arc<Counter>,
    full_audits: Arc<Counter>,
    breaches: Arc<Counter>,
    resyncs: Arc<Counter>,
    nan_detected: Arc<Counter>,
    audit_ns: Arc<Counter>,
    resync_ns: Arc<Counter>,
    max_deviation: Arc<Gauge>,
    scratch_bytes: Arc<Gauge>,
    gemm_rows: Arc<Counter>,
    gemm_flops: Arc<Counter>,
    gemm_batch_rows: Arc<Histogram>,
    apply_rows: Arc<Counter>,
    apply_batch_rows: Arc<Histogram>,
    /// The monotonic condition mix (paper Fig. 8): resilient, no reset,
    /// covered reset, exposed reset.
    conditions: [Arc<Counter>; 4],
    exposed_channels: Arc<Counter>,
    exposed_rows: Arc<Counter>,
    delta_rows: Arc<Counter>,
    delta_sources: Arc<Counter>,
}

/// Pipeline phase names, in execution order (also the tracer span names).
const PHASE_NAMES: [&str; 5] = ["generate", "group", "apply", "write", "next_messages"];

impl SessionInstruments {
    fn register(r: &MetricsRegistry) -> Self {
        let phase = |name: &str, help: &str| r.histogram(name, help);
        Self {
            ingests: r.counter("ink_session_ingests_total", "Ingest calls"),
            changes: r.counter(
                "ink_session_changes_total",
                "Edge changes applied (excluding skipped no-ops)",
            ),
            skipped: r.counter("ink_session_skipped_total", "No-op edge changes skipped"),
            batches: r.counter("ink_session_batches_total", "Refresh batches run"),
            affected: r.counter(
                "ink_session_affected_total",
                "Real affected nodes summed over batches",
            ),
            output_changed: r.counter(
                "ink_session_output_changed_total",
                "Nodes whose final output changed, summed over batches",
            ),
            batch_latency: r.histogram(
                "ink_session_batch_latency_ns",
                "Per-batch ingest latency in nanoseconds",
            ),
            phases: [
                phase("ink_pipeline_phase_generate_ns", "Per-batch generate-phase wall time"),
                phase("ink_pipeline_phase_group_ns", "Per-batch group-phase wall time"),
                phase("ink_pipeline_phase_apply_ns", "Per-batch apply-phase wall time"),
                phase("ink_pipeline_phase_write_ns", "Per-batch write-phase wall time"),
                phase(
                    "ink_pipeline_phase_next_messages_ns",
                    "Per-batch next-messages-phase wall time",
                ),
            ],
            spot_audits: r.counter("ink_drift_spot_audits_total", "Spot audits run"),
            full_audits: r.counter("ink_drift_full_audits_total", "Full audits run"),
            breaches: r.counter(
                "ink_drift_breaches_total",
                "Audits that breached tolerance (including NaN detections)",
            ),
            resyncs: r.counter("ink_drift_resyncs_total", "Breaches answered with a resync"),
            nan_detected: r.counter(
                "ink_drift_nan_detected_total",
                "Audits that found non-finite state",
            ),
            audit_ns: r.counter("ink_drift_audit_ns_total", "Wall time spent inside audits"),
            resync_ns: r.counter("ink_drift_resync_ns_total", "Wall time spent inside resyncs"),
            max_deviation: r.gauge(
                "ink_drift_max_deviation",
                "Worst finite per-channel deviation ever measured",
            ),
            scratch_bytes: r.gauge(
                "ink_scratch_bytes",
                "Engine scratch-pool occupancy after the latest ingest",
            ),
            gemm_rows: r.counter(
                "ink_gemm_rows_total",
                "Rows pushed through the batched gather\u{2192}GEMM\u{2192}scatter transform",
            ),
            gemm_flops: r.counter(
                "ink_gemm_flops_total",
                "Floating-point operations spent in batched GEMM kernels",
            ),
            gemm_batch_rows: r.histogram(
                "ink_gemm_batch_rows",
                "Per-layer batched-transform row counts (batched layers only)",
            ),
            apply_rows: r.counter(
                "ink_apply_rows_total",
                "Neighbor rows folded to rebuild monotonic empty-old targets whole",
            ),
            apply_batch_rows: r.histogram(
                "ink_apply_batch_rows",
                "Per-layer empty-old rebuild row counts (layers with a rebuild only)",
            ),
            conditions: [
                r.counter(
                    "ink_cond_resilient_total",
                    "Monotonic targets left unchanged (propagation pruned)",
                ),
                r.counter(
                    "ink_cond_no_reset_total",
                    "Monotonic targets updated incrementally without a reset",
                ),
                r.counter(
                    "ink_cond_covered_reset_total",
                    "Monotonic targets updated incrementally under a covered reset",
                ),
                r.counter(
                    "ink_cond_exposed_reset_total",
                    "Monotonic targets with an exposed reset (channels re-aggregated)",
                ),
            ],
            exposed_channels: r.counter(
                "ink_exposed_channels_total",
                "Channels re-aggregated from the neighborhood for exposed resets",
            ),
            exposed_rows: r.counter(
                "ink_exposed_rows_total",
                "Neighbor rows visited by exposed-reset channel repairs",
            ),
            delta_rows: r.counter(
                "ink_delta_rows_total",
                "Output rows committed by the delta rule instead of the full transform",
            ),
            delta_sources: r.counter(
                "ink_delta_sources_total",
                "Payloads transformed once at their source for the delta rule",
            ),
        }
    }
}

/// SplitMix64 — the session's spot-sampling stream. Inline so the core crate
/// stays free of RNG dependencies; statistically fine for picking audit
/// vertices. One generator for every engine, so identical policies sample
/// identical vertices.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl StreamSession {
    /// Wraps an engine with default session settings.
    pub fn new(engine: InkStream) -> Self {
        Self::with_config(engine, SessionConfig::default())
    }

    /// Wraps an engine with explicit settings. The session owns a fresh
    /// metrics registry and span tracer; a server registers its own
    /// instruments into the same registry (see [`StreamSession::metrics`]).
    ///
    /// # Panics
    ///
    /// On a malformed config: `max_batch` of 0, an audit
    /// interval of `Some(0)` (ambiguous — use `None` to disable), a spot
    /// policy sampling 0 vertices, or a non-finite/negative tolerance.
    pub fn with_config(engine: InkStream, config: SessionConfig) -> Self {
        assert!(config.max_batch >= 1, "SessionConfig: max_batch must be at least 1");
        let d = &config.drift;
        assert!(
            d.spot_every != Some(0),
            "DriftPolicy: spot_every must be None (disabled) or at least Some(1)"
        );
        assert!(
            d.full_every != Some(0),
            "DriftPolicy: full_every must be None (disabled) or at least Some(1)"
        );
        assert!(
            d.spot_every.is_none() || d.spot_samples >= 1,
            "DriftPolicy: a spot policy must sample at least one vertex"
        );
        assert!(
            d.tolerance.is_finite() && d.tolerance >= 0.0,
            "DriftPolicy: tolerance must be finite and non-negative"
        );
        let registry = Arc::new(MetricsRegistry::new());
        let tracer = Arc::new(Tracer::new(DEFAULT_TRACE_CAPACITY));
        let inst = SessionInstruments::register(&registry);
        Self { engine, config, registry, tracer, inst, sample_state: SPOT_SEED }
    }

    /// The session's metrics registry (shared; render with
    /// [`MetricsRegistry::render_prometheus`]).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The session's span tracer (shared; dump with
    /// [`Tracer::dump_chrome_trace`]).
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The wrapped engine (read access).
    pub fn engine(&self) -> &InkStream {
        &self.engine
    }

    /// The wrapped engine (e.g. for vertex operations).
    pub fn engine_mut(&mut self) -> &mut InkStream {
        &mut self.engine
    }

    /// Audit/resync counters so far, folded from the registry instruments.
    pub fn drift_stats(&self) -> DriftStats {
        DriftStats {
            spot_audits: self.inst.spot_audits.get(),
            full_audits: self.inst.full_audits.get(),
            breaches: self.inst.breaches.get(),
            resyncs: self.inst.resyncs.get(),
            nan_detected: self.inst.nan_detected.get(),
            max_deviation: self.inst.max_deviation.get() as f32,
            audit_time: Duration::from_nanos(self.inst.audit_ns.get()),
            resync_time: Duration::from_nanos(self.inst.resync_ns.get()),
        }
    }

    /// Applies a delta, split into batches of at most `max_batch` changes,
    /// then runs whichever audit the [`DriftPolicy`] schedules for this
    /// ingest. On a breach with [`DriftAction::Fail`] the returned error
    /// carries the ingest report — the batches were already applied.
    pub fn ingest(&mut self, delta: &DeltaBatch) -> Result<IngestReport, DriftError> {
        let t0 = Instant::now();
        let mut report = IngestReport::default();
        for chunk in delta.changes().chunks(self.config.max_batch) {
            let batch = DeltaBatch::new(chunk.to_vec());
            let t = Instant::now();
            let r = self.engine.apply_delta(&batch);
            let elapsed = t.elapsed();
            self.inst.batch_latency.record(elapsed.as_nanos() as u64);
            self.inst.batches.inc();
            report.batches += 1;
            report.skipped += r.skipped_changes;
            report.changes_applied += chunk.len() - r.skipped_changes;
            report.output_changed += r.output_changed;
            self.inst.affected.add(r.real_affected);
            self.inst.gemm_rows.add(r.batched_rows() as u64);
            self.inst.gemm_flops.add(r.gemm_flops);
            self.inst.apply_rows.add(r.batched_apply_rows() as u64);
            let c = r.conditions();
            for (counter, n) in self
                .inst
                .conditions
                .iter()
                .zip([c.resilient, c.no_reset, c.covered_reset, c.exposed_reset])
            {
                counter.add(n);
            }
            for layer in &r.per_layer {
                self.inst.exposed_channels.add(layer.exposed_channels as u64);
                self.inst.exposed_rows.add(layer.exposed_rows as u64);
                self.inst.delta_rows.add(layer.delta_rows as u64);
                self.inst.delta_sources.add(layer.delta_sources as u64);
                if layer.batched_rows > 0 {
                    self.inst.gemm_batch_rows.record(layer.batched_rows as u64);
                }
                if layer.batched_apply_rows > 0 {
                    self.inst.apply_batch_rows.record(layer.batched_apply_rows as u64);
                }
            }
            self.record_phases(t, elapsed, &r.phase_times());
        }
        self.inst.ingests.inc();
        self.inst.changes.add(report.changes_applied as u64);
        self.inst.skipped.add(report.skipped as u64);
        self.inst.output_changed.add(report.output_changed);
        self.inst.scratch_bytes.set_u64(self.engine.scratch_bytes() as u64);

        if self.config.drift.enabled() {
            if let Some(err) = self.run_audit(&mut report) {
                report.elapsed = t0.elapsed();
                return Err(DriftError { report, ..err });
            }
        }
        report.elapsed = t0.elapsed();
        Ok(report)
    }

    /// Feeds one batch's engine-measured phase times into the phase
    /// histograms and synthesizes tracer spans: one `"batch"` span for the
    /// whole [`InkStream::apply_delta`] call and one consecutive span per
    /// phase starting at the batch start (the engine measures phases per
    /// layer; the spans show their per-batch totals laid end to end).
    fn record_phases(&self, start: Instant, elapsed: Duration, pt: &PhaseTimes) {
        self.tracer.record_at("pipeline", "batch", start, elapsed);
        let durations = [pt.generate, pt.group, pt.apply, pt.write, pt.next_messages];
        let mut cursor = start;
        for ((hist, name), dur) in self.inst.phases.iter().zip(PHASE_NAMES).zip(durations) {
            hist.record(dur.as_nanos() as u64);
            self.tracer.record_at("pipeline", name, cursor, dur);
            cursor += dur;
        }
    }

    /// Runs the audit due this ingest, if any, mutating the report and the
    /// drift stats. Returns the error shell (without report) on a failing
    /// breach.
    fn run_audit(&mut self, report: &mut IngestReport) -> Option<DriftError> {
        let policy = self.config.drift;
        let ingests = self.inst.ingests.get() as usize;
        let due_full = policy.full_every.is_some_and(|e| ingests.is_multiple_of(e));
        let due_spot = !due_full && policy.spot_every.is_some_and(|e| ingests.is_multiple_of(e));
        if !due_full && !due_spot {
            return None;
        }
        let t_audit = Instant::now();
        let (diff, span_name) = if due_full {
            self.inst.full_audits.inc();
            report.audit = Some(AuditKind::Full);
            (self.engine.audit_full(), "full_audit")
        } else {
            self.inst.spot_audits.inc();
            report.audit = Some(AuditKind::Spot);
            let n = self.engine.graph().num_vertices() as u64;
            let sample: Vec<VertexId> = (0..policy.spot_samples)
                .map(|_| (splitmix64(&mut self.sample_state) % n.max(1)) as VertexId)
                .collect();
            (self.engine.audit_vertices(&sample), "spot_audit")
        };
        report.audit_time = t_audit.elapsed();
        self.inst.audit_ns.add(report.audit_time.as_nanos() as u64);
        self.tracer.record_at("drift", span_name, t_audit, report.audit_time);
        report.verified_diff = Some(diff);
        if diff.is_nan() {
            self.inst.nan_detected.inc();
        } else {
            self.inst.max_deviation.set_max(diff as f64);
        }
        // NaN never compares under tolerance: breach explicitly.
        let breached = diff.is_nan() || diff > policy.tolerance;
        report.drift_breached = breached;
        if !breached {
            return None;
        }
        self.inst.breaches.inc();
        match policy.action {
            DriftAction::Warn => None,
            DriftAction::Resync => {
                let t_resync = Instant::now();
                let r = self.engine.resync();
                self.inst.resyncs.inc();
                self.inst.resync_ns.add(r.elapsed.as_nanos() as u64);
                self.tracer.record_at("drift", "resync", t_resync, r.elapsed);
                report.resynced = true;
                None
            }
            DriftAction::Fail => Some(DriftError {
                max_diff: diff,
                tolerance: policy.tolerance,
                report: IngestReport::default(),
            }),
        }
    }

    /// Summary since the session started, folded from the registry
    /// instruments.
    pub fn summary(&self) -> SessionSummary {
        let phase_sum = |i: usize| Duration::from_nanos(self.inst.phases[i].sum());
        SessionSummary {
            ingests: self.inst.ingests.get() as usize,
            changes: self.inst.changes.get() as usize,
            latency: latency_quantiles(&self.inst.batch_latency),
            avg_real_affected: self.inst.affected.get() as f64
                / self.inst.batches.get().max(1) as f64,
            phase_times: PhaseTimes {
                generate: phase_sum(0),
                group: phase_sum(1),
                apply: phase_sum(2),
                write: phase_sum(3),
                next_messages: phase_sum(4),
            },
            drift: self.drift_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UpdateConfig;
    use ink_graph::generators::erdos_renyi;
    use ink_gnn::{Aggregator, Model};
    use ink_tensor::init::{seeded_rng, uniform};
    use rand::SeedableRng;

    fn engine(seed: u64) -> InkStream {
        let mut rng = seeded_rng(seed);
        let g = erdos_renyi(&mut rng, 40, 100);
        let x = uniform(&mut rng, 40, 4, -1.0, 1.0);
        let model = Model::gcn(&mut rng, &[4, 5, 3], Aggregator::Max);
        InkStream::new(model, g, x, UpdateConfig::default()).unwrap()
    }

    fn delta(s: &StreamSession, seed: u64, n: usize) -> DeltaBatch {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        DeltaBatch::random_scenario(s.engine().graph(), &mut rng, n)
    }

    #[test]
    fn ingest_splits_into_batches() {
        let mut s = StreamSession::with_config(
            engine(1),
            SessionConfig { max_batch: 4, ..SessionConfig::default() },
        );
        let d = delta(&s, 2, 10);
        let r = s.ingest(&d).unwrap();
        assert_eq!(r.batches, 3); // 4 + 4 + 2
        assert_eq!(r.changes_applied + r.skipped, 10);
        let sum = s.summary();
        assert_eq!(sum.ingests, 1);
        assert!(sum.latency.3 >= sum.latency.0, "max ≥ p50");
    }

    #[test]
    fn full_audit_passes_for_monotonic_engine() {
        let mut s = StreamSession::with_config(
            engine(3),
            SessionConfig { drift: DriftPolicy::full(1, 0.0), ..SessionConfig::default() },
        );
        let d = delta(&s, 4, 8);
        let r = s.ingest(&d).unwrap();
        assert_eq!(r.verified_diff, Some(0.0), "max aggregation is bitwise exact");
        assert_eq!(r.audit, Some(AuditKind::Full));
        assert!(!r.drift_breached);
        assert_eq!(s.summary().drift.full_audits, 1);
    }

    #[test]
    fn audit_interval_is_respected() {
        let mut s = StreamSession::with_config(
            engine(5),
            SessionConfig { drift: DriftPolicy::full(2, 1e-3), ..SessionConfig::default() },
        );
        let r1 = s.ingest(&delta(&s, 6, 4)).unwrap();
        assert!(r1.verified_diff.is_none());
        assert!(r1.audit.is_none());
        let r2 = s.ingest(&delta(&s, 7, 4)).unwrap();
        assert!(r2.verified_diff.is_some());
    }

    #[test]
    fn spot_audit_is_clean_and_counted() {
        let mut s = StreamSession::with_config(
            engine(14),
            SessionConfig { drift: DriftPolicy::spot(1, 4, 0.0), ..SessionConfig::default() },
        );
        for i in 0..3 {
            let d = delta(&s, 20 + i, 4);
            let r = s.ingest(&d).unwrap();
            assert_eq!(r.audit, Some(AuditKind::Spot));
            assert_eq!(r.verified_diff, Some(0.0), "monotonic spot audits are exact");
            assert!(r.audit_time > Duration::ZERO);
        }
        let drift = s.summary().drift;
        assert_eq!(drift.spot_audits, 3);
        assert_eq!(drift.breaches, 0);
        assert!(drift.audit_time > Duration::ZERO);
    }

    #[test]
    fn full_audit_takes_priority_over_spot() {
        let mut s = StreamSession::with_config(
            engine(15),
            SessionConfig {
                drift: DriftPolicy {
                    spot_every: Some(1),
                    full_every: Some(2),
                    tolerance: 1e-3,
                    ..DriftPolicy::default()
                },
                ..SessionConfig::default()
            },
        );
        let r1 = s.ingest(&delta(&s, 30, 4)).unwrap();
        assert_eq!(r1.audit, Some(AuditKind::Spot));
        let r2 = s.ingest(&delta(&s, 31, 4)).unwrap();
        assert_eq!(r2.audit, Some(AuditKind::Full));
    }

    #[test]
    fn warn_action_records_breach_and_continues() {
        let mut s = StreamSession::with_config(
            engine(16),
            SessionConfig {
                drift: DriftPolicy::full(1, 0.0).with_action(DriftAction::Warn),
                ..SessionConfig::default()
            },
        );
        s.engine_mut().state_mut().h.set(0, 0, f32::NAN);
        let r = s.ingest(&delta(&s, 32, 4)).unwrap();
        assert!(r.drift_breached);
        assert!(!r.resynced);
        let drift = s.summary().drift;
        assert_eq!(drift.breaches, 1);
        assert_eq!(drift.nan_detected, 1);
        assert_eq!(drift.resyncs, 0);
    }

    #[test]
    fn fail_action_carries_the_ingest_report() {
        let mut s = StreamSession::with_config(
            engine(17),
            SessionConfig {
                max_batch: 2,
                drift: DriftPolicy::full(1, 0.0),
            },
        );
        s.engine_mut().state_mut().alpha[0].set(3, 1, f32::NAN);
        let err = s.ingest(&delta(&s, 33, 5)).unwrap_err();
        assert!(err.max_diff.is_nan());
        assert_eq!(err.report.batches, 3, "the applied work survives in the error");
        assert!(err.report.drift_breached);
        assert!(err.report.elapsed > Duration::ZERO);
        assert!(err.to_string().contains("poisoned"));
    }

    #[test]
    fn summary_equals_the_scrape() {
        use ink_obs::parse::{parse_prometheus, PromFamily};
        use ink_obs::bucket_index;
        let mut s = StreamSession::with_config(
            engine(18),
            SessionConfig {
                max_batch: 1,
                drift: DriftPolicy::spot(2, 3, 1e-3),
            },
        );
        for i in 0..4 {
            let d = delta(&s, 40 + i, 3);
            s.ingest(&d).unwrap();
        }
        let sum = s.summary();
        let families = parse_prometheus(&s.metrics().render_prometheus()).unwrap();
        let family = |name: &str| -> &PromFamily {
            families.iter().find(|f| f.name == name).unwrap_or_else(|| panic!("{name} missing"))
        };
        let value = |name: &str| family(name).samples[0].value as u64;
        let sample = |family_name: &str, name: &str| {
            let f = family(family_name);
            f.samples.iter().find(|x| x.name == name).unwrap().value as u64
        };
        assert_eq!(sum.ingests as u64, value("ink_session_ingests_total"));
        assert_eq!(sum.changes as u64, value("ink_session_changes_total"));
        let lat = "ink_session_batch_latency_ns";
        let batches = value("ink_session_batches_total");
        assert_eq!(batches, 12, "4 ingests of 3 changes in batches of 1");
        assert_eq!(sample(lat, "ink_session_batch_latency_ns_count"), batches);
        let affected = value("ink_session_affected_total") as f64;
        assert_eq!(sum.avg_real_affected, affected / batches as f64);
        assert!(sum.avg_real_affected > 0.0);

        // Each percentile is the upper bound of the bucket holding its rank,
        // clamped to the exact max, which lies in the highest bucket.
        let buckets: Vec<(u64, u64)> = family(lat)
            .samples
            .iter()
            .filter(|x| x.name.ends_with("_bucket") && x.label("le") != Some("+Inf"))
            .map(|x| (x.label("le").unwrap().parse().unwrap(), x.value as u64))
            .collect();
        let max = sum.latency.3.as_nanos() as u64;
        let top = buckets.last().unwrap().0;
        assert_eq!(bucket_index(max), bucket_index(top));
        for (p, got) in [(0.50, sum.latency.0), (0.90, sum.latency.1), (0.99, sum.latency.2)] {
            let rank = (p * batches as f64).ceil() as u64;
            let le = buckets.iter().find(|&&(_, cum)| cum >= rank).unwrap().0;
            assert_eq!(got, Duration::from_nanos(le.min(max)), "p{p}");
        }

        let phases = [
            ("generate", sum.phase_times.generate),
            ("group", sum.phase_times.group),
            ("apply", sum.phase_times.apply),
            ("write", sum.phase_times.write),
            ("next_messages", sum.phase_times.next_messages),
        ];
        for (name, got) in phases {
            let f = format!("ink_pipeline_phase_{name}_ns");
            assert_eq!(got, Duration::from_nanos(sample(&f, &format!("{f}_sum"))), "{name}");
        }

        let d = sum.drift;
        assert_eq!(d.spot_audits, 2);
        assert_eq!(d.spot_audits, value("ink_drift_spot_audits_total"));
        assert_eq!(d.full_audits, value("ink_drift_full_audits_total"));
        assert_eq!(d.breaches, value("ink_drift_breaches_total"));
        assert_eq!(d.resyncs, value("ink_drift_resyncs_total"));
        assert_eq!(d.nan_detected, value("ink_drift_nan_detected_total"));
        assert_eq!(d.audit_time, Duration::from_nanos(value("ink_drift_audit_ns_total")));
        assert_eq!(d.resync_time, Duration::from_nanos(value("ink_drift_resync_ns_total")));
        assert_eq!(d.max_deviation as f64, family("ink_drift_max_deviation").samples[0].value);
    }

    #[test]
    #[should_panic(expected = "spot_every")]
    fn zero_spot_interval_is_rejected() {
        let cfg = SessionConfig {
            drift: DriftPolicy { spot_every: Some(0), ..DriftPolicy::default() },
            ..SessionConfig::default()
        };
        StreamSession::with_config(engine(19), cfg);
    }

    #[test]
    #[should_panic(expected = "full_every")]
    fn zero_full_interval_is_rejected() {
        let cfg = SessionConfig {
            drift: DriftPolicy { full_every: Some(0), ..DriftPolicy::default() },
            ..SessionConfig::default()
        };
        StreamSession::with_config(engine(20), cfg);
    }

    #[test]
    #[should_panic(expected = "sample at least one vertex")]
    fn zero_spot_samples_is_rejected() {
        let cfg = SessionConfig {
            drift: DriftPolicy { spot_every: Some(1), spot_samples: 0, ..DriftPolicy::default() },
            ..SessionConfig::default()
        };
        StreamSession::with_config(engine(21), cfg);
    }

    #[test]
    fn summary_accumulates_across_ingests() {
        let mut s = StreamSession::new(engine(8));
        for i in 0..3 {
            let d = delta(&s, 10 + i, 6);
            s.ingest(&d).unwrap();
        }
        let sum = s.summary();
        assert_eq!(sum.ingests, 3);
        assert!(sum.changes > 0);
        assert!(sum.avg_real_affected > 0.0);
    }

    #[test]
    fn summary_accumulates_phase_times() {
        let mut s = StreamSession::new(engine(11));
        s.ingest(&delta(&s, 12, 8)).unwrap();
        let once = s.summary().phase_times;
        assert!(once.total() > Duration::ZERO, "batches must contribute phase times");
        s.ingest(&delta(&s, 13, 8)).unwrap();
        let twice = s.summary().phase_times;
        assert!(twice.total() > once.total(), "phase times accumulate across ingests");
    }

    #[test]
    fn gemm_instruments_are_scrapeable() {
        let mut s = StreamSession::new(engine(22));
        s.ingest(&delta(&s, 50, 8)).unwrap();
        let scrape = s.metrics().render_prometheus();
        assert!(scrape.contains("ink_gemm_rows_total"), "row counter must be registered");
        assert!(scrape.contains("ink_gemm_flops_total"), "flop counter must be registered");
        assert!(scrape.contains("ink_gemm_batch_rows"), "row histogram must be registered");
        assert!(scrape.contains("ink_apply_rows_total"), "apply row counter must be registered");
        assert!(scrape.contains("ink_apply_batch_rows"), "apply histogram must be registered");
    }

    #[test]
    fn condition_mix_and_channel_repair_follow_the_reports() {
        // A bare twin engine sees the same batches; its reports are what the
        // session's counters must add up to.
        let mut s = StreamSession::new(engine(23));
        let mut twin = engine(23);
        let (mut conds, mut channels, mut rows) = (crate::ConditionCounts::default(), 0u64, 0u64);
        for i in 0..6 {
            let d = delta(&s, 60 + i, 8);
            s.ingest(&d).unwrap();
            let r = twin.apply_delta(&d);
            conds.merge(&r.conditions());
            for l in &r.per_layer {
                channels += l.exposed_channels as u64;
                rows += l.exposed_rows as u64;
            }
        }
        let get = |name: &str| s.metrics().counter(name, "").get();
        assert_eq!(get("ink_cond_resilient_total"), conds.resilient);
        assert_eq!(get("ink_cond_no_reset_total"), conds.no_reset);
        assert_eq!(get("ink_cond_covered_reset_total"), conds.covered_reset);
        assert_eq!(get("ink_cond_exposed_reset_total"), conds.exposed_reset);
        assert_eq!(get("ink_exposed_channels_total"), channels);
        assert_eq!(get("ink_exposed_rows_total"), rows);
        assert!(channels > 0 && rows > 0, "the stream must reach the channel repair");
    }

    #[test]
    fn delta_rule_counters_follow_the_reports() {
        // SAGE-mean takes delta rows on its last layer; the module's GCN-max
        // engine never does. A bare twin sees the same batches.
        let sage = |seed| {
            let mut rng = seeded_rng(seed);
            let g = erdos_renyi(&mut rng, 40, 100);
            let x = uniform(&mut rng, 40, 4, -1.0, 1.0);
            let model = Model::sage(&mut rng, &[4, 6, 3], Aggregator::Mean);
            InkStream::new(model, g, x, UpdateConfig::default()).unwrap()
        };
        let mut s = StreamSession::new(sage(24));
        let mut twin = sage(24);
        let (mut rows, mut sources) = (0u64, 0u64);
        for i in 0..6 {
            let d = delta(&s, 70 + i, 8);
            s.ingest(&d).unwrap();
            for l in &twin.apply_delta(&d).per_layer {
                rows += l.delta_rows as u64;
                sources += l.delta_sources as u64;
            }
        }
        let get = |s: &StreamSession, name: &str| s.metrics().counter(name, "").get();
        assert_eq!(get(&s, "ink_delta_rows_total"), rows);
        assert_eq!(get(&s, "ink_delta_sources_total"), sources);
        assert!(rows > 0 && sources > 0, "the stream must reach the delta rule");

        let mut mono = StreamSession::new(engine(25));
        mono.ingest(&delta(&mono, 80, 8)).unwrap();
        assert_eq!(get(&mono, "ink_delta_rows_total"), 0);
        assert_eq!(get(&mono, "ink_delta_sources_total"), 0);
    }

    #[test]
    fn empty_delta_is_harmless() {
        let mut s = StreamSession::new(engine(9));
        let r = s.ingest(&DeltaBatch::new(vec![])).unwrap();
        assert_eq!(r.batches, 0);
        assert_eq!(s.summary().latency, Default::default());
    }
}
