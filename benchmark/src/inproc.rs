//! The in-process workloads: `engine_*` on `InkStream` and `partition_bulk`
//! on `PartitionedInkStream`. One update operation is one
//! `apply_delta(&DeltaBatch)` call; its wall time is the update latency.

use crate::probe::{self, Calibration, Rounds, MAX_ROUNDS, MIN_ROUNDS};
use crate::report::{end_to_end, mean, percentile, Metrics, Outcome, PER_LAYER};
use crate::workloads::{same_bits, Driver, Inputs, ModelKind, Workload};
use ink_graph::{DeltaBatch, DynGraph};
use ink_obs::parse::{parse_prometheus, PromFamily};
use ink_obs::Tracer;
use ink_partition::{GreedyEdgeCut, PartitionConfig, PartitionedInkStream, Partitioner};
use ink_tensor::Matrix;
use inkstream::{InkStream, LayerStats, UpdateConfig, UpdateReport};
use std::time::{Duration, Instant};

/// Set-ups per timed run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Calibration kernels before each round: 40 in an undisturbed run.
const CALIB_PER_ROUND: usize = 10;

/// Tolerance of the correctness check for mean aggregation, as a share of
/// the largest reference value (max aggregation is checked bitwise). Sums
/// updated in place drift by a few ulps per update: 1.2e-4 absolute after
/// 1900 updates on outputs that reach 86, which is 1.4e-6 of that scale.
const MEAN_TOLERANCE: f32 = 1e-4;

enum Backend {
    Single(Box<InkStream>),
    Parted(Box<PartitionedInkStream>),
}

impl Backend {
    /// Graph build, model and bootstrap full inference (plus partitioning):
    /// everything before the first update can be sent. Returns the seconds
    /// spent building the graph and the seconds spent in the constructor.
    fn build(w: &'static Workload, inputs: &Inputs) -> (Self, f64, f64) {
        let t = Instant::now();
        let graph = inputs.build_graph();
        let build_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let features = inputs.features.clone();
        let backend = match w.driver {
            Driver::Partition => Backend::Parted(Box::new(
                PartitionedInkStream::new(
                    || w.model(),
                    graph,
                    features,
                    GreedyEdgeCut,
                    PartitionConfig {
                        parts: 2,
                        ..Default::default()
                    },
                )
                .expect("partitioned bootstrap"),
            )),
            _ => Backend::Single(Box::new(
                InkStream::new(w.model(), graph, features, UpdateConfig::default())
                    .expect("bootstrap"),
            )),
        };
        (backend, build_s, t.elapsed().as_secs_f64())
    }

    fn apply(&mut self, delta: &DeltaBatch) -> UpdateReport {
        match self {
            Backend::Single(e) => e.apply_delta(delta),
            Backend::Parted(p) => p.apply_delta(delta),
        }
    }

    fn graph(&self) -> &DynGraph {
        match self {
            Backend::Single(e) => e.graph(),
            Backend::Parted(p) => p.graph(),
        }
    }

    fn engines(&self) -> &[InkStream] {
        match self {
            Backend::Single(e) => std::slice::from_ref(e),
            Backend::Parted(p) => p.engines(),
        }
    }

    /// Compares the final output with a full inference over the final graph
    /// — the same reference for both drivers, so `partition_bulk` is checked
    /// against what `engine_bulk` must produce. Returns whether it matched
    /// and the milliseconds the full inference took.
    fn check(&self, w: &Workload, features: &Matrix) -> (bool, f64) {
        let t = Instant::now();
        let reference = match self {
            Backend::Single(e) => e.recompute_reference(),
            Backend::Parted(p) => InkStream::new(
                w.model(),
                p.graph().clone(),
                features.clone(),
                UpdateConfig::default(),
            )
            .expect("reference bootstrap")
            .output()
            .clone(),
        };
        let full_ms = t.elapsed().as_secs_f64() * 1e3;
        let merged;
        let output = match self {
            Backend::Single(e) => e.output(),
            Backend::Parted(p) => {
                merged = p.output();
                &merged
            }
        };
        let ok = match w.model {
            ModelKind::GcnMax => same_bits(output.as_slice(), reference.as_slice()),
            ModelKind::SageMean => {
                let scale = reference
                    .as_slice()
                    .iter()
                    .fold(1.0f32, |a, x| a.max(x.abs()));
                output.shape() == reference.shape()
                    && output.max_abs_diff(&reference) <= MEAN_TOLERANCE * scale
            }
        };
        (ok, full_ms)
    }
}

/// What the traced pass records beside the latencies.
struct Trace {
    tracer: Tracer,
    /// A second copy of the graph the harness mutates itself, to time
    /// `DeltaBatch::apply` without reaching into the engine.
    shadow: DynGraph,
    work: Work,
}

/// Engine reports and harness timers summed over the traced ops.
#[derive(Default)]
struct Work {
    layers: Vec<LayerStats>,
    nodes_visited: u64,
    real_affected: u64,
    output_changed: u64,
    f32_moved: u64,
    gemm_flops: u64,
    skipped: u64,
    coalesce: Duration,
    delta_apply: Duration,
    route: Duration,
}

impl Work {
    fn absorb(&mut self, r: &UpdateReport) {
        if self.layers.len() < r.per_layer.len() {
            self.layers
                .resize_with(r.per_layer.len(), LayerStats::default);
        }
        for (mine, theirs) in self.layers.iter_mut().zip(&r.per_layer) {
            mine.merge(theirs);
        }
        self.nodes_visited += r.nodes_visited;
        self.real_affected += r.real_affected;
        self.output_changed += r.output_changed;
        self.f32_moved += r.traffic();
        self.gemm_flops += r.gemm_flops;
        self.skipped += r.skipped_changes as u64;
    }
}

struct Measured {
    /// Per distinct op (forward ops, then backward ops): the fastest of its
    /// times, in microseconds.
    best_us: Vec<f64>,
    /// Edge events of the distinct ops.
    events: u64,
    /// Every time taken, in execution order, in microseconds.
    all_us: Vec<f64>,
    /// Rounds made: the times taken of every distinct op.
    rounds: usize,
    cpu_us: f64,
    /// Updates the engine did not apply in full: the stream and the graph
    /// disagreed.
    rejected: u64,
}

impl Measured {
    /// Edge events per second of engine time, each op at its fastest time.
    fn throughput_eps(&self) -> f64 {
        self.events as f64 / (self.best_us.iter().sum::<f64>() * 1e-6)
    }
}

/// Runs the timed ops round after round, timing each `apply_delta`:
/// `MIN_ROUNDS` rounds, and up to `max_rounds` while the machine is
/// disturbed (see `Rounds`). With a trace, every call into a layer is
/// wrapped in a span under one `update` root per op, and the harness-side
/// graph work is timed as well.
fn run_ops(
    backend: &mut Backend,
    inputs: &Inputs,
    calib: &mut Calibration,
    mut trace: Option<&mut Trace>,
    max_rounds: usize,
) -> Measured {
    let mut m = Measured {
        best_us: vec![f64::INFINITY; inputs.slots()],
        events: 2 * inputs.forward.iter().map(|b| b.len() as u64).sum::<u64>(),
        all_us: Vec::with_capacity(max_rounds * inputs.slots()),
        rounds: 0,
        cpu_us: 0.0,
        rejected: 0,
    };
    let view = match backend {
        Backend::Parted(p) if trace.is_some() => Some(p.routing_view()),
        _ => None,
    };
    let mut rounds = Rounds::new(max_rounds);
    while rounds.next() {
        calib.run(CALIB_PER_ROUND);
        let cpu0 = probe::cpu_us();
        for (slot, batch) in inputs.round() {
            let report;
            let dt;
            if let Some(Trace {
                tracer,
                shadow,
                work,
            }) = trace.as_deref_mut()
            {
                let root = Instant::now();
                let coalesced = batch.coalesce(false);
                let d = root.elapsed();
                tracer.record_at("graph", "graph.coalesce", root, d);
                work.coalesce += d;
                if let Some(view) = &view {
                    let t = Instant::now();
                    std::hint::black_box(view.route(&coalesced));
                    let d = t.elapsed();
                    tracer.record_at("partition", "partition.route", t, d);
                    work.route += d;
                }
                let t = Instant::now();
                report = backend.apply(&coalesced);
                dt = t.elapsed();
                let name = if view.is_some() {
                    "partition.apply_delta"
                } else {
                    "core.apply_delta"
                };
                tracer.record_at("engine", name, t, dt);
                let t = Instant::now();
                coalesced.apply(shadow);
                let d = t.elapsed();
                tracer.record_at("graph", "graph.delta_apply", t, d);
                work.delta_apply += d;
                tracer.record_at("harness", "update", root, root.elapsed());
                work.absorb(&report);
            } else {
                let t = Instant::now();
                report = backend.apply(batch);
                dt = t.elapsed();
            }
            m.rejected += (report.skipped_changes > 0) as u64;
            let us = dt.as_secs_f64() * 1e6;
            m.all_us.push(us);
            m.best_us[slot] = m.best_us[slot].min(us);
        }
        m.cpu_us += probe::cpu_us() - cpu0;
    }
    m.rounds = rounds.done;
    m
}

/// The timed pass: tracing off, end-to-end metrics only.
pub fn timed(w: &'static Workload, seed: u64, seconds: f64) -> Outcome {
    let inputs = Inputs::generate(w, seed, seconds, 0);
    let mut calib = Calibration::new();

    let t = Instant::now();
    let mut backend = Backend::build(w, &inputs).0;
    let mut setups = vec![t.elapsed().as_secs_f64()];

    for batch in &inputs.warmup {
        backend.apply(batch);
    }
    let mut m = run_ops(&mut backend, &inputs, &mut calib, None, MAX_ROUNDS);
    // Before the check: the reference inference is the harness's memory,
    // not the program's.
    let rss = probe::peak_rss_mb();
    let (ok, _) = backend.check(w, &inputs.features);
    // The other set-ups come last, after the memory reading and a run away
    // from the first: a slow stretch of this box rarely covers both ends.
    drop(backend);
    for _ in 1..SETUP_REPEATS {
        let t = Instant::now();
        let again = Backend::build(w, &inputs).0;
        setups.push(t.elapsed().as_secs_f64());
        drop(again);
    }
    calib.print(w.name);
    println!("{}/harness.rounds {} count", w.name, m.rounds);
    let eps = m.throughput_eps();
    let metrics = end_to_end(w.name, &mut m.best_us, eps, rss, &mut setups);
    Outcome {
        attempted: (inputs.warmup.len() + m.rounds * inputs.slots() + 1) as u64,
        failed: m.rejected + !ok as u64,
        metrics,
    }
}

/// The traced pass: the same stream prefix twice on fresh engines, first
/// untraced (the base of `harness.trace_overhead_share`), then with spans,
/// per-layer reports and the harness-side probes. Both make `MIN_ROUNDS`
/// rounds whatever the machine does, so that the two compare and the means
/// per op are over the same ops in every run.
pub fn traced(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    trace_path: &std::path::Path,
) -> Outcome {
    let inputs = Inputs::generate(w, seed, seconds / 2.0, 0);
    let ops = MIN_ROUNDS * inputs.slots();
    let mut calib = Calibration::new();

    let base = {
        let (mut backend, _, _) = Backend::build(w, &inputs);
        for batch in &inputs.warmup {
            backend.apply(batch);
        }
        run_ops(&mut backend, &inputs, &mut calib, None, MIN_ROUNDS)
    };

    let mut metrics = Metrics::new(PER_LAYER);
    if w.driver == Driver::Partition {
        let graph = inputs.build_graph();
        let t = Instant::now();
        std::hint::black_box(GreedyEdgeCut.partition(&graph, 2));
        metrics.set("partition.partition_s", t.elapsed().as_secs_f64());
    }
    let (mut backend, build_s, bootstrap_s) = Backend::build(w, &inputs);
    metrics.set("graph.build_s", build_s);
    metrics.set("gnn.bootstrap_s", bootstrap_s);
    let mut trace = Trace {
        tracer: Tracer::new(8 * ops + 1024),
        shadow: inputs.build_graph(),
        work: Work::default(),
    };
    for batch in &inputs.warmup {
        backend.apply(batch);
        batch.apply(&mut trace.shadow);
    }
    let before = partition_counters(&backend);
    let mut m = run_ops(
        &mut backend,
        &inputs,
        &mut calib,
        Some(&mut trace),
        MIN_ROUNDS,
    );
    let after = partition_counters(&backend);
    let (ok, full_ms) = backend.check(w, &inputs.features);

    let n = ops as f64;
    let per_op_us = |d: Duration| d.as_secs_f64() * 1e6 / n;
    let wall_us: f64 = m.all_us.iter().sum();
    let mean_us = wall_us / n;

    // Engine phases and work, per update. On the partitioned driver the
    // engines run side by side, so their phase times add up to CPU time, not
    // wall: there `unattributed` is the round's wall outside the slowest
    // partition's steps (routing, ghost exchange, barrier).
    let mut phase_sum = Duration::ZERO;
    let mut conds = inkstream::ConditionCounts::default();
    let mut totals = LayerStats::default();
    for (l, layer) in trace.work.layers.iter().enumerate() {
        phase_sum += layer.phases.total();
        conds.merge(&layer.conditions);
        totals.merge(layer);
        metrics.set(&format!("core.l{l}_us"), per_op_us(layer.phases.total()));
    }
    assert_eq!(
        trace.work.layers.len(),
        2,
        "both models have two GNN layers"
    );
    let l1 = &trace.work.layers[1].phases;
    metrics.set("core.l1_group_us", per_op_us(l1.group));
    metrics.set("core.l1_apply_us", per_op_us(l1.apply));
    metrics.set("core.l1_next_messages_us", per_op_us(l1.next_messages));
    metrics.set("core.phase_generate_us", per_op_us(totals.phases.generate));
    metrics.set("core.phase_group_us", per_op_us(totals.phases.group));
    metrics.set("core.phase_apply_us", per_op_us(totals.phases.apply));
    metrics.set("core.phase_write_us", per_op_us(totals.phases.write));
    metrics.set(
        "core.phase_next_messages_us",
        per_op_us(totals.phases.next_messages),
    );
    metrics.set("core.update_us_p99", percentile(&mut m.all_us, 0.99));
    metrics.set("core.events_created", totals.events_created as f64 / n);
    metrics.set("core.targets", totals.targets as f64 / n);
    metrics.set("core.alpha_changed", totals.alpha_changed as f64 / n);
    metrics.set("core.batched_rows", totals.batched_rows as f64 / n);
    metrics.set(
        "core.batched_apply_rows",
        totals.batched_apply_rows as f64 / n,
    );
    metrics.set("core.nodes_visited", trace.work.nodes_visited as f64 / n);
    metrics.set("core.real_affected", trace.work.real_affected as f64 / n);
    metrics.set("core.output_changed", trace.work.output_changed as f64 / n);
    metrics.set("core.f32_moved", trace.work.f32_moved as f64 / n);
    metrics.set("core.gemm_flops", trace.work.gemm_flops as f64 / n);
    metrics.set("core.skipped_changes", trace.work.skipped as f64 / n);
    let all = conds.total().max(1) as f64;
    metrics.set("core.cond_resilient_share", conds.resilient as f64 / all);
    metrics.set("core.cond_no_reset_share", conds.no_reset as f64 / all);
    metrics.set(
        "core.cond_covered_reset_share",
        conds.covered_reset as f64 / all,
    );
    metrics.set(
        "core.cond_exposed_reset_share",
        conds.exposed_reset as f64 / all,
    );
    metrics.set(
        "core.cond_accumulative_share",
        conds.accumulative as f64 / all,
    );

    let mut unattributed_us = mean_us - per_op_us(phase_sum);
    if let (Some(b), Some(a), Backend::Parted(p)) = (&before, &after, &backend) {
        let walls: Vec<f64> = a
            .walls_us
            .iter()
            .zip(&b.walls_us)
            .map(|(a, b)| a - b)
            .collect();
        let wall_max = walls.iter().copied().fold(0.0, f64::max);
        let wall_min = walls.iter().copied().fold(f64::INFINITY, f64::min);
        unattributed_us = (wall_us - wall_max) / n;
        let quality = p.summary().quality;
        metrics.set("partition.cut_fraction", quality.cut_fraction);
        metrics.set("partition.replication_factor", quality.replication_factor);
        metrics.set("partition.balance", quality.balance);
        metrics.set(
            "partition.boundary_events",
            (a.boundary_events - b.boundary_events) / n,
        );
        metrics.set(
            "partition.replica_refreshes",
            (a.replica_refreshes - b.replica_refreshes) / n,
        );
        metrics.set(
            "partition.mirror_seeds",
            (a.mirror_seeds - b.mirror_seeds) / n,
        );
        metrics.set("partition.part_wall_max_us", wall_max / n);
        metrics.set("partition.part_wall_min_us", wall_min / n);
        metrics.set("partition.skew_share", (a.skew_us - b.skew_us) / wall_us);
        metrics.set(
            "partition.pool_park_us",
            (a.park_us - b.park_us) / (a.parks - b.parks).max(1.0),
        );
        metrics.set("partition.route_us", per_op_us(trace.work.route));
        let mut out = Matrix::zeros(0, 0);
        p.output_into(&mut out);
        let t = Instant::now();
        p.output_into(&mut out);
        metrics.set(
            "partition.output_gather_us",
            t.elapsed().as_secs_f64() * 1e6,
        );
    }
    metrics.set("core.unattributed_us", unattributed_us);

    let engines = backend.engines();
    let mib = |bytes: usize| bytes as f64 / (1 << 20) as f64;
    metrics.set(
        "core.state_mb",
        mib(engines
            .iter()
            .map(|e| {
                let s = e.state();
                s.m.iter()
                    .chain(&s.alpha)
                    .map(Matrix::nbytes)
                    .sum::<usize>()
                    + s.h.nbytes()
            })
            .sum()),
    );
    metrics.set(
        "core.scratch_mb",
        mib(engines.iter().map(InkStream::scratch_bytes).sum()),
    );
    metrics.set(
        "core.snapshot_publish_us",
        probe::snapshot_publish_us(engines[0].output()),
    );
    metrics.set("graph.coalesce_us", per_op_us(trace.work.coalesce));
    metrics.set("graph.delta_apply_us", per_op_us(trace.work.delta_apply));
    metrics.set("gnn.full_inference_ms", full_ms);
    metrics.set("gnn.speedup_vs_full", full_ms * 1e3 / mean_us);
    metrics.set("tensor.gemm_gflops", probe::gemm_gflops());
    metrics.set("tensor.fold_max_gbps", probe::fold_max_gbps());
    let (calib_ms, calib_drift) = calib.summary();
    metrics.set("harness.calib_ms", calib_ms);
    metrics.set("harness.calib_drift", calib_drift);
    // Every distinct op ran once per round.
    let executed_events = (m.events * m.rounds as u64) as f64;
    metrics.set("harness.cpu_us_per_event", m.cpu_us / executed_events);
    metrics.set(
        "harness.trace_overhead_share",
        mean(&m.best_us) / mean(&base.best_us) - 1.0,
    );

    // The shadow graph saw the same changes, so it must equal the engine's.
    let shadow_ok = trace.shadow == *backend.graph();
    let spans_ok = write_trace(&trace.tracer, trace_path, ops);
    Outcome {
        attempted: (2 * (inputs.warmup.len() + ops) + 3) as u64,
        failed: base.rejected + m.rejected + !ok as u64 + !shadow_ok as u64 + !spans_ok as u64,
        metrics,
    }
}

/// Dumps the spans as Chrome-trace JSON and checks that the `update` roots
/// cover every measured op exactly once and that no span was dropped.
pub fn write_trace(tracer: &Tracer, path: &std::path::Path, ops: usize) -> bool {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create the trace directory");
    }
    std::fs::write(path, tracer.dump_chrome_trace()).expect("write the trace");
    let roots = tracer
        .events()
        .iter()
        .filter(|e| e.name == "update")
        .count();
    roots == ops && tracer.dropped() == 0
}

/// Cumulative partition-layer counters, read from outside: the public
/// summary and the Prometheus rendering of the driver's registry.
struct PartitionCounters {
    boundary_events: f64,
    replica_refreshes: f64,
    mirror_seeds: f64,
    /// Wall each partition spent inside round steps.
    walls_us: Vec<f64>,
    skew_us: f64,
    park_us: f64,
    parks: f64,
}

fn partition_counters(backend: &Backend) -> Option<PartitionCounters> {
    let Backend::Parted(p) = backend else {
        return None;
    };
    let s = p.summary();
    let families =
        parse_prometheus(&p.metrics().render_prometheus()).expect("registry renders valid text");
    Some(PartitionCounters {
        boundary_events: s.boundary_events as f64,
        replica_refreshes: s.replica_refreshes as f64,
        mirror_seeds: s.mirror_seeds as f64,
        walls_us: s
            .partition_wall
            .iter()
            .map(|d| d.as_secs_f64() * 1e6)
            .collect(),
        skew_us: prom(&families, "ink_partition_step_skew_ns_sum") / 1e3,
        park_us: prom(&families, "ink_partition_pool_park_ns_sum") / 1e3,
        parks: prom(&families, "ink_partition_pool_park_ns_count"),
    })
}

/// The value of the unlabelled sample `name` in a parsed Prometheus scrape.
pub fn prom(families: &[PromFamily], name: &str) -> f64 {
    families
        .iter()
        .flat_map(|f| &f.samples)
        .find(|s| s.name == name && s.labels.is_empty())
        .unwrap_or_else(|| panic!("no sample {name} in the scrape"))
        .value
}
