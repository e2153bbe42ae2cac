//! Drift benchmark: audit cost curves and drift-over-time on long streams.
//!
//! Two experiments, both written to `results/BENCH_drift.json`:
//!
//! 1. **Audit cost** — mean wall time of a 16-vertex spot audit vs. a full
//!    audit (NaN scan + fresh bootstrap) across growing graph sizes. The
//!    spot audit touches `O(samples · deg · dim)` state, so its cost must
//!    stay flat while the full audit grows with `|V|` — the sublinearity
//!    that makes per-ingest spot auditing affordable.
//! 2. **Drift over time** — the same GCN streams ≥ 50 k edge changes
//!    (100 ingests × 500 changes at full scale) twice over the same delta
//!    sequence, once with sum and once with mean aggregation — the two
//!    accumulative update rules — recording the authoritative full-audit
//!    drift at regular checkpoints. Per-ingest spot audits run through the
//!    session's [`DriftPolicy`], demonstrating audit wall time staying
//!    separate from ingest latency.

use ink_bench::json::{rounded, Json};
use ink_bench::{scenarios, write_metrics, write_results, BenchOpts, ModelKind, Scrape};
use ink_graph::generators::erdos_renyi;
use ink_gnn::Aggregator;
use ink_tensor::init::{seeded_rng, sparse_power_law};
use inkstream::{DriftAction, DriftPolicy, InkStream, SessionConfig, StreamSession, UpdateConfig};
use rand::RngExt;
use std::time::{Duration, Instant};

const FEAT_DIM: usize = 16;
const SEED: u64 = 0xD21F7;
const SPOT_SAMPLES: usize = 16;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn build_engine(n: usize, edges: usize, opts: &BenchOpts, agg: Aggregator) -> InkStream {
    let mut rng = seeded_rng(SEED);
    let graph = erdos_renyi(&mut rng, n, edges);
    let features = sparse_power_law(&mut rng, n, FEAT_DIM, 0.2, 0.9);
    let model = ModelKind::Gcn.build(FEAT_DIM, opts, agg, SEED);
    InkStream::new(model, graph, features, UpdateConfig::default()).unwrap()
}

/// Experiment 1: spot vs. full audit cost across graph sizes.
fn audit_cost(opts: &BenchOpts) -> Vec<Json> {
    let base = ((5_000.0 * opts.scale) as usize).max(400);
    let reps = if opts.quick { 10 } else { 50 };
    let mut rows = Vec::new();
    for mult in [1usize, 4, 16] {
        let n = base * mult;
        let edges = 3 * n;
        let engine = build_engine(n, edges, opts, Aggregator::Sum);
        let mut rng = seeded_rng(SEED ^ mult as u64);

        let mut spot_us = 0.0;
        for _ in 0..reps {
            let sample: Vec<u32> =
                (0..SPOT_SAMPLES).map(|_| rng.random_range(0..n as u32)).collect();
            let t = Instant::now();
            let dev = engine.audit_vertices(&sample);
            spot_us += us(t.elapsed());
            assert!(!dev.is_nan(), "clean engine must audit finite");
        }
        spot_us /= reps as f64;

        let t = Instant::now();
        let dev = engine.audit_full();
        let full_us = us(t.elapsed());
        assert!(!dev.is_nan());

        let ratio = if spot_us > 0.0 { full_us / spot_us } else { 0.0 };
        eprintln!(
            "  audit cost |V|={n}: spot({SPOT_SAMPLES})={spot_us:.1}µs full={full_us:.1}µs \
             (full/spot={ratio:.1}x)"
        );
        rows.push(Json::obj([
            ("vertices", Json::from(n)),
            ("edges", Json::from(edges)),
            ("spot_samples", Json::from(SPOT_SAMPLES)),
            ("spot_us_mean", rounded(spot_us, 3)),
            ("full_us", rounded(full_us, 3)),
            ("full_over_spot", rounded(ratio, 3)),
        ]));
    }
    rows
}

/// Experiment 2: drift over a ≥ 50 k-change stream, sum vs. mean.
/// Returns the document plus the sum session's metrics registry, exported
/// as `results/BENCH_drift.prom` by `main`.
fn drift_stream(opts: &BenchOpts) -> (Json, std::sync::Arc<ink_obs::MetricsRegistry>) {
    let n = ((8_000.0 * opts.scale) as usize).max(600);
    let edges = 3 * n;
    let (batch, ingests) = if opts.quick { (100usize, 10usize) } else { (500, 100) };
    let checkpoints = 10usize.min(ingests);

    let make_session = |agg: Aggregator| {
        StreamSession::with_config(
            build_engine(n, edges, opts, agg),
            SessionConfig {
                // Spot audits every ingest; tolerance is wide — this run
                // *measures* drift, it doesn't police it.
                drift: DriftPolicy::spot(1, SPOT_SAMPLES, 1.0).with_action(DriftAction::Warn),
                ..SessionConfig::default()
            },
        )
    };
    let mut sum = make_session(Aggregator::Sum);
    let mut mean = make_session(Aggregator::Mean);
    let deltas = scenarios(sum.engine().graph(), batch, ingests, SEED ^ 0xface);

    let mut series = Vec::new();
    let mut changes_seen = 0usize;
    let mut changes_streamed = 0usize;
    for (i, delta) in deltas.iter().enumerate() {
        let rs = sum.ingest(delta).expect("warn policy never fails");
        let rm = mean.ingest(delta).expect("warn policy never fails");
        changes_seen += rs.changes_applied;
        changes_streamed += rs.changes_applied + rs.skipped;
        assert_eq!(rs.changes_applied, rm.changes_applied, "same delta stream");
        if (i + 1) % (ingests / checkpoints).max(1) == 0 {
            let ds = sum.engine().audit_full();
            let dm = mean.engine().audit_full();
            eprintln!(
                "  stream {changes_seen} changes: drift sum={ds:.3e} mean={dm:.3e} \
                 (spot sum={:.3e} mean={:.3e})",
                rs.verified_diff.unwrap_or(f32::NAN),
                rm.verified_diff.unwrap_or(f32::NAN),
            );
            series.push(Json::obj([
                ("changes", Json::from(changes_seen)),
                ("full_drift_sum", Json::from(ds)),
                ("full_drift_mean", Json::from(dm)),
            ]));
        }
    }

    let stats = |s: &StreamSession| {
        let scrape = Scrape::of(s.metrics());
        Json::obj([
            ("spot_audits", Json::from(scrape.count("ink_drift_spot_audits_total"))),
            ("max_spot_deviation", Json::from(scrape.value("ink_drift_max_deviation"))),
            ("audit_ms", rounded(scrape.value("ink_drift_audit_ns_total") / 1e6, 3)),
            ("breaches", Json::from(scrape.count("ink_drift_breaches_total"))),
        ])
    };
    let doc = Json::obj([
        ("vertices", Json::from(n)),
        ("edges", Json::from(edges)),
        ("batch", Json::from(batch)),
        ("ingests", Json::from(ingests)),
        ("changes_streamed", Json::from(changes_streamed)),
        ("changes_applied", Json::from(changes_seen)),
        ("spot_policy", Json::obj([("every", Json::from(1u64)), ("samples", Json::from(SPOT_SAMPLES))])),
        ("audit_stats_sum", stats(&sum)),
        ("audit_stats_mean", stats(&mean)),
        ("series", Json::Arr(series)),
    ]);
    (doc, sum.metrics().clone())
}

fn main() {
    let opts = BenchOpts::from_env();
    eprintln!(
        "drift bench: scale={} quick={} threads={}",
        opts.scale,
        opts.quick,
        rayon::current_num_threads()
    );
    eprintln!("audit cost sweep:");
    let cost_rows = audit_cost(&opts);
    eprintln!("drift stream:");
    let (stream, registry) = drift_stream(&opts);

    let doc = Json::obj([
        ("bench", Json::from("drift")),
        ("model", Json::from("GCN")),
        ("aggregator", Json::from("sum")),
        ("feat_dim", Json::from(FEAT_DIM)),
        ("hidden", Json::from(opts.hidden)),
        ("audit_cost", Json::Arr(cost_rows)),
        ("stream", stream),
    ]);
    write_results(&opts, "drift", &doc);
    write_metrics(&opts, "drift", &registry);
}
