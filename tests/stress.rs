//! Stress and failure-injection tests: long mixed update streams across
//! topologies, hostile inputs (NaN features, contradictory deltas), and the
//! session-level drift guard.

use ink_bench::Scrape;
use ink_graph::generators::{barabasi_albert, rmat, watts_strogatz};
use ink_graph::generators::rmat::RmatParams;
use ink_graph::{DeltaBatch, DynGraph, EdgeChange};
use ink_gnn::{Aggregator, Model};
use ink_tensor::init::{seeded_rng, uniform};
use inkstream::{DriftPolicy, InkStream, SessionConfig, StreamSession, UpdateConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn engine_on(g: DynGraph, seed: u64, agg: Aggregator) -> InkStream {
    let mut rng = seeded_rng(seed);
    let n = g.num_vertices();
    let x = uniform(&mut rng, n, 5, -1.0, 1.0);
    let model = Model::gcn(&mut rng, &[5, 6, 4], agg);
    InkStream::new(model, g, x, UpdateConfig::default()).unwrap()
}

/// 30 rounds of mixed updates on three topology families, verified every
/// few rounds — the long-haul soak the examples run in miniature.
#[test]
fn long_stream_across_topologies() {
    let mut rng = seeded_rng(100);
    let graphs: Vec<(&str, DynGraph)> = vec![
        ("barabasi-albert", barabasi_albert(&mut rng, 150, 3)),
        ("rmat", rmat(&mut rng, 150, 900, RmatParams::default())),
        ("watts-strogatz", watts_strogatz(&mut rng, 150, 4, 0.2)),
    ];
    for (name, g) in graphs {
        let mut engine = engine_on(g, 101, Aggregator::Max);
        let mut drng = StdRng::seed_from_u64(102);
        for round in 0..30 {
            let delta = DeltaBatch::random_scenario(engine.graph(), &mut drng, 5);
            engine.apply_delta(&delta);
            if round % 5 == 4 {
                assert_eq!(
                    engine.output(),
                    &engine.recompute_reference(),
                    "{name} diverged at round {round}"
                );
            }
        }
    }
}

/// Contradictory batches: the same edge inserted twice, removed twice, and
/// an edge of a just-removed pair re-inserted in the *next* batch.
#[test]
fn contradictory_deltas_are_skipped_not_corrupting() {
    let g = barabasi_albert(&mut seeded_rng(110), 60, 3);
    let mut engine = engine_on(g, 111, Aggregator::Max);
    let (u, v) = {
        let e = engine.graph().edges();
        e[0]
    };
    // Remove the same edge twice in one batch; insert a fresh edge twice.
    let mut w = 0;
    while engine.graph().has_edge(u, w) || w == u {
        w += 1;
    }
    let report = engine.apply_delta(&DeltaBatch::new(vec![
        EdgeChange::remove(u, v),
        EdgeChange::remove(u, v),
        EdgeChange::insert(u, w),
        EdgeChange::insert(u, w),
    ]));
    assert_eq!(report.skipped_changes, 2);
    assert_eq!(engine.output(), &engine.recompute_reference());
    // Undo in the next batch.
    engine.apply_delta(&DeltaBatch::new(vec![
        EdgeChange::insert(u, v),
        EdgeChange::remove(u, w),
    ]));
    assert_eq!(engine.output(), &engine.recompute_reference());
}

/// NaN features are hostile but must not corrupt *other* nodes: NaN never
/// compares equal, so affected nodes keep propagating (the conservative
/// direction), and nodes outside the NaN node's k-hop ball stay exact.
#[test]
fn nan_feature_stays_localised() {
    let g = watts_strogatz(&mut seeded_rng(120), 80, 4, 0.1);
    let mut engine = engine_on(g, 121, Aggregator::Max);
    let victim = 7u32;
    let nan_feat = vec![f32::NAN; 5];
    engine.update_vertex_feature(victim, &nan_feat).unwrap();
    let reference = engine.recompute_reference();
    let ball = ink_graph::bfs::k_hop_out(engine.graph(), &[victim], 2);
    for u in 0..80u32 {
        if ball.binary_search(&u).is_err() {
            assert_eq!(
                engine.output().row(u as usize),
                reference.row(u as usize),
                "vertex {u} outside the NaN ball must be untouched"
            );
        }
    }
    // Recovery: overwrite with a finite feature and verify global health.
    engine.update_vertex_feature(victim, &[0.1; 5]).unwrap();
    // NaNs poison max-aggregates they reached; a recompute-all pass heals the
    // cache (NaN != NaN keeps those aggregates permanently "changed", which
    // is the conservative direction).
    let healed = engine.recompute_reference();
    let finite = healed.as_slice().iter().all(|x| x.is_finite());
    assert!(finite, "reference after recovery must be finite");
}

/// Oversized deltas through the session API: thousands of changes, split
/// into bounded batches, with the drift guard on.
#[test]
fn session_handles_bulk_rewire() {
    let g = rmat(&mut seeded_rng(130), 120, 1200, RmatParams::default());
    let engine = engine_on(g, 131, Aggregator::Max);
    let mut session = StreamSession::with_config(
        engine,
        SessionConfig {
            max_batch: 50,
            drift: DriftPolicy::full(1, 0.0),
        },
    );
    let mut drng = StdRng::seed_from_u64(132);
    let delta = DeltaBatch::random_scenario(session.engine().graph(), &mut drng, 600);
    let report = session.ingest(&delta).unwrap();
    assert_eq!(report.batches, 12);
    assert_eq!(report.verified_diff, Some(0.0));
}

/// Accumulative drift over a very long stream stays within the session
/// tolerance (sum aggregation accumulates float error by design).
#[test]
fn accumulative_drift_is_bounded_over_long_streams() {
    let g = barabasi_albert(&mut seeded_rng(140), 100, 3);
    let engine = engine_on(g, 141, Aggregator::Sum);
    let mut session = StreamSession::with_config(
        engine,
        SessionConfig {
            max_batch: 100,
            drift: DriftPolicy::full(10, 1e-2),
        },
    );
    let mut drng = StdRng::seed_from_u64(142);
    for _ in 0..50 {
        let delta = DeltaBatch::random_scenario(session.engine().graph(), &mut drng, 6);
        session.ingest(&delta).expect("drift must stay under 1e-2");
    }
    assert_eq!(Scrape::of(session.metrics()).count("ink_session_ingests_total"), 50);
}

/// A graph shrinking to empty and growing back.
#[test]
fn drain_and_refill_graph() {
    let edges: Vec<_> = (0..10u32).map(|i| (i, (i + 1) % 10)).collect();
    let g = DynGraph::undirected_from_edges(10, &edges);
    let mut engine = engine_on(g, 151, Aggregator::Max);
    // Remove every edge.
    let all = engine.graph().edges();
    engine.apply_delta(&DeltaBatch::new(
        all.iter().map(|&(u, v)| EdgeChange::remove(u, v)).collect(),
    ));
    assert_eq!(engine.graph().num_edges(), 0);
    assert_eq!(engine.output(), &engine.recompute_reference());
    // Refill with a different topology.
    let refill: Vec<EdgeChange> =
        (0..10u32).map(|i| EdgeChange::insert(i, (i + 3) % 10)).collect();
    engine.apply_delta(&DeltaBatch::new(refill));
    assert_eq!(engine.output(), &engine.recompute_reference());
}
