//! Vertex-level dynamic operations (paper §II-F): feature updates, vertex
//! insertion and deletion — each verified against a from-scratch reference.

use ink_graph::generators::erdos_renyi;
use ink_graph::{DeltaBatch, VertexId};
use ink_gnn::{Aggregator, Model};
use ink_tensor::init::{seeded_rng, uniform};
use inkstream::{InkError, InkStream, UpdateConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn engine(agg: Aggregator, model_kind: &str, seed: u64) -> InkStream {
    let mut rng = seeded_rng(seed);
    let g = erdos_renyi(&mut rng, 40, 100);
    let x = uniform(&mut rng, 40, 5, -1.0, 1.0);
    let model = match model_kind {
        "gcn" => Model::gcn(&mut rng, &[5, 6, 3], agg),
        "sage" => Model::sage(&mut rng, &[5, 6, 3], agg),
        _ => unreachable!(),
    };
    InkStream::new(model, g, x, UpdateConfig::default()).unwrap()
}

fn assert_consistent(e: &InkStream, agg: Aggregator, ctx: &str) {
    let reference = e.recompute_reference();
    if agg.is_monotonic() {
        assert_eq!(e.output(), &reference, "{ctx}");
    } else {
        let d = e.output().max_abs_diff(&reference);
        assert!(d < 1e-3, "{ctx}: drift {d}");
    }
}

#[test]
fn feature_update_matches_reference_max() {
    let mut e = engine(Aggregator::Max, "gcn", 1);
    let new_feat = vec![0.9, -0.5, 0.1, 0.7, -0.2];
    let report = e.update_vertex_feature(3, &new_feat).unwrap();
    assert!(report.real_affected >= 1);
    assert_eq!(e.features().row(3), new_feat.as_slice());
    assert_consistent(&e, Aggregator::Max, "feature update");
}

#[test]
fn feature_update_matches_reference_mean_sage() {
    let mut e = engine(Aggregator::Mean, "sage", 2);
    let report = e.update_vertex_feature(7, &[0.0, 0.0, 0.0, 0.0, 1.0]).unwrap();
    // SAGE is self-dependent: the updated vertex itself must be affected.
    assert!(report.output_changed >= 1);
    assert_consistent(&e, Aggregator::Mean, "sage feature update");
}

#[test]
fn identical_feature_update_is_fully_pruned() {
    let mut e = engine(Aggregator::Max, "gcn", 3);
    let same = e.features().row(5).to_vec();
    let report = e.update_vertex_feature(5, &same).unwrap();
    assert_eq!(report.real_affected, 0, "no message change → nothing to do");
    assert_eq!(report.output_changed, 0);
}

#[test]
fn feature_update_rejects_bad_inputs() {
    let mut e = engine(Aggregator::Max, "gcn", 4);
    assert!(matches!(
        e.update_vertex_feature(999, &[0.0; 5]),
        Err(InkError::UnknownVertex(999))
    ));
    assert!(matches!(
        e.update_vertex_feature(0, &[0.0; 3]),
        Err(InkError::ShapeMismatch { .. })
    ));
}

#[test]
fn add_vertex_with_edges_matches_reference() {
    for (agg, kind) in [(Aggregator::Max, "gcn"), (Aggregator::Mean, "sage")] {
        let mut e = engine(agg, kind, 5);
        let n_before = e.graph().num_vertices();
        let (v, report) = e.add_vertex(&[0.5, -0.5, 0.25, 0.0, 1.0], &[0, 1, 2]).unwrap();
        assert_eq!(v as usize, n_before);
        assert_eq!(e.graph().num_vertices(), n_before + 1);
        assert_eq!(e.graph().in_degree(v), 3);
        assert_eq!(e.output().rows(), n_before + 1);
        assert!(report.real_affected > 0);
        assert_consistent(&e, agg, &format!("add_vertex {kind}"));
    }
}

#[test]
fn add_isolated_vertex_is_self_consistent() {
    let mut e = engine(Aggregator::Max, "gcn", 6);
    let (v, _) = e.add_vertex(&[1.0, 1.0, 1.0, 1.0, 1.0], &[]).unwrap();
    assert_eq!(e.graph().in_degree(v), 0);
    assert_consistent(&e, Aggregator::Max, "isolated vertex");
}

#[test]
fn add_vertex_then_connect_later() {
    let mut e = engine(Aggregator::Max, "gcn", 7);
    let (v, _) = e.add_vertex(&[0.1, 0.2, 0.3, 0.4, 0.5], &[]).unwrap();
    // Connecting the isolated vertex afterwards exercises the old-degree-0
    // recompute path.
    e.apply_delta(&DeltaBatch::new(vec![ink_graph::EdgeChange::insert(v, 0)]));
    assert_consistent(&e, Aggregator::Max, "late connect");
}

#[test]
fn remove_vertex_isolates_and_matches_reference() {
    for (agg, kind) in [(Aggregator::Max, "gcn"), (Aggregator::Sum, "gcn")] {
        let mut e = engine(agg, kind, 8);
        let hub: VertexId =
            (0..40u32).max_by_key(|&u| e.graph().in_degree(u)).unwrap();
        let report = e.remove_vertex(hub).unwrap();
        assert_eq!(e.graph().in_degree(hub), 0);
        assert_eq!(e.graph().out_degree(hub), 0);
        assert!(report.real_affected > 0);
        assert_consistent(&e, agg, &format!("remove_vertex {agg:?}"));
    }
}

#[test]
fn remove_unknown_vertex_errors() {
    let mut e = engine(Aggregator::Max, "gcn", 9);
    assert!(matches!(e.remove_vertex(1000), Err(InkError::UnknownVertex(1000))));
}

#[test]
fn vertex_churn_stays_consistent() {
    // A realistic mixed stream: add, update, rewire, remove.
    let mut e = engine(Aggregator::Max, "gcn", 10);
    let mut rng = StdRng::seed_from_u64(11);
    let (v1, _) = e.add_vertex(&[0.3; 5], &[1, 2]).unwrap();
    e.update_vertex_feature(v1, &[-0.3; 5]).unwrap();
    let delta = DeltaBatch::random_scenario(e.graph(), &mut rng, 8);
    e.apply_delta(&delta);
    e.remove_vertex(2).unwrap();
    let (_v2, _) = e.add_vertex(&[0.9; 5], &[v1]).unwrap();
    assert_consistent(&e, Aggregator::Max, "churn");
}

/// Two feature updates of one vertex in one stepped round: the last one wins,
/// and the round propagates from the vertex's pre-round message, not from the
/// first update's.
#[test]
fn repeated_feature_update_in_one_round_keeps_the_pre_round_message() {
    for agg in [Aggregator::Max, Aggregator::Sum] {
        for seed in [2, 5, 13] {
            let mut e = engine(agg, "gcn", seed);
            let a = vec![0.9, -0.5, 0.1, 0.7, -0.2];
            let b = vec![-0.8, 0.6, -0.4, 0.3, 0.5];
            let updates = [(3, a), (3, b.clone())];
            e.round_begin(&DeltaBatch::default(), &updates).unwrap();
            for l in 0..e.model().num_layers() {
                e.round_rescale(l);
                e.round_process(l);
            }
            let report = e.round_finish();
            assert!(report.real_affected >= 1);
            assert_eq!(e.features().row(3), b.as_slice());
            let ctx = format!("{agg:?} seed {seed}");
            let reference = e.recompute_reference();
            if agg.is_monotonic() {
                assert_eq!(e.output(), &reference, "{ctx}");
            } else {
                let d = e.output().max_abs_diff(&reference);
                assert!(d < 1e-4, "{ctx}: drift {d}");
            }
        }
    }
}
