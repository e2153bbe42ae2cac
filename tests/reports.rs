//! Observability contract tests: the UpdateReport fields the bench harness
//! and Fig. 8 depend on must mean what they say.

use ink_graph::bfs::theoretical_affected_area;
use ink_graph::generators::erdos_renyi;
use ink_graph::{DeltaBatch, EdgeChange, VertexId};
use ink_gnn::{Aggregator, Model};
use ink_tensor::init::{seeded_rng, uniform};
use inkstream::{Condition, InkStream, UpdateConfig};
use rand::SeedableRng;

fn engine(seed: u64, agg: Aggregator) -> InkStream {
    let mut rng = seeded_rng(seed);
    let g = erdos_renyi(&mut rng, 60, 150);
    let x = uniform(&mut rng, 60, 5, -1.0, 1.0);
    let model = Model::gcn(&mut rng, &[5, 6, 4], agg);
    InkStream::new(model, g, x, UpdateConfig::default()).unwrap()
}

#[test]
fn per_node_conditions_cover_all_processed_targets() {
    let mut e = engine(1, Aggregator::Max);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let delta = DeltaBatch::random_scenario(e.graph(), &mut rng, 10);
    let report = e.apply_delta(&delta);
    let c = report.conditions();
    // Every monotonic target processed in some layer appears in the map
    // (the map keeps the worst condition, so its size is distinct targets).
    assert!(report.per_node_condition.len() as u64 <= c.total());
    assert!(!report.per_node_condition.is_empty());
    // Worst-condition ordering is respected.
    for cond in report.per_node_condition.values() {
        let _ = cond.severity(); // severity is total on the enum
    }
    assert!(Condition::ExposedReset.severity() > Condition::Resilient.severity());
}

#[test]
fn processed_targets_stay_inside_theoretical_area() {
    let mut e = engine(3, Aggregator::Max);
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let delta = DeltaBatch::random_scenario(e.graph(), &mut rng, 6);
    let report = e.apply_delta(&delta);
    let area = theoretical_affected_area(e.graph(), &delta, 2);
    for &v in report.per_node_condition.keys() {
        assert!(
            area.binary_search(&v).is_ok(),
            "vertex {v} was processed outside the theoretical affected area"
        );
    }
}

#[test]
fn real_affected_bounded_by_theoretical_area() {
    for agg in [Aggregator::Max, Aggregator::Mean] {
        let mut e = engine(5, agg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let delta = DeltaBatch::random_scenario(e.graph(), &mut rng, 8);
        let report = e.apply_delta(&delta);
        let area = theoretical_affected_area(e.graph(), &delta, 2).len() as u64;
        assert!(
            report.real_affected <= area,
            "{agg:?}: real {} > theoretical {area}",
            report.real_affected
        );
        assert!(report.output_changed <= area);
    }
}

#[test]
fn accumulative_reports_use_the_accumulative_counter() {
    let mut e = engine(7, Aggregator::Sum);
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let delta = DeltaBatch::random_scenario(e.graph(), &mut rng, 5);
    let report = e.apply_delta(&delta);
    let c = report.conditions();
    assert!(c.accumulative > 0);
    assert_eq!(c.resilient + c.no_reset + c.covered_reset + c.exposed_reset, 0);
    assert!(report.per_node_condition.is_empty(), "conditions are a monotonic concept");
}

#[test]
fn traffic_counters_are_monotone_in_delta_size() {
    let mut small_total = 0u64;
    let mut large_total = 0u64;
    for (dg, total) in [(2usize, &mut small_total), (40, &mut large_total)] {
        let mut e = engine(11, Aggregator::Max);
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let delta = DeltaBatch::random_scenario(e.graph(), &mut rng, dg);
        let report = e.apply_delta(&delta);
        *total = report.traffic();
    }
    assert!(
        large_total > small_total,
        "40 changes ({large_total}) must move more data than 2 ({small_total})"
    );
}

#[test]
fn directed_vertex_removal_reports_both_edge_directions() {
    let mut rng = seeded_rng(13);
    let mut edges = Vec::new();
    for i in 0..30u32 {
        edges.push((i, (i + 1) % 30));
        edges.push(((i + 5) % 30, i));
    }
    let g = ink_graph::DynGraph::directed_from_edges(30, &edges);
    let x = uniform(&mut rng, 30, 4, -1.0, 1.0);
    let model = Model::gcn(&mut rng, &[4, 4], Aggregator::Max);
    let mut e = InkStream::new(model, g, x, UpdateConfig::default()).unwrap();
    let v: VertexId = 3;
    let in_deg = e.graph().in_degree(v);
    let out_deg = e.graph().out_degree(v);
    assert!(in_deg > 0 && out_deg > 0);
    let report = e.remove_vertex(v).unwrap();
    assert_eq!(report.skipped_changes, 0);
    assert_eq!(e.graph().in_degree(v) + e.graph().out_degree(v), 0);
    assert_eq!(e.output(), &e.recompute_reference());
}

#[test]
fn self_insert_is_rejected_as_skipped() {
    let mut e = engine(15, Aggregator::Max);
    let report = e.apply_delta(&DeltaBatch::new(vec![EdgeChange::insert(5, 5)]));
    assert_eq!(report.skipped_changes, 1, "self-loops are not representable");
    assert_eq!(report.real_affected, 0);
}
