//! Routing-algebra and boundary-propagation tests for the partitioned engine.
//!
//! The key algebraic property: [`DeltaRouter::route`] commutes with
//! [`DeltaBatch::coalesce`]. Routing is an order-preserving partition of the
//! change stream keyed only on edge endpoints, and coalescing is
//! last-write-wins per canonical edge placed at first occurrence — so
//! coalescing before or after routing must produce identical per-partition
//! batches. The engine relies on this: it routes the raw batch and lets each
//! engine coalesce locally, which must match a globally coalesced stream.

use ink_gnn::{Aggregator, Model};
use ink_graph::generators::erdos_renyi;
use ink_graph::{DeltaBatch, DynGraph, EdgeChange, VertexId};
use ink_partition::{DeltaRouter, HashPartitioner, PartitionConfig, PartitionedInkStream};
use ink_tensor::init::{seeded_rng, uniform};
use inkstream::{InkStream, UpdateConfig};
use proptest::prelude::*;

/// Builds a change list from raw tuples, allowing duplicate and conflicting
/// entries for the same edge (that is the point — coalescing must resolve
/// them identically on both sides).
fn to_changes(raw: &[(u8, u8, bool)], n: u32) -> Vec<EdgeChange> {
    raw.iter()
        .filter_map(|&(u, v, ins)| {
            let (u, v) = (u as u32 % n, v as u32 % n);
            if u == v {
                return None; // self loops are rejected upstream
            }
            Some(if ins { EdgeChange::insert(u, v) } else { EdgeChange::remove(u, v) })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Satellite property: `route(coalesce(b))[p] == coalesce(route(b)[p])`
    /// for every partition, on directed and undirected interpretations alike.
    #[test]
    fn route_commutes_with_coalesce(
        raw in proptest::collection::vec((0u8..20, 0u8..20, proptest::bool::ANY), 0..40),
        labels in proptest::collection::vec(0u32..4, 20),
        directed in proptest::bool::ANY,
    ) {
        let n = 20u32;
        let batch = DeltaBatch::new(to_changes(&raw, n));
        let router = DeltaRouter::new(labels, 4, directed);

        let coalesce_then_route = router.route(&batch.coalesce(directed));
        let route_then_coalesce: Vec<DeltaBatch> =
            router.route(&batch).iter().map(|b| b.coalesce(directed)).collect();

        prop_assert_eq!(coalesce_then_route.len(), route_then_coalesce.len());
        for (a, b) in coalesce_then_route.iter().zip(route_then_coalesce.iter()) {
            prop_assert_eq!(a.changes(), b.changes());
        }
    }

    /// Routing never loses or invents changes: each change appears on
    /// exactly the partitions that own an endpoint needing it, in stream
    /// order.
    #[test]
    fn route_is_an_order_preserving_cover(
        raw in proptest::collection::vec((0u8..20, 0u8..20, proptest::bool::ANY), 0..30),
        labels in proptest::collection::vec(0u32..3, 20),
        directed in proptest::bool::ANY,
    ) {
        let batch = DeltaBatch::new(to_changes(&raw, 20));
        let router = DeltaRouter::new(labels.clone(), 3, directed);
        let routed = router.route(&batch);

        // Cover: rebuild each partition's expected subsequence directly.
        for (p, routed_p) in routed.iter().enumerate() {
            let expect: Vec<EdgeChange> = batch
                .changes()
                .iter()
                .copied()
                .filter(|c| {
                    let (a, b) = router.route_change(c);
                    a == p as u32 || b == Some(p as u32)
                })
                .collect();
            prop_assert_eq!(routed_p.changes(), &expect[..]);
        }

        // Multiplicity: directed changes land once; undirected cross-cut
        // changes land exactly twice.
        let total: usize = routed.iter().map(|b| b.changes().len()).sum();
        let expected: usize = batch
            .changes()
            .iter()
            .map(|c| {
                let (a, b) = router.route_change(c);
                1 + usize::from(b.is_some() && b != Some(a))
            })
            .sum();
        prop_assert_eq!(total, expected);
    }
}

fn fixture(parts: usize) -> (InkStream, PartitionedInkStream) {
    let mut rng = seeded_rng(11);
    let g = erdos_renyi(&mut rng, 18, 40);
    let x = uniform(&mut rng, 18, 4, -1.0, 1.0);
    let model = |seed: u64| {
        let mut mr = seeded_rng(seed);
        Model::gcn(&mut mr, &[4, 5, 3], Aggregator::Mean)
    };
    let cfg = UpdateConfig::default();
    let single = InkStream::new(model(3), g.clone(), x.clone(), cfg).unwrap();
    let parted = PartitionedInkStream::new(
        move || model(3),
        g,
        x,
        HashPartitioner,
        PartitionConfig { parts, update: cfg },
    )
    .unwrap();
    (single, parted)
}

/// Every ghost copy of `v` must hold exactly the owner's cached message rows
/// at every layer.
fn assert_mirrors_in_sync(parted: &PartitionedInkStream, v: VertexId) {
    let engines = parted.engines();
    let owner = engines
        .iter()
        .position(|e| e.owns(v))
        .expect("some engine owns every vertex");
    let layers = engines[owner].model().num_layers();
    for q in parted.replication().mirrors_of(v) {
        for l in 0..layers {
            assert_eq!(
                engines[owner].state().m[l].row(v as usize),
                engines[q as usize].state().m[l].row(v as usize),
                "mirror p{q} of v{v} diverged from owner p{owner} at layer {l}"
            );
        }
    }
}

/// Feature update on a replicated boundary vertex: the new layer-0 message
/// must land on every mirror, bitwise, and the merged output must track the
/// single engine.
#[test]
fn boundary_feature_update_reaches_every_mirror() {
    let (mut single, mut parted) = fixture(4);
    let v = (0..18u32)
        .max_by_key(|&v| parted.replication().mirrors_of(v).len())
        .unwrap();
    let mirrors = parted.replication().mirrors_of(v);
    assert!(!mirrors.is_empty(), "fixture must have a replicated vertex");

    let feat = vec![0.9, -0.8, 0.7, -0.6];
    single.update_vertex_feature(v, &feat).unwrap();
    parted.update_vertex_feature(v, &feat).unwrap();

    assert_mirrors_in_sync(&parted, v);
    assert_eq!(&parted.output(), single.output());
    assert_eq!(parted.mirror_deviation(), 0.0);
}

/// Deleting a replicated boundary vertex: the removal events fan out to all
/// partitions holding its cut edges, every mirror retires, and no stale ghost
/// state leaks into the merged output.
#[test]
fn boundary_vertex_delete_reaches_every_mirror() {
    let (mut single, mut parted) = fixture(4);
    let v = (0..18u32)
        .max_by_key(|&v| parted.replication().mirrors_of(v).len())
        .unwrap();
    assert!(!parted.replication().mirrors_of(v).is_empty());

    single.remove_vertex(v).unwrap();
    parted.remove_vertex(v).unwrap();

    assert!(parted.replication().mirrors_of(v).is_empty(), "mirrors must retire");
    assert_eq!(&parted.output(), single.output());
    assert_eq!(parted.mirror_deviation(), 0.0);

    // Neighbours that were themselves replicated must also stay in sync.
    for u in 0..18u32 {
        assert_mirrors_in_sync(&parted, u);
    }
}

/// A cut edge removed and re-inserted in the same batch must keep the mirror
/// alive (refcount dip to zero and back) with correct rows — the
/// dropped-mirror refresh rule.
#[test]
fn same_batch_cut_edge_flip_keeps_mirrors_consistent() {
    let (mut single, mut parted) = fixture(3);
    // Find an existing cut edge.
    let cut = parted
        .graph()
        .edges()
        .into_iter()
        .find(|&(u, w)| {
            let e = parted.engines();
            let pu = e.iter().position(|en| en.owns(u));
            let pw = e.iter().position(|en| en.owns(w));
            pu != pw
        })
        .expect("fixture must have a cut edge");
    let delta = DeltaBatch::new(vec![
        EdgeChange::remove(cut.0, cut.1),
        EdgeChange::insert(cut.0, cut.1),
    ]);
    let rs = single.apply_delta(&delta);
    let rp = parted.apply_delta(&delta);
    assert_eq!(rs.skipped_changes, rp.skipped_changes);
    assert_eq!(&parted.output(), single.output());
    assert_eq!(parted.mirror_deviation(), 0.0);
    assert_mirrors_in_sync(&parted, cut.0);
    assert_mirrors_in_sync(&parted, cut.1);
}

/// Directed routing sends a change to the destination's owner only — the
/// source owner must not see it unless it owns the destination too.
#[test]
fn directed_routing_targets_destination_owner() {
    let g = DynGraph::directed_from_edges(6, &[(0, 3), (3, 0)]);
    let labels: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 2).collect();
    let router = DeltaRouter::new(labels, 2, true);
    let batch = DeltaBatch::new(vec![EdgeChange::insert(0, 3), EdgeChange::insert(3, 2)]);
    let routed = router.route(&batch);
    // 0→3 lands on owner(3) = partition 1; 3→2 on owner(2) = partition 0.
    assert_eq!(routed[1].changes(), &[EdgeChange::insert(0, 3)]);
    assert_eq!(routed[0].changes(), &[EdgeChange::insert(3, 2)]);
}
