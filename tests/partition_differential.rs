//! Differential harness for the partitioned engine: for every model family ×
//! aggregator × partition count (1–8) × partitioner, the merged output of
//! [`PartitionedInkStream`] must stay **bitwise identical** to a single
//! [`InkStream`] fed the same update stream — edge churn, boundary
//! feature updates, vertex insertion and removal included. The partitioned
//! round replays the exact per-target event fold order of the monolithic
//! pipeline, so even accumulative aggregation (sum/mean) matches bitwise,
//! not just within tolerance.

use ink_gnn::{Aggregator, Model};
use ink_graph::generators::erdos_renyi;
use ink_graph::{DeltaBatch, DynGraph, VertexId};
use ink_partition::{GreedyEdgeCut, HashPartitioner, PartitionConfig, PartitionedInkStream};
use ink_tensor::init::{seeded_rng, uniform};
use ink_tensor::Matrix;
use inkstream::{InkStream, UpdateConfig};
use proptest::prelude::*;
use proptest::TestCaseError;
use rand::rngs::StdRng;
use rand::SeedableRng;

const AGGS: [Aggregator; 4] =
    [Aggregator::Max, Aggregator::Min, Aggregator::Sum, Aggregator::Mean];

/// Deterministic model construction: every call with the same arguments
/// yields bitwise-identical weights, which is the contract the partitioned
/// engine's model factory requires.
fn make_model(seed: u64, agg: Aggregator, model_pick: usize) -> Model {
    let mut rng = seeded_rng(seed ^ 0x6d0);
    match model_pick {
        0 => Model::gcn(&mut rng, &[4, 5, 3], agg),
        1 => Model::sage(&mut rng, &[4, 5, 3], agg),
        _ => Model::gin(&mut rng, 4, 5, 2, 0.1, agg),
    }
}

fn base_inputs(seed: u64) -> (DynGraph, Matrix) {
    let mut rng = seeded_rng(seed);
    let g = erdos_renyi(&mut rng, 30, 70);
    let x = uniform(&mut rng, 30, 4, -1.0, 1.0);
    (g, x)
}

fn build_pair(
    seed: u64,
    agg: Aggregator,
    model_pick: usize,
    parts: usize,
    greedy: bool,
) -> (InkStream, PartitionedInkStream) {
    let (g, x) = base_inputs(seed);
    let cfg = UpdateConfig::default();
    let single = InkStream::new(make_model(seed, agg, model_pick), g.clone(), x.clone(), cfg)
        .expect("single engine");
    let factory = move || make_model(seed, agg, model_pick);
    let pcfg = PartitionConfig { parts, update: cfg };
    let parted = if greedy {
        PartitionedInkStream::new(factory, g, x, GreedyEdgeCut, pcfg)
    } else {
        PartitionedInkStream::new(factory, g, x, HashPartitioner, pcfg)
    }
    .expect("partitioned engine");
    (single, parted)
}

/// A rayon pool of `threads` threads: the partitioned driver steps its
/// engines on whichever pool it is called in.
fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap()
}

/// A vertex currently replicated on at least one foreign partition, if any.
fn boundary_vertex(parted: &PartitionedInkStream) -> Option<VertexId> {
    (0..parted.graph().num_vertices() as VertexId)
        .find(|&v| !parted.replication().mirrors_of(v).is_empty())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The tentpole acceptance property: streams of random edge churn with
    /// periodic boundary-vertex feature updates keep the merged partitioned
    /// output bitwise equal to the single engine, for every aggregator,
    /// model family, partition count 1–8, both partitioners, and a 1–4
    /// thread pool (fewer threads than partitions steps several engines on
    /// one thread; one thread steps them all inline).
    #[test]
    fn partitioned_stream_is_bitwise_identical(
        seed in 0u64..500,
        rounds in 4usize..10,
        agg_pick in 0usize..4,
        model_pick in 0usize..3,
        parts in 1usize..=8,
        (greedy, threads) in (proptest::bool::ANY, 1usize..=4),
    ) {
        let agg = AGGS[agg_pick];
        let (mut single, mut parted) = build_pair(seed, agg, model_pick, parts, greedy);
        prop_assert_eq!(&parted.output(), single.output());
        pool(threads).install(|| -> Result<(), TestCaseError> {
            let mut drng = StdRng::seed_from_u64(seed ^ 0xd41f);
            let mut frng = seeded_rng(seed ^ 0x11fe);
            for round in 0..rounds {
                let delta = DeltaBatch::random_scenario(single.graph(), &mut drng, 5);
                let rs = single.apply_delta(&delta);
                let rp = parted.apply_delta(&delta);
                prop_assert_eq!(rs.skipped_changes, rp.skipped_changes);
                prop_assert_eq!(rs.output_changed, rp.output_changed);
                prop_assert_eq!(&parted.output(), single.output());
                // Every other round, poke a replicated boundary vertex's input
                // feature so mirror refreshes at layer 0 are exercised.
                if round % 2 == 1 {
                    if let Some(v) = boundary_vertex(&parted) {
                        let feat: Vec<f32> = uniform(&mut frng, 1, 4, -1.0, 1.0).row(0).to_vec();
                        single.update_vertex_feature(v, &feat).unwrap();
                        parted.update_vertex_feature(v, &feat).unwrap();
                        prop_assert_eq!(&parted.output(), single.output());
                    }
                }
            }
            // Ghost rows must mirror their owners exactly after the stream.
            prop_assert_eq!(parted.mirror_deviation(), 0.0);
            // Monotonic aggregation additionally matches full recomputation.
            if agg.is_monotonic() {
                prop_assert_eq!(&parted.output(), &single.recompute_reference());
            }
            Ok(())
        })?;
    }

    /// Boundary-vertex churn: deleting a replicated vertex (retiring its
    /// mirrors), re-adding a vertex with cross-partition edges, and updating
    /// the features of whatever boundary vertex remains — all bitwise.
    #[test]
    fn boundary_vertex_lifecycle_is_bitwise_identical(
        seed in 0u64..500,
        agg_pick in 0usize..4,
        model_pick in 0usize..3,
        parts in 2usize..=8,
        (greedy, threads) in (proptest::bool::ANY, 1usize..=4),
    ) {
        let agg = AGGS[agg_pick];
        let (mut single, mut parted) = build_pair(seed, agg, model_pick, parts, greedy);
        let Some(v) = boundary_vertex(&parted) else {
            // A split with no cut at this size is astronomically unlikely,
            // but not a correctness failure.
            return Ok(());
        };
        pool(threads).install(|| -> Result<(), TestCaseError> {
            let mirrors_before = parted.replication().mirrors_of(v).len();
            prop_assert!(mirrors_before > 0);

            // Delete the replicated vertex: every mirror must retire and the
            // outputs must track the single engine bitwise.
            single.remove_vertex(v).unwrap();
            parted.remove_vertex(v).unwrap();
            prop_assert_eq!(&parted.output(), single.output());
            prop_assert_eq!(parted.replication().mirrors_of(v).len(), 0);
            prop_assert_eq!(parted.mirror_deviation(), 0.0);

            // The isolated slot still accepts feature updates (owner-only path).
            let mut frng = seeded_rng(seed ^ 0x77);
            let feat: Vec<f32> = uniform(&mut frng, 1, 4, -1.0, 1.0).row(0).to_vec();
            single.update_vertex_feature(v, &feat).unwrap();
            parted.update_vertex_feature(v, &feat).unwrap();
            prop_assert_eq!(&parted.output(), single.output());

            // Add a vertex wired across the graph: cross-partition inserts take
            // the new-mirror seeding path.
            let neighbors: Vec<VertexId> = vec![0, 7, 14, 21];
            let (vs, _) = single.add_vertex(&feat, &neighbors).unwrap();
            let (vp, _) = parted.add_vertex(&feat, &neighbors).unwrap();
            prop_assert_eq!(vs, vp);
            prop_assert_eq!(&parted.output(), single.output());

            // And its feature can move again, through whatever mirrors it grew.
            let feat2: Vec<f32> = uniform(&mut frng, 1, 4, -1.0, 1.0).row(0).to_vec();
            single.update_vertex_feature(vs, &feat2).unwrap();
            parted.update_vertex_feature(vp, &feat2).unwrap();
            prop_assert_eq!(&parted.output(), single.output());
            prop_assert_eq!(parted.mirror_deviation(), 0.0);
            Ok(())
        })?;
    }
}

/// Directed graphs route to the destination owner only; the differential
/// property must hold there too.
#[test]
fn directed_partitioned_stream_is_bitwise_identical() {
    let mut rng = seeded_rng(9);
    let mut g = DynGraph::new(20, true);
    // A deterministic directed web.
    for v in 0..20u32 {
        g.insert_edge(v, (v * 7 + 3) % 20);
        g.insert_edge(v, (v * 5 + 11) % 20);
    }
    let x = uniform(&mut rng, 20, 4, -1.0, 1.0);
    for parts in [1usize, 3, 6] {
        let cfg = UpdateConfig::default();
        let mut single = InkStream::new(
            make_model(77, Aggregator::Sum, 0),
            g.clone(),
            x.clone(),
            cfg,
        )
        .unwrap();
        let mut parted = PartitionedInkStream::new(
            || make_model(77, Aggregator::Sum, 0),
            g.clone(),
            x.clone(),
            GreedyEdgeCut,
            PartitionConfig { parts, update: cfg },
        )
        .unwrap();
        let mut drng = StdRng::seed_from_u64(123);
        for round in 0..6 {
            let delta = DeltaBatch::random_scenario(single.graph(), &mut drng, 4);
            single.apply_delta(&delta);
            parted.apply_delta(&delta);
            assert_eq!(&parted.output(), single.output(), "parts={parts} round={round}");
        }
    }
}
