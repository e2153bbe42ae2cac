//! Equivalence and steady-state properties of the batched
//! gather→GEMM→scatter transform (the engine's next-messages phase).
//!
//! * For every conv family × aggregator × worker/shard split, an engine with
//!   the batched transform produces bitwise-identical state to the per-node
//!   engine. This is exact, not approximate: the GEMM kernel accumulates
//!   every output element in the same k order as the per-node `vecmul`, and
//!   tiling/parallelism only change which elements compute together, never
//!   the addition order within one element.
//! * The same holds for the batched *apply-phase* recomputation: gathering
//!   deferred targets' neighborhoods into panels and folding them with the
//!   row-panel aggregator kernels replays the exact per-target reduction
//!   order, so the batched engine also runs with `apply_batch_threshold: 1`
//!   here. The reference engine pins both scalar paths with
//!   `batch_threshold` / `apply_batch_threshold` = `usize::MAX`.
//! * At the shipped default thresholds the size-based selection takes the
//!   scalar side on a small round and the batched side on a large one.
//! * Repeated recompute epochs (`resync`) on a hook-free engine reuse the
//!   cached matrices and pooled temporaries — reserved bytes stay flat.

use ink_graph::{DeltaBatch, DynGraph};
use ink_gnn::{Aggregator, Model};
use ink_tensor::init::{seeded_rng, uniform};
use inkstream::{InkStream, UpdateConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random undirected graph as (n, edge list).
fn arb_graph(max_n: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (8..max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 10..60);
        (Just(n), edges)
    })
}

/// One model per conv family, all depth-2 so inter-layer messages exercise
/// the batched next-layer message GEMM too.
fn model_for(kind: u8, rng: &mut StdRng, agg: Aggregator) -> Model {
    match kind % 3 {
        0 => Model::gcn(rng, &[4, 6, 3], agg),
        1 => Model::sage(rng, &[4, 6, 3], agg),
        _ => Model::gin(rng, 4, 6, 3, 0.2, agg),
    }
}

/// The bitwise oracle: thresholds no round can reach, so both phases stay on
/// their scalar per-node / per-target paths.
fn scalar() -> UpdateConfig {
    UpdateConfig {
        batch_threshold: usize::MAX,
        apply_batch_threshold: usize::MAX,
        ..UpdateConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Batched engine == per-node engine, bitwise, across GCN/SAGE/GIN ×
    /// all four aggregators × arbitrary worker/shard splits.
    #[test]
    fn batched_transform_matches_per_node_bitwise(
        (n, raw_edges) in arb_graph(24),
        seed in 0u64..1000,
        combo in 0usize..12,
        (workers, shards) in (1usize..5, 1usize..9),
        delta_size in 1usize..8,
    ) {
        // 12 combos = 3 conv families × 4 aggregators.
        let kind = (combo / 4) as u8;
        let agg =
            [Aggregator::Max, Aggregator::Min, Aggregator::Sum, Aggregator::Mean][combo % 4];
        let g = DynGraph::undirected_from_edges(n, &raw_edges);
        prop_assume!(g.num_edges() > 2);
        let make = |cfg: UpdateConfig| {
            let mut rng = seeded_rng(seed);
            let x = uniform(&mut rng, n, 4, -1.0, 1.0);
            let model = model_for(kind, &mut rng, agg);
            InkStream::new(model, g.clone(), x, cfg).unwrap()
        };
        let mut per_node = make(scalar());
        let mut batched = make(UpdateConfig {
            batch_threshold: 1,
            apply_batch_threshold: 1,
            num_workers: workers,
            num_shards: shards,
            parallel_threshold: 0,
            ..UpdateConfig::default()
        });
        // Both engines bootstrap to the same state by construction.
        prop_assert_eq!(per_node.output(), batched.output());
        let mut drng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let delta = DeltaBatch::random_scenario(per_node.graph(), &mut drng, delta_size);
        let rp = per_node.apply_delta(&delta);
        let rb = batched.apply_delta(&delta);
        prop_assert_eq!(rp.batched_rows(), 0);
        prop_assert_eq!(rp.gemm_flops, 0);
        // The scalar reference must not fold panels in the apply phase either.
        prop_assert_eq!(rp.batched_apply_rows(), 0);
        prop_assert_eq!(batched.output(), per_node.output());
        for l in 0..per_node.model().num_layers() {
            prop_assert_eq!(&batched.state().m[l], &per_node.state().m[l]);
            prop_assert_eq!(&batched.state().alpha[l], &per_node.state().alpha[l]);
        }
        // With threshold 1, any visited target means the batched path ran.
        if rb.nodes_visited > 0 {
            prop_assert!(rb.batched_rows() > 0, "threshold 1 must engage the batched path");
        }
    }
}

/// `UpdateConfig::default()` picks scalar vs batched from the observed round
/// size alone: a round below both shipped thresholds batches nothing, a round
/// at/above them batches in both phases, and either way the state is
/// bitwise-equal to the scalar oracle's.
#[test]
fn default_thresholds_select_scalar_below_and_batched_above() {
    let cfg = UpdateConfig::default();
    // Every `(0, v)` insert below lands on a so-far isolated `v`, whose empty
    // old neighborhood defers it to the recompute pass. Targets hash into
    // `shard_count()` shards, so this many of them put at least
    // `apply_batch_threshold` into one shard whatever the machine's fan-out.
    let big = (cfg.apply_batch_threshold - 1) * cfg.shard_count() + 1;
    assert!(big >= cfg.batch_threshold);
    // A 3-vertex path plus isolated vertices 3..n.
    let n = 4 + big;
    let g = DynGraph::undirected_from_edges(n, &[(0, 1), (1, 2)]);
    let make = |cfg: UpdateConfig| {
        let mut rng = seeded_rng(5);
        let x = uniform(&mut rng, n, 4, -1.0, 1.0);
        let model = Model::gcn(&mut rng, &[4, 6, 3], Aggregator::Max);
        InkStream::new(model, g.clone(), x, cfg).unwrap()
    };
    let (mut default, mut oracle) = (make(cfg), make(scalar()));
    let attach = |vs: std::ops::Range<usize>| {
        DeltaBatch::new(vs.map(|v| ink_graph::EdgeChange::insert(0, v as u32)).collect())
    };

    let small = attach(3..4);
    let (rd, ro) = (default.apply_delta(&small), oracle.apply_delta(&small));
    assert!(rd.nodes_visited > 0);
    assert_eq!((rd.batched_rows(), rd.batched_apply_rows()), (0, 0), "below both thresholds");
    assert_eq!((ro.batched_rows(), ro.batched_apply_rows()), (0, 0));
    assert_eq!(default.output(), oracle.output());

    let large = attach(4..n);
    let (rd, ro) = (default.apply_delta(&large), oracle.apply_delta(&large));
    assert!(rd.batched_rows() > 0, "at/above batch_threshold the GEMM path must engage");
    assert!(rd.batched_apply_rows() > 0, "at/above apply_batch_threshold panels must fold");
    assert_eq!((ro.batched_rows(), ro.batched_apply_rows()), (0, 0));
    assert_eq!(default.output(), oracle.output());
    for l in 0..default.model().num_layers() {
        assert_eq!(default.state().m[l], oracle.state().m[l]);
        assert_eq!(default.state().alpha[l], oracle.state().alpha[l]);
    }
}

/// A recompute epoch (`resync`) on a warm hook-free engine reuses every
/// cached matrix and pooled temporary: reserved bytes stay flat while the
/// state is rebuilt bitwise-equal to the reference.
#[test]
fn recompute_epoch_is_allocation_free_once_warm() {
    let mut rng = seeded_rng(77);
    let g = ink_graph::generators::erdos_renyi(&mut rng, 64, 180);
    let x = uniform(&mut rng, 64, 6, -1.0, 1.0);
    let model = Model::sage(&mut rng, &[6, 8, 4], Aggregator::Mean);
    let mut engine = InkStream::new(model, g, x, UpdateConfig::default()).unwrap();
    // Warm the pools with an update round and one in-place epoch.
    let mut drng = StdRng::seed_from_u64(99);
    let delta = DeltaBatch::random_scenario(engine.graph(), &mut drng, 6);
    engine.apply_delta(&delta);
    engine.resync();
    let warm = engine.state().reserved_bytes() + engine.scratch_bytes();
    assert!(warm > 0);
    for _ in 0..4 {
        let r = engine.resync();
        assert!(r.f32_written > 0);
        assert_eq!(engine.output(), &engine.recompute_reference());
    }
    assert_eq!(
        engine.state().reserved_bytes() + engine.scratch_bytes(),
        warm,
        "steady-state recompute epochs must not allocate"
    );
}
