//! Equivalence and steady-state properties of the batched
//! gather→GEMM→scatter transform (the engine's next-messages phase).
//!
//! * For every conv family × aggregator × thread count, an engine with the
//!   batched transform produces bitwise-identical state to the per-node
//!   engine. This is exact, not approximate: the GEMM kernel accumulates
//!   every output element in the same k order as the per-node `vecmul`, and
//!   tiling/parallelism only change which elements compute together, never
//!   the addition order within one element. The reference engine is the
//!   `sequential()` oracle, which never runs the batched transform.
//! * Both engines rebuild a monotonic empty-old target's whole α the one
//!   way the apply phase has, the reference fold over its in-neighbors, so
//!   the attached isolated vertices fold the same rows on both sides.
//! * At the shipped defaults the size-based selection takes the per-node
//!   transform on a small round and the batched one on a large one, and the
//!   `sequential()` oracle stays per-node however large the round.
//! * Repeated recompute epochs (`resync`) on an engine reuse the
//!   cached matrices and pooled temporaries — reserved bytes stay flat.

use ink_graph::{DeltaBatch, DynGraph};
use ink_gnn::{Aggregator, Model};
use ink_tensor::init::{seeded_rng, uniform};
use inkstream::config::BATCH_MIN_TARGETS;
use inkstream::{InkStream, UpdateConfig, UpdateReport};
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

/// The bitwise oracle: the sequential engine (one worker, one shard, no
/// threads, per-node transform).
fn scalar() -> UpdateConfig {
    UpdateConfig::default().sequential()
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap()
}

/// `(0, v)` inserts for every `v` in `vs`: each lands on a so-far isolated
/// vertex, whose α changes and whose output needs a rebuild.
fn attach(vs: std::ops::Range<usize>) -> Vec<ink_graph::EdgeChange> {
    vs.map(|v| ink_graph::EdgeChange::insert(0, v as u32)).collect()
}

/// Asserts the round ran the per-node transform: no GEMM, no batched row.
fn assert_scalar(r: &UpdateReport) {
    assert_eq!((r.gemm_flops, r.batched_rows()), (0, 0));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Batched engine == per-node engine, bitwise, across GCN/SAGE/GIN ×
    /// all four aggregators × 1–4 thread pools. Every round attaches
    /// `BATCH_MIN_TARGETS` isolated vertices on top of the random delta, so
    /// the batched path runs on every case.
    #[test]
    fn batched_transform_matches_per_node_bitwise(
        (n, raw_edges) in arb_graph(24),
        seed in 0u64..1000,
        combo in 0usize..12,
        threads in 1usize..5,
        delta_size in 1usize..8,
    ) {
        // 12 combos = 3 conv families × 4 aggregators.
        let kind = (combo / 4) as u8;
        let agg =
            [Aggregator::Max, Aggregator::Min, Aggregator::Sum, Aggregator::Mean][combo % 4];
        let total = n + BATCH_MIN_TARGETS;
        let g = DynGraph::undirected_from_edges(total, &raw_edges);
        prop_assume!(g.num_edges() > 2);
        let make = |cfg: UpdateConfig| {
            let mut rng = seeded_rng(seed);
            let x = uniform(&mut rng, total, 4, -1.0, 1.0);
            let model = model_for(kind, &mut rng, agg);
            InkStream::new(model, g.clone(), x, cfg).unwrap()
        };
        let mut per_node = make(scalar());
        let mut batched = make(UpdateConfig::default());
        // Both engines bootstrap to the same state by construction.
        prop_assert_eq!(per_node.output(), batched.output());
        let mut drng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut changes =
            DeltaBatch::random_scenario(per_node.graph(), &mut drng, delta_size).changes().to_vec();
        changes.extend(attach(n..total));
        let delta = DeltaBatch::new(changes);
        let rp = per_node.apply_delta(&delta);
        let rb = pool(threads).install(|| batched.apply_delta(&delta));
        // The scalar reference runs no GEMM.
        assert_scalar(&rp);
        prop_assert_eq!(batched.output(), per_node.output());
        for l in 0..per_node.model().num_layers() {
            prop_assert_eq!(&batched.state().m[l], &per_node.state().m[l]);
            prop_assert_eq!(&batched.state().alpha[l], &per_node.state().alpha[l]);
        }
        prop_assert!(
            rb.batched_rows() >= BATCH_MIN_TARGETS,
            "the attached vertices must engage the batched path"
        );
    }
}

/// `UpdateConfig::default()` picks the per-node or the batched transform
/// from the observed round size alone: a round below the shipped cutoffs
/// batches no transform, a round at/above them does, and either way the
/// state is bitwise-equal to the scalar oracle's. Empty-old targets are
/// rebuilt whole at every size, on both engines: a single one is enough.
#[test]
fn default_thresholds_select_scalar_below_and_batched_above() {
    let cfg = UpdateConfig::default();
    // Every `(0, v)` insert below lands on a so-far isolated `v`, whose
    // empty old neighborhood has it rebuilt whole.
    let threads = 4;
    let big = 16 * BATCH_MIN_TARGETS;
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
    let pool = pool(threads);

    let small = DeltaBatch::new(attach(3..4));
    let (rd, ro) = (pool.install(|| default.apply_delta(&small)), oracle.apply_delta(&small));
    assert!(rd.nodes_visited > 0);
    assert_eq!(rd.batched_rows(), 0, "below the cutoffs");
    for r in [&rd, &ro] {
        assert!(r.batched_apply_rows() > 0, "one empty-old target folds its neighborhood");
    }
    assert_scalar(&ro);
    assert_eq!(default.output(), oracle.output());

    let large = DeltaBatch::new(attach(4..n));
    let (rd, ro) = (pool.install(|| default.apply_delta(&large)), oracle.apply_delta(&large));
    assert!(rd.batched_rows() > 0, "at/above BATCH_MIN_TARGETS the GEMM path must engage");
    assert_eq!(rd.batched_apply_rows(), ro.batched_apply_rows(), "the same folded rows");
    assert_scalar(&ro);
    assert_eq!(default.output(), oracle.output());
    for l in 0..default.model().num_layers() {
        assert_eq!(default.state().m[l], oracle.state().m[l]);
        assert_eq!(default.state().alpha[l], oracle.state().alpha[l]);
    }
}

/// `sequential()` is the scalar oracle: however far a round's next-target
/// count clears `BATCH_MIN_TARGETS`, it runs the per-node transform — no
/// GEMM, no batched row — and lands bitwise where the default engine's
/// batched transform does.
#[test]
fn sequential_oracle_never_batches() {
    let n = 3 + 16 * BATCH_MIN_TARGETS;
    let g = DynGraph::undirected_from_edges(n, &[(0, 1), (1, 2)]);
    let make = |cfg: UpdateConfig| {
        let mut rng = seeded_rng(8);
        let x = uniform(&mut rng, n, 4, -1.0, 1.0);
        let model = Model::sage(&mut rng, &[4, 6, 3], Aggregator::Mean);
        InkStream::new(model, g.clone(), x, cfg).unwrap()
    };
    let (mut default, mut oracle) = (make(UpdateConfig::default()), make(UpdateConfig::default().sequential()));
    let delta = DeltaBatch::new(attach(3..n));
    let (rd, ro) = (default.apply_delta(&delta), oracle.apply_delta(&delta));
    assert!(rd.batched_rows() >= n - 3 && rd.gemm_flops > 0, "the default engine batches");
    assert_eq!((ro.gemm_flops, ro.batched_rows()), (0, 0), "the oracle never does");
    assert_eq!(default.output(), oracle.output());
    for l in 0..default.model().num_layers() {
        assert_eq!(default.state().m[l], oracle.state().m[l]);
        assert_eq!(default.state().alpha[l], oracle.state().alpha[l]);
    }
}

/// A recompute epoch (`resync`) on a warm engine reuses every
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
