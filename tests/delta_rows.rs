//! Differential tests for the delta rule (DESIGN.md §3): on a layer whose
//! cached output is affine in α — the last layer of `Model::sage` with sum
//! or mean — a target whose own message and (for mean) degree did not move is
//! committed as `h += s·Σ Δm·W₁` from payloads transformed once at their
//! source, instead of going through gather→GEMM→scatter.
//!
//! The graphs are hub-shaped (a star plus random edges among the leaves), so
//! one changed hub message fans out to almost every vertex — the shape the
//! rule exists for. After every batch the default engine stays within the
//! suite's accumulative tolerance of `recompute_reference()`, and the default
//! config, the sequential 1×1 config and a 2-part [`PartitionedInkStream`]
//! agree **bitwise** with each other: the widened payloads ride the same
//! canonical reduce order as α's. The last test is the long-horizon drift
//! case: thousands of updates on an R-MAT graph, where a delta row's own
//! rounding accumulates next to α's.

use ink_gnn::{Aggregator, Conv, LayerDef, Model, SageConv};
use ink_graph::generators::rmat::{rmat, RmatParams};
use ink_graph::{DeltaBatch, DynGraph, EdgeChange, VertexId};
use ink_partition::{HashPartitioner, PartitionConfig, PartitionedInkStream};
use ink_tensor::init::{seeded_rng, uniform};
use ink_tensor::ops::max_abs_diff;
use ink_tensor::{Activation, Matrix};
use inkstream::{DriftPolicy, InkStream, UpdateConfig, UpdateReport};
use proptest::prelude::*;
use proptest::TestCaseError;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 28;
const HUB: VertexId = 0;
/// Connected to the hub and nothing else.
const PENDANT: VertexId = (N - 1) as VertexId;
const FEAT: usize = 4;
/// The accumulative tolerance of `tests/drift.rs` and `tests/properties.rs`.
const TOL: f32 = 1e-3;

/// `Model::sage` over `depth` layers (1 or 2), deterministic per seed.
fn sage(seed: u64, agg: Aggregator, depth: usize) -> Model {
    let dims: &[usize] = if depth == 1 { &[FEAT, 3] } else { &[FEAT, 6, 3] };
    Model::sage(&mut seeded_rng(seed ^ 0xde17a), dims, agg)
}

/// The same two SAGE layers with a ReLU after the last one: nothing in it is
/// affine in α.
fn sage_relu_last(seed: u64, agg: Aggregator) -> Model {
    let mut rng = seeded_rng(seed ^ 0xde17a);
    let mut layer = |i, o| LayerDef {
        conv: Box::new(SageConv::new(&mut rng, i, o, agg)) as Box<dyn Conv>,
        norm: None,
        act: Activation::Relu,
    };
    Model::new(vec![layer(FEAT, 6), layer(6, 3)])
}

/// A star on the hub plus `extra` edges among the leaves; the pendant vertex
/// keeps the hub as its only neighbor.
fn hub_graph(extra: &[(VertexId, VertexId)]) -> DynGraph {
    let mut edges: Vec<(VertexId, VertexId)> = (1..N as VertexId).map(|v| (HUB, v)).collect();
    edges.extend(extra.iter().filter(|(a, b)| a != b).copied());
    DynGraph::undirected_from_edges(N, &edges)
}

/// Delta rows and source transforms of the last layer.
fn delta_counts(r: &UpdateReport) -> (usize, usize) {
    r.per_layer.last().map_or((0, 0), |l| (l.delta_rows, l.delta_sources))
}

/// The three engines under test, stepped in lockstep.
struct Trio {
    default: InkStream,
    sequential: InkStream,
    parted: PartitionedInkStream,
}

impl Trio {
    fn new(
        make: impl Fn() -> Model + Send + Sync + 'static,
        g: DynGraph,
        x: Matrix,
        base: UpdateConfig,
    ) -> Self {
        let single = |cfg| InkStream::new(make(), g.clone(), x.clone(), cfg).unwrap();
        let (default, sequential) = (single(base), single(base.sequential()));
        let parted = PartitionedInkStream::new(
            make,
            g.clone(),
            x.clone(),
            HashPartitioner,
            PartitionConfig { parts: 2, update: base },
        )
        .unwrap();
        Self { default, sequential, parted }
    }

    /// Checks the three reports of one step and the three outputs; returns
    /// the default engine's report.
    fn settle(
        &self,
        (rd, rs, rp): (UpdateReport, UpdateReport, UpdateReport),
        what: &str,
    ) -> Result<UpdateReport, TestCaseError> {
        let counts = |r: &UpdateReport| (delta_counts(r).0, r.nodes_visited, r.output_changed);
        prop_assert!(counts(&rs) == counts(&rd), "sequential counts after {}", what);
        prop_assert!(counts(&rp) == counts(&rd), "2-part counts after {}", what);
        self.check(what)?;
        Ok(rd)
    }

    fn apply(&mut self, delta: &DeltaBatch, what: &str) -> Result<UpdateReport, TestCaseError> {
        let reports = (
            self.default.apply_delta(delta),
            self.sequential.apply_delta(delta),
            self.parted.apply_delta(delta),
        );
        self.settle(reports, what)
    }

    fn set_feature(
        &mut self,
        v: VertexId,
        feat: &[f32],
        what: &str,
    ) -> Result<UpdateReport, TestCaseError> {
        let reports = (
            self.default.update_vertex_feature(v, feat).unwrap(),
            self.sequential.update_vertex_feature(v, feat).unwrap(),
            self.parted.update_vertex_feature(v, feat).unwrap(),
        );
        self.settle(reports, what)
    }

    fn add_vertex(
        &mut self,
        feat: &[f32],
        nbrs: &[VertexId],
        what: &str,
    ) -> Result<VertexId, TestCaseError> {
        let (v, rd) = self.default.add_vertex(feat, nbrs).unwrap();
        let (_, rs) = self.sequential.add_vertex(feat, nbrs).unwrap();
        let (vp, rp) = self.parted.add_vertex(feat, nbrs).unwrap();
        prop_assert_eq!(v, vp);
        self.settle((rd, rs, rp), what)?;
        Ok(v)
    }

    fn remove_vertex(&mut self, v: VertexId, what: &str) -> Result<UpdateReport, TestCaseError> {
        let reports = (
            self.default.remove_vertex(v).unwrap(),
            self.sequential.remove_vertex(v).unwrap(),
            self.parted.remove_vertex(v).unwrap(),
        );
        self.settle(reports, what)
    }

    fn check(&self, what: &str) -> Result<(), TestCaseError> {
        let reference = self.default.recompute_reference();
        let diff = self.default.output().max_abs_diff(&reference);
        prop_assert!(diff < TOL, "default engine off by {} after {}", diff, what);
        let out = self.default.output();
        prop_assert!(self.sequential.output() == out, "sequential ≠ default after {}", what);
        prop_assert!(&self.parted.output() == out, "2-part ≠ default after {}", what);
        Ok(())
    }
}

/// A pair of leaves with no edge between them.
fn absent_leaf_edge(g: &DynGraph) -> (VertexId, VertexId) {
    (1..PENDANT)
        .flat_map(|a| (a + 1..PENDANT).map(move |b| (a, b)))
        .find(|&(a, b)| !g.has_edge(a, b))
        .expect("the leaves are not a clique")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn hub_streams_keep_three_engines_bitwise_equal(
        seed in 0u64..1000,
        use_mean in proptest::bool::ANY,
        pruning in proptest::bool::ANY,
        depth in 1usize..=2,
        extra in proptest::collection::vec((1u32..PENDANT, 1u32..PENDANT), 8..30),
    ) {
        let agg = if use_mean { Aggregator::Mean } else { Aggregator::Sum };
        let base = UpdateConfig { pruning, ..UpdateConfig::default() };
        let x = uniform(&mut seeded_rng(seed), N, FEAT, -1.0, 1.0);
        let make = move || sage(seed, agg, depth);
        let mut trio = Trio::new(make, hub_graph(&extra), x.clone(), base);
        trio.check("bootstrap")?;

        // A new leaf edge: both endpoints change degree. Under mean they need
        // the d⁻/d factor and take the full transform; under sum they may
        // not (in a 2-layer model their own message moved at layer 0).
        let (a, b) = absent_leaf_edge(trio.default.graph());
        let insert = DeltaBatch::new(vec![EdgeChange::insert(a, b)]);
        let r = trio.apply(&insert, "leaf edge inserted")?;
        match (depth, use_mean) {
            (1, true) => prop_assert_eq!(delta_counts(&r), (0, 2)),
            (1, false) => prop_assert_eq!(delta_counts(&r), (2, 2)),
            // Layer 1: a and b reach their neighborhoods, the hub included.
            _ => prop_assert!(delta_counts(&r).0 > 0),
        }

        // An insert and a remove at the same target in one batch: `t` keeps
        // its degree. With one layer its own message is untouched, so it is a
        // delta row under mean too, while `gone` and `new` are not; with two
        // layers its layer-1 message moved and it takes the full transform.
        let t = a;
        let g = trio.default.graph();
        let gone = g.in_neighbors(t).iter().copied().find(|&v| v != HUB).unwrap();
        let new = (1..PENDANT).find(|&v| v != t && !g.has_edge(v, t));
        prop_assume!(new.is_some());
        let new = new.unwrap();
        let swap = DeltaBatch::new(vec![EdgeChange::remove(gone, t), EdgeChange::insert(new, t)]);
        let r = trio.apply(&swap, "neighbor swapped at one target")?;
        if depth == 1 {
            prop_assert_eq!(delta_counts(&r), (if use_mean { 1 } else { 3 }, 4));
        } else {
            prop_assert!(delta_counts(&r).0 > 0);
        }

        // The hub's feature changes: every neighbor hears about it. With one
        // layer each of them is a delta row (own message and degree intact)
        // and the hub itself, whose self term moved, is not.
        let feat: Vec<f32> = x.row(HUB as usize).iter().map(|f| f * 0.5 + 0.25).collect();
        let r = trio.set_feature(HUB, &feat, "hub feature changed")?;
        if depth == 1 {
            let deg = trio.default.graph().in_degree(HUB);
            prop_assert_eq!(delta_counts(&r), (deg, 1));
            prop_assert_eq!(r.per_layer[0].targets, deg + 1);
        }
        trio.set_feature(HUB, x.row(HUB as usize), "hub feature restored")?;

        // The pendant vertex loses its last in-edge amid other churn, then
        // gets it back: new degree 0 (mean: α = 0 by convention, full path;
        // sum: a delta row all the same), then an empty old neighborhood.
        let mut drng = StdRng::seed_from_u64(seed ^ 0xface);
        let mut churn = |g: &DynGraph, pendant: EdgeChange| {
            let mut changes = vec![pendant];
            changes.extend(
                DeltaBatch::random_scenario(g, &mut drng, 6)
                    .changes()
                    .iter()
                    .filter(|c| c.src != PENDANT && c.dst != PENDANT)
                    .copied(),
            );
            DeltaBatch::new(changes)
        };
        let cut = churn(trio.default.graph(), EdgeChange::remove(HUB, PENDANT));
        trio.apply(&cut, "pendant cut off")?;
        prop_assert_eq!(trio.default.graph().in_degree(PENDANT), 0);
        let rejoin = churn(trio.default.graph(), EdgeChange::insert(HUB, PENDANT));
        trio.apply(&rejoin, "pendant re-attached")?;

        // Vertex insertion next to the hub and a leaf, then a leaf's removal.
        let v = trio.add_vertex(&[0.3, -0.7, 0.1, 0.9], &[HUB, 3], "vertex added")?;
        prop_assert_eq!(v as usize, N);
        let r = trio.remove_vertex(5, "leaf removed")?;
        if depth == 2 {
            prop_assert!(delta_counts(&r).0 > 0, "the hub's neighbors hear of the leaf's removal");
        }
        trio.remove_vertex(v, "added vertex removed")?;
    }
}

/// A model with an activation after its last layer is not affine in α there,
/// so it never widens a payload and takes no delta row.
#[test]
fn relu_last_takes_no_delta_rows() {
    let extra = [(1, 2), (2, 3), (4, 9), (7, 12), (12, 20), (15, 16)];
    let x = uniform(&mut seeded_rng(5), N, FEAT, -1.0, 1.0);
    for agg in [Aggregator::Sum, Aggregator::Mean] {
        let (g, full) = (hub_graph(&extra), UpdateConfig::default());
        let mut relu = Trio::new(move || sage_relu_last(5, agg), g.clone(), x.clone(), full);
        let mut plain = Trio::new(move || sage(5, agg, 2), g, x.clone(), full);
        let mut drng = StdRng::seed_from_u64(6);
        for round in 0..6 {
            let delta = DeltaBatch::random_scenario(plain.default.graph(), &mut drng, 4);
            let what = format!("{agg:?} round {round}");
            let r = relu.apply(&delta, &what).unwrap();
            assert_eq!(delta_counts(&r), (0, 0), "{what}: ReLU-last is not affine in α");
            let r = plain.apply(&delta, &what).unwrap();
            assert!(delta_counts(&r).0 > 0, "{what}: the same batch does take delta rows");
        }
    }
}

/// A star on vertex 0 over `n` vertices, plus a ring through the leaves so
/// that no leaf's neighborhood is the hub alone.
fn star_ring(n: usize) -> DynGraph {
    let mut edges: Vec<(VertexId, VertexId)> = (1..n as VertexId).map(|v| (HUB, v)).collect();
    edges.extend((1..n as VertexId).map(|v| (v, v % (n as VertexId - 1) + 1)));
    DynGraph::undirected_from_edges(n, &edges)
}

/// The counts a shard/worker split must not move: the last layer's delta
/// rows, α changes per layer, output rows changed and the traffic.
fn split_counts(r: &UpdateReport) -> (usize, Vec<usize>, u64, u64) {
    let alpha_changed = r.per_layer.iter().map(|l| l.alpha_changed).collect();
    (delta_counts(r).0, alpha_changed, r.output_changed, r.traffic())
}

/// On a delta-rule layer targets are sharded by 64-row vertex block and
/// every shard commits its delta rows in place in the blocks of α and `h`
/// it owns. Graphs smaller than one block and graphs whose last block is
/// partial, and rounds run in 1-, 2-, 4- and 16-thread pools (1–16 workers,
/// 4–64 shards, always more shards than blocks) must all agree bitwise with
/// the sequential 1×1 engine — output, α and counts — and with a 2-part
/// engine, whose traffic alone differs.
#[test]
fn block_sharding_is_bitwise_stable_for_every_split() {
    for n in [40usize, 150] {
        for (agg, depth) in [(Aggregator::Sum, 1), (Aggregator::Mean, 1), (Aggregator::Mean, 2)] {
            let ctx = format!("n={n} {agg:?} depth {depth}");
            let x = uniform(&mut seeded_rng(n as u64), n, FEAT, -1.0, 1.0);
            let g = star_ring(n);
            let make = move || sage(11, agg, depth);
            let engine = |cfg| InkStream::new(make(), g.clone(), x.clone(), cfg).unwrap();
            let base = UpdateConfig::default();
            let mut reference = engine(base.sequential());
            let mut parted = PartitionedInkStream::new(
                make,
                g.clone(),
                x.clone(),
                HashPartitioner,
                PartitionConfig { parts: 2, update: base },
            )
            .unwrap();
            let mut grid: Vec<(usize, rayon::ThreadPool, InkStream)> = [1usize, 2, 4, 16]
                .into_iter()
                .map(|t| {
                    let pool = rayon::ThreadPoolBuilder::new().num_threads(t).build().unwrap();
                    (t, pool, engine(base))
                })
                .collect();
            let mut drng = StdRng::seed_from_u64(n as u64 ^ 0xb10c);
            for round in 0..8 {
                // Every third round moves the hub's feature: with one layer
                // every neighbor of the hub, the last partial block's
                // included, is a delta row.
                let feature = round % 3 == 0;
                let delta = DeltaBatch::random_scenario(reference.graph(), &mut drng, 6);
                let feat: Vec<f32> =
                    (0..FEAT).map(|c| (round * FEAT + c) as f32 * 0.1 - 1.0).collect();
                let step = |e: &mut InkStream| {
                    if feature {
                        e.update_vertex_feature(HUB, &feat).unwrap()
                    } else {
                        e.apply_delta(&delta)
                    }
                };
                let want = step(&mut reference);
                if feature && depth == 1 {
                    let hub_nbrs = reference.graph().out_neighbors(HUB);
                    let last_block = n / 64 * 64;
                    assert!(hub_nbrs.iter().any(|&v| v as usize >= last_block), "{ctx}");
                    assert_eq!(delta_counts(&want).0, hub_nbrs.len(), "{ctx} round {round}");
                }
                for (t, pool, e) in &mut grid {
                    let r = pool.install(|| step(e));
                    let what = format!("{ctx} round {round}: {t} threads");
                    assert_eq!(split_counts(&r), split_counts(&want), "{what}");
                    assert!(e.output() == reference.output(), "{what}: output");
                    assert!(e.state().alpha == reference.state().alpha, "{what}: α");
                }
                let r = if feature {
                    parted.update_vertex_feature(HUB, &feat).unwrap()
                } else {
                    parted.apply_delta(&delta)
                };
                // Traffic aside: the parts also read the rows they mirror.
                let (d, a, o, _) = split_counts(&r);
                let (dw, aw, ow, _) = split_counts(&want);
                assert_eq!((d, a, o), (dw, aw, ow), "{ctx} round {round}: 2-part");
                let out = parted.output();
                assert!(&out == reference.output(), "{ctx} round {round}: 2-part output");
            }
        }
    }
}

/// Long-horizon drift, a small stand-in for the ≥ 1M-event soak ROADMAP
/// lists under "Break it on purpose": 2000 updates of ΔG = 8 on a
/// 2048-vertex R-MAT graph. A delta row adds one rounding of its own per
/// update to the cached `h`; the output must stay NaN-free and within 1e-5
/// (relative) of full recomputation, the spot audit — whose chain check now
/// measures that rounding — must stay inside the absolute tolerance a
/// default-policy session holds it to, and `resync()` must clear all of it.
/// Mean is held tighter: its α update rounds only the correction term, so α
/// stays within 2e-6 of the reference and the output within 2e-6 relative.
///
/// Absolute error grows with magnitude: sum over R-MAT hubs reaches |α| ≈ 226
/// here, where α's own deviation is 5.3e-4 and the chain deviation 5.3e-5;
/// mean stays at 7.2e-7 and 6.0e-7.
#[test]
fn long_horizon_drift_stays_bounded_and_resync_clears_it() {
    const UPDATES: usize = 2000;
    for agg in [Aggregator::Sum, Aggregator::Mean] {
        let mut rng = seeded_rng(77);
        let g = rmat(&mut rng, 2048, 12_000, RmatParams::default());
        let x = uniform(&mut rng, 2048, 8, -0.5, 0.5);
        let model = Model::sage(&mut rng, &[8, 16, 8], agg);
        let mut engine = InkStream::new(model, g, x, UpdateConfig::default()).unwrap();
        let mut drng = StdRng::seed_from_u64(78);
        let (mut delta_rows, mut targets) = (0usize, 0usize);
        for _ in 0..UPDATES {
            let delta = DeltaBatch::random_scenario(engine.graph(), &mut drng, 8);
            let r = engine.apply_delta(&delta);
            delta_rows += r.per_layer[1].delta_rows;
            targets += r.per_layer[1].targets;
        }
        assert!(delta_rows * 2 > targets, "{agg:?}: {delta_rows} delta rows of {targets} targets");
        assert!(!engine.state_has_nan(), "{agg:?}");

        let reference = engine.recompute_reference();
        let scale = reference.as_slice().iter().fold(1.0f32, |m, v| m.max(v.abs()));
        let rel = engine.output().max_abs_diff(&reference) / scale;
        assert!(rel <= 1e-5, "{agg:?}: relative output error {rel} after {UPDATES} updates");

        // The spot audit covers both consistency checks with one number: α
        // against its re-aggregated neighborhood and the cached `h` against
        // the transform of cached α.
        let all: Vec<VertexId> = (0..engine.graph().num_vertices() as VertexId).collect();
        let audit = engine.audit_vertices(&all);
        let tolerance = DriftPolicy::default().tolerance;
        assert!(audit <= tolerance, "{agg:?}: worst spot-audit deviation {audit}");
        // The chain part alone is what delta rows add (a fully transformed
        // row has none): held to the same tolerance, and part of the audit.
        let (state, model) = (engine.state(), engine.model());
        let last = model.num_layers() - 1;
        let chain = all.iter().fold(0.0f32, |worst, &v| {
            let (alpha, m) = (state.alpha[last].row(v as usize), state.m[last].row(v as usize));
            let h = model.next_hidden(last, alpha, m, engine.graph().in_degree(v));
            worst.max(max_abs_diff(&h, engine.output().row(v as usize)))
        });
        assert!(chain > 0.0 && chain <= audit, "{agg:?}: chain deviation {chain} of {audit}");

        let alpha = state.alpha.clone();
        engine.resync();
        let alpha_dev = alpha
            .iter()
            .zip(&engine.state().alpha)
            .fold(0.0f32, |worst, (a, fresh)| worst.max(a.max_abs_diff(fresh)));
        if agg == Aggregator::Mean {
            // The unbiased mean update ends at 7.2e-7 and 6.5e-7 here, the
            // textbook `(α⁻·d⁻ + Σ)·(1/d)` at 8.1e-6 and 7.8e-6.
            assert!(alpha_dev <= 2e-6, "{agg:?}: α deviation {alpha_dev} from the reference");
            assert!(rel <= 2e-6, "{agg:?}: relative output error {rel}");
        }
        assert_eq!(engine.output(), &reference, "{agg:?}: resync restores the reference bitwise");
        assert_eq!(engine.audit_vertices(&all), 0.0, "{agg:?}: and zero deviation");
    }
}
