//! Hub-shaped differential test for the per-channel exposed-reset repair.
//!
//! A hub's message holds the extreme on *some* channels of almost every
//! neighbor's aggregate, so deleting a hub edge — or changing the hub's
//! feature so its message drops on a few channels — drives exposed resets
//! that list a handful of channels, not the whole row. After every batch the
//! engine must equal full recomputation bitwise, under the default config,
//! the sequential 1×1 config and a 2-part [`PartitionedInkStream`], for
//! GCN/SAGE/GIN × max/min. The hidden width is 70 so the exposed-channel list
//! runs past 64 channels, and one vertex hangs off the hub alone so a batch
//! can take a target's last in-edge (new degree 0 after a non-empty old
//! neighborhood) and give it back (empty old neighborhood).
//!
//! The apply phase repairs a shard's exposed resets in a loop of their own
//! that fetches a later reset's rows ahead; a second test sweeps the edges of
//! that lookahead (0 to more than 3 resets per shard, consecutive resets, an
//! emptied in-list) on 1-, 2- and 4-thread pools and `sequential()`.

use ink_gnn::{Aggregator, Model};
use ink_graph::{DeltaBatch, DynGraph, EdgeChange, VertexId};
use ink_partition::{HashPartitioner, PartitionConfig, PartitionedInkStream};
use ink_tensor::init::{seeded_rng, uniform};
use ink_tensor::Matrix;
use inkstream::{InkStream, UpdateConfig};
use proptest::prelude::*;
use proptest::TestCaseError;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 28;
const HUB: VertexId = 0;
/// Connected to the hub and nothing else.
const PENDANT: VertexId = (N - 1) as VertexId;
const FEAT: usize = 4;
const HIDDEN: usize = 70;

fn make_model(seed: u64, agg: Aggregator, model_pick: usize) -> Model {
    let mut rng = seeded_rng(seed ^ 0x4b1d);
    match model_pick {
        0 => Model::gcn(&mut rng, &[FEAT, HIDDEN, 3], agg),
        1 => Model::sage(&mut rng, &[FEAT, HIDDEN, 3], agg),
        _ => Model::gin(&mut rng, FEAT, HIDDEN, 2, 0.1, agg),
    }
}

/// The three engines under test, stepped in lockstep.
struct Trio {
    default: InkStream,
    sequential: InkStream,
    parted: PartitionedInkStream,
}

impl Trio {
    fn new(seed: u64, agg: Aggregator, model_pick: usize, g: DynGraph, x: Matrix) -> Self {
        let single = |cfg| {
            InkStream::new(make_model(seed, agg, model_pick), g.clone(), x.clone(), cfg).unwrap()
        };
        let parted = PartitionedInkStream::new(
            move || make_model(seed, agg, model_pick),
            g.clone(),
            x.clone(),
            HashPartitioner,
            PartitionConfig { parts: 2, ..Default::default() },
        )
        .unwrap();
        Self {
            default: single(UpdateConfig::default()),
            sequential: single(UpdateConfig::default().sequential()),
            parted,
        }
    }

    /// Applies `delta` everywhere; returns the channels the default engine
    /// repaired. All three outputs must equal full recomputation bitwise.
    fn apply(&mut self, delta: &DeltaBatch, what: &str) -> Result<usize, TestCaseError> {
        let report = self.default.apply_delta(delta);
        self.sequential.apply_delta(delta);
        self.parted.apply_delta(delta);
        self.check(what)?;
        Ok(report.per_layer.iter().map(|l| l.exposed_channels).sum())
    }

    fn set_feature(&mut self, v: VertexId, feat: &[f32], what: &str) -> Result<(), TestCaseError> {
        self.default.update_vertex_feature(v, feat).unwrap();
        self.sequential.update_vertex_feature(v, feat).unwrap();
        self.parted.update_vertex_feature(v, feat).unwrap();
        self.check(what)
    }

    fn check(&self, what: &str) -> Result<(), TestCaseError> {
        let reference = self.default.recompute_reference();
        prop_assert!(self.default.output() == &reference, "default engine after {}", what);
        prop_assert!(self.sequential.output() == &reference, "sequential engine after {}", what);
        prop_assert!(self.parted.output() == reference, "2-part engine after {}", what);
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 18, ..ProptestConfig::default() })]

    #[test]
    fn hub_churn_matches_recompute_bitwise(
        seed in 0u64..1000,
        model_pick in 0usize..3,
        use_min in proptest::bool::ANY,
        extra in proptest::collection::vec((1u32..PENDANT, 1u32..PENDANT), 10..40),
        victims in proptest::collection::vec(1u32..PENDANT, 1..6),
        dropped in proptest::collection::vec(proptest::bool::ANY, FEAT),
    ) {
        let agg = if use_min { Aggregator::Min } else { Aggregator::Max };
        // A star on the hub plus random edges among the leaves; the pendant
        // vertex keeps the hub as its only neighbor.
        let mut edges: Vec<(VertexId, VertexId)> = (1..N as VertexId).map(|v| (HUB, v)).collect();
        edges.extend(extra.iter().filter(|(a, b)| a != b).copied());
        let g = DynGraph::undirected_from_edges(N, &edges);
        let mut rng = seeded_rng(seed);
        let x = uniform(&mut rng, N, FEAT, -1.0, 1.0);
        let mut trio = Trio::new(seed, agg, model_pick, g, x.clone());
        trio.check("bootstrap")?;

        let mut victims = victims;
        victims.sort_unstable();
        victims.dedup();
        let hub_edges = |op: fn(VertexId, VertexId) -> EdgeChange| {
            DeltaBatch::new(victims.iter().map(|&v| op(HUB, v)).collect())
        };
        let mut repaired = 0;

        // Delete hub edges, then give them back.
        repaired += trio.apply(&hub_edges(EdgeChange::remove), "hub edges removed")?;
        repaired += trio.apply(&hub_edges(EdgeChange::insert), "hub edges re-inserted")?;

        // Pull some input channels of the hub towards the losing side, so
        // its messages drop on some channels only.
        let losing = if use_min { 4.0 } else { -4.0 };
        let feat: Vec<f32> = x
            .row(HUB as usize)
            .iter()
            .zip(&dropped)
            .map(|(&f, &d)| if d { f + losing } else { f })
            .collect();
        trio.set_feature(HUB, &feat, "hub feature dropped")?;
        trio.set_feature(HUB, x.row(HUB as usize), "hub feature restored")?;

        // The pendant vertex loses its last in-edge amid other churn (new
        // degree 0 after a non-empty old neighborhood), then gets it back
        // (empty old neighborhood → rebuilt whole).
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
        repaired += trio.apply(&cut, "pendant cut off")?;
        prop_assert_eq!(trio.default.graph().in_degree(PENDANT), 0);
        prop_assert!(trio.default.state().alpha.iter().all(|a| {
            a.row(PENDANT as usize).iter().all(|&v| v.to_bits() == 0)
        }), "an emptied neighborhood aggregates to +0.0, not the identity");
        let rejoin = churn(trio.default.graph(), EdgeChange::insert(HUB, PENDANT));
        repaired += trio.apply(&rejoin, "pendant re-attached")?;

        prop_assert!(repaired > 0, "the stream must reach the channel repair");
    }
}

/// Leaves of the lookahead star; leaves `1..=PENDANTS` hang off the hub
/// alone, the rest also sit on a ring among themselves.
const LEAVES: VertexId = 16;
const PENDANTS: VertexId = 3;

/// The exposed-channel repair runs as its own loop over a shard's exposed
/// resets and asks for the rows of the reset three on; this sweeps the edges
/// of that lookahead. Cutting `k` hub edges exposes channels of `k` leaves
/// (the hub's message holds the extreme of about half their channels) and,
/// from `k = 2` on, of the hub; cutting one ring edge exposes its two ends.
/// So the one-shard sequential engine sees 0, 1, 2, exactly 3 and more than
/// 3 exposed resets in a shard, and the pooled engines (4, 8 and 16 shards)
/// spread them out. Inserts among the leaves break the hub cuts into runs of
/// consecutive exposed entries, and cutting a pendant empties its in-list,
/// so its exposed channels fold to +0.0. Max and min, on 1-, 2- and 4-thread
/// pools and `sequential()`: every output equals `recompute_reference()`
/// bitwise, and every engine reports the same repaired channels, visited
/// rows and traffic. Each cut is then undone; the pendants rejoin as
/// empty-old targets, rebuilt whole.
#[test]
fn repair_lookahead_edges_match_recompute_bitwise() {
    const THREADS: [usize; 3] = [1, 2, 4];
    let n = LEAVES as usize + 1;
    let mut edges: Vec<(VertexId, VertexId)> = (1..=LEAVES).map(|v| (HUB, v)).collect();
    edges.extend((PENDANTS + 1..LEAVES).map(|v| (v, v + 1)));
    edges.push((LEAVES, PENDANTS + 1));
    let g = DynGraph::undirected_from_edges(n, &edges);
    let mut x = uniform(&mut seeded_rng(5), n, FEAT, -1.0, 1.0);
    x.row_mut(HUB as usize).fill(100.0);
    let pools: Vec<rayon::ThreadPool> = THREADS
        .iter()
        .map(|&t| rayon::ThreadPoolBuilder::new().num_threads(t).build().unwrap())
        .collect();
    // Hub cuts of the first `k` leaves, pendants first, in runs of three
    // broken by a leaf-to-leaf insert; then one ring edge.
    let mut cuts: Vec<Vec<EdgeChange>> = (0..=8)
        .map(|k| {
            let mut changes = Vec::new();
            for v in 1..=k {
                if v > 1 && v % 3 == 1 {
                    changes.push(EdgeChange::insert(v, (v + 5) % LEAVES + 1));
                }
                changes.push(EdgeChange::remove(HUB, v));
            }
            changes
        })
        .collect();
    cuts.push(vec![EdgeChange::remove(PENDANTS + 1, PENDANTS + 2)]);
    for agg in [Aggregator::Max, Aggregator::Min] {
        let mut resets_seen = Vec::new();
        for (case, cut) in cuts.iter().enumerate() {
            let engine = |cfg| {
                let model = Model::gcn(&mut seeded_rng(9), &[FEAT, HIDDEN, 3], agg);
                InkStream::new(model, g.clone(), x.clone(), cfg).unwrap()
            };
            let mut sequential = engine(UpdateConfig::default().sequential());
            let mut pooled: Vec<InkStream> =
                pools.iter().map(|_| engine(UpdateConfig::default())).collect();
            let cut = DeltaBatch::new(cut.clone());
            let rejoin = cut.inverse();
            for (b, delta) in [&cut, &rejoin].into_iter().enumerate() {
                let what = format!("{agg:?} case {case} batch {b}");
                let want = sequential.apply_delta(delta);
                if b == 0 {
                    // Every reset of a cut is repaired: none has an empty
                    // old neighborhood.
                    resets_seen.extend(want.per_layer.iter().map(|l| l.conditions.exposed_reset));
                }
                for p in 1..=PENDANTS {
                    if sequential.graph().in_degree(p) == 0 {
                        let alpha = sequential.state().alpha[0].row(p as usize);
                        assert!(alpha.iter().all(|v| v.to_bits() == 0), "{what}: pendant {p}");
                    }
                }
                let reference = sequential.recompute_reference();
                assert!(sequential.output() == &reference, "{what}: sequential");
                for ((engine, pool), t) in pooled.iter_mut().zip(&pools).zip(THREADS) {
                    let got = pool.install(|| engine.apply_delta(delta));
                    assert!(engine.output() == &reference, "{what}: {t} threads");
                    for (l, (lg, lw)) in got.per_layer.iter().zip(&want.per_layer).enumerate() {
                        assert_eq!(
                            (lg.exposed_channels, lg.exposed_rows),
                            (lw.exposed_channels, lw.exposed_rows),
                            "{what}: {t} threads, layer {l}"
                        );
                    }
                    assert_eq!(got.traffic(), want.traffic(), "{what}: {t} threads");
                }
            }
        }
        for (lo, hi) in [(0, 0), (1, 1), (2, 2), (3, 3), (4, u64::MAX)] {
            assert!(
                resets_seen.iter().any(|&r| (lo..=hi).contains(&r)),
                "{agg:?}: no layer with {lo}..={hi} exposed resets in {resets_seen:?}"
            );
        }
    }
}
