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
        // (empty old neighborhood → the full-row panel path).
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
