//! The five workloads and their generated inputs.
//!
//! Each workload is chosen for the layer it loads; the reasons are in
//! `benchmark/README.md` and in `BENCHMARK.json`. Every config is the
//! default one — what a user gets without setting anything.

use crate::probe::MIN_ROUNDS;
use crate::stream::{deal, EdgeStream, Inserts};
use ink_gnn::{Aggregator, Model};
use ink_graph::generators::rmat::RmatParams;
use ink_graph::generators::{erdos_renyi, planted_partition, rmat};
use ink_graph::{DeltaBatch, DynGraph, VertexId};
use ink_tensor::init::{seeded_rng, sparse_power_law};
use ink_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DATASET_SEED: u64 = 0xDA7A;
pub const FEAT_DIM: usize = 16;
pub const HIDDEN: usize = 64;

#[derive(Clone, Copy, PartialEq)]
pub enum GraphKind {
    /// R-MAT, |V| = 200k, |E| = 1.2M: skewed degrees, hub hits in the tail.
    Rmat,
    /// Planted partition, |V| = 200k, 2 classes, |E| = 1.2M, 95 % intra-class.
    Planted,
    /// Erdős–Rényi, |V| = 100k, |E| = 600k: uniform degrees.
    ErdosRenyi,
}

#[derive(Clone, Copy, PartialEq)]
pub enum ModelKind {
    /// GCN-2 with max aggregation: the monotonic, pruning path.
    GcnMax,
    /// GraphSAGE-2 with mean aggregation: the accumulative path.
    SageMean,
}

#[derive(Clone, Copy, PartialEq)]
pub enum Driver {
    /// `InkStream::apply_delta`.
    Engine,
    /// `PartitionedInkStream::apply_delta`, greedy edge cut, 2 parts.
    Partition,
    /// `InkServer` on loopback, paced writer beside a closed-loop reader.
    Serve,
}

pub struct Workload {
    pub name: &'static str,
    pub driver: Driver,
    pub graph: GraphKind,
    pub model: ModelKind,
    /// Edge changes per update operation (ΔG).
    pub delta: usize,
    /// Update operations timed per second of `--seconds`. Sized on the
    /// 2-vCPU development box so the `MIN_ROUNDS` rounds of an undisturbed
    /// run last about `--seconds`; counts, not the clock, end a run, so the
    /// distinct ops are the same on every commit.
    pub ops_per_second: f64,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "engine_trickle",
        driver: Driver::Engine,
        graph: GraphKind::Rmat,
        model: ModelKind::GcnMax,
        delta: 8,
        ops_per_second: 1400.0,
    },
    Workload {
        name: "engine_accum",
        driver: Driver::Engine,
        graph: GraphKind::Rmat,
        model: ModelKind::SageMean,
        delta: 8,
        ops_per_second: 150.0,
    },
    Workload {
        name: "engine_bulk",
        driver: Driver::Engine,
        graph: GraphKind::Planted,
        model: ModelKind::GcnMax,
        delta: 1000,
        ops_per_second: 18.0,
    },
    Workload {
        name: "partition_bulk",
        driver: Driver::Partition,
        graph: GraphKind::Planted,
        model: ModelKind::GcnMax,
        delta: 1000,
        ops_per_second: 18.0,
    },
    Workload {
        name: "serve_mixed",
        driver: Driver::Serve,
        graph: GraphKind::ErdosRenyi,
        model: ModelKind::GcnMax,
        delta: 16,
        ops_per_second: 50.0,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// `(warm-up ops, forward ops)` for a run of `seconds`. The forward ops
    /// and their inverses are each timed once per round; the warm-up is a
    /// tenth of what `MIN_ROUNDS` rounds time, and is not timed itself.
    pub fn op_counts(&self, seconds: f64) -> (usize, usize) {
        let passes = 2 * MIN_ROUNDS;
        let forward = ((self.ops_per_second * seconds / passes as f64).round() as usize).max(2);
        ((passes * forward).div_ceil(10), forward)
    }

    /// A fresh model with the workload's fixed weights.
    pub fn model(&self) -> Model {
        let mut rng = seeded_rng(0x1AB5);
        let dims = [FEAT_DIM, HIDDEN, HIDDEN];
        match self.model {
            ModelKind::GcnMax => Model::gcn(&mut rng, &dims, Aggregator::Max),
            ModelKind::SageMean => Model::sage(&mut rng, &dims, Aggregator::Mean),
        }
    }
}

/// What the program is given: an edge list, node features and the update
/// stream, all functions of the seed and the graph kind only — so
/// `engine_bulk` and `partition_bulk` see identical inputs.
///
/// The graph, the features and the set of edges that change during a run
/// are the dataset and do not vary with the seed; the seed deals those
/// changes into updates (see `stream`). On the R-MAT graph the work of a run
/// is set by its few largest hubs and by which of them hold the strongest
/// features: drawing a new graph per seed moved the work per update by
/// ±20 % (`core.f32_moved`, a count), and drawing new edges over the fixed
/// graph by ±6 %, which no run length averages out.
pub struct Inputs {
    pub seed: u64,
    pub n: usize,
    pub edges: Vec<(VertexId, VertexId)>,
    pub features: Matrix,
    /// Applied first, untimed.
    pub warmup: Vec<DeltaBatch>,
    /// The ops that are timed, and their inverses in reverse order.
    pub forward: Vec<DeltaBatch>,
    pub backward: Vec<DeltaBatch>,
    /// `serve_mixed` only: the frames of the bursts that follow.
    pub bursts: Vec<DeltaBatch>,
}

impl Inputs {
    /// The inputs of a run of `seconds`, with `bursts` more batches after
    /// the timed ones.
    pub fn generate(w: &Workload, seed: u64, seconds: f64, bursts: usize) -> Self {
        let mut rng = seeded_rng(DATASET_SEED);
        let (graph, inserts) = match w.graph {
            GraphKind::Rmat => (
                rmat(&mut rng, 200_000, 1_200_000, RmatParams::default()),
                Inserts::Preferential,
            ),
            GraphKind::Planted => (
                planted_partition(&mut rng, 200_000, 2, 11.4, 0.6).graph,
                Inserts::Planted2 { intra: 0.95 },
            ),
            GraphKind::ErdosRenyi => (erdos_renyi(&mut rng, 100_000, 600_000), Inserts::Uniform),
        };
        let n = graph.num_vertices();
        let edges = graph.edges();
        let features = sparse_power_law(&mut rng, n, FEAT_DIM, 0.2, 0.9);
        let (warm, forward) = w.op_counts(seconds);
        let mut pool = EdgeStream::new(DATASET_SEED, n, &edges, inserts);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut updates = |ops: usize| deal(pool.draw(ops * w.delta), w.delta, &mut rng);
        let warmup = updates(warm);
        let forward = updates(forward);
        Self {
            seed,
            n,
            features,
            warmup,
            backward: forward.iter().rev().map(DeltaBatch::inverse).collect(),
            forward,
            bursts: updates(bursts),
            edges,
        }
    }

    /// The ops of a round in order, each with the slot of its distinct op:
    /// the forward ops, then their inverses backward.
    pub fn round(&self) -> impl Iterator<Item = (usize, &DeltaBatch)> {
        self.forward.iter().chain(&self.backward).enumerate()
    }

    /// Distinct timed ops.
    pub fn slots(&self) -> usize {
        2 * self.forward.len()
    }

    /// The graph as the program builds it from the edge list.
    pub fn build_graph(&self) -> DynGraph {
        DynGraph::undirected_from_edges(self.n, &self.edges)
    }
}

/// Whether two embedding rows (or matrices) hold the same bits.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
