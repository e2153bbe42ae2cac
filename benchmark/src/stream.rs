//! Deterministic edge-change stream.
//!
//! Every update is half removals of live edges and half inserts of absent
//! edges, so |E| is stationary and every change is effective (the engine
//! never skips one). Generation is O(1) per change from the harness's own
//! live-edge list and edge set — `DeltaBatch::random_scenario` copies the
//! whole edge list per call, which at 1.2M edges costs more than the update
//! it feeds.
//!
//! Which edges change during a run is part of the dataset: `EdgeStream`
//! draws them, all distinct, from the dataset's fixed seed. The run's
//! `--seed` then deals them into updates (`deal`): it decides which changes
//! share an update and in which order the updates arrive. Changes to
//! distinct edges are valid in any order, so every dealing is consistent
//! with the evolving graph. Drawing the edges themselves from `--seed` moved
//! the work of a run by ±6 % between seeds on the R-MAT graph (hub hits; a
//! count, no clock involved), which no run length this benchmark can afford
//! averages out.
//!
//! Seed 1 is the development seed; seed 2 is the hold-out a performance
//! claim must also hold on.

use ink_graph::{DeltaBatch, EdgeChange, FxHashSet, VertexId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Where inserted edges land.
#[derive(Clone, Copy)]
pub enum Inserts {
    /// Both endpoints uniform over the vertex set.
    Uniform,
    /// Each endpoint is an endpoint of a random live edge, so a vertex gains
    /// edges at the rate it loses them and a skewed degree distribution
    /// keeps its hubs however long the stream runs.
    Preferential,
    /// `planted_partition` labels vertex `i` with class `i % 2`; keep the
    /// given share of inserts inside one class so the cut does not erode as
    /// the stream runs.
    Planted2 { intra: f64 },
}

pub struct EdgeStream {
    rng: StdRng,
    n: VertexId,
    inserts: Inserts,
    /// Live edges as the graph lists them (`u < v`), in arbitrary order.
    live: Vec<(VertexId, VertexId)>,
    present: FxHashSet<(VertexId, VertexId)>,
}

impl EdgeStream {
    /// A source of changes to an undirected graph with `n` vertices and the
    /// given edges (`u < v`, as `DynGraph::edges` returns them).
    pub fn new(seed: u64, n: usize, edges: &[(VertexId, VertexId)], inserts: Inserts) -> Self {
        debug_assert!(edges.iter().all(|&(u, v)| u < v));
        Self {
            rng: StdRng::seed_from_u64(seed),
            n: n as VertexId,
            inserts,
            live: edges.to_vec(),
            present: edges.iter().copied().collect(),
        }
    }

    /// The next `k` changes: `k / 2` removals, then the inserts. No edge
    /// appears twice, and a removed edge is not among the inserts.
    pub fn draw(&mut self, k: usize) -> Vec<EdgeChange> {
        let n_remove = k / 2;
        assert!(self.live.len() >= n_remove, "stream ran out of live edges");
        let mut changes = Vec::with_capacity(k);
        for _ in 0..n_remove {
            let i = self.rng.random_range(0..self.live.len());
            let (u, v) = self.live.swap_remove(i);
            changes.push(EdgeChange::remove(u, v));
        }
        while changes.len() < k {
            let (u, v) = match self.inserts {
                Inserts::Uniform => (
                    self.rng.random_range(0..self.n),
                    self.rng.random_range(0..self.n),
                ),
                Inserts::Preferential => {
                    let a = self.live[self.rng.random_range(0..self.live.len())];
                    let b = self.live[self.rng.random_range(0..self.live.len())];
                    let side = self.rng.random_range(0..4u32);
                    (
                        if side & 1 == 0 { a.0 } else { a.1 },
                        if side & 2 == 0 { b.0 } else { b.1 },
                    )
                }
                Inserts::Planted2 { intra } => {
                    let u = self.rng.random_range(0..self.n);
                    let v = self.rng.random_range(0..self.n);
                    let same = self.rng.random_range(0.0..1.0) < intra;
                    (u, (v & !1) | if same { u & 1 } else { !u & 1 })
                }
            };
            let key = (u.min(v), u.max(v));
            // Removed edges stay in `present` until the batch is complete.
            if u == v || v >= self.n || !self.present.insert(key) {
                continue;
            }
            changes.push(EdgeChange::insert(key.0, key.1));
        }
        for c in &changes[..n_remove] {
            self.present.remove(&(c.src, c.dst));
        }
        self.live
            .extend(changes[n_remove..].iter().map(|c| (c.src, c.dst)));
        changes
    }
}

/// Deals `pool` — distinct changes, the removals first, as `draw` returns
/// them — into updates of `k` changes: `rng` shuffles the removals and the
/// inserts, and every update takes `k / 2` of each.
pub fn deal(mut pool: Vec<EdgeChange>, k: usize, rng: &mut StdRng) -> Vec<DeltaBatch> {
    assert!(
        k.is_multiple_of(2) && pool.len().is_multiple_of(k),
        "whole updates, half removals"
    );
    let half = pool.len() / 2;
    let (removals, inserts) = pool.split_at_mut(half);
    for half in [&mut *removals, &mut *inserts] {
        for i in (1..half.len()).rev() {
            half.swap(i, rng.random_range(0..=i));
        }
    }
    removals
        .chunks(k / 2)
        .zip(inserts.chunks(k / 2))
        .map(|(r, i)| DeltaBatch::new([r, i].concat()))
        .collect()
}
