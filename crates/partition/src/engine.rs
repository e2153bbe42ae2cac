//! The partitioned engine: N per-partition [`InkStream`]s driven in lockstep.
//!
//! ## Round schedule
//!
//! One logical update round (a [`DeltaBatch`] and/or feature updates) runs as
//! a bulk-synchronous sweep over the layers:
//!
//! 1. **Route + bookkeeping** — the delta is applied to the driver's global
//!    replica graph (authoritative skip counts and neighbor lists), routed
//!    onto per-partition deltas, and folded into the [`ReplicationTable`].
//!    Brand-new mirrors get a pre-round snapshot of the owner's cached
//!    message rows.
//! 2. **`round_begin`** on every engine (graph mutation + seeds, owner-side
//!    only thanks to each engine's ownership mask).
//! 3. Per layer `l`: `round_rescale(l)` on every engine → **boundary
//!    exchange** (each owner's recorded layer-`l` rows are pushed to every
//!    mirror via `round_ingest_refresh`) → `round_process(l)` on every
//!    engine. Both steps run the engines as blocks of one parallel call on
//!    the caller's rayon pool, so each engine's own phases run inline on the
//!    thread that claimed it; a 1-thread pool steps them serially.
//! 4. **`round_finish`** everywhere; the per-partition [`UpdateReport`]s fold
//!    into one via [`UpdateReport::absorb`].
//!
//! ## Why this is bitwise-exact
//!
//! Every event a single engine would generate for a target `t` is generated
//! on `t`'s owner, from identical inputs: ΔG events come from the routed
//! delta slice (same relative order), and changed-message events are
//! regenerated *locally* from refreshed ghost rows — the refresh records the
//! pre-refresh row as the "old" value, so payloads, the covered-edge rule,
//! and the canonical sorted-source fold order all match the monolithic
//! pipeline.

use crate::partitioner::Partitioner;
use crate::replication::ReplicationTable;
use crate::router::DeltaRouter;
use ink_graph::stats::{partition_quality, PartitionQuality};
use ink_graph::{DeltaBatch, DynGraph, EdgeChange, EdgeOp, FxHashMap, VertexId};
use ink_gnn::Model;
use ink_obs::{Histogram, MetricsRegistry};
use ink_tensor::ops::nan_max;
use ink_tensor::Matrix;
use inkstream::{InkError, InkStream, UpdateConfig, UpdateReport};
use rayon::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tunables of the partitioned driver. How many threads step the
/// partitions follows the rayon pool the driver is called in (the global
/// pool, or a `ThreadPool::install`); a 1-thread pool steps them serially,
/// with the same results.
#[derive(Clone, Copy, Debug)]
pub struct PartitionConfig {
    /// Number of partitions (≥ 1).
    pub parts: usize,
    /// Per-engine update configuration (shared by every partition).
    pub update: UpdateConfig,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        Self { parts: 2, update: UpdateConfig::default() }
    }
}

/// The engine step a round runs on every partition.
#[derive(Clone, Copy)]
enum StepOp {
    /// [`InkStream::round_rescale`] on the given layer.
    Rescale(usize),
    /// [`InkStream::round_process`] on the given layer.
    Process(usize),
}

impl StepOp {
    fn run(self, e: &mut InkStream) {
        match self {
            StepOp::Rescale(l) => e.round_rescale(l),
            StepOp::Process(l) => e.round_process(l),
        }
    }
}

/// The partition-specific observables.
#[derive(Clone, Debug)]
pub struct PartitionSummary {
    /// Partition count.
    pub parts: usize,
    /// Edge-cut quality of the *current* graph under the current assignment.
    pub quality: PartitionQuality,
    /// Routed changes that crossed the cut.
    pub boundary_events: u64,
    /// Ghost rows refreshed owner → mirror.
    pub replica_refreshes: u64,
    /// All-layer snapshots that seeded new mirrors.
    pub mirror_seeds: u64,
    /// Cumulative wall time each partition spent inside round steps.
    pub partition_wall: Vec<Duration>,
}

/// A partition-parallel incremental engine whose merged output is bitwise
/// equal to a single [`InkStream`]'s. See the crate docs for the ownership
/// model and the module docs for the round schedule.
pub struct PartitionedInkStream {
    engines: Vec<InkStream>,
    router: DeltaRouter,
    table: ReplicationTable,
    /// Global replica: authoritative adjacency for skip counts and vertex
    /// removal fans.
    graph: DynGraph,
    partitioner: Box<dyn Partitioner>,
    cfg: PartitionConfig,
    /// Cumulative wall time each partition spent inside round steps.
    walls: Vec<Duration>,
    boundary_events: u64,
    replica_refreshes: u64,
    mirror_seeds: u64,
    /// Holds the two histograms below.
    registry: Arc<MetricsRegistry>,
    /// Per round, slowest minus fastest partition step, in nanoseconds.
    step_skew: Arc<Histogram>,
    /// Per partition and step, the delay from the step's start to that
    /// engine's block starting on the rayon pool: the hand-off cost.
    park_ns: Arc<Histogram>,
}

impl PartitionedInkStream {
    /// Splits `graph` with `partitioner`, bootstraps one global full
    /// inference, and clones the resulting state into `cfg.parts` engines.
    ///
    /// `model_factory` must produce bitwise-identical models on every call
    /// (one for the bootstrap plus one per engine), e.g. by reseeding an RNG
    /// inside the closure.
    pub fn new<F, P>(
        model_factory: F,
        graph: DynGraph,
        features: Matrix,
        partitioner: P,
        cfg: PartitionConfig,
    ) -> Result<Self, InkError>
    where
        F: Fn() -> Model,
        P: Partitioner + 'static,
    {
        assert!(cfg.parts >= 1, "PartitionConfig: need at least one partition");
        let parts = cfg.parts;
        let assignment = partitioner.partition(&graph, parts);
        assert_eq!(assignment.len(), graph.num_vertices(), "partitioner must label every vertex");

        // One global bootstrap; every engine starts from a clone of its
        // state (full-width matrices, global vertex ids).
        let bootstrap =
            InkStream::new((model_factory)(), graph.clone(), features.clone(), cfg.update)?;
        let state = bootstrap.state().clone();
        drop(bootstrap);

        let table = ReplicationTable::build(&graph, &assignment);
        let mut engines = Vec::with_capacity(parts);
        for p in 0..parts as u32 {
            let sub = subgraph(&graph, &assignment, p);
            let mut e = InkStream::from_parts(
                (model_factory)(),
                sub,
                features.clone(),
                state.clone(),
                cfg.update,
            )?;
            e.set_ownership(Some(assignment.iter().map(|&a| a == p).collect()));
            engines.push(e);
        }

        let registry = Arc::new(MetricsRegistry::new());
        let step_skew = registry.histogram(
            "ink_partition_step_skew_ns",
            "Slowest minus fastest partition step per round",
        );
        let park_ns = registry.histogram(
            "ink_partition_pool_park_ns",
            "Delay from a step's start to one engine's block starting on the pool",
        );
        let router = DeltaRouter::new(assignment, parts, graph.is_directed());
        Ok(Self {
            engines,
            router,
            table,
            graph,
            partitioner: Box::new(partitioner),
            cfg,
            walls: vec![Duration::ZERO; parts],
            boundary_events: 0,
            replica_refreshes: 0,
            mirror_seeds: 0,
            registry,
            step_skew,
            park_ns,
        })
    }

    /// The global replica graph (authoritative adjacency).
    pub fn graph(&self) -> &DynGraph {
        &self.graph
    }

    /// The per-partition engines (read access, e.g. for audits in tests).
    pub fn engines(&self) -> &[InkStream] {
        &self.engines
    }

    /// The boundary replication table.
    pub fn replication(&self) -> &ReplicationTable {
        &self.table
    }

    /// The driver's metrics registry: the `ink_partition_step_skew_ns` and
    /// `ink_partition_pool_park_ns` histograms.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The merged output embeddings: every vertex's row taken from its
    /// owning partition. Bitwise-equal to the single-engine output for the
    /// same update stream.
    pub fn output(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.output_into(&mut out);
        out
    }

    /// Writes the merged output into `out` (resized when the shape differs),
    /// so a caller gathering repeatedly reuses one target instead of
    /// allocating a fresh matrix each time.
    pub fn output_into(&self, out: &mut Matrix) {
        let n = self.graph.num_vertices();
        let d = self.engines[0].model().out_dim();
        if out.rows() != n || out.cols() != d {
            *out = Matrix::zeros(n, d);
        }
        for v in 0..n {
            let owner = self.router.owner(v as VertexId) as usize;
            out.set_row(v, self.engines[owner].state().h.row(v));
        }
    }

    /// Applies one batch of edge changes as a partitioned round. Same
    /// contract as [`InkStream::apply_delta`].
    pub fn apply_delta(&mut self, delta: &DeltaBatch) -> UpdateReport {
        self.round(delta, &[]).expect("edge-only rounds cannot fail validation")
    }

    /// Updates one vertex's input feature everywhere (ghost copies included)
    /// and propagates from the owner. Same contract as
    /// [`InkStream::update_vertex_feature`].
    pub fn update_vertex_feature(
        &mut self,
        v: VertexId,
        new_feat: &[f32],
    ) -> Result<UpdateReport, InkError> {
        self.round(&DeltaBatch::default(), &[(v, new_feat.to_vec())])
    }

    /// Adds a vertex with `feat` and edges to `neighbors`; ownership comes
    /// from [`Partitioner::assign_new`]. Same contract as
    /// [`InkStream::add_vertex`].
    pub fn add_vertex(
        &mut self,
        feat: &[f32],
        neighbors: &[VertexId],
    ) -> Result<(VertexId, UpdateReport), InkError> {
        let in_dim = self.engines[0].model().in_dim();
        if feat.len() != in_dim {
            return Err(InkError::ShapeMismatch {
                detail: format!("feature len {} != {}", feat.len(), in_dim),
            });
        }
        for &n in neighbors {
            if (n as usize) >= self.graph.num_vertices() {
                return Err(InkError::UnknownVertex(n));
            }
        }
        let part = self.partitioner.assign_new(
            self.graph.num_vertices() as VertexId,
            neighbors,
            self.router.assignment(),
            self.cfg.parts,
        );
        assert!((part as usize) < self.cfg.parts, "assign_new label out of range");
        let v = self.graph.add_vertex();
        // Every engine grows the same isolated vertex (identical models ⇒
        // identical cached chain rows); only `part` owns it.
        for (i, e) in self.engines.iter_mut().enumerate() {
            let (ev, _) = e.add_vertex(feat, &[])?;
            debug_assert_eq!(ev, v);
            e.push_ownership(part == i as u32);
        }
        self.router.push_vertex(part);
        let changes: Vec<EdgeChange> =
            neighbors.iter().map(|&n| EdgeChange::insert(v, n)).collect();
        let report = self.round(&DeltaBatch::new(changes), &[])?;
        Ok((v, report))
    }

    /// Removes all edges incident to `v` (the id slot stays, matching
    /// [`InkStream::remove_vertex`]); mirror refcounts drop through routing,
    /// so boundary copies retire naturally.
    pub fn remove_vertex(&mut self, v: VertexId) -> Result<UpdateReport, InkError> {
        if (v as usize) >= self.graph.num_vertices() {
            return Err(InkError::UnknownVertex(v));
        }
        let mut changes: Vec<EdgeChange> =
            self.graph.out_neighbors(v).iter().map(|&n| EdgeChange::remove(v, n)).collect();
        if self.graph.is_directed() {
            changes
                .extend(self.graph.in_neighbors(v).iter().map(|&n| EdgeChange::remove(n, v)));
        }
        self.round(&DeltaBatch::new(changes), &[])
    }

    /// One partitioned round: see the module docs for the schedule.
    fn round(
        &mut self,
        delta: &DeltaBatch,
        fx: &[(VertexId, Vec<f32>)],
    ) -> Result<UpdateReport, InkError> {
        let t0 = Instant::now();
        // Validate feature updates before any mutation anywhere.
        let in_dim = self.engines[0].model().in_dim();
        for (v, feat) in fx {
            if (*v as usize) >= self.graph.num_vertices() {
                return Err(InkError::UnknownVertex(*v));
            }
            if feat.len() != in_dim {
                return Err(InkError::ShapeMismatch {
                    detail: format!("feature len {} != {in_dim}", feat.len()),
                });
            }
        }

        // Global replica: authoritative effective-change list + skip count.
        let mut skipped = 0usize;
        let mut effective: Vec<EdgeChange> = Vec::with_capacity(delta.len());
        for &c in delta.changes() {
            if self.graph.apply(c) {
                effective.push(c);
            } else {
                skipped += 1;
            }
        }

        // Fold the cut churn into the replication table. Mirrors dropped
        // this round still receive refreshes *during* it — their engines may
        // hold ΔG events whose payloads read the ghost's rows.
        let directed = self.graph.is_directed();
        let mut new_mirrors: Vec<(VertexId, u32)> = Vec::new();
        let mut dropped: FxHashMap<VertexId, Vec<u32>> = FxHashMap::default();
        for c in &effective {
            let (ps, pd) = (self.router.owner(c.src), self.router.owner(c.dst));
            if ps == pd {
                continue;
            }
            self.boundary_events += 1;
            match c.op {
                EdgeOp::Insert => {
                    if self.table.add(c.src, pd) {
                        new_mirrors.push((c.src, pd));
                    }
                    if !directed && self.table.add(c.dst, ps) {
                        new_mirrors.push((c.dst, ps));
                    }
                }
                EdgeOp::Remove => {
                    if self.table.remove(c.src, pd) {
                        dropped.entry(c.src).or_default().push(pd);
                    }
                    if !directed && self.table.remove(c.dst, ps) {
                        dropped.entry(c.dst).or_default().push(ps);
                    }
                }
            }
        }

        // Seed brand-new mirrors with the owner's pre-round message rows
        // (raw writes: no old-record, so the snapshot itself spawns no
        // events on the mirror).
        let k = self.engines[0].model().num_layers();
        for &(v, q) in &new_mirrors {
            let o = self.router.owner(v) as usize;
            for l in 0..k {
                let row = self.engines[o].state().m[l].row(v as usize).to_vec();
                self.engines[q as usize].set_message_row(l, v, &row);
            }
            self.mirror_seeds += 1;
        }

        // Open the round everywhere. Feature updates go to every engine
        // (ghost feature rows stay fresh for audits); each engine's
        // ownership mask decides who actually seeds propagation.
        let routed = self.router.route(delta);
        for (e, d) in self.engines.iter_mut().zip(&routed) {
            e.round_begin(d, fx).expect("validated against the global replica");
        }

        // BSP sweep: rescale → boundary exchange → process, per layer.
        let mut buf: Vec<(VertexId, Vec<f32>)> = Vec::new();
        for l in 0..k {
            self.step(StepOp::Rescale(l));
            for p in 0..self.cfg.parts {
                buf.clear();
                self.engines[p].round_changed_rows(l, &mut buf);
                for (v, row) in &buf {
                    let mut targets = self.table.mirrors_of(*v);
                    if let Some(extra) = dropped.get(v) {
                        targets.extend(extra);
                        targets.sort_unstable();
                        targets.dedup();
                    }
                    for &q in &targets {
                        self.engines[q as usize].round_ingest_refresh(l, *v, row);
                        self.replica_refreshes += 1;
                    }
                }
            }
            self.step(StepOp::Process(l));
        }

        let mut report = UpdateReport::default();
        for e in &mut self.engines {
            report.absorb(&e.round_finish());
        }
        // Partition-local skip counts double-count cross-cut no-ops; the
        // global replica's count is authoritative. Whole-driver wall clock
        // replaces the max-partition fold for the same reason.
        report.skipped_changes = skipped;
        report.elapsed = t0.elapsed();
        Ok(report)
    }

    /// Runs `op` over every engine, one engine per block of a parallel call
    /// on the caller's rayon pool, and accumulates per-partition wall time,
    /// the hand-off delay and the straggler skew.
    fn step(&mut self, op: StepOp) {
        struct Slot<'a> {
            engine: &'a mut InkStream,
            handoff: Duration,
            took: Duration,
        }
        let start = Instant::now();
        let mut slots: Vec<Slot<'_>> = self
            .engines
            .iter_mut()
            .map(|engine| Slot { engine, handoff: Duration::ZERO, took: Duration::ZERO })
            .collect();
        slots.par_chunks_mut(1).for_each(|chunk| {
            let slot = &mut chunk[0];
            let t = Instant::now();
            slot.handoff = t - start;
            op.run(slot.engine);
            slot.took = t.elapsed();
        });
        let (mut min, mut max) = (Duration::MAX, Duration::ZERO);
        for (p, slot) in slots.into_iter().enumerate() {
            self.walls[p] += slot.took;
            self.park_ns.record(slot.handoff.as_nanos() as u64);
            min = min.min(slot.took);
            max = max.max(slot.took);
        }
        if self.engines.len() > 1 {
            self.step_skew.record((max - min).as_nanos() as u64);
        }
    }

    /// A copy of the routing function (the assignment sits behind an `Arc`,
    /// so the clone is cheap): lets a caller time or inspect
    /// [`DeltaRouter::route`] without borrowing the driver.
    pub fn routing_view(&self) -> DeltaRouter {
        self.router.clone()
    }

    /// Worst absolute difference between any ghost message row and its
    /// owner's authoritative copy — 0.0 when every mirror is coherent.
    pub fn mirror_deviation(&self) -> f32 {
        let k = self.engines[0].model().num_layers();
        let mut worst = 0.0f32;
        for v in 0..self.graph.num_vertices() as VertexId {
            let owner = self.router.owner(v) as usize;
            for q in self.table.mirrors_of(v) {
                for l in 0..k {
                    let a = self.engines[owner].state().m[l].row(v as usize);
                    let b = self.engines[q as usize].state().m[l].row(v as usize);
                    for (x, y) in a.iter().zip(b) {
                        worst = nan_max(worst, (x - y).abs());
                    }
                }
            }
        }
        worst
    }

    /// The partition-specific observables. Measuring the cut quality scans
    /// every edge of the current graph.
    pub fn summary(&self) -> PartitionSummary {
        PartitionSummary {
            parts: self.cfg.parts,
            quality: partition_quality(&self.graph, self.router.assignment(), self.cfg.parts),
            boundary_events: self.boundary_events,
            replica_refreshes: self.replica_refreshes,
            mirror_seeds: self.mirror_seeds,
            partition_wall: self.walls.clone(),
        }
    }
}

/// The edges partition `p` needs: in-edges of owned vertices (directed), or
/// all edges incident to an owned vertex (undirected). Insertion replays the
/// global edge order, so neighbor lists — and therefore recompute fold
/// orders — match the single engine's.
fn subgraph(g: &DynGraph, assignment: &[u32], p: u32) -> DynGraph {
    let mut sub = DynGraph::new(g.num_vertices(), g.is_directed());
    for (u, v) in g.edges() {
        let keep = if g.is_directed() {
            assignment[v as usize] == p
        } else {
            assignment[u as usize] == p || assignment[v as usize] == p
        };
        if keep {
            sub.insert_edge(u, v);
        }
    }
    sub
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::HashPartitioner;
    use ink_gnn::Aggregator;
    use ink_graph::generators::erdos_renyi;
    use ink_tensor::init::{seeded_rng, uniform};

    fn gcn(seed: u64) -> Model {
        let mut rng = seeded_rng(seed);
        Model::gcn(&mut rng, &[4, 6, 3], Aggregator::Sum)
    }

    fn setup(parts: usize) -> (InkStream, PartitionedInkStream) {
        let mut rng = seeded_rng(42);
        let g = erdos_renyi(&mut rng, 24, 60);
        let x = uniform(&mut rng, 24, 4, -1.0, 1.0);
        let single = InkStream::new(gcn(7), g.clone(), x.clone(), UpdateConfig::default()).unwrap();
        let parted = PartitionedInkStream::new(
            || gcn(7),
            g,
            x,
            HashPartitioner,
            PartitionConfig { parts, ..Default::default() },
        )
        .unwrap();
        (single, parted)
    }

    #[test]
    fn bootstrap_matches_single_engine() {
        let (single, parted) = setup(3);
        assert_eq!(&parted.output(), single.output());
    }

    #[test]
    fn delta_round_is_bitwise_equal() {
        let (mut single, mut parted) = setup(4);
        let delta = DeltaBatch::new(vec![
            EdgeChange::insert(0, 13),
            EdgeChange::insert(5, 21),
            EdgeChange::remove(0, 13),
            EdgeChange::insert(2, 17),
        ]);
        let rs = single.apply_delta(&delta);
        let rp = parted.apply_delta(&delta);
        assert_eq!(&parted.output(), single.output());
        assert_eq!(rs.skipped_changes, rp.skipped_changes);
        assert_eq!(rs.output_changed, rp.output_changed);
        assert_eq!(parted.mirror_deviation(), 0.0);
    }

    #[test]
    fn feature_update_on_boundary_vertex_matches() {
        let (mut single, mut parted) = setup(3);
        // Pick a replicated boundary vertex so mirrors must refresh.
        let v = (0..24u32)
            .find(|&v| !parted.replication().mirrors_of(v).is_empty())
            .expect("hash split of an ER graph has boundary vertices");
        let feat = vec![0.9, -0.4, 0.2, 0.7];
        single.update_vertex_feature(v, &feat).unwrap();
        parted.update_vertex_feature(v, &feat).unwrap();
        assert_eq!(&parted.output(), single.output());
        assert_eq!(parted.mirror_deviation(), 0.0);
    }

    #[test]
    fn add_and_remove_vertex_match_single_engine() {
        let (mut single, mut parted) = setup(2);
        let feat = vec![0.1, 0.2, -0.3, 0.4];
        let (vs, _) = single.add_vertex(&feat, &[1, 9, 17]).unwrap();
        let (vp, _) = parted.add_vertex(&feat, &[1, 9, 17]).unwrap();
        assert_eq!(vs, vp);
        assert_eq!(&parted.output(), single.output());
        single.remove_vertex(3).unwrap();
        parted.remove_vertex(3).unwrap();
        assert_eq!(&parted.output(), single.output());
    }

    #[test]
    fn every_pool_width_matches_the_single_engine() {
        let delta = DeltaBatch::new(vec![
            EdgeChange::insert(0, 13),
            EdgeChange::insert(7, 19),
            EdgeChange::remove(0, 13),
            EdgeChange::remove(1, 2),
        ]);
        // 4 parts on 1 thread steps every engine inline in turn; on 2
        // threads each thread takes two; on 4 one each.
        for threads in [1, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let (mut single, mut parted) = setup(4);
            let rs = single.apply_delta(&delta);
            let rp = pool.install(|| parted.apply_delta(&delta));
            assert_eq!(&parted.output(), single.output(), "{threads} threads");
            assert_eq!(rp.output_changed, rs.output_changed, "{threads} threads");
        }
    }

    #[test]
    fn single_partition_degenerates_cleanly() {
        let (mut single, mut parted) = setup(1);
        let delta = DeltaBatch::new(vec![EdgeChange::insert(0, 9)]);
        single.apply_delta(&delta);
        parted.apply_delta(&delta);
        assert_eq!(&parted.output(), single.output());
        assert_eq!(parted.replication().total_mirrors(), 0);
    }
}
