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
//! pipeline. User hooks must only emit events targeting the vertex whose
//! message changed (true for [`inkstream::LinearSelfTerm`]); mirrors fire
//! them too, and the ownership mask drops the foreign copies.

use crate::metrics::PartitionInstruments;
use crate::partitioner::Partitioner;
use crate::replication::ReplicationTable;
use crate::router::DeltaRouter;
use ink_graph::stats::{partition_quality, PartitionQuality};
use ink_graph::{DeltaBatch, DynGraph, EdgeChange, EdgeOp, FxHashMap, VertexId};
use ink_gnn::Model;
use ink_obs::{MetricsRegistry, Tracer};
use ink_tensor::ops::nan_max;
use ink_tensor::Matrix;
use inkstream::{
    Engine, InkError, InkStream, ResyncReport, RowSource, SessionConfig, StreamSession,
    UpdateConfig, UpdateReport, UserHooks, DEFAULT_TRACE_CAPACITY,
};
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Factory producing one identical model per engine (models hold boxed
/// convolutions and cannot be cloned). **Must be deterministic**: every call
/// has to yield bitwise-identical weights, e.g. by reseeding an RNG inside
/// the closure.
pub type ModelFactory = Box<dyn Fn() -> Model + Send + Sync>;

/// Factory producing one identical hook set per engine (same determinism
/// contract as [`ModelFactory`]). Partitioned hooks must only emit events
/// targeting the vertex whose message changed.
pub type HooksFactory = Box<dyn Fn() -> Box<dyn UserHooks> + Send + Sync>;

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

/// The partition-specific observables; the session-level ones come from the
/// [`StreamSession`] wrapping the driver.
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

/// A partition-parallel incremental engine with the same surface as a single
/// [`InkStream`]; as an [`Engine`] it runs under the same [`StreamSession`]
/// ([`PartitionedInkStream::into_session`]) and the same server. See the
/// crate docs for the ownership model and the module docs for the round
/// schedule.
pub struct PartitionedInkStream {
    engines: Vec<InkStream>,
    router: DeltaRouter,
    table: ReplicationTable,
    /// Global replica: authoritative adjacency for skip counts, vertex
    /// removal fans, audits, and resync bootstraps.
    graph: DynGraph,
    features: Matrix,
    partitioner: Box<dyn Partitioner>,
    model_factory: ModelFactory,
    hooks_factory: Option<HooksFactory>,
    cfg: PartitionConfig,
    cut_edges: usize,
    /// Cumulative wall time each partition spent inside round steps.
    walls: Vec<Duration>,
    registry: Arc<MetricsRegistry>,
    inst: PartitionInstruments,
    /// The [`InkError::WorkerPanic`] of an engine step that panicked. While
    /// set, every round fails fast with it before touching any graph;
    /// [`PartitionedInkStream::resync`] clears it.
    poisoned: Option<InkError>,
}

impl PartitionedInkStream {
    /// Splits `graph` with `partitioner`, bootstraps one global full
    /// inference, and clones the resulting state into `cfg.parts` engines.
    ///
    /// `model_factory` must produce bitwise-identical models on every call
    /// (one engine each plus one for every bootstrap/resync).
    pub fn new<F, P>(
        model_factory: F,
        graph: DynGraph,
        features: Matrix,
        partitioner: P,
        cfg: PartitionConfig,
    ) -> Result<Self, InkError>
    where
        F: Fn() -> Model + Send + Sync + 'static,
        P: Partitioner + 'static,
    {
        Self::with_hooks(model_factory, graph, features, partitioner, cfg, None)
    }

    /// Like [`PartitionedInkStream::new`] with user hooks. Partition-safe
    /// hooks must only emit events targeting the vertex whose message
    /// changed (see [`HooksFactory`]).
    pub fn with_hooks<F, P>(
        model_factory: F,
        graph: DynGraph,
        features: Matrix,
        partitioner: P,
        cfg: PartitionConfig,
        hooks_factory: Option<HooksFactory>,
    ) -> Result<Self, InkError>
    where
        F: Fn() -> Model + Send + Sync + 'static,
        P: Partitioner + 'static,
    {
        assert!(cfg.parts >= 1, "PartitionConfig: need at least one partition");
        let model_factory: ModelFactory = Box::new(model_factory);
        let parts = cfg.parts;
        let assignment = partitioner.partition(&graph, parts);
        assert_eq!(assignment.len(), graph.num_vertices(), "partitioner must label every vertex");

        // One global bootstrap; every engine starts from a clone of its
        // state (full-width matrices, global vertex ids).
        let bootstrap = InkStream::with_hooks(
            (model_factory)(),
            graph.clone(),
            features.clone(),
            cfg.update,
            hooks_factory.as_ref().map(|f| f()),
        )?;
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
                hooks_factory.as_ref().map(|f| f()),
            )?;
            e.set_ownership(Some(assignment.iter().map(|&a| a == p).collect()));
            engines.push(e);
        }

        let cut_edges = count_cut_edges(&graph, &assignment);
        let registry = Arc::new(MetricsRegistry::new());
        let inst = PartitionInstruments::register(&registry, parts);
        inst.parts.set_u64(parts as u64);
        inst.cut_edges.set_u64(cut_edges as u64);
        inst.replicas.set_u64(table.total_mirrors() as u64);
        let router = DeltaRouter::new(assignment, parts, graph.is_directed());
        Ok(Self {
            engines,
            router,
            table,
            graph,
            features,
            partitioner: Box::new(partitioner),
            model_factory,
            hooks_factory,
            cfg,
            cut_edges,
            walls: vec![Duration::ZERO; parts],
            registry,
            inst,
            poisoned: None,
        })
    }

    /// Number of partitions.
    pub fn parts(&self) -> usize {
        self.cfg.parts
    }

    /// The global replica graph (authoritative adjacency).
    pub fn graph(&self) -> &DynGraph {
        &self.graph
    }

    /// The global feature matrix.
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// The per-partition engines (read access, e.g. for audits in tests).
    pub fn engines(&self) -> &[InkStream] {
        &self.engines
    }

    /// The boundary replication table.
    pub fn replication(&self) -> &ReplicationTable {
        &self.table
    }

    /// The driver's metrics registry (`ink_partition_*` instruments).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Wraps the driver in the session layer, registering the session's
    /// instruments into the driver's registry so one scrape shows
    /// `ink_partition_*` next to `ink_session_*`, `ink_drift_*` and the
    /// pipeline phases.
    pub fn into_session(self, config: SessionConfig) -> StreamSession<Self> {
        let registry = self.registry.clone();
        let tracer = Arc::new(Tracer::new(DEFAULT_TRACE_CAPACITY));
        StreamSession::with_observability(self, config, registry, tracer)
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

    /// Appends every output row rewritten since the previous call to `out`
    /// and forgets them — the union of the engines'
    /// [`InkStream::take_dirty_rows`] lists, which are disjoint because an
    /// engine writes output rows only for vertices it owns. Returns `false`
    /// when any engine cannot list its changes row by row (after a resync
    /// or a vertex insertion): treat every row as changed.
    pub fn take_dirty_rows(&mut self, out: &mut Vec<VertexId>) -> bool {
        let mut known = true;
        for e in &mut self.engines {
            // No short circuit: every engine's list must be drained.
            known &= e.take_dirty_rows(out);
        }
        known
    }

    /// Applies one batch of edge changes as a partitioned round. Same
    /// contract as [`InkStream::apply_delta`].
    ///
    /// # Panics
    ///
    /// When an engine step panicked in this round or an earlier one —
    /// callers that must survive that use
    /// [`PartitionedInkStream::try_apply_delta`] (which is what
    /// [`Engine::apply`] calls) instead.
    pub fn apply_delta(&mut self, delta: &DeltaBatch) -> UpdateReport {
        self.try_apply_delta(delta)
            .expect("edge-only rounds cannot fail validation on a healthy driver")
    }

    /// Fallible [`PartitionedInkStream::apply_delta`]: surfaces a panic in an
    /// engine step as [`InkError::WorkerPanic`] instead of unwinding the
    /// caller. After such an error the driver is poisoned — every further
    /// round fails fast with the same error until
    /// [`PartitionedInkStream::resync`].
    pub fn try_apply_delta(&mut self, delta: &DeltaBatch) -> Result<UpdateReport, InkError> {
        self.round(delta, &[])
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
        // The graph, features, engines and router all grow below, before
        // the round that wires the edges; a poisoned driver must not start.
        self.check_poison()?;
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
        self.features.push_row(feat);
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
        let report = self.try_apply_delta(&DeltaBatch::new(changes))?;
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
        self.try_apply_delta(&DeltaBatch::new(changes))
    }

    /// Rebuilds every partition's cached state from one fresh global
    /// bootstrap (per-partition bootstraps would recompute ghosts from
    /// incomplete neighborhoods). Afterwards the merged output is bitwise
    /// equal to full recomputation.
    pub fn resync(&mut self) -> ResyncReport {
        let t0 = Instant::now();
        // A panicked step can leave sibling engines with rounds still open
        // (the driver aborts them on the error path, but belt-and-braces:
        // adopt_state below asserts no round is active).
        for e in &mut self.engines {
            e.round_abort();
        }
        let fresh = InkStream::with_hooks(
            (self.model_factory)(),
            self.graph.clone(),
            self.features.clone(),
            self.cfg.update,
            self.hooks_factory.as_ref().map(|f| f()),
        )
        .expect("resync bootstrap shares shapes with the running engines");
        let state = fresh.state().clone();
        drop(fresh);
        let mut f32_written = 0u64;
        let per_engine: u64 = state
            .m
            .iter()
            .chain(&state.alpha)
            .chain(std::iter::once(&state.h))
            .map(|m| (m.rows() * m.cols()) as u64)
            .sum();
        for e in &mut self.engines {
            e.adopt_state(state.clone()).expect("resync state matches engine shapes");
            f32_written += per_engine;
        }
        // Every engine's state is authoritative again; rounds may run.
        self.poisoned = None;
        ResyncReport { elapsed: t0.elapsed(), f32_written }
    }

    /// One partitioned round: see the module docs for the schedule.
    fn round(
        &mut self,
        delta: &DeltaBatch,
        fx: &[(VertexId, Vec<f32>)],
    ) -> Result<UpdateReport, InkError> {
        let t0 = Instant::now();
        self.check_poison()?;
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
            self.features.set_row(*v as usize, feat);
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
            self.inst.boundary_events.inc();
            match c.op {
                EdgeOp::Insert => {
                    self.cut_edges += 1;
                    if self.table.add(c.src, pd) {
                        new_mirrors.push((c.src, pd));
                    }
                    if !directed && self.table.add(c.dst, ps) {
                        new_mirrors.push((c.dst, ps));
                    }
                }
                EdgeOp::Remove => {
                    self.cut_edges -= 1;
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
            self.inst.mirror_seeds.inc();
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
            self.step(StepOp::Rescale(l))?;
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
                        self.inst.replica_refreshes.inc();
                    }
                }
            }
            self.step(StepOp::Process(l))?;
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
        self.inst.rounds.inc();
        self.inst.cut_edges.set_u64(self.cut_edges as u64);
        self.inst.replicas.set_u64(self.table.total_mirrors() as u64);
        Ok(report)
    }

    /// Fails fast with the stored [`InkError::WorkerPanic`] while the driver
    /// is poisoned, before any graph replica mutates: the driver and engine
    /// graphs must stay in lockstep for resync.
    fn check_poison(&self) -> Result<(), InkError> {
        self.poisoned.clone().map_or(Ok(()), Err)
    }

    /// Runs `op` over every engine, one engine per block of a parallel call
    /// on the caller's rayon pool, and accumulates per-partition wall time,
    /// the hand-off delay and the straggler skew. A panicking step is caught
    /// there; the driver then aborts every engine's round (restoring the "no
    /// active round" invariant `resync` relies on), poisons itself and
    /// returns the typed error.
    fn step(&mut self, op: StepOp) -> Result<(), InkError> {
        struct Slot<'a> {
            engine: &'a mut InkStream,
            handoff: Duration,
            took: Duration,
            panic: Option<String>,
        }
        let start = Instant::now();
        let mut slots: Vec<Slot<'_>> = self
            .engines
            .iter_mut()
            .map(|engine| Slot {
                engine,
                handoff: Duration::ZERO,
                took: Duration::ZERO,
                panic: None,
            })
            .collect();
        slots.par_chunks_mut(1).for_each(|chunk| {
            let slot = &mut chunk[0];
            let t = Instant::now();
            slot.handoff = t - start;
            slot.panic = catch_unwind(AssertUnwindSafe(|| op.run(slot.engine)))
                .err()
                .map(|payload| payload_str(payload.as_ref()));
            slot.took = t.elapsed();
        });
        let (mut min, mut max) = (Duration::MAX, Duration::ZERO);
        let mut panicked = None;
        for (p, slot) in slots.into_iter().enumerate() {
            self.walls[p] += slot.took;
            self.inst.wall_ns[p].add(slot.took.as_nanos() as u64);
            self.inst.park_ns.record(slot.handoff.as_nanos() as u64);
            min = min.min(slot.took);
            max = max.max(slot.took);
            if let Some(detail) = slot.panic {
                panicked.get_or_insert(InkError::WorkerPanic { partition: p, detail });
            }
        }
        if self.engines.len() > 1 {
            self.inst.step_skew.record((max - min).as_nanos() as u64);
        }
        if let Some(err) = panicked {
            for e in &mut self.engines {
                e.round_abort();
            }
            self.inst.panics.inc();
            self.poisoned = Some(err.clone());
            return Err(err);
        }
        Ok(())
    }

    /// A copy of the routing function (the assignment sits behind an `Arc`,
    /// so the clone is cheap): lets a caller time or inspect
    /// [`DeltaRouter::route`] without borrowing the driver.
    pub fn routing_view(&self) -> DeltaRouter {
        self.router.clone()
    }

    /// [`InkStream::audit_vertex`] of `v` on the engine that owns it.
    fn audit_vertex(&self, v: VertexId) -> f32 {
        self.engines[self.router.owner(v) as usize].audit_vertex(v)
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
            boundary_events: self.inst.boundary_events.get(),
            replica_refreshes: self.inst.replica_refreshes.get(),
            mirror_seeds: self.inst.mirror_seeds.get(),
            partition_wall: self.walls.clone(),
        }
    }
}

/// The driver under a [`StreamSession`] or a server: audits run on
/// each vertex's owner, and the full audit adds the mirror-consistency sweep
/// (a partition-only failure mode a vertex-level audit cannot see).
impl Engine for PartitionedInkStream {
    fn apply(&mut self, delta: &DeltaBatch) -> Result<UpdateReport, InkError> {
        self.try_apply_delta(delta)
    }

    fn audit_full(&self) -> f32 {
        let owned = (0..self.graph.num_vertices() as VertexId)
            .fold(0.0, |worst, v| nan_max(worst, self.audit_vertex(v)));
        nan_max(owned, self.mirror_deviation())
    }

    fn audit_vertices(&self, vs: &[VertexId]) -> f32 {
        vs.iter().fold(0.0, |worst, &v| nan_max(worst, self.audit_vertex(v)))
    }

    fn resync(&mut self) -> ResyncReport {
        PartitionedInkStream::resync(self)
    }

    fn graph(&self) -> &DynGraph {
        &self.graph
    }

    fn take_dirty_rows(&mut self, out: &mut Vec<VertexId>) -> bool {
        PartitionedInkStream::take_dirty_rows(self, out)
    }

    fn scratch_bytes(&self) -> usize {
        self.engines.iter().map(InkStream::scratch_bytes).sum()
    }

    fn checkpoint(&self, _w: &mut dyn std::io::Write) -> Result<(), InkError> {
        Err(InkError::Unsupported {
            detail: "a partitioned engine has no checkpoint format; checkpoint a single \
                     engine and partition it on restore"
                .into(),
        })
    }
}

/// Lets a snapshot publish read rows straight from their owning engines
/// instead of from a gathered copy of the whole output.
impl RowSource for PartitionedInkStream {
    fn shape(&self) -> (usize, usize) {
        (self.graph.num_vertices(), self.engines[0].model().out_dim())
    }

    fn row(&self, v: usize) -> &[f32] {
        self.engines[self.router.owner(v as VertexId) as usize].state().h.row(v)
    }

    fn copy_into(&self, dst: &mut Matrix) {
        self.output_into(dst);
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

/// Renders a panic payload: the message for `&str`/`String` panics, a
/// placeholder otherwise.
fn payload_str(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Cut edges of `g` under `assignment` (undirected edges count once).
fn count_cut_edges(g: &DynGraph, assignment: &[u32]) -> usize {
    g.edges()
        .iter()
        .filter(|&&(u, v)| assignment[u as usize] != assignment[v as usize])
        .count()
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
    fn resync_restores_bitwise_reference() {
        let (mut single, mut parted) = setup(3);
        let delta = DeltaBatch::new(vec![EdgeChange::insert(2, 19), EdgeChange::insert(4, 9)]);
        single.apply_delta(&delta);
        parted.apply_delta(&delta);
        parted.resync();
        assert_eq!(&parted.output(), &single.recompute_reference());
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
