//! The InkStream engine — the paper's Algorithm 1.
//!
//! [`InkStream`] owns the model, the current graph, the features, and the
//! cached per-layer state (`m`, `α`, output `h`) from the previous
//! timestamp. Each update round processes layers in order through a five
//! phase pipeline (see DESIGN.md, "Update pipeline"):
//!
//! 1. **generate** — degree rescaling, ΔG event seeding, and effect
//!    propagation, fanned out across workers that write into private
//!    payload arenas and per-shard event buckets;
//! 2. **group** — target-sharded reduction of each shard's events to at
//!    most one deletion/addition payload (monotonic) or one signed sum
//!    (accumulative) per target, payloads living in flat per-shard buffers;
//! 3. **apply** — per-target, per-channel evolvability check (no reset /
//!    covered reset / exposed reset → re-aggregate only the exposed channels
//!    over the in-neighbors) or accumulative update, α values written into
//!    flat per-shard output buffers; only targets that need every channel
//!    rebuilt (empty old neighborhood, `incremental: false`) take the
//!    gathered-panel recomputation;
//! 4. **write** — sequential commit of changed α rows, condition stats,
//!    user events, and the merged next-layer target list;
//! 5. **next-messages** — rebuild of next-layer messages (or final outputs)
//!    for every target, emitting the next layer's effect seeds unless
//!    pruned.
//!
//! On a layer whose cached output is affine in α (the last layer of a
//! sum/mean GraphSAGE — [`crate::accumulative`] decides) the transform moves
//! to the source: generate widens every payload to `[Δm ‖ Δm·W]`, group sums
//! both halves in one slot, and apply commits every target whose own message
//! and denominator did not move — a *delta row* — in place: the α row from
//! `Σ Δm`, then `h += s·Σ Δm·W`. To write rows from parallel shards without
//! `unsafe`, such a layer shards targets by a hash of their 64-row vertex
//! block instead of the vertex and hands each shard its own blocks of α and
//! `h` as disjoint mutable slices (`pipeline::ShardRows`). Write then only
//! counts a delta row; write and next-messages move α rows and rebuild
//! outputs for the few remaining targets. Every other layer keeps the
//! vertex key — a block key would leave graphs under 64 vertices, the ones
//! the shard-sweep tests use, with a single shard — and cuts no blocks, so
//! it does no O(|V|) work per round.
//!
//! A parallel round takes one worker per rayon thread and the next power of
//! two of four shards per worker (`round_split`); each phase goes to the
//! pool only past [`PARALLEL_MIN_ITEMS`] work items (`fan_out`). Workers
//! process contiguous ordered chunks and every target belongs to exactly one
//! shard, so the pipeline's result is bitwise identical for every thread
//! count — including the sequential 1×1 configuration, the scalar oracle.
//! All scratch storage is pooled in the engine and reused across rounds, so
//! steady-state updates allocate nothing in the generate and group phases.
//!
//! Monotonic updates are bitwise identical to full recomputation; the
//! integration suite asserts that per aggregation function.

use crate::accumulative::{
    accumulate_in_place, apply_accumulative_into, apply_delta_row, delta_row_scale, delta_weight,
};
use crate::config::{UpdateConfig, BATCH_MIN_TARGETS, PARALLEL_MIN_ITEMS};
use crate::error::InkError;
use crate::event::{Event, EventOp};
use crate::grouping::{recompute_sort_key, RecomputeKind};
use crate::hooks::{UserEvent, UserHooks};
use crate::monotonic::{apply_monotonic_into, Condition};
use crate::pipeline::{
    acc_slot_in, shard_of, slot_in, worker_chunk, AlphaRows, ApplyOutcome, ApplyParts, CondKind,
    ScratchPool, ShardRows, ShardScratch, WorkerScratch, NO_SLOT,
};
use crate::stats::{LayerStats, UpdateReport};
use ink_graph::{DeltaBatch, DynGraph, EdgeChange, EdgeOp, FxHashMap, VertexId};
use ink_gnn::full::{batch_aggregate_into, batch_message_into};
use ink_gnn::{FullState, Model};
use ink_tensor::gemm::{gather_rows_into, gather_rows_scaled_into};
use ink_tensor::{GemmScratch, Matrix};
use rayon::prelude::*;
use std::time::Instant;

/// What an [`InkStream::resync`] cost: wall time of the bootstrap and the
/// number of `f32` values rewritten (the full cached state).
#[derive(Clone, Copy, Debug, Default)]
pub struct ResyncReport {
    /// Wall-clock time of the in-place rebuild.
    pub elapsed: std::time::Duration,
    /// `f32` values written: every cell of every cached `m`/`α`/`h` matrix.
    pub f32_written: u64,
}

/// In-flight context of one update round while it is stepped layer by layer
/// through the round API ([`InkStream::round_begin`] …
/// [`InkStream::round_finish`]). The scratch pool moves in here for the
/// duration of the round and back into the engine at the end, so the
/// zero-allocation guarantees are unchanged.
struct RoundState {
    directed: Vec<(VertexId, VertexId, EdgeOp)>,
    scratch: ScratchPool,
    report: UpdateReport,
    t0: Instant,
    nw: usize,
    ns: usize,
    f32_read: u64,
    f32_written: u64,
    /// Wall time of the most recent [`InkStream::round_rescale`], folded
    /// into that layer's generate-phase time by `round_process`.
    rescale_elapsed: std::time::Duration,
    /// Transformed channels behind every payload of the layer being stepped:
    /// the delta rule's `W` width where [`delta_weight`] grants it, else 0.
    /// Decided once per layer by [`InkStream::round_rescale`].
    tail: usize,
}

/// The incremental GNN inference engine.
pub struct InkStream {
    model: Model,
    graph: DynGraph,
    features: Matrix,
    state: FullState,
    config: UpdateConfig,
    hooks: Option<Box<dyn UserHooks>>,
    user_cache: Vec<Option<Matrix>>,
    scratch: ScratchPool,
    /// Ownership mask for partitioned operation (`None` = this engine owns
    /// every vertex). A non-owned ("ghost") vertex carries cached messages
    /// that mirror its owner's, but this engine never updates its α/h rows
    /// and never generates events targeting it — the owning engine does.
    owned: Option<Vec<bool>>,
    /// The round currently being stepped, if any.
    round: Option<RoundState>,
    /// Output rows rewritten since the last [`InkStream::take_dirty_rows`]
    /// (duplicates allowed); meaningless while `dirty_all` is set.
    dirty: Vec<VertexId>,
    /// The output changed in ways `dirty` does not list row by row.
    dirty_all: bool,
}

/// `dirty` gives up and reads "all rows" once it outgrows |V| / this: a
/// consumer copying that many scattered rows is no better off than with one
/// streaming copy, and a user who never drains the list holds no memory.
const DIRTY_ROWS_DIVISOR: usize = 8;

/// The round's `(workers, shards)`: `(1, 1)` for the sequential oracle,
/// else one worker per thread of the rayon pool the round runs in and the
/// next power of two of four shards per worker.
fn round_split(parallel: bool) -> (usize, usize) {
    if !parallel {
        return (1, 1);
    }
    let workers = rayon::current_num_threads().max(1);
    (workers, (4 * workers).next_power_of_two())
}

/// The pipeline's one parallel gate: runs `f` over the `size`-wide chunks of
/// `data`, with their indices, on the rayon pool when the round is
/// `parallel` and the phase has at least [`PARALLEL_MIN_ITEMS`] work items,
/// inline otherwise. Which one never changes results. Worker and shard
/// lists go through with `size == 1`; on the pool, its resident threads and
/// the caller claim blocks of chunks as they free up, so a shard holding a
/// hub's targets does not hold the others back.
fn fan_out<T: Send>(
    parallel: bool,
    work: usize,
    data: &mut [T],
    size: usize,
    f: impl Fn((usize, &mut [T])) + Sync,
) {
    if parallel && work >= PARALLEL_MIN_ITEMS {
        data.par_chunks_mut(size).enumerate().for_each(f);
    } else {
        data.chunks_mut(size).enumerate().for_each(f);
    }
}

impl InkStream {
    /// Bootstraps the engine with a full-graph inference (the paper's
    /// initial step) and takes ownership of graph and features.
    pub fn new(
        model: Model,
        graph: DynGraph,
        features: Matrix,
        config: UpdateConfig,
    ) -> Result<Self, InkError> {
        Self::with_hooks(model, graph, features, config, None)
    }

    /// Like [`InkStream::new`] with user-defined event hooks (paper §II-D).
    pub fn with_hooks(
        model: Model,
        graph: DynGraph,
        features: Matrix,
        config: UpdateConfig,
        hooks: Option<Box<dyn UserHooks>>,
    ) -> Result<Self, InkError> {
        if !model.supports_incremental() {
            return Err(InkError::ExactGraphNorm);
        }
        if features.cols() != model.in_dim() {
            return Err(InkError::ShapeMismatch {
                detail: format!(
                    "feature dim {} != model input dim {}",
                    features.cols(),
                    model.in_dim()
                ),
            });
        }
        if features.rows() != graph.num_vertices() {
            return Err(InkError::ShapeMismatch {
                detail: format!(
                    "{} feature rows for {} vertices",
                    features.rows(),
                    graph.num_vertices()
                ),
            });
        }
        let (state, user_cache) = bootstrap(&model, &graph, &features, hooks.as_deref());
        Ok(Self {
            model,
            graph,
            features,
            state,
            config,
            hooks,
            user_cache,
            scratch: ScratchPool::default(),
            owned: None,
            round: None,
            dirty: Vec::new(),
            dirty_all: false,
        })
    }

    /// Reassembles an engine from previously cached state *without* a full
    /// inference — the checkpoint-resume path (see [`crate::checkpoint`]).
    /// Shapes are validated; user caches are rebuilt from the cached
    /// messages. The caller is responsible for the state actually matching
    /// the graph/features (checkpoints written by [`crate::checkpoint::save`]
    /// do by construction).
    pub fn from_parts(
        model: Model,
        graph: DynGraph,
        features: Matrix,
        state: FullState,
        config: UpdateConfig,
        hooks: Option<Box<dyn UserHooks>>,
    ) -> Result<Self, InkError> {
        if !model.supports_incremental() {
            return Err(InkError::ExactGraphNorm);
        }
        let n = graph.num_vertices();
        let k = model.num_layers();
        if features.shape() != (n, model.in_dim()) {
            return Err(InkError::ShapeMismatch {
                detail: format!("features {:?} for n={n}, in_dim={}", features.shape(), model.in_dim()),
            });
        }
        if state.m.len() != k || state.alpha.len() != k {
            return Err(InkError::ShapeMismatch {
                detail: format!("state has {} layers, model has {k}", state.m.len()),
            });
        }
        for l in 0..k {
            let want = (n, model.msg_dim(l));
            if state.m[l].shape() != want || state.alpha[l].shape() != want {
                return Err(InkError::ShapeMismatch {
                    detail: format!(
                        "layer {l}: m {:?} / alpha {:?}, expected {want:?}",
                        state.m[l].shape(),
                        state.alpha[l].shape()
                    ),
                });
            }
        }
        if state.h.shape() != (n, model.out_dim()) {
            return Err(InkError::ShapeMismatch {
                detail: format!("output {:?}, expected ({n}, {})", state.h.shape(), model.out_dim()),
            });
        }
        let user_cache = (0..k)
            .map(|l| hooks.as_deref().and_then(|h| h.init_cache(l, &state.m[l])))
            .collect();
        Ok(Self {
            model,
            graph,
            features,
            state,
            config,
            hooks,
            user_cache,
            scratch: ScratchPool::default(),
            owned: None,
            round: None,
            dirty: Vec::new(),
            dirty_all: false,
        })
    }

    /// The current output embeddings.
    pub fn output(&self) -> &Matrix {
        &self.state.h
    }

    /// The current graph.
    pub fn graph(&self) -> &DynGraph {
        &self.graph
    }

    /// The current feature matrix.
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// The cached per-layer state (`m`, `α`, `h`).
    pub fn state(&self) -> &FullState {
        &self.state
    }

    /// The model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Replaces the update configuration (e.g. to switch ablation modes).
    pub fn set_config(&mut self, config: UpdateConfig) {
        self.config = config;
    }

    /// Heap bytes reserved by the engine's reusable scratch pool. Stable
    /// across steady-state rounds of similar shape — the zero-allocation
    /// guarantee of the generate/group phases.
    pub fn scratch_bytes(&self) -> usize {
        self.scratch.bytes()
    }

    /// Recomputes the output from scratch (fresh bootstrap) — the reference
    /// the incremental state must match. Intended for verification.
    pub fn recompute_reference(&self) -> Matrix {
        bootstrap(&self.model, &self.graph, &self.features, self.hooks.as_deref()).0.h
    }

    /// Mutable access to the cached state, for fault injection in tests and
    /// drift experiments (e.g. poisoning one α channel with NaN to exercise
    /// the audit path). Production code should never need this: the engine
    /// maintains the state invariants itself, and a hand-edited state is by
    /// definition out of sync until [`InkStream::resync`] runs.
    pub fn state_mut(&mut self) -> &mut FullState {
        self.mark_all_dirty();
        &mut self.state
    }

    /// Appends to `out` every output row ([`InkStream::output`]) rewritten
    /// since the previous call (or since construction) and forgets them. A
    /// row may appear more than once. Returns `false` — appending nothing —
    /// when the changes are not known row by row and every row must be
    /// treated as changed: after [`InkStream::resync`],
    /// [`InkStream::adopt_state`], [`InkStream::add_vertex`],
    /// [`InkStream::state_mut`], or once the undrained list outgrew an
    /// eighth of the vertex count.
    ///
    /// This is what lets a snapshot publish cost O(rows changed) instead of
    /// O(|V|); see [`crate::snapshot::SnapshotPublisher::publish_rows`].
    pub fn take_dirty_rows(&mut self, out: &mut Vec<VertexId>) -> bool {
        out.append(&mut self.dirty);
        !std::mem::take(&mut self.dirty_all)
    }

    fn mark_all_dirty(&mut self) {
        self.dirty.clear();
        self.dirty_all = true;
    }

    /// True when any cached matrix (`m`, `α`, `h`) holds a NaN or infinity.
    pub fn state_has_nan(&self) -> bool {
        self.state.m.iter().chain(&self.state.alpha).any(Matrix::has_non_finite)
            || self.state.h.has_non_finite()
    }

    /// Spot-audits one vertex: checks its cached rows for non-finite values,
    /// recomputes `α_l[v]` from the cached neighbor messages, and re-derives
    /// the downstream message / output row from the cached `α`. Returns the
    /// worst absolute deviation across all layers — `NaN` when any involved
    /// value is non-finite (NaN never compares under tolerance, so it always
    /// reads as a breach).
    ///
    /// Cost is `O(deg(v) · dim · layers)` — independent of the graph size,
    /// which is what makes sampled audits cheap (see DESIGN.md, "Drift
    /// auditing and resync").
    pub fn audit_vertex(&self, v: VertexId) -> f32 {
        use ink_tensor::ops::nan_max;
        if (v as usize) >= self.graph.num_vertices() {
            return f32::NAN;
        }
        let k = self.model.num_layers();
        for l in 0..k {
            let finite = |x: &f32| x.is_finite();
            if !self.state.m[l].row(v as usize).iter().all(finite)
                || !self.state.alpha[l].row(v as usize).iter().all(finite)
            {
                return f32::NAN;
            }
        }
        if !self.state.h.row(v as usize).iter().all(|x| x.is_finite()) {
            return f32::NAN;
        }
        let degree = self.graph.in_degree(v);
        let mut dev = 0.0f32;
        for l in 0..k {
            // Aggregation consistency: cached α must equal a fresh aggregate
            // of the cached neighbor messages.
            let agg = self.model.layer(l).conv.aggregator();
            let mut fresh = vec![0.0; self.model.msg_dim(l)];
            agg.aggregate_into(
                self.graph.in_neighbors(v).iter().map(|&u| self.state.m[l].row(u as usize)),
                &mut fresh,
            );
            for (a, b) in fresh.iter().zip(self.state.alpha[l].row(v as usize)) {
                dev = nan_max(dev, (a - b).abs());
            }
            // Chain consistency: the downstream row derived from cached α
            // must equal the cached downstream row.
            let h_next = compute_next_hidden(
                &self.model,
                &self.state,
                self.hooks.as_deref(),
                &self.user_cache,
                l,
                v,
                degree,
            );
            if l + 1 < k {
                let conv = &self.model.layer(l + 1).conv;
                let mut msg = conv.message(&h_next);
                if conv.degree_scaled() {
                    ink_tensor::ops::scale(&mut msg, conv.degree_scale(degree));
                }
                for (a, b) in msg.iter().zip(self.state.m[l + 1].row(v as usize)) {
                    dev = nan_max(dev, (a - b).abs());
                }
            } else {
                for (a, b) in h_next.iter().zip(self.state.h.row(v as usize)) {
                    dev = nan_max(dev, (a - b).abs());
                }
            }
        }
        dev
    }

    /// [`InkStream::audit_vertex`] over a sample, NaN-propagating fold of the
    /// worst deviation.
    pub fn audit_vertices(&self, vs: &[VertexId]) -> f32 {
        vs.iter().fold(0.0, |acc, &v| ink_tensor::ops::nan_max(acc, self.audit_vertex(v)))
    }

    /// Full audit: scans the whole cached state for non-finite values
    /// (returning `NaN` if any), then compares the cached output against a
    /// fresh [`InkStream::recompute_reference`]. This is the expensive,
    /// authoritative drift measurement — `O(bootstrap)`.
    pub fn audit_full(&self) -> f32 {
        if self.state_has_nan() {
            return f32::NAN;
        }
        self.state.h.max_abs_diff(&self.recompute_reference())
    }

    /// Rebuilds all cached state (`m`, `α`, `h`, user caches) in place via
    /// the bootstrap path — the self-healing action of
    /// [`crate::DriftAction::Resync`]. Afterwards the output is bitwise
    /// equal to [`InkStream::recompute_reference`] by construction; the
    /// graph and features are untouched. Every cached matrix is rebuilt
    /// capacity-preserving with temporaries drawn from the engine's scratch
    /// pool, so repeated resyncs of a hook-free engine allocate nothing
    /// after the first.
    pub fn resync(&mut self) -> ResyncReport {
        let t0 = Instant::now();
        bootstrap_into(
            &self.model,
            &self.graph,
            &self.features,
            self.hooks.as_deref(),
            &mut self.state,
            &mut self.user_cache,
            &mut self.scratch.gemm,
        );
        let f32_written = self
            .state
            .m
            .iter()
            .chain(&self.state.alpha)
            .chain(std::iter::once(&self.state.h))
            .map(|m| m.rows() * m.cols())
            .sum::<usize>() as u64;
        self.mark_all_dirty();
        ResyncReport { elapsed: t0.elapsed(), f32_written }
    }

    /// Applies `delta`'s effective changes to the graph and expands them into
    /// directed `(src, dst, op)` pairs (both directions for undirected
    /// graphs). Returns the pairs plus the count of skipped no-ops.
    fn stage_delta(&mut self, delta: &DeltaBatch) -> (Vec<(VertexId, VertexId, EdgeOp)>, usize) {
        let mut directed: Vec<(VertexId, VertexId, EdgeOp)> = Vec::with_capacity(delta.len() * 2);
        let mut skipped = 0usize;
        for c in delta.changes() {
            if self.graph.apply(*c) {
                directed.push((c.src, c.dst, c.op));
                if !self.graph.is_directed() {
                    directed.push((c.dst, c.src, c.op));
                }
            } else {
                skipped += 1;
            }
        }
        (directed, skipped)
    }

    /// Writes one feature row and, for an owned vertex whose layer-0 message
    /// actually changes, records the old message as a propagation seed (plus
    /// any user events). Ghost vertices only get the feature row written —
    /// their message refresh arrives from the owning engine.
    fn stage_feature_update(
        &mut self,
        v: VertexId,
        new_feat: &[f32],
        seeds: &mut Vec<(VertexId, Vec<f32>)>,
        user0: &mut Vec<UserEvent>,
    ) -> Result<(), InkError> {
        if (v as usize) >= self.graph.num_vertices() {
            return Err(InkError::UnknownVertex(v));
        }
        if new_feat.len() != self.model.in_dim() {
            return Err(InkError::ShapeMismatch {
                detail: format!("feature len {} != {}", new_feat.len(), self.model.in_dim()),
            });
        }
        self.features.set_row(v as usize, new_feat);
        if !self.owns(v) {
            return Ok(());
        }
        let conv0 = &self.model.layer(0).conv;
        let mut new_m = conv0.message(new_feat);
        if conv0.degree_scaled() {
            ink_tensor::ops::scale(&mut new_m, conv0.degree_scale(self.graph.in_degree(v)));
        }
        let old = self.state.m[0].row(v as usize).to_vec();
        if new_m != old {
            self.state.m[0].set_row(v as usize, &new_m);
            if let Some(hooks) = self.hooks.as_deref() {
                user0.extend(hooks.user_propagate(0, v, &old, &new_m));
            }
            seeds.push((v, old));
        }
        Ok(())
    }

    /// Applies a batch of edge changes and incrementally updates all cached
    /// state. Changes that are no-ops against the current graph (duplicate
    /// inserts, missing removals) are skipped and counted in the report.
    pub fn apply_delta(&mut self, delta: &DeltaBatch) -> UpdateReport {
        let (directed, skipped) = self.stage_delta(delta);
        let mut report = self.run_layers(directed, Vec::new(), Vec::new());
        report.skipped_changes = skipped;
        report
    }

    /// Updates one vertex's input feature (paper §II-F) and propagates the
    /// effect through all layers.
    pub fn update_vertex_feature(
        &mut self,
        v: VertexId,
        new_feat: &[f32],
    ) -> Result<UpdateReport, InkError> {
        let mut seeds = Vec::new();
        let mut user0 = Vec::new();
        self.stage_feature_update(v, new_feat, &mut seeds, &mut user0)?;
        Ok(self.run_layers(Vec::new(), seeds, user0))
    }

    /// Inserts a new vertex with `feat` and undirected/outgoing edges to
    /// `neighbors`, extending all cached state (paper §II-F).
    pub fn add_vertex(
        &mut self,
        feat: &[f32],
        neighbors: &[VertexId],
    ) -> Result<(VertexId, UpdateReport), InkError> {
        if feat.len() != self.model.in_dim() {
            return Err(InkError::ShapeMismatch {
                detail: format!("feature len {} != {}", feat.len(), self.model.in_dim()),
            });
        }
        for &n in neighbors {
            if (n as usize) >= self.graph.num_vertices() {
                return Err(InkError::UnknownVertex(n));
            }
        }
        let v = self.graph.add_vertex();
        self.features.push_row(feat);
        // The output grows a row: no row list describes a shape change.
        self.mark_all_dirty();
        // Build the new vertex's self-consistent isolated chain: empty
        // neighborhood → α = 0 at every layer.
        let k = self.model.num_layers();
        let conv0 = &self.model.layer(0).conv;
        let mut msg = conv0.message(feat);
        if conv0.degree_scaled() {
            ink_tensor::ops::scale(&mut msg, conv0.degree_scale(0));
        }
        for l in 0..k {
            let dim = self.model.msg_dim(l);
            self.state.m[l].push_row(&msg);
            self.state.alpha[l].push_row(&vec![0.0; dim]);
            if let Some(cache) = self.user_cache[l].as_mut() {
                let single = Matrix::from_vec(1, dim, msg.clone());
                let row = self
                    .hooks
                    .as_deref()
                    .and_then(|h| h.init_cache(l, &single))
                    .expect("hooked layer must produce a cache row");
                cache.push_row(row.row(0));
            }
            let h_next = compute_next_hidden(
                &self.model,
                &self.state,
                self.hooks.as_deref(),
                &self.user_cache,
                l,
                v,
                0,
            );
            if l + 1 < k {
                let next_conv = &self.model.layer(l + 1).conv;
                msg = next_conv.message(&h_next);
                if next_conv.degree_scaled() {
                    ink_tensor::ops::scale(&mut msg, next_conv.degree_scale(0));
                }
            } else {
                self.state.h.push_row(&h_next);
            }
        }
        let changes: Vec<EdgeChange> =
            neighbors.iter().map(|&n| EdgeChange::insert(v, n)).collect();
        let report = self.apply_delta(&DeltaBatch::new(changes));
        Ok((v, report))
    }

    /// Removes all edges incident to `v` (the id slot stays, isolated, so
    /// embedding tables keep their indices) and updates the affected area.
    pub fn remove_vertex(&mut self, v: VertexId) -> Result<UpdateReport, InkError> {
        if (v as usize) >= self.graph.num_vertices() {
            return Err(InkError::UnknownVertex(v));
        }
        let mut changes: Vec<EdgeChange> =
            self.graph.out_neighbors(v).iter().map(|&n| EdgeChange::remove(v, n)).collect();
        if self.graph.is_directed() {
            changes.extend(self.graph.in_neighbors(v).iter().map(|&n| EdgeChange::remove(n, v)));
        }
        Ok(self.apply_delta(&DeltaBatch::new(changes)))
    }

    /// The engine's main loop over layers (Algorithm 1), as the sharded
    /// five-phase pipeline described in the module docs. Implemented on top
    /// of the round-stepping API (`round_begin` … `round_finish`) so a
    /// partitioned driver can interleave boundary-row exchanges between
    /// layers; run back to back the steps are bitwise identical to the
    /// monolithic pipeline they were split from.
    fn run_layers(
        &mut self,
        directed: Vec<(VertexId, VertexId, EdgeOp)>,
        seeds0: Vec<(VertexId, Vec<f32>)>,
        user0: Vec<UserEvent>,
    ) -> UpdateReport {
        self.round_start(directed, seeds0, user0);
        for l in 0..self.model.num_layers() {
            self.round_rescale(l);
            self.round_process(l);
        }
        self.round_finish()
    }

    /// Opens a round: sizes and seeds the scratch pool, and derives the
    /// covered-edge set and per-vertex net degree changes.
    fn round_start(
        &mut self,
        directed: Vec<(VertexId, VertexId, EdgeOp)>,
        seeds0: Vec<(VertexId, Vec<f32>)>,
        user0: Vec<UserEvent>,
    ) {
        assert!(self.round.is_none(), "a round is already in flight");
        let t0 = Instant::now();
        let k = self.model.num_layers();
        let cfg = self.config;
        let (nw, ns) = round_split(cfg.parallel);

        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.begin_round(k, nw, ns);
        // The pool only ever grows (see `begin_round`), so after a round on
        // more threads (or before a `set_config` to the sequential oracle)
        // there may be more pooled workers/shards than this round's
        // `nw`/`ns`. Every phase below iterates only the first `nw` workers
        // and `ns` shards — a sequential round must not pay per-shard walks
        // over pool capacity left behind by a parallel one.
        for l in 0..k {
            scratch.old.reset_layer(l, self.model.msg_dim(l));
        }
        for (v, old) in &seeds0 {
            scratch.old.insert(0, *v, old);
            scratch.affected.insert(*v);
        }
        scratch.pending_user[0].extend(user0);

        // Edges covered by ΔG insert events (the duplicate-event rule) and
        // the net in-degree change per vertex (degree-scaled layers must
        // rescale the cached messages of these vertices).
        for &(s, t, op) in &directed {
            if op == EdgeOp::Insert {
                scratch.covered.insert((s, t));
            }
            *scratch.degree_net.entry(t).or_insert(0) += if op == EdgeOp::Insert { 1 } else { -1 };
        }
        scratch.degree_order.extend(scratch.degree_net.iter().map(|(&v, &net)| (v, net)));
        scratch.degree_order.sort_unstable();

        self.round = Some(RoundState {
            directed,
            scratch,
            report: UpdateReport::default(),
            t0,
            nw,
            ns,
            f32_read: 0,
            f32_written: 0,
            rescale_elapsed: std::time::Duration::ZERO,
            tail: 0,
        });
    }

    /// Opens a round from a delta plus feature updates — the entry point for
    /// partitioned drivers that step the round layer by layer themselves
    /// ([`InkStream::round_rescale`], [`InkStream::round_process`] per layer,
    /// then [`InkStream::round_finish`]). Applies the delta to the graph,
    /// writes the feature rows, and seeds propagation for *owned* vertices
    /// only. Returns the number of skipped no-op changes.
    ///
    /// # Errors
    ///
    /// A feature update for an unknown vertex or with the wrong width fails
    /// before any state is touched.
    pub fn round_begin(
        &mut self,
        delta: &DeltaBatch,
        feature_updates: &[(VertexId, Vec<f32>)],
    ) -> Result<usize, InkError> {
        assert!(self.round.is_none(), "a round is already in flight");
        for (v, feat) in feature_updates {
            if (*v as usize) >= self.graph.num_vertices() {
                return Err(InkError::UnknownVertex(*v));
            }
            if feat.len() != self.model.in_dim() {
                return Err(InkError::ShapeMismatch {
                    detail: format!("feature len {} != {}", feat.len(), self.model.in_dim()),
                });
            }
        }
        let (directed, skipped) = self.stage_delta(delta);
        let mut seeds = Vec::new();
        let mut user0 = Vec::new();
        for (v, feat) in feature_updates {
            self.stage_feature_update(*v, feat, &mut seeds, &mut user0)
                .expect("feature updates validated above");
        }
        self.round_start(directed, seeds, user0);
        if let Some(rs) = self.round.as_mut() {
            rs.report.skipped_changes = skipped;
        }
        Ok(skipped)
    }

    /// Degree-rescaling sub-step of layer `l` (a no-op for layers without
    /// degree-scaled messages). Must run before [`InkStream::round_process`]
    /// of the same layer; it is split out so a partitioned driver can
    /// exchange the rescaled boundary rows before event generation reads
    /// them. Only owned vertices are rescaled — ghosts receive the result
    /// via [`InkStream::round_ingest_refresh`].
    pub fn round_rescale(&mut self, l: usize) {
        let mut rs = self.round.take().expect("round_rescale requires an active round");
        let t_rescale = Instant::now();
        let cfg = self.config;
        let (nw, ns) = (rs.nw, rs.ns);
        let scratch = &mut rs.scratch;
        let degree_scaled = self.model.layer(l).conv.degree_scaled();
        let dim = self.model.msg_dim(l);
        // A delta-rule layer's payloads carry their transform behind the
        // message (never a degree-scaled layer, so nothing below pushes one).
        rs.tail = delta_weight(&self.model, l, self.hooks.is_some()).map_or(0, Matrix::cols);
        // Workers begin here (not in `round_process`) so the rescale stage
        // can already stage rows into their arenas.
        for ws in &mut scratch.workers[..nw] {
            ws.begin(ns, dim, rs.tail);
        }

        if degree_scaled {
            // Degree-scaled layers (LightGCN-style): a vertex whose
            // degree changed has a changed message at this layer even if
            // nothing else touched it. Candidates iterate in sorted
            // vertex order so the recorded changes are deterministic.
            {
                let ScratchPool { rescale_list, degree_order, old, .. } = &mut *scratch;
                let owned = self.owned.as_deref();
                rescale_list.clear();
                rescale_list.extend(
                    degree_order
                        .iter()
                        .filter(|&&(v, net)| {
                            net != 0 && !old.contains(l, v) && owns_in(owned, v)
                        })
                        .copied(),
                );
            }
            {
                let ScratchPool { workers, rescale_list, .. } = &mut *scratch;
                let workers = &mut workers[..nw];
                let rescale_list = &*rescale_list;
                let this = &*self;
                // Stage the new message (old scaled by the weight ratio,
                // or rebuilt from upstream state when the old degree was
                // 0 and the cached message is the zero convention).
                let run = |(w, ws): (usize, &mut WorkerScratch)| {
                    let conv = &this.model.layer(l).conv;
                    for &(v, net) in
                        &rescale_list[worker_chunk(rescale_list.len(), w, nw)]
                    {
                        let d_new = this.graph.in_degree(v);
                        let d_old = (d_new as i64 - net).max(0) as usize;
                        let pid = if d_old == 0 {
                            let base_h = if l == 0 {
                                this.features.row(v as usize).to_vec()
                            } else {
                                compute_next_hidden(
                                    &this.model,
                                    &this.state,
                                    this.hooks.as_deref(),
                                    &this.user_cache,
                                    l - 1,
                                    v,
                                    d_new,
                                )
                            };
                            let msg = conv.message(&base_h);
                            ws.arena.push_scaled(&msg, conv.degree_scale(d_new))
                        } else {
                            let ratio =
                                conv.degree_scale(d_new) / conv.degree_scale(d_old);
                            ws.arena.push_scaled(this.state.m[l].row(v as usize), ratio)
                        };
                        ws.rescaled.push((v, pid));
                    }
                };
                fan_out(cfg.parallel, rescale_list.len(), workers, 1, |(w, ws)| {
                    run((w, &mut ws[0]))
                });
            }
            // Commit in worker order (= candidate order): vertices whose
            // message really changed record their old value and hooks.
            {
                let ScratchPool { workers, old, pending_user, .. } = &mut *scratch;
                for ws in workers[..nw].iter() {
                    for &(v, pid) in &ws.rescaled {
                        let new = ws.arena.get(pid);
                        if new != self.state.m[l].row(v as usize) {
                            old.insert(l, v, self.state.m[l].row(v as usize));
                            if let Some(hooks) = self.hooks.as_deref() {
                                pending_user[l].extend(hooks.user_propagate(
                                    l,
                                    v,
                                    old.get(l, v).expect("just inserted"),
                                    new,
                                ));
                            }
                            self.state.m[l].set_row(v as usize, new);
                        }
                    }
                }
            }
        }
        rs.rescale_elapsed = t_rescale.elapsed();
        self.round = Some(rs);
    }

    /// Exports the owned vertices whose layer-`l` message was recorded this
    /// round (changed by seeds, rescale, a ghost-independent refresh, or the
    /// previous layer's commit — plus unchanged-but-recorded rows when
    /// pruning is off), each with its *current* row, in ascending vertex
    /// order. A partitioned driver forwards the boundary subset to every
    /// mirror via [`InkStream::round_ingest_refresh`] between
    /// [`InkStream::round_rescale`] and [`InkStream::round_process`].
    pub fn round_changed_rows(&self, l: usize, out: &mut Vec<(VertexId, Vec<f32>)>) {
        let rs = self.round.as_ref().expect("round_changed_rows requires an active round");
        let mut keys = Vec::new();
        rs.scratch.old.keys_sorted_into(l, &mut keys);
        let owned = self.owned.as_deref();
        out.extend(keys.into_iter().filter(|&v| owns_in(owned, v)).map(|v| {
            (v, self.state.m[l].row(v as usize).to_vec())
        }));
    }

    /// Ingests a refreshed layer-`l` message row for a ghost vertex from its
    /// owning engine: records the current row as the round's "old" value (so
    /// this engine re-generates the same propagation events the owner's
    /// change implies for locally-owned targets) and commits the new row.
    /// Must run before [`InkStream::round_process`] of layer `l`.
    pub fn round_ingest_refresh(&mut self, l: usize, v: VertexId, new_row: &[f32]) {
        let mut rs = self.round.take().expect("round_ingest_refresh requires an active round");
        let changed = {
            let cur = self.state.m[l].row(v as usize);
            rs.scratch.old.insert(l, v, cur);
            new_row != cur
        };
        if changed {
            if let Some(hooks) = self.hooks.as_deref() {
                let old = rs.scratch.old.get(l, v).expect("just recorded");
                rs.scratch.pending_user[l].extend(hooks.user_propagate(l, v, old, new_row));
            }
            self.state.m[l].set_row(v as usize, new_row);
        }
        self.round = Some(rs);
    }

    /// Runs the five pipeline phases of layer `l` for the current round.
    /// [`InkStream::round_rescale`] for the same layer must have run first.
    /// With an ownership mask installed, events and commits are restricted
    /// to owned targets; ghost vertices only *source* events (from rows
    /// refreshed by their owner).
    pub fn round_process(&mut self, l: usize) {
        let mut rs = self.round.take().expect("round_process requires an active round");
        let k = self.model.num_layers();
        let cfg = self.config;
        let (nw, ns) = (rs.nw, rs.ns);
        let rescale_elapsed = std::mem::take(&mut rs.rescale_elapsed);
        let mut f32_read: u64 = 0;
        let mut f32_written: u64 = 0;
        let scratch = &mut rs.scratch;
        let directed = &rs.directed;
        let report = &mut rs.report;
        {
            let agg = self.model.layer(l).conv.aggregator();
            let mono = agg.is_monotonic();
            let dim = self.model.msg_dim(l);
            let degree_scaled = self.model.layer(l).conv.degree_scaled();
            let self_dependent = self.model.layer(l).conv.self_dependent();
            let out_dim = self.model.layer(l).conv.out_dim();
            let is_last = l + 1 == k;
            let prod_dim = if is_last { out_dim } else { self.model.msg_dim(l + 1) };
            // `Some(W)` on a layer whose cached output is affine in α
            // (`round_rescale` decided): its payloads are `[Δm ‖ Δm·W]`
            // through generate and group, targets are sharded by 64-row
            // block, and apply commits every target whose self term and
            // denominator did not move by the delta rule
            // (`crate::accumulative`).
            let tail = rs.tail;
            let delta_w = self.model.layer(l).conv.alpha_weight().filter(|_| tail > 0);
            let blocked = delta_w.is_some();
            let mut layer_stats = LayerStats::default();

            // ── Phase 1: generate ─────────────────────────────────────────
            // ΔG seeding and effect propagation, fanned out over workers
            // (degree rescaling already ran in `round_rescale`). Each worker
            // owns a contiguous ordered chunk of the work lists and writes
            // into its private arena/buckets.
            let t_generate = Instant::now();

            // Changed messages propagate in sorted vertex order — the
            // canonical event order every worker/shard split reproduces.
            {
                let ScratchPool { old, changed_order, .. } = &mut *scratch;
                old.keys_sorted_into(l, changed_order);
            }

            let gen_work = directed.len() + scratch.changed_order.len();
            {
                let ScratchPool { workers, old, changed_order, covered, .. } = &mut *scratch;
                let workers = &mut workers[..nw];
                let old = &*old;
                let changed_order = &*changed_order;
                let covered = &*covered;
                let directed = &directed[..];
                let this = &*self;
                let run = |(w, ws): (usize, &mut WorkerScratch)| {
                    // ΔG events for this layer. Events targeting non-owned
                    // vertices are the owning engine's job — skip them.
                    for &(s, t, op) in &directed[worker_chunk(directed.len(), w, nw)] {
                        if !this.owns(t) {
                            continue;
                        }
                        match op {
                            EdgeOp::Remove => {
                                let old_row = old
                                    .get(l, s)
                                    .unwrap_or_else(|| this.state.m[l].row(s as usize));
                                let (ev_op, payload) = if mono {
                                    (EventOp::Del, ws.arena.push(old_row))
                                } else {
                                    (EventOp::Update, ws.arena.push_negated(old_row))
                                };
                                ws.dg[shard_of(t, ns, blocked)].push(Event {
                                    op: ev_op,
                                    target: t,
                                    payload,
                                    degree_delta: -1,
                                });
                            }
                            EdgeOp::Insert => {
                                let payload = ws.arena.push(this.state.m[l].row(s as usize));
                                let ev_op = if mono { EventOp::Add } else { EventOp::Update };
                                ws.dg[shard_of(t, ns, blocked)].push(Event {
                                    op: ev_op,
                                    target: t,
                                    payload,
                                    degree_delta: 1,
                                });
                            }
                        }
                    }
                    // Effect propagation from messages changed at this
                    // layer, skipping edges already covered by ΔG events.
                    for &v in &changed_order[worker_chunk(changed_order.len(), w, nw)] {
                        let old_row = old.get(l, v).expect("changed_order lists recorded rows");
                        let new = this.state.m[l].row(v as usize);
                        if mono {
                            let del_id = ws.arena.push(old_row);
                            let add_id = ws.arena.push(new);
                            for &x in this.graph.out_neighbors(v) {
                                if covered.contains(&(v, x)) || !this.owns(x) {
                                    continue;
                                }
                                let sh = shard_of(x, ns, blocked);
                                ws.fx[sh].push(Event {
                                    op: EventOp::Del,
                                    target: x,
                                    payload: del_id,
                                    degree_delta: 0,
                                });
                                ws.fx[sh].push(Event {
                                    op: EventOp::Add,
                                    target: x,
                                    payload: add_id,
                                    degree_delta: 0,
                                });
                            }
                        } else {
                            let diff_id = ws.arena.push_diff(new, old_row);
                            for &x in this.graph.out_neighbors(v) {
                                if covered.contains(&(v, x)) || !this.owns(x) {
                                    continue;
                                }
                                ws.fx[shard_of(x, ns, blocked)].push(Event {
                                    op: EventOp::Update,
                                    target: x,
                                    payload: diff_id,
                                    degree_delta: 0,
                                });
                            }
                        }
                    }
                    // The source transform of a delta-rule layer: once per
                    // payload, shared by all its events as the payload is.
                    if let Some(w) = delta_w {
                        ws.arena.transform_tails(w);
                    }
                };
                fan_out(cfg.parallel, gen_work, workers, 1, |(w, ws)| run((w, &mut ws[0])));
            }
            layer_stats.events_created =
                scratch.workers[..nw].iter().map(WorkerScratch::events_emitted).sum();
            let payloads: usize = scratch.workers[..nw].iter().map(|ws| ws.arena.len()).sum();
            f32_written += (payloads * (dim + tail)) as u64;
            if delta_w.is_some() {
                layer_stats.delta_sources = payloads;
            }
            layer_stats.phases.generate = t_generate.elapsed() + rescale_elapsed;

            // ── Phase 2: group ────────────────────────────────────────────
            // Each shard reduces its buckets phase-major then worker-major —
            // exactly the sequential emission order restricted to the shard.
            let t_group = Instant::now();
            {
                let ScratchPool { workers, shards, .. } = &mut *scratch;
                let workers = &workers[..nw];
                let shards = &mut shards[..ns];
                let run = |(s, shard): (usize, &mut ShardScratch)| {
                    shard.begin();
                    for ws in workers {
                        shard.reduce_bucket(&ws.dg[s], &ws.arena, agg, cfg.compensated);
                    }
                    for ws in workers {
                        shard.reduce_bucket(&ws.fx[s], &ws.arena, agg, cfg.compensated);
                    }
                    if cfg.compensated && !mono {
                        shard.fold_compensation();
                    }
                };
                let events = layer_stats.events_created;
                fan_out(cfg.parallel, events, shards, 1, |(s, shard)| run((s, &mut shard[0])));
            }
            let total_targets: usize = scratch.shards[..ns].iter().map(|s| s.entries.len()).sum();
            layer_stats.targets = total_targets;
            f32_read += scratch.shards[..ns].iter().map(|s| s.payload_reads).sum::<usize>() as u64;
            layer_stats.phases.group = t_group.elapsed();

            // ── Phase 3: apply ────────────────────────────────────────────
            // Per-target incremental update, α written into each shard's
            // flat output buffer. Two passes per shard: pass 1 classifies
            // every entry and finishes every incremental update in place —
            // a monotonic exposed reset included, which re-aggregates only
            // its exposed channels over the in-neighbors. Entries that need
            // *every* channel rebuilt (empty-old targets, the
            // `incremental: false` ablation) are deferred, grouped by kind ×
            // degree class, gathered into contiguous panels and folded with
            // the full-row reduction kernels in pass 2.
            //
            // On a delta-rule layer pass 1 also *commits* every delta row:
            // the α row from `Σ Δm`, then `h += s·Σ Δm·W`, both in place in
            // the 64-row blocks the shard owns. Its outcome carries the two
            // change tests, and nothing is staged for it.
            let t_apply = Instant::now();
            {
                let ScratchPool { shards, block_rank, old, .. } = &mut *scratch;
                let (shards, old, graph) = (&mut shards[..ns], &*old, &self.graph);
                let FullState { m, alpha, h, .. } = &mut self.state;
                let m_l = &m[l];
                let run = |shard: &mut ShardScratch, alpha_rows: &mut AlphaRows| {
                    let ApplyParts {
                        entries,
                        buf,
                        alpha_buf,
                        outcomes,
                        exposed,
                        exposed_channels,
                        exposed_rows,
                        recompute,
                        apply_comp,
                        gemm,
                        batched_apply_rows,
                    } = shard.apply_parts();
                    // Pass 1: classify and update incrementally. Every entry
                    // stages its new α, except a delta-rule layer's delta
                    // rows, so the buffer grows per staged row.
                    let mut staged_rows = 0u32;
                    for (i, e) in entries.iter().enumerate() {
                        let u = e.target;
                        if let AlphaRows::Owned(owned) = alpha_rows {
                            // The delta rule serves an incrementally updated
                            // target whose own message stayed put (else the
                            // self term of its output row moved too).
                            let degree = graph.in_degree(u);
                            let scale = if cfg.incremental && !old.contains(l, u) {
                                delta_row_scale(agg, degree, e.degree_delta)
                            } else {
                                None
                            };
                            if let Some(scale) = scale {
                                let (sum, w_sum) = acc_slot_in(buf, e.add, dim, tail);
                                let (alpha_row, h_row) = owned.rows_mut(u);
                                let changed = accumulate_in_place(
                                    agg,
                                    alpha_row,
                                    sum,
                                    degree,
                                    e.degree_delta,
                                    cfg.compensated,
                                );
                                outcomes.push(ApplyOutcome {
                                    cond: CondKind::Acc,
                                    reads: dim as u64,
                                    changed,
                                    staged: NO_SLOT,
                                    output_changed: apply_delta_row(h_row, scale, w_sum),
                                });
                                continue;
                            }
                        }
                        let staged = staged_rows;
                        staged_rows += 1;
                        let start = staged as usize * dim;
                        if alpha_buf.len() < start + dim {
                            alpha_buf.resize(start + dim, 0.0);
                        }
                        let out = &mut alpha_buf[start..start + dim];
                        let alpha_old = alpha_rows.alpha(u);
                        let mut reads = dim as u64;
                        let mut deferred = None;
                        let cond = if !cfg.incremental {
                            deferred = Some(RecomputeKind::Forced);
                            CondKind::Forced
                        } else if mono {
                            // A target whose *old* neighborhood was empty has
                            // α⁻ = 0 by convention, not as a real aggregate:
                            // the incremental rules don't apply there.
                            let old_deg = graph.in_degree(u) as i64 - e.degree_delta as i64;
                            if old_deg <= 0 {
                                deferred = Some(RecomputeKind::EmptyOld);
                                CondKind::Mono(Condition::ExposedReset)
                            } else {
                                let condition = apply_monotonic_into(
                                    agg,
                                    alpha_old,
                                    slot_in(buf, e.del, dim),
                                    slot_in(buf, e.add, dim),
                                    out,
                                    exposed,
                                );
                                if condition == Condition::ExposedReset {
                                    // `out` is exact everywhere but on the
                                    // exposed channels: repair just those.
                                    let neighbors = graph.in_neighbors(u);
                                    agg.aggregate_channels_into(
                                        neighbors.iter().map(|&v| m_l.row(v as usize)),
                                        exposed,
                                        out,
                                    );
                                    reads += (neighbors.len() * exposed.len()) as u64;
                                    *exposed_channels += exposed.len();
                                    *exposed_rows += neighbors.len();
                                }
                                CondKind::Mono(condition)
                            }
                        } else {
                            let (sum, _) = acc_slot_in(buf, e.add, dim, tail);
                            apply_accumulative_into(
                                agg,
                                alpha_old,
                                sum,
                                graph.in_degree(u),
                                e.degree_delta,
                                cfg.compensated,
                                out,
                            );
                            CondKind::Acc
                        };
                        if let Some(kind) = deferred {
                            recompute
                                .push((recompute_sort_key(kind, graph.in_degree(u)), i as u32));
                            reads += (graph.in_degree(u) * dim) as u64;
                        }
                        // `changed` of deferred entries is backfilled once
                        // their α is actually recomputed below.
                        let changed = deferred.is_none() && &*out != alpha_old;
                        outcomes.push(ApplyOutcome {
                            cond,
                            reads,
                            changed,
                            staged,
                            output_changed: false,
                        });
                    }
                    if recompute.is_empty() {
                        return;
                    }
                    // Pass 2: full recomputations. Each equal-key run gathers
                    // its targets' neighbor rows (in neighbor order) into one
                    // contiguous panel from the shard's buffer pool and folds
                    // it with the batched kernels — bitwise identical to the
                    // scalar loop because every target's rows still fold in
                    // the same order with the same kernels.
                    let staged_row = |s: u32| s as usize * dim..(s as usize + 1) * dim;
                    if dim > 0 && recompute.len() >= cfg.apply_batch_threshold.max(1) {
                        recompute.sort_unstable();
                        let mut g = 0;
                        while g < recompute.len() {
                            let key = recompute[g].0;
                            let mut end = g;
                            let mut rows = 0usize;
                            while end < recompute.len() && recompute[end].0 == key {
                                rows += graph.in_degree(entries[recompute[end].1 as usize].target);
                                end += 1;
                            }
                            let mut panel = gemm.take(rows * dim);
                            let mut off = 0usize;
                            for &(_, idx) in &recompute[g..end] {
                                let u = entries[idx as usize].target;
                                let deg = graph.in_degree(u);
                                gather_rows_into(
                                    m_l,
                                    graph.in_neighbors(u).iter().map(|&v| v as usize),
                                    &mut panel[off * dim..(off + deg) * dim],
                                );
                                off += deg;
                            }
                            let mut off = 0usize;
                            for &(_, idx) in &recompute[g..end] {
                                let i = idx as usize;
                                let deg = graph.in_degree(entries[i].target);
                                agg.aggregate_rows_into(
                                    &panel[off * dim..(off + deg) * dim],
                                    &mut alpha_buf[staged_row(outcomes[i].staged)],
                                    apply_comp,
                                );
                                off += deg;
                            }
                            gemm.put(panel);
                            *batched_apply_rows += rows;
                            g = end;
                        }
                    } else {
                        for &(_, idx) in recompute.iter() {
                            let i = idx as usize;
                            let u = entries[i].target;
                            agg.aggregate_into(
                                graph.in_neighbors(u).iter().map(|&v| m_l.row(v as usize)),
                                &mut alpha_buf[staged_row(outcomes[i].staged)],
                            );
                        }
                    }
                    for &(_, idx) in recompute.iter() {
                        let i = idx as usize;
                        let new = &alpha_buf[staged_row(outcomes[i].staged)];
                        outcomes[i].changed = new != alpha_rows.alpha(entries[i].target);
                    }
                };
                if blocked {
                    // Each shard paired with its own blocks of α and `h`.
                    let rows = ShardRows::split(&mut alpha[l], h, ns, block_rank);
                    let mut work: Vec<_> =
                        shards.iter_mut().zip(rows.into_iter().map(AlphaRows::Owned)).collect();
                    fan_out(cfg.parallel, total_targets, &mut work, 1, |(_, w)| {
                        let (shard, rows) = &mut w[0];
                        run(shard, rows)
                    });
                } else {
                    let alpha_l = &alpha[l];
                    fan_out(cfg.parallel, total_targets, shards, 1, |(_, shard)| {
                        run(&mut shard[0], &mut AlphaRows::Shared(alpha_l))
                    });
                }
            }
            for shard in &scratch.shards[..ns] {
                layer_stats.batched_apply_rows += shard.batched_apply_rows;
                layer_stats.exposed_channels += shard.exposed_channels;
                layer_stats.exposed_rows += shard.exposed_rows;
            }
            layer_stats.phases.apply = t_apply.elapsed();

            // ── Phase 4: write ────────────────────────────────────────────
            // Sequential commit: staged α rows, condition stats, user
            // events, and the merged + sorted next-layer target list. A
            // delta row's rows are already committed; it only leaves its
            // counts and its dirty-row entry here.
            let t_write = Instant::now();
            let mut nd = 0usize;
            {
                let ScratchPool { shards, affected, next_targets, .. } = &mut *scratch;
                next_targets.clear();
                for shard in &shards[..ns] {
                    for (e, o) in shard.entries.iter().zip(&shard.outcomes) {
                        f32_read += o.reads;
                        match o.cond {
                            CondKind::Mono(c) => {
                                layer_stats.conditions.record(c);
                                report
                                    .per_node_condition
                                    .entry(e.target)
                                    .and_modify(|worst| {
                                        if c.severity() > worst.severity() {
                                            *worst = c;
                                        }
                                    })
                                    .or_insert(c);
                            }
                            CondKind::Acc => layer_stats.conditions.accumulative += 1,
                            CondKind::Forced => {
                                layer_stats.conditions.forced_recompute += 1;
                                report
                                    .per_node_condition
                                    .insert(e.target, Condition::ExposedReset);
                            }
                        }
                        if o.changed {
                            if o.staged != NO_SLOT {
                                let s = o.staged as usize;
                                self.state.alpha[l].set_row(
                                    e.target as usize,
                                    &shard.alpha_buf[s * dim..(s + 1) * dim],
                                );
                            }
                            f32_written += dim as u64;
                            layer_stats.alpha_changed += 1;
                            affected.insert(e.target);
                        }
                        // Accumulative targets always propagate (Algorithm 1
                        // l.18-21) — a delta row did so in the apply phase.
                        let propagates = matches!(o.cond, CondKind::Acc) || o.changed;
                        if o.staged == NO_SLOT {
                            nd += 1;
                            if o.output_changed {
                                report.output_changed += 1;
                                if !self.dirty_all {
                                    self.dirty.push(e.target);
                                }
                            }
                        } else if propagates || !cfg.pruning {
                            next_targets.push(e.target);
                        }
                    }
                }
            }

            // User events targeting this layer's update phase. Events whose
            // target this engine does not own are dropped — the owning
            // engine derives the same events from its own copy of the
            // change (hooks must only target vertices they were fired for).
            let user_events = std::mem::take(&mut scratch.pending_user[l]);
            if !user_events.is_empty() {
                let owned = self.owned.as_deref();
                let hooks = self.hooks.as_deref().expect("user events require hooks");
                let cache =
                    self.user_cache[l].as_mut().expect("user events require a hooked layer");
                let mut by_target: FxHashMap<VertexId, Vec<UserEvent>> = FxHashMap::default();
                for e in user_events {
                    if !owns_in(owned, e.target) {
                        continue;
                    }
                    by_target.entry(e.target).or_default().push(e);
                }
                for (target, evs) in by_target {
                    let reduced = hooks.user_grouping(l, evs);
                    hooks.user_apply(l, target, cache.row_mut(target as usize), &reduced);
                    scratch.affected.insert(target);
                    scratch.next_targets.push(target);
                }
            }

            // Self-dependence: nodes whose own message changed re-enter —
            // owned ones only; a ghost's owner re-enters it on its side.
            if self_dependent {
                let owned = self.owned.as_deref();
                scratch.next_targets.extend(
                    scratch.changed_order.iter().copied().filter(|&v| owns_in(owned, v)),
                );
            }
            scratch.next_targets.sort_unstable();
            scratch.next_targets.dedup();
            // Delta rows are disjoint from the list above: one group entry
            // per target, and none of them is in `changed_order`.
            layer_stats.delta_rows = nd;
            layer_stats.targets = layer_stats.targets.max(scratch.next_targets.len() + nd);
            report.nodes_visited += (scratch.next_targets.len() + nd) as u64;
            layer_stats.phases.write = t_write.elapsed();

            // ── Phase 5: next-messages ────────────────────────────────────
            // Rebuild next-layer messages / final outputs into the flat
            // production buffer — gather→GEMM→scatter on a parallel engine
            // once the target set reaches `BATCH_MIN_TARGETS`, per-node
            // otherwise — then commit sequentially.
            // Delta rows never come here: the apply phase committed them.
            let t_next = Instant::now();
            let nt = scratch.next_targets.len();
            let batched = cfg.parallel
                && nt >= BATCH_MIN_TARGETS
                && dim > 0
                && out_dim > 0
                && prod_dim > 0;
            if batched {
                layer_stats.batched_rows = nt;
                let ScratchPool {
                    next_targets, next_buf, gather_alpha, gather_self, hidden_buf, gemm, ..
                } = &mut *scratch;
                next_buf.clear();
                next_buf.resize(nt * prod_dim, 0.0);
                let next_targets = &*next_targets;
                let this = &*self;
                let layer = this.model.layer(l);
                let conv = &layer.conv;
                // Gather the targets' α rows into a contiguous strip, folding
                // in the target-side degree weight of scaled layers (the same
                // `a[j] * s` the per-node path computes before its update).
                gather_alpha.clear();
                gather_alpha.resize(nt * dim, 0.0);
                if degree_scaled {
                    gather_rows_scaled_into(
                        &this.state.alpha[l],
                        next_targets
                            .iter()
                            .map(|&u| (u as usize, conv.update_scale(this.graph.in_degree(u)))),
                        gather_alpha,
                    );
                } else {
                    gather_rows_into(
                        &this.state.alpha[l],
                        next_targets.iter().map(|&u| u as usize),
                        gather_alpha,
                    );
                }
                let self_msg: &[f32] = if self_dependent {
                    gather_self.clear();
                    gather_self.resize(nt * dim, 0.0);
                    gather_rows_into(
                        &this.state.m[l],
                        next_targets.iter().map(|&u| u as usize),
                        gather_self,
                    );
                    gather_self
                } else {
                    &[]
                };
                // One batched update GEMM for the whole target set. The last
                // layer writes straight into the production buffer
                // (`prod_dim == out_dim` there).
                let h_rows: &mut [f32] = if is_last {
                    next_buf.as_mut_slice()
                } else {
                    hidden_buf.clear();
                    hidden_buf.resize(nt * out_dim, 0.0);
                    hidden_buf.as_mut_slice()
                };
                report.gemm_flops +=
                    conv.update_batch_into(nt, gather_alpha, self_msg, h_rows, gemm);
                // Per-row epilogue: user contribution, norm, activation.
                {
                    let hooks = this.hooks.as_deref();
                    let cache = this.user_cache.get(l).and_then(Option::as_ref);
                    let run = |(i, row): (usize, &mut [f32])| {
                        let u = next_targets[i];
                        if let (Some(hk), Some(c)) = (hooks, cache) {
                            hk.contribute(l, u, row, c.row(u as usize));
                        }
                        if let Some(norm) = &layer.norm {
                            norm.apply_cached(row);
                        }
                        layer.act.apply(row);
                    };
                    fan_out(cfg.parallel, nt, h_rows, out_dim, run);
                }
                if !is_last {
                    // One batched message GEMM into the production buffer,
                    // then the source-side degree weight per row.
                    let next_conv = &this.model.layer(l + 1).conv;
                    report.gemm_flops +=
                        next_conv.message_batch_into(nt, hidden_buf, next_buf, gemm);
                    if next_conv.degree_scaled() {
                        let run = |(i, row): (usize, &mut [f32])| {
                            let s = next_conv.degree_scale(this.graph.in_degree(next_targets[i]));
                            ink_tensor::ops::scale(row, s);
                        };
                        fan_out(cfg.parallel, nt, next_buf, prod_dim, run);
                    }
                }
            } else {
                let ScratchPool { next_targets, next_buf, .. } = &mut *scratch;
                next_buf.clear();
                next_buf.resize(nt * prod_dim, 0.0);
                let next_targets = &*next_targets;
                let this = &*self;
                let run = |(i, chunk): (usize, &mut [f32])| {
                    let u = next_targets[i];
                    let h_new = compute_next_hidden(
                        &this.model,
                        &this.state,
                        this.hooks.as_deref(),
                        &this.user_cache,
                        l,
                        u,
                        this.graph.in_degree(u),
                    );
                    if is_last {
                        chunk.copy_from_slice(&h_new);
                    } else {
                        let next_conv = &this.model.layer(l + 1).conv;
                        let mut msg = next_conv.message(&h_new);
                        if next_conv.degree_scaled() {
                            ink_tensor::ops::scale(
                                &mut msg,
                                next_conv.degree_scale(this.graph.in_degree(u)),
                            );
                        }
                        chunk.copy_from_slice(&msg);
                    }
                };
                fan_out(cfg.parallel, nt, next_buf, prod_dim.max(1), run);
            }
            f32_read += (nt * 2 * dim + nd * 2 * out_dim) as u64;
            f32_written += ((nt + nd) * out_dim) as u64;

            {
                let ScratchPool { next_targets, next_buf, old, pending_user, .. } = &mut *scratch;
                for (&u, chunk) in next_targets.iter().zip(next_buf.chunks(prod_dim.max(1))) {
                    if is_last {
                        if chunk != self.state.h.row(u as usize) {
                            self.state.h.set_row(u as usize, chunk);
                            report.output_changed += 1;
                            if !self.dirty_all {
                                self.dirty.push(u);
                            }
                        }
                    } else {
                        let changed = chunk != self.state.m[l + 1].row(u as usize);
                        if changed || !cfg.pruning {
                            old.insert(l + 1, u, self.state.m[l + 1].row(u as usize));
                            if changed {
                                if let Some(hooks) = self.hooks.as_deref() {
                                    pending_user[l + 1].extend(hooks.user_propagate(
                                        l + 1,
                                        u,
                                        old.get(l + 1, u).expect("just inserted"),
                                        chunk,
                                    ));
                                }
                                self.state.m[l + 1].set_row(u as usize, chunk);
                            }
                        }
                    }
                }
            }
            if is_last && self.dirty.len() > self.graph.num_vertices() / DIRTY_ROWS_DIVISOR {
                self.mark_all_dirty();
            }
            layer_stats.phases.next_messages = t_next.elapsed();

            report.per_layer.push(layer_stats);
        }
        rs.f32_read += f32_read;
        rs.f32_written += f32_written;
        self.round = Some(rs);
    }

    /// Closes the round: folds the totals into the report and returns the
    /// scratch pool to the engine.
    pub fn round_finish(&mut self) -> UpdateReport {
        let mut rs = self.round.take().expect("round_finish requires an active round");
        let mut report = std::mem::take(&mut rs.report);
        report.real_affected = rs.scratch.affected.len() as u64;
        report.f32_read = rs.f32_read;
        report.f32_written = rs.f32_written;
        report.elapsed = rs.t0.elapsed();
        self.scratch = rs.scratch;
        report
    }

    /// Abandons an in-flight round without folding a report, reclaiming the
    /// scratch pool when possible. Used by the partitioned driver to restore
    /// the "no active round" invariant after a sibling worker panicked
    /// mid-step — the cached state is then stale and must be rebuilt with
    /// [`InkStream::adopt_state`] (or a full resync) before the next update.
    /// No-op when no round is active (e.g. on the engine that panicked, whose
    /// round state was consumed by the unwind).
    pub fn round_abort(&mut self) {
        if let Some(rs) = self.round.take() {
            self.scratch = rs.scratch;
        }
    }

    /// Whether a BSP round is currently in flight.
    #[inline]
    pub fn round_active(&self) -> bool {
        self.round.is_some()
    }

    /// Installs (or clears, with `None`) the ownership mask for partitioned
    /// operation. With a mask, this engine updates α/h rows and generates
    /// events only for vertices marked `true`; everything else is a ghost
    /// whose messages are kept fresh by its owner through
    /// [`InkStream::round_ingest_refresh`]. The mask must have one entry per
    /// vertex. Not allowed mid-round.
    pub fn set_ownership(&mut self, owned: Option<Vec<bool>>) {
        assert!(self.round.is_none(), "cannot change ownership mid-round");
        if let Some(o) = &owned {
            assert_eq!(o.len(), self.graph.num_vertices(), "one ownership flag per vertex");
        }
        self.owned = owned;
    }

    /// Appends one ownership flag after a vertex insertion
    /// ([`InkStream::add_vertex`]). No-op when no mask is installed.
    pub fn push_ownership(&mut self, owns: bool) {
        if let Some(o) = self.owned.as_mut() {
            o.push(owns);
            assert_eq!(o.len(), self.graph.num_vertices(), "one ownership flag per vertex");
        }
    }

    /// Whether this engine owns `v` (always true without an ownership mask).
    #[inline]
    pub fn owns(&self, v: VertexId) -> bool {
        owns_in(self.owned.as_deref(), v)
    }

    /// Overwrites one cached layer-`l` message row *without* recording a
    /// change — the replica-seeding path: when a cut edge makes a vertex
    /// newly visible to this engine as a ghost, the partitioned driver
    /// copies the owner's current rows in before the round begins. Outside
    /// a round only.
    pub fn set_message_row(&mut self, l: usize, v: VertexId, row: &[f32]) {
        assert!(self.round.is_none(), "cannot seed replica rows mid-round");
        self.state.m[l].set_row(v as usize, row);
    }

    /// Replaces all cached state with `state` (shape-checked against the
    /// current graph and model) and rebuilds the user caches from its
    /// messages. This is the partitioned resync path: one engine bootstraps
    /// the *global* graph and every partition adopts a clone, so ghosts and
    /// owned rows alike come out bitwise-identical to full recomputation —
    /// a per-partition [`InkStream::resync`] would wrongly bootstrap the
    /// local subgraph instead.
    pub fn adopt_state(&mut self, state: FullState) -> Result<(), InkError> {
        assert!(self.round.is_none(), "cannot adopt state mid-round");
        let n = self.graph.num_vertices();
        let k = self.model.num_layers();
        if state.m.len() != k || state.alpha.len() != k {
            return Err(InkError::ShapeMismatch {
                detail: format!("state has {} layers, model has {k}", state.m.len()),
            });
        }
        for l in 0..k {
            let want = (n, self.model.msg_dim(l));
            if state.m[l].shape() != want || state.alpha[l].shape() != want {
                return Err(InkError::ShapeMismatch {
                    detail: format!(
                        "layer {l}: m {:?} / alpha {:?}, expected {want:?}",
                        state.m[l].shape(),
                        state.alpha[l].shape()
                    ),
                });
            }
        }
        if state.h.shape() != (n, self.model.out_dim()) {
            return Err(InkError::ShapeMismatch {
                detail: format!(
                    "output {:?}, expected ({n}, {})",
                    state.h.shape(),
                    self.model.out_dim()
                ),
            });
        }
        self.user_cache = (0..k)
            .map(|l| self.hooks.as_deref().and_then(|h| h.init_cache(l, &state.m[l])))
            .collect();
        self.state = state;
        self.mark_all_dirty();
        Ok(())
    }
}

/// Shared ownership predicate: no mask means the engine owns everything;
/// with a mask, out-of-range vertices are not owned (the driver keeps the
/// mask sized to the graph).
#[inline]
fn owns_in(owned: Option<&[bool]>, v: VertexId) -> bool {
    owned.is_none_or(|o| o.get(v as usize).copied().unwrap_or(false))
}

/// `h_{l+1,u} = act(norm(T(α_{l,u}, m_{l,u}) + user_contribution))` for one
/// node, from the *current* cached state. `degree` feeds the target-side
/// weight of degree-scaled layers.
fn compute_next_hidden(
    model: &Model,
    state: &FullState,
    hooks: Option<&dyn UserHooks>,
    user_cache: &[Option<Matrix>],
    l: usize,
    u: VertexId,
    degree: usize,
) -> Vec<f32> {
    let layer = model.layer(l);
    let mut out = vec![0.0; layer.conv.out_dim()];
    if layer.conv.degree_scaled() {
        let mut a = state.alpha[l].row(u as usize).to_vec();
        ink_tensor::ops::scale(&mut a, layer.conv.update_scale(degree));
        layer.conv.update_into(&a, state.m[l].row(u as usize), &mut out);
    } else {
        layer.conv.update_into(
            state.alpha[l].row(u as usize),
            state.m[l].row(u as usize),
            &mut out,
        );
    }
    if let (Some(hk), Some(cache)) = (hooks, user_cache.get(l).and_then(Option::as_ref)) {
        hk.contribute(l, u, &mut out, cache.row(u as usize));
    }
    if let Some(norm) = &layer.norm {
        norm.apply_cached(&mut out);
    }
    layer.act.apply(&mut out);
    out
}

/// Full-graph bootstrap into caller-owned state, one batched GEMM chain per
/// layer. Also initialises the user caches — and therefore supports
/// hook-based models, which `ink_gnn::full_inference` knows nothing about
/// (the hook contribution slots between the transform and the norm, so this
/// can't reuse `batch_update_into`, which fuses norm/act).
///
/// Every cached matrix is reshaped capacity-preserving and all temporaries
/// (inter-layer hidden buffers, GEMM packing, MLP ping-pong) come from
/// `scratch`, so repeated in-place rebuilds over same-shaped inputs allocate
/// nothing after the first — hook caches excepted, as `init_cache` returns
/// fresh matrices by contract. At most one hidden matrix is out of the pool
/// at a time: `h_l` goes back as soon as `m_l` is built from it, and the
/// last layer writes straight into `state.h`.
fn bootstrap_into(
    model: &Model,
    graph: &DynGraph,
    features: &Matrix,
    hooks: Option<&dyn UserHooks>,
    state: &mut FullState,
    user_cache: &mut Vec<Option<Matrix>>,
    scratch: &mut GemmScratch,
) {
    let n = graph.num_vertices();
    let k = model.num_layers();
    state.m.resize_with(k, || Matrix::zeros(0, 0));
    state.alpha.resize_with(k, || Matrix::zeros(0, 0));
    state.norm_stats.clear();
    state.norm_stats.resize(k, None);
    user_cache.clear();
    user_cache.resize_with(k, || None);
    if k == 0 {
        state.h.resize_to(n, features.cols());
        state.h.as_mut_slice().copy_from_slice(features.as_slice());
        return;
    }
    let FullState { m, alpha, h, .. } = state;
    // `cur` carries h_l between layers; layer 0 reads the features directly.
    let mut cur = Vec::new();

    for l in 0..k {
        let layer = model.layer(l);
        let conv = &layer.conv;
        let out_dim = conv.out_dim();
        let dim = conv.msg_dim();
        let h_slice: &[f32] = if l == 0 { features.as_slice() } else { &cur };
        batch_message_into(model, l, h_slice, graph, &mut m[l], scratch);
        if l > 0 {
            // `m[l]` is all this layer needs of h_l: its buffer goes back to
            // the pool now, so the update below can reuse it.
            scratch.put(std::mem::take(&mut cur));
        }
        user_cache[l] = hooks.and_then(|hk| hk.init_cache(l, &m[l]));
        batch_aggregate_into(model, l, graph, &m[l], &mut alpha[l]);

        // The last layer writes straight into the cached output.
        let out: &mut [f32] = if l + 1 == k {
            h.resize_to(n, out_dim);
            h.as_mut_slice()
        } else {
            cur = scratch.take(n * out_dim);
            &mut cur
        };
        let self_msg: &[f32] = if conv.self_dependent() { m[l].as_slice() } else { &[] };
        if conv.degree_scaled() {
            // Fold the target-side degree weight into a scaled copy of α —
            // the same `a[j] * s` the per-node path computes.
            let mut scaled = scratch.take(n * dim);
            gather_rows_scaled_into(
                &alpha[l],
                (0..n).map(|u| (u, conv.update_scale(graph.in_degree(u as VertexId)))),
                &mut scaled,
            );
            conv.update_batch_into(n, &scaled, self_msg, out, scratch);
            scratch.put(scaled);
        } else {
            conv.update_batch_into(n, alpha[l].as_slice(), self_msg, out, scratch);
        }
        let cache = user_cache[l].as_ref();
        out.par_chunks_mut(out_dim.max(1)).enumerate().for_each(|(u, out)| {
            if let (Some(hk), Some(c)) = (hooks, cache) {
                hk.contribute(l, u as VertexId, out, c.row(u));
            }
            if let Some(norm) = &layer.norm {
                norm.apply_cached(out);
            }
            layer.act.apply(out);
        });
    }
}

/// Allocating [`bootstrap_into`] wrapper — the construction-time path, where
/// there is no state to reuse yet.
fn bootstrap(
    model: &Model,
    graph: &DynGraph,
    features: &Matrix,
    hooks: Option<&dyn UserHooks>,
) -> (FullState, Vec<Option<Matrix>>) {
    let mut state = FullState::empty();
    let mut user_cache = Vec::new();
    bootstrap_into(
        model,
        graph,
        features,
        hooks,
        &mut state,
        &mut user_cache,
        &mut GemmScratch::new(),
    );
    (state, user_cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ink_gnn::{full_inference, Aggregator};
    use ink_tensor::init::seeded_rng;

    fn ring(n: usize) -> DynGraph {
        let edges: Vec<_> =
            (0..n).map(|i| (i as VertexId, ((i + 1) % n) as VertexId)).collect();
        DynGraph::undirected_from_edges(n, &edges)
    }

    fn feats(n: usize, d: usize) -> Matrix {
        Matrix::from_fn(n, d, |r, c| ((r * 17 + c * 5) % 11) as f32 * 0.25 - 1.0)
    }

    #[test]
    fn bootstrap_matches_reference_inference() {
        let mut rng = seeded_rng(1);
        let model = Model::gcn(&mut rng, &[4, 5, 3], Aggregator::Max);
        let g = ring(10);
        let x = feats(10, 4);
        let reference = full_inference(&model, &g, &x, None);
        let engine = InkStream::new(model, g, x, UpdateConfig::default()).unwrap();
        assert_eq!(engine.output(), &reference.h);
        assert_eq!(engine.state().alpha[0], reference.alpha[0]);
        assert_eq!(engine.state().m[1], reference.m[1]);
    }

    #[test]
    fn single_insert_matches_full_recompute_bitwise_for_max() {
        let mut rng = seeded_rng(2);
        let model = Model::gcn(&mut rng, &[4, 5, 3], Aggregator::Max);
        let g = ring(12);
        let x = feats(12, 4);
        let mut engine = InkStream::new(model, g, x, UpdateConfig::default()).unwrap();
        let delta = DeltaBatch::new(vec![EdgeChange::insert(0, 6)]);
        let report = engine.apply_delta(&delta);
        assert_eq!(report.skipped_changes, 0);
        let reference = engine.recompute_reference();
        assert_eq!(engine.output(), &reference, "monotonic path must be bitwise identical");
    }

    #[test]
    fn single_remove_matches_full_recompute_bitwise_for_max() {
        let mut rng = seeded_rng(3);
        let model = Model::gcn(&mut rng, &[4, 5, 3], Aggregator::Max);
        let g = ring(12);
        let x = feats(12, 4);
        let mut engine = InkStream::new(model, g, x, UpdateConfig::default()).unwrap();
        engine.apply_delta(&DeltaBatch::new(vec![EdgeChange::remove(3, 4)]));
        assert_eq!(engine.output(), &engine.recompute_reference());
    }

    #[test]
    fn accumulative_updates_track_reference_within_tolerance() {
        for agg in [Aggregator::Sum, Aggregator::Mean] {
            let mut rng = seeded_rng(4);
            let model = Model::gcn(&mut rng, &[4, 5, 3], agg);
            let g = ring(12);
            let x = feats(12, 4);
            let mut engine = InkStream::new(model, g, x, UpdateConfig::default()).unwrap();
            engine.apply_delta(&DeltaBatch::new(vec![
                EdgeChange::insert(0, 6),
                EdgeChange::remove(2, 3),
            ]));
            let reference = engine.recompute_reference();
            assert!(
                engine.output().allclose(&reference, 1e-4),
                "{agg:?}: max diff {}",
                engine.output().max_abs_diff(&reference)
            );
        }
    }

    #[test]
    fn duplicate_insert_is_skipped() {
        let mut rng = seeded_rng(5);
        let model = Model::gcn(&mut rng, &[4, 4], Aggregator::Max);
        let g = ring(8);
        let x = feats(8, 4);
        let mut engine = InkStream::new(model, g, x, UpdateConfig::default()).unwrap();
        let report = engine.apply_delta(&DeltaBatch::new(vec![EdgeChange::insert(0, 1)]));
        assert_eq!(report.skipped_changes, 1, "edge 0-1 already exists in the ring");
        assert_eq!(engine.output(), &engine.recompute_reference());
    }

    #[test]
    fn report_counts_events_and_conditions() {
        let mut rng = seeded_rng(6);
        let model = Model::gcn(&mut rng, &[4, 5, 3], Aggregator::Max);
        let g = ring(16);
        let x = feats(16, 4);
        let mut engine = InkStream::new(model, g, x, UpdateConfig::default()).unwrap();
        let report = engine.apply_delta(&DeltaBatch::new(vec![EdgeChange::insert(0, 8)]));
        assert!(report.events_created() > 0);
        assert!(report.conditions().total() > 0);
        assert!(report.traffic() > 0);
        assert_eq!(report.per_layer.len(), 2);
        assert!(report.phase_times().total() > std::time::Duration::ZERO);
    }

    fn pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap()
    }

    #[test]
    fn round_split_follows_the_pool() {
        assert_eq!(round_split(false), (1, 1));
        assert_eq!(pool(5).install(|| round_split(false)), (1, 1));
        for (threads, shards) in [(1, 4), (2, 8), (3, 16), (4, 16), (16, 64)] {
            assert_eq!(pool(threads).install(|| round_split(true)), (threads, shards));
        }
    }

    #[test]
    fn worker_and_shard_counts_do_not_change_results() {
        for agg in [Aggregator::Max, Aggregator::Min, Aggregator::Sum, Aggregator::Mean] {
            let make = |cfg: UpdateConfig| {
                let mut rng = seeded_rng(7);
                let model = Model::gcn(&mut rng, &[4, 6, 3], agg);
                InkStream::new(model, ring(20), feats(20, 4), cfg).unwrap()
            };
            let delta = DeltaBatch::new(vec![
                EdgeChange::insert(0, 10),
                EdgeChange::insert(3, 17),
                EdgeChange::remove(5, 6),
                EdgeChange::insert(2, 8),
                EdgeChange::remove(12, 13),
            ]);
            let mut reference = make(UpdateConfig::default().sequential());
            reference.apply_delta(&delta);
            for threads in 1..=4 {
                let mut engine = make(UpdateConfig::default());
                let (w, s) = pool(threads).install(|| {
                    engine.apply_delta(&delta);
                    round_split(true)
                });
                assert_eq!(w, threads);
                assert_eq!(
                    engine.output(),
                    reference.output(),
                    "{agg:?} must be bitwise stable under {w} workers / {s} shards"
                );
                assert_eq!(engine.state().alpha[1], reference.state().alpha[1]);
            }
        }
    }

    #[test]
    fn audits_are_zero_on_a_clean_engine() {
        for agg in [Aggregator::Max, Aggregator::Min, Aggregator::Sum, Aggregator::Mean] {
            let mut rng = seeded_rng(9);
            let model = Model::gcn(&mut rng, &[4, 5, 3], agg);
            let mut engine =
                InkStream::new(model, ring(12), feats(12, 4), UpdateConfig::default()).unwrap();
            // Fresh off the bootstrap, every audit is exactly zero.
            for v in 0..12u32 {
                assert_eq!(engine.audit_vertex(v), 0.0, "{agg:?}: vertex {v} after bootstrap");
            }
            engine.apply_delta(&DeltaBatch::new(vec![EdgeChange::insert(0, 6)]));
            for v in 0..12u32 {
                let d = engine.audit_vertex(v);
                if agg.is_monotonic() {
                    assert_eq!(d, 0.0, "{agg:?}: vertex {v} deviates by {d} after an update");
                } else {
                    // Accumulative updates drift — the audit's job is to
                    // measure it, and it must stay tiny and finite.
                    assert!(d.is_finite() && d < 1e-5, "{agg:?}: vertex {v} drift {d}");
                }
            }
            assert!(!engine.state_has_nan());
            if agg.is_monotonic() {
                assert_eq!(engine.audit_full(), 0.0, "{agg:?}");
            } else {
                let d = engine.audit_full();
                assert!(d.is_finite() && d < 1e-4, "{agg:?}: full audit drift {d}");
            }
        }
    }

    #[test]
    fn audit_detects_poisoned_state() {
        let mut rng = seeded_rng(10);
        let model = Model::gcn(&mut rng, &[4, 5, 3], Aggregator::Max);
        let mut engine =
            InkStream::new(model, ring(12), feats(12, 4), UpdateConfig::default()).unwrap();
        engine.state_mut().alpha[0].set(5, 1, f32::NAN);
        assert!(engine.state_has_nan());
        assert!(engine.audit_vertex(5).is_nan(), "spot audit at the poisoned vertex");
        assert!(engine.audit_vertices(&[0, 5, 7]).is_nan(), "a NaN sample poisons the fold");
        assert!(engine.audit_full().is_nan(), "full audit must not report a finite drift");
        // A silent (finite) corruption is caught too.
        let mut engine2 = {
            let mut rng = seeded_rng(10);
            let model = Model::gcn(&mut rng, &[4, 5, 3], Aggregator::Max);
            InkStream::new(model, ring(12), feats(12, 4), UpdateConfig::default()).unwrap()
        };
        let old = engine2.state().alpha[0].row(5)[1];
        engine2.state_mut().alpha[0].set(5, 1, old + 0.5);
        assert!(engine2.audit_vertex(5) >= 0.5, "finite corruption shows as deviation");
    }

    #[test]
    fn resync_restores_reference_bitwise() {
        let mut rng = seeded_rng(11);
        let model = Model::gcn(&mut rng, &[4, 5, 3], Aggregator::Mean);
        let mut engine =
            InkStream::new(model, ring(12), feats(12, 4), UpdateConfig::default()).unwrap();
        engine.apply_delta(&DeltaBatch::new(vec![EdgeChange::insert(0, 6)]));
        engine.state_mut().alpha[1].set(3, 0, f32::NAN);
        engine.state_mut().h.set(3, 0, f32::NAN);
        let report = engine.resync();
        assert!(report.f32_written > 0);
        assert!(!engine.state_has_nan());
        assert_eq!(engine.output(), &engine.recompute_reference());
        assert_eq!(engine.audit_full(), 0.0, "resync leaves zero drift by construction");
    }

    #[test]
    fn compensated_engine_matches_plain_on_monotonic_bitwise() {
        let make = |cfg: UpdateConfig| {
            let mut rng = seeded_rng(12);
            let model = Model::gcn(&mut rng, &[4, 5, 3], Aggregator::Max);
            InkStream::new(model, ring(16), feats(16, 4), cfg).unwrap()
        };
        let delta = DeltaBatch::new(vec![EdgeChange::insert(0, 8), EdgeChange::remove(3, 4)]);
        let mut plain = make(UpdateConfig::default());
        let mut comp = make(UpdateConfig::default().compensated());
        plain.apply_delta(&delta);
        comp.apply_delta(&delta);
        assert_eq!(plain.output(), comp.output(), "compensation must not touch max/min");
    }

    #[test]
    fn compensated_engine_stays_within_tolerance_on_accumulative() {
        for agg in [Aggregator::Sum, Aggregator::Mean] {
            let mut rng = seeded_rng(13);
            let model = Model::gcn(&mut rng, &[4, 5, 3], agg);
            let mut engine =
                InkStream::new(model, ring(16), feats(16, 4), UpdateConfig::default().compensated())
                    .unwrap();
            for i in 0..8u32 {
                engine.apply_delta(&DeltaBatch::new(vec![EdgeChange::insert(i, i + 8)]));
                engine.apply_delta(&DeltaBatch::new(vec![EdgeChange::remove(i, i + 8)]));
            }
            let d = engine.audit_full();
            assert!(d.is_finite() && d < 1e-4, "{agg:?}: drift {d} after 16 rounds");
        }
    }

    #[test]
    fn batched_transform_is_bitwise_equal_to_per_node() {
        for agg in [Aggregator::Max, Aggregator::Min, Aggregator::Sum, Aggregator::Mean] {
            let make = |cfg: UpdateConfig| {
                let mut rng = seeded_rng(30);
                let model = Model::sage(&mut rng, &[4, 6, 3], agg);
                InkStream::new(model, ring(24), feats(24, 4), cfg).unwrap()
            };
            let delta = DeltaBatch::new(vec![
                EdgeChange::insert(0, 12),
                EdgeChange::insert(3, 19),
                EdgeChange::remove(5, 6),
                EdgeChange::insert(2, 8),
            ]);
            let mut per_node = make(UpdateConfig::default().sequential());
            let mut batched = make(UpdateConfig::default());
            let rp = per_node.apply_delta(&delta);
            let rb = batched.apply_delta(&delta);
            assert_eq!(batched.output(), per_node.output(), "{agg:?}");
            assert_eq!(batched.state().m[1], per_node.state().m[1], "{agg:?}");
            assert_eq!(rp.batched_rows(), 0, "{agg:?}: per-node engine must not batch");
            assert_eq!(rp.gemm_flops, 0, "{agg:?}");
            assert!(rb.batched_rows() > 0, "{agg:?}: batched path must engage");
            assert!(rb.gemm_flops > 0, "{agg:?}: SAGE updates run GEMMs");
        }
    }

    #[test]
    fn batched_apply_is_bitwise_equal_to_per_target() {
        for agg in [Aggregator::Max, Aggregator::Min, Aggregator::Sum, Aggregator::Mean] {
            // Default config reaches the recompute pass through an empty-old
            // target only (exposed resets repair their channels in pass 1);
            // recompute_all forces every target (including accumulative
            // ones) through it.
            for base in [UpdateConfig::default(), UpdateConfig::recompute_all()] {
                // A 24-ring plus the isolated vertex 24.
                let make = |cfg: UpdateConfig| {
                    let mut rng = seeded_rng(41);
                    let model = Model::gcn(&mut rng, &[4, 6, 3], agg);
                    let mut g = ring(24);
                    g.add_vertex();
                    InkStream::new(model, g, feats(25, 4), cfg).unwrap()
                };
                // Removals drive monotonic exposed resets; the insert gives
                // the isolated vertex its first neighbor — an empty-old
                // recompute.
                let delta = DeltaBatch::new(vec![
                    EdgeChange::remove(0, 1),
                    EdgeChange::remove(5, 6),
                    EdgeChange::remove(12, 13),
                    EdgeChange::insert(2, 24),
                ]);
                let mut scalar = make(UpdateConfig { apply_batch_threshold: usize::MAX, ..base });
                let mut batched = make(UpdateConfig { apply_batch_threshold: 1, ..base });
                let mut sharded = make(UpdateConfig { apply_batch_threshold: 1, ..base });
                let rs = scalar.apply_delta(&delta);
                let rb = batched.apply_delta(&delta);
                let rp = pool(3).install(|| sharded.apply_delta(&delta));
                assert_eq!(batched.output(), scalar.output(), "{agg:?} {base:?}");
                assert_eq!(sharded.output(), scalar.output(), "{agg:?} {base:?} sharded");
                assert_eq!(batched.state().alpha[1], scalar.state().alpha[1], "{agg:?}");
                assert_eq!(rs.batched_apply_rows(), 0, "{agg:?}: scalar engine must not batch");
                if !base.incremental || agg.is_monotonic() {
                    assert!(
                        rb.batched_apply_rows() > 0 && rp.batched_apply_rows() > 0,
                        "{agg:?} {base:?}: full-row recomputes must take the panel path"
                    );
                }
                // The channel repair is independent of the recompute pass's
                // batching, and the ablation never classifies at all.
                let repaired = |r: &UpdateReport| -> (usize, usize) {
                    r.per_layer.iter().fold((0, 0), |(c, n), l| {
                        (c + l.exposed_channels, n + l.exposed_rows)
                    })
                };
                assert_eq!(repaired(&rb), repaired(&rs), "{agg:?} {base:?}");
                assert_eq!(repaired(&rp), repaired(&rs), "{agg:?} {base:?} sharded");
                assert_eq!(
                    repaired(&rs).0 > 0,
                    base.incremental && agg.is_monotonic(),
                    "{agg:?} {base:?}: exposed resets repair channels, nothing else does"
                );
            }
        }
    }

    #[test]
    fn repeated_resync_is_allocation_free_in_steady_state() {
        let mut rng = seeded_rng(31);
        let model = Model::gcn(&mut rng, &[4, 6, 3], Aggregator::Mean);
        let mut engine =
            InkStream::new(model, ring(32), feats(32, 4), UpdateConfig::default()).unwrap();
        engine.resync(); // warm the pooled temporaries
        let reserved = engine.state().reserved_bytes() + engine.scratch_bytes();
        assert!(reserved > 0);
        for _ in 0..4 {
            let r = engine.resync();
            assert!(r.f32_written > 0);
        }
        assert_eq!(
            engine.state().reserved_bytes() + engine.scratch_bytes(),
            reserved,
            "steady-state resyncs must reuse cached matrices and pooled temporaries"
        );
        assert_eq!(engine.output(), &engine.recompute_reference());
    }

    /// A resync keeps at most one `n × hidden` matrix out of the GEMM pool at
    /// a time — `h_l` goes back once `m_l` is built from it, and the last
    /// layer writes straight into `state.h` — so a warmed pool holds one such
    /// buffer plus what the model's largest single batched call packs.
    #[test]
    fn resync_pools_one_hidden_matrix_plus_packing() {
        let (n, hidden) = (64, 32);
        let mut rng = seeded_rng(14);
        let models = [
            Model::sage(&mut rng, &[4, hidden, 4], Aggregator::Mean),
            Model::gin(&mut rng, 4, hidden, 2, 0.1, Aggregator::Sum),
        ];
        for model in models {
            // What one batched message or update call leaves in a fresh pool.
            let packing = (0..model.num_layers())
                .map(|l| {
                    let conv = &model.layer(l).conv;
                    let mut msg = vec![0.0; n * conv.msg_dim()];
                    let mut pool = GemmScratch::new();
                    conv.message_batch_into(n, &vec![0.0; n * conv.in_dim()], &mut msg, &mut pool);
                    let self_msg = if conv.self_dependent() { msg.clone() } else { Vec::new() };
                    let mut out = vec![0.0; n * conv.out_dim()];
                    let mut update_pool = GemmScratch::new();
                    conv.update_batch_into(n, &msg, &self_msg, &mut out, &mut update_pool);
                    pool.bytes().max(update_pool.bytes())
                })
                .max()
                .unwrap();
            let mut engine =
                InkStream::new(model, ring(n), feats(n, 4), UpdateConfig::default()).unwrap();
            engine.resync();
            engine.resync();
            let held = engine.scratch.gemm.bytes();
            let hidden_matrix = n * hidden * std::mem::size_of::<f32>();
            assert!(
                held <= hidden_matrix + packing,
                "{held} pooled bytes: more than one {hidden_matrix}-byte hidden matrix \
                 plus {packing} bytes of packing"
            );
            assert_eq!(engine.output(), &engine.recompute_reference());
        }
    }

    #[test]
    fn scratch_pool_stops_growing_after_warmup() {
        // GCN-max, and SAGE-mean whose last layer widens its payload rows
        // (arena, shard slots).
        let mut rng = seeded_rng(8);
        let models = [
            Model::gcn(&mut rng, &[4, 6, 3], Aggregator::Max),
            Model::sage(&mut rng, &[4, 6, 3], Aggregator::Mean),
        ];
        for model in models {
            let mut engine =
                InkStream::new(model, ring(64), feats(64, 4), UpdateConfig::default()).unwrap();
            let insert = DeltaBatch::new(
                (0..6).map(|i| EdgeChange::insert(i * 5, i * 5 + 32)).collect(),
            );
            let remove = DeltaBatch::new(
                (0..6).map(|i| EdgeChange::remove(i * 5, i * 5 + 32)).collect(),
            );
            // Warm up: the first rounds grow the pool to the workload's size.
            for _ in 0..2 {
                engine.apply_delta(&insert);
                engine.apply_delta(&remove);
            }
            let warm = engine.scratch_bytes();
            assert!(warm > 0, "the pool must retain capacity between rounds");
            for _ in 0..4 {
                let r = engine.apply_delta(&insert);
                let widened = engine.model.layer(1).conv.alpha_weight().is_some();
                assert_eq!(r.per_layer[1].delta_sources > 0, widened);
                engine.apply_delta(&remove);
            }
            assert_eq!(
                engine.scratch_bytes(),
                warm,
                "steady-state rounds must not allocate in the pooled phases"
            );
        }
    }

    #[test]
    fn undrained_dirty_list_stops_growing_at_its_cap() {
        let mut rng = seeded_rng(9);
        let model = Model::gcn(&mut rng, &[4, 6, 3], Aggregator::Max);
        let mut engine =
            InkStream::new(model, ring(64), feats(64, 4), UpdateConfig::default()).unwrap();
        let cap = 64 / DIRTY_ROWS_DIVISOR;
        let mut rewritten = 0;
        for i in 0..40 {
            let (s, d) = (i % 64, (i * 7 + 20) % 64);
            let delta = DeltaBatch::new(vec![EdgeChange::insert(s, d)]);
            rewritten += engine.apply_delta(&delta).output_changed;
            assert!(engine.dirty.len() <= cap, "round {i}: {} rows held", engine.dirty.len());
        }
        assert!(rewritten as usize > cap, "the stream must be able to overflow the list");
        assert!(engine.dirty_all && engine.dirty.is_empty());
        let mut rows = Vec::new();
        assert!(!engine.take_dirty_rows(&mut rows) && rows.is_empty());
        // Drained, it lists rows again.
        engine.apply_delta(&DeltaBatch::new(vec![EdgeChange::remove(0, 20)]));
        assert!(engine.take_dirty_rows(&mut rows) && !rows.is_empty());
    }
}
