//! The InkStream engine — the paper's Algorithm 1.
//!
//! [`InkStream`] owns the model, the current graph, the features, and the
//! cached per-layer state (`m`, `α`, output `h`) from the previous
//! timestamp. Each update round steps the layers in order
//! (`round_rescale`, then `round_process`, per layer). The per-layer
//! decisions are data — one plan per layer, built when the engine is — and
//! `round_process` runs the same five phase functions over every plan:
//! generate, group, apply, write and next-messages. The `phases` module
//! describes the pipeline; DESIGN.md, "Update pipeline", has the argument
//! and the measurements.
//!
//! Monotonic updates are bitwise identical to full recomputation; the
//! integration suite asserts that per aggregation function.

use crate::config::UpdateConfig;
use crate::error::InkError;
use crate::phases::{self, fan_out, owns_in, Cached, LayerPlan, RoundState};
use crate::pipeline::{worker_chunk, ScratchPool, WorkerScratch};
use crate::stats::{LayerStats, UpdateReport};
use ink_graph::{DeltaBatch, DynGraph, EdgeChange, EdgeOp, VertexId};
use ink_gnn::full::{full_inference, full_inference_into};
use ink_gnn::{FullState, Model};
use ink_tensor::Matrix;
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

/// The incremental GNN inference engine.
pub struct InkStream {
    model: Model,
    /// One pipeline plan per layer of `model`, built with the engine: the
    /// model never changes after construction.
    plans: Vec<LayerPlan>,
    graph: DynGraph,
    features: Matrix,
    state: FullState,
    config: UpdateConfig,
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

impl InkStream {
    /// Bootstraps the engine with a full-graph inference (the paper's
    /// initial step) and takes ownership of graph and features.
    pub fn new(
        model: Model,
        graph: DynGraph,
        features: Matrix,
        config: UpdateConfig,
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
        let state = full_inference(&model, &graph, &features, None);
        Ok(Self::assemble(model, graph, features, state, config))
    }

    /// Reassembles an engine from previously cached state *without* a full
    /// inference — the checkpoint-resume path (see [`crate::checkpoint`]).
    /// Shapes are validated. The caller is responsible for the state actually
    /// matching the graph/features (checkpoints written by
    /// [`crate::checkpoint::save`] do by construction).
    pub fn from_parts(
        model: Model,
        graph: DynGraph,
        features: Matrix,
        state: FullState,
        config: UpdateConfig,
    ) -> Result<Self, InkError> {
        if !model.supports_incremental() {
            return Err(InkError::ExactGraphNorm);
        }
        let n = graph.num_vertices();
        if features.shape() != (n, model.in_dim()) {
            return Err(InkError::ShapeMismatch {
                detail: format!("features {:?} for n={n}, in_dim={}", features.shape(), model.in_dim()),
            });
        }
        check_state_shape(&model, n, &state)?;
        Ok(Self::assemble(model, graph, features, state, config))
    }

    /// The one constructor body behind [`InkStream::new`] and
    /// [`InkStream::from_parts`], which validate their inputs first.
    fn assemble(
        model: Model,
        graph: DynGraph,
        features: Matrix,
        state: FullState,
        config: UpdateConfig,
    ) -> Self {
        Self {
            plans: LayerPlan::for_model(&model),
            model,
            graph,
            features,
            state,
            config,
            scratch: ScratchPool::default(),
            owned: None,
            round: None,
            dirty: Vec::new(),
            dirty_all: false,
        }
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

    /// The model over the cached state, for deriving product rows.
    fn cached(&self) -> Cached<'_> {
        Cached { model: &self.model, state: &self.state }
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

    /// Recomputes the output from scratch (a fresh full inference) — the
    /// reference the incremental state must match. Intended for verification.
    pub fn recompute_reference(&self) -> Matrix {
        full_inference(&self.model, &self.graph, &self.features, None).h
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
    /// [`InkStream::add_vertex`], [`InkStream::state_mut`], or once the
    /// undrained list outgrew an eighth of the vertex count.
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
            let derived = self.cached().product_row(l, v, degree);
            let stored = if l + 1 < k { &self.state.m[l + 1] } else { &self.state.h };
            for (a, b) in derived.iter().zip(stored.row(v as usize)) {
                dev = nan_max(dev, (a - b).abs());
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

    /// Rebuilds all cached state (`m`, `α`, `h`) in place with one full
    /// inference — the self-healing action of [`crate::DriftAction::Resync`].
    /// Afterwards the output is bitwise equal to
    /// [`InkStream::recompute_reference`] by construction; the graph and
    /// features are untouched. Every cached matrix is rebuilt
    /// capacity-preserving with temporaries drawn from the engine's scratch
    /// pool, so repeated resyncs allocate nothing after the first.
    pub fn resync(&mut self) -> ResyncReport {
        let t0 = Instant::now();
        let (model, graph, features) = (&self.model, &self.graph, &self.features);
        full_inference_into(model, graph, features, None, &mut self.state, &mut self.scratch.gemm);
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
    /// actually changes, records the old message as a propagation seed. Ghost
    /// vertices only get the feature row written — their message refresh
    /// arrives from the owning engine.
    fn stage_feature_update(
        &mut self,
        v: VertexId,
        new_feat: &[f32],
        seeds: &mut Vec<(VertexId, Vec<f32>)>,
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
        let new_m = self.model.message(0, new_feat, self.graph.in_degree(v));
        let old = self.state.m[0].row(v as usize).to_vec();
        if new_m != old {
            self.state.m[0].set_row(v as usize, &new_m);
            seeds.push((v, old));
        }
        Ok(())
    }

    /// Applies a batch of edge changes and incrementally updates all cached
    /// state. Changes that are no-ops against the current graph (duplicate
    /// inserts, missing removals) are skipped and counted in the report.
    pub fn apply_delta(&mut self, delta: &DeltaBatch) -> UpdateReport {
        let (directed, skipped) = self.stage_delta(delta);
        let mut report = self.run_layers(directed, Vec::new());
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
        self.stage_feature_update(v, new_feat, &mut seeds)?;
        Ok(self.run_layers(Vec::new(), seeds))
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
        let mut msg = self.model.message(0, feat, 0);
        for l in 0..k {
            self.state.m[l].push_row(&msg);
            self.state.alpha[l].push_row(&vec![0.0; self.model.msg_dim(l)]);
            let row = self.cached().product_row(l, v, 0);
            if l + 1 < k {
                msg = row;
            } else {
                self.state.h.push_row(&row);
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
    ) -> UpdateReport {
        self.round_start(directed, seeds0);
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
    ) {
        assert!(self.round.is_none(), "a round is already in flight");
        let t0 = Instant::now();
        let k = self.model.num_layers();
        let cfg = self.config;
        let (nw, ns) = round_split(cfg.parallel);

        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.begin_round(nw, ns);
        // The pool only ever grows (see `begin_round`), so after a round on
        // more threads (or before a `set_config` to the sequential oracle)
        // there may be more pooled workers/shards than this round's
        // `nw`/`ns`. Every phase below iterates only the first `nw` workers
        // and `ns` shards — a sequential round must not pay per-shard walks
        // over pool capacity left behind by a parallel one.
        for l in 0..k {
            scratch.old.reset_layer(l, self.model.msg_dim(l));
        }
        // Two feature updates of one vertex seed it twice: the first seed
        // holds the pre-round message, the row the round propagates from.
        for (v, old) in &seeds0 {
            if !scratch.old.contains(0, *v) {
                scratch.old.insert(0, *v, old);
            }
            scratch.affected.insert(*v);
        }

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
            cfg,
            nw,
            ns,
            f32_read: 0,
            f32_written: 0,
            layer: LayerStats::default(),
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
        for (v, feat) in feature_updates {
            self.stage_feature_update(*v, feat, &mut seeds)
                .expect("feature updates validated above");
        }
        self.round_start(directed, seeds);
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
        let plan = &self.plans[l];
        let (nw, ns) = (rs.nw, rs.ns);
        let scratch = &mut rs.scratch;
        // Workers begin here (not in `round_process`) so the rescale stage
        // can already stage rows into their arenas.
        for ws in &mut scratch.workers[..nw] {
            ws.begin(ns, plan.dim, plan.tail);
        }

        if plan.degree_scaled {
            // Degree-scaled layers (LightGCN-style): a vertex whose degree
            // changed has a changed message at this layer even if nothing
            // else touched it. Candidates iterate in sorted vertex order so
            // the recorded changes are deterministic.
            let ScratchPool { workers, rescale_list, degree_order, old, .. } = &mut *scratch;
            let owned = self.owned.as_deref();
            rescale_list.clear();
            rescale_list.extend(
                degree_order
                    .iter()
                    .filter(|&&(v, net)| net != 0 && !old.contains(l, v) && owns_in(owned, v))
                    .copied(),
            );
            let rescale_list = &*rescale_list;
            let (cached, graph, features) = (self.cached(), &self.graph, &self.features);
            let conv = &self.model.layer(l).conv;
            // Stage the new message: the old one scaled by the weight ratio,
            // or rebuilt from upstream state when the old degree was 0 and
            // the cached message is the zero convention.
            let run = |(w, ws): (usize, &mut WorkerScratch)| {
                for &(v, net) in &rescale_list[worker_chunk(rescale_list.len(), w, nw)] {
                    let d_new = graph.in_degree(v);
                    let d_old = (d_new as i64 - net).max(0) as usize;
                    let pid = if d_old == 0 {
                        let msg = if l == 0 {
                            cached.model.message(0, features.row(v as usize), d_new)
                        } else {
                            cached.product_row(l - 1, v, d_new)
                        };
                        ws.arena.push(&msg)
                    } else {
                        let ratio = conv.degree_scale(d_new) / conv.degree_scale(d_old);
                        ws.arena.push_scaled(cached.state.m[l].row(v as usize), ratio)
                    };
                    ws.rescaled.push((v, pid));
                }
            };
            fan_out(rs.cfg.parallel, rescale_list.len(), &mut workers[..nw], 1, |(w, ws)| {
                run((w, &mut ws[0]))
            });
            // Commit in worker order (= candidate order): vertices whose
            // message really changed record their old value.
            let ScratchPool { workers, old, .. } = &mut rs.scratch;
            for ws in workers[..nw].iter() {
                for &(v, pid) in &ws.rescaled {
                    let new = ws.arena.get(pid);
                    if new != self.state.m[l].row(v as usize) {
                        old.insert(l, v, self.state.m[l].row(v as usize));
                        self.state.m[l].set_row(v as usize, new);
                    }
                }
            }
        }
        rs.layer.phases.generate += t_rescale.elapsed();
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
        let rs = self.round.as_mut().expect("round_ingest_refresh requires an active round");
        let cur = self.state.m[l].row(v as usize);
        rs.scratch.old.insert(l, v, cur);
        if new_row != cur {
            self.state.m[l].set_row(v as usize, new_row);
        }
    }

    /// Runs the five pipeline phases of layer `l` for the current round
    /// (`crate::phases`), timing each into the layer's
    /// [`LayerStats::phases`]. [`InkStream::round_rescale`] for the same
    /// layer must have run first. With an ownership mask installed, events
    /// and commits are restricted to owned targets; ghost vertices only
    /// *source* events (from rows refreshed by their owner).
    pub fn round_process(&mut self, l: usize) {
        let mut rs = self.round.take().expect("round_process requires an active round");
        let plan = &self.plans[l];
        let owned = self.owned.as_deref();

        let t = Instant::now();
        let w = self.model.layer(l).conv.alpha_weight().filter(|_| plan.blocked());
        phases::generate(plan, &mut rs, w, &self.graph, &self.state.m[l], owned);
        rs.layer.phases.generate += t.elapsed();

        let t = Instant::now();
        phases::group(plan, &mut rs);
        rs.layer.phases.group = t.elapsed();

        let t = Instant::now();
        phases::apply(plan, &mut rs, &self.graph, &mut self.state);
        rs.layer.phases.apply = t.elapsed();

        let t = Instant::now();
        phases::write(plan, &mut rs, &mut self.state.alpha[l], owned);
        rs.layer.phases.write = t.elapsed();

        let t = Instant::now();
        phases::next_messages(plan, &mut rs, &self.model, &self.graph, &mut self.state);
        rs.layer.phases.next_messages = t.elapsed();

        let rewritten = &mut rs.scratch.rewritten;
        rs.report.output_changed += rewritten.len() as u64;
        self.list_dirty(rewritten);
        rewritten.clear();
        rs.report.per_layer.push(std::mem::take(&mut rs.layer));
        self.round = Some(rs);
    }

    /// Appends output rows a round rewrote to the dirty list, which gives up
    /// and reads "all rows" once it outgrows its cap.
    fn list_dirty(&mut self, rows: &[VertexId]) {
        if !self.dirty_all {
            self.dirty.extend_from_slice(rows);
        }
        if self.dirty.len() > self.graph.num_vertices() / DIRTY_ROWS_DIVISOR {
            self.mark_all_dirty();
        }
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
}

/// Checks that `state` has one `m` and one `α` per layer of `model`, each
/// `n × msg_dim(l)`, and an `n × out_dim` output `h`.
fn check_state_shape(model: &Model, n: usize, state: &FullState) -> Result<(), InkError> {
    let k = model.num_layers();
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
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ink_gnn::Aggregator;
    use ink_tensor::init::seeded_rng;
    use ink_tensor::GemmScratch;

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
    fn accumulative_engine_stays_within_tolerance() {
        for agg in [Aggregator::Sum, Aggregator::Mean] {
            let mut rng = seeded_rng(13);
            let model = Model::gcn(&mut rng, &[4, 5, 3], agg);
            let mut engine =
                InkStream::new(model, ring(16), feats(16, 4), UpdateConfig::default()).unwrap();
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

    /// A monotonic target whose old neighborhood was empty is rebuilt whole
    /// in the apply pass with the reference's own fold: on a 24-ring plus an
    /// isolated vertex that gains its first neighbor, max and min on 1- and
    /// 3-thread pools end bitwise at `recompute_reference()`, with every α
    /// row equal to `full::batch_aggregate` over the cached messages. Sum and
    /// mean update that target incrementally like any other, so they are
    /// held to the same values within rounding.
    #[test]
    fn empty_old_targets_match_the_reference() {
        for agg in [Aggregator::Max, Aggregator::Min, Aggregator::Sum, Aggregator::Mean] {
            for threads in [1, 3] {
                let mut rng = seeded_rng(41);
                let model = Model::gcn(&mut rng, &[4, 6, 3], agg);
                let mut g = ring(24);
                g.add_vertex();
                let mut engine =
                    InkStream::new(model, g, feats(25, 4), UpdateConfig::default()).unwrap();
                // Removals drive monotonic exposed resets; the insert gives
                // the isolated vertex 24 its first neighbor.
                let delta = DeltaBatch::new(vec![
                    EdgeChange::remove(0, 1),
                    EdgeChange::remove(5, 6),
                    EdgeChange::remove(12, 13),
                    EdgeChange::insert(2, 24),
                ]);
                let r = pool(threads).install(|| engine.apply_delta(&delta));
                let ctx = format!("{agg:?} {threads} threads");
                let exact = agg.is_monotonic();
                let same = |got: &Matrix, want: &Matrix| {
                    if exact {
                        got == want
                    } else {
                        got.allclose(want, 1e-4)
                    }
                };
                assert!(same(engine.output(), &engine.recompute_reference()), "{ctx}");
                for l in 0..engine.model.num_layers() {
                    let want = ink_gnn::full::batch_aggregate(
                        &engine.model,
                        l,
                        &engine.graph,
                        &engine.state.m[l],
                    );
                    assert!(same(&engine.state.alpha[l], &want), "{ctx}: layer {l}");
                }
                // Only a monotonic layer folds an empty-old neighborhood.
                assert_eq!(r.batched_apply_rows() > 0, exact, "{ctx}");
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

    /// GCN-max on a hub: removing hub edges exposes channels of most of the
    /// hub's neighbors every other round, so the apply phase's repair list
    /// and flat channel buffer fill up; they must be pooled like the rest.
    #[test]
    fn exposed_repair_lists_stop_growing_after_warmup() {
        let n = 96;
        let mut rng = seeded_rng(12);
        let model = Model::gcn(&mut rng, &[4, 24, 3], Aggregator::Max);
        let mut g = ring(n);
        for v in 2..n as VertexId - 1 {
            g.insert_edge(0, v);
        }
        // The hub's features win every channel, so its message holds the
        // extreme of each neighbor's aggregate somewhere.
        let x = Matrix::from_fn(n, 4, |r, c| if r == 0 { 4.0 } else { feats(n, 4).get(r, c) });
        let mut engine = InkStream::new(model, g, x, UpdateConfig::default()).unwrap();
        let hub_edges: Vec<VertexId> = (2..n as VertexId - 1).step_by(3).collect();
        let remove = DeltaBatch::new(hub_edges.iter().map(|&v| EdgeChange::remove(0, v)).collect());
        let insert = DeltaBatch::new(hub_edges.iter().map(|&v| EdgeChange::insert(0, v)).collect());
        let round = |engine: &mut InkStream| {
            let r = engine.apply_delta(&remove);
            let channels: usize = r.per_layer.iter().map(|l| l.exposed_channels).sum();
            assert!(channels > hub_edges.len(), "the stream must repair many exposed resets");
            engine.apply_delta(&insert);
        };
        for _ in 0..2 {
            round(&mut engine);
        }
        let warm = engine.scratch_bytes();
        for _ in 0..4 {
            round(&mut engine);
        }
        assert_eq!(engine.scratch_bytes(), warm, "steady-state repairs must not allocate");
        assert_eq!(engine.output(), &engine.recompute_reference());
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
