//! The per-layer update pipeline: one [`LayerPlan`] per layer and the five
//! phase functions `InkStream::round_process` runs over it (see DESIGN.md,
//! "Update pipeline").
//!
//! Every per-layer decision is data in the plan, built once per engine from
//! the model: the aggregator, the widths, whether messages are degree-scaled
//! or self-dependent, whether the layer is the last, and the delta rule's
//! `tail` ([`crate::accumulative::delta_weight`] decides it). Each layer then runs the same five phases:
//!
//! 1. [`generate`] — ΔG event seeding and effect propagation (degree
//!    rescaling already ran in `InkStream::round_rescale`), fanned out over
//!    workers that write into private payload arenas and per-shard event
//!    buckets;
//! 2. [`group`] — target-sharded reduction of each shard's events to at most
//!    one deletion/addition payload (monotonic) or one signed sum
//!    (accumulative) per target, payloads living in flat per-shard buffers;
//! 3. [`apply`] — per target, the per-channel evolvability check (no reset /
//!    covered reset / exposed reset) or the accumulative update, α rows
//!    staged in flat per-shard buffers; a repair loop then re-aggregates only
//!    the exposed channels over the in-neighbors. A monotonic target whose
//!    old neighborhood was empty is rebuilt whole in place, with the fold
//!    the reference uses;
//! 4. [`write`] — sequential commit of the staged α rows, condition stats,
//!    and the merged next-layer target list;
//! 5. [`next_messages`] — rebuild of the next layer's messages (or the final
//!    outputs) for every target, recording the next layer's changed rows
//!    unless pruned.
//!
//! On a layer whose cached output is affine in α (`tail > 0`: the last layer
//! of a sum/mean GraphSAGE) the transform moves to the source: generate
//! widens every payload to `[Δm ‖ Δm·W]`, group sums both halves in one slot,
//! and apply commits every target whose own message and denominator did not
//! move — a *delta row* — in place: the α row from `Σ Δm`, then
//! `h += s·Σ Δm·W`. To write rows from parallel shards without `unsafe`,
//! such a layer shards targets by a hash of their 64-row vertex block
//! instead of the vertex and hands each shard its own blocks of α and `h` as
//! disjoint mutable slices ([`ShardRows`]). Write then only counts a delta
//! row; write and next-messages move α rows and rebuild outputs for the few
//! remaining targets. Every other layer keeps the vertex key — a block key
//! would leave graphs under 64 vertices, the ones the shard-sweep tests use,
//! with a single shard — and cuts no blocks, so it does no O(|V|) work per
//! round.
//!
//! A parallel round takes one worker per rayon thread and the next power of
//! two of four shards per worker; each phase goes to the pool only past
//! [`PARALLEL_MIN_ITEMS`] work items ([`fan_out`]). Workers process
//! contiguous ordered chunks and every target belongs to exactly one shard,
//! so the result is bitwise identical for every thread count — including the
//! sequential 1×1 configuration, the scalar oracle. All scratch storage is
//! pooled in the engine and reused across rounds, so steady-state updates
//! allocate nothing in the generate and group phases.

use crate::accumulative::{accumulate_in_place, apply_delta_row, delta_row_scale, delta_weight};
use crate::config::{UpdateConfig, BATCH_MIN_TARGETS, PARALLEL_MIN_ITEMS};
use crate::event::{Event, EventOp};
use crate::monotonic::{apply_monotonic_into, Condition};
use crate::pipeline::{
    acc_slot_in, shard_of, slot_in, worker_chunk, AlphaRows, ApplyOutcome, CondKind, OldMsgs,
    Repair, ScratchPool, ShardRows, ShardScratch, WorkerScratch, NO_SLOT,
};
use crate::stats::{LayerStats, UpdateReport};
use ink_gnn::{Aggregator, FullState, Model};
use ink_graph::{prefetch, prefetch_lines, DynGraph, EdgeOp, VertexId};
use ink_tensor::gemm::{gather_rows_into, gather_rows_scaled_into};
use ink_tensor::Matrix;
use rayon::prelude::*;
use std::time::Instant;

/// How many entries ahead apply pass 1, write and next-messages ask for a
/// target's state rows (α⁻, `h`, the destination row) and, in pass 1 on a
/// monotonic layer, its in-list. Far enough that the misses of about eight
/// targets overlap, near enough that the lines are still in L1 when the
/// loop gets there.
const ROW_AHEAD: usize = 8;
/// How many entries ahead apply pass 1 asks for a target's adjacency
/// header: the list fetch at [`ROW_AHEAD`] reads the header, so it is
/// fetched one lookahead earlier.
const HEADER_AHEAD: usize = 2 * ROW_AHEAD;
/// How many exposed resets ahead the repair loop asks for the neighbor
/// rows' exposed lines. A reset folds a dozen rows or more, so fewer
/// resets cover the same latency.
const REPAIR_AHEAD: usize = 3;

/// Everything the pipeline decides about layer `layer` of a model, read from
/// the model once per engine.
pub(crate) struct LayerPlan {
    pub layer: usize,
    pub agg: Aggregator,
    /// Message width of this layer (`m`, α).
    pub dim: usize,
    /// Width of this layer's hidden output.
    pub out_dim: usize,
    /// Width of the rows next-messages produces: the next layer's messages,
    /// or the output on the last layer.
    pub prod_dim: usize,
    pub degree_scaled: bool,
    pub self_dependent: bool,
    pub last: bool,
    /// Transformed channels behind every payload: the delta rule's `W` width
    /// where [`delta_weight`] grants it, else 0.
    pub tail: usize,
}

impl LayerPlan {
    /// One plan per layer of `model`.
    pub fn for_model(model: &Model) -> Vec<LayerPlan> {
        let k = model.num_layers();
        (0..k)
            .map(|l| {
                let conv = &model.layer(l).conv;
                let last = l + 1 == k;
                LayerPlan {
                    layer: l,
                    agg: conv.aggregator(),
                    dim: model.msg_dim(l),
                    out_dim: conv.out_dim(),
                    prod_dim: if last { conv.out_dim() } else { model.msg_dim(l + 1) },
                    degree_scaled: conv.degree_scaled(),
                    self_dependent: conv.self_dependent(),
                    last,
                    tail: delta_weight(model, l).map_or(0, Matrix::cols),
                }
            })
            .collect()
    }

    /// A delta-rule layer: payloads carry `[Δm ‖ Δm·W]`, targets shard by
    /// 64-row block, and apply commits delta rows in place.
    #[inline]
    pub fn blocked(&self) -> bool {
        self.tail > 0
    }
}

/// In-flight context of one update round while it is stepped layer by layer
/// through `InkStream::round_begin` … `InkStream::round_finish`. The scratch
/// pool moves in here for the duration of the round and back into the engine
/// at the end, so the zero-allocation guarantees are unchanged.
pub(crate) struct RoundState {
    pub directed: Vec<(VertexId, VertexId, EdgeOp)>,
    pub scratch: ScratchPool,
    pub report: UpdateReport,
    pub t0: Instant,
    /// The engine's configuration when the round opened.
    pub cfg: UpdateConfig,
    /// Workers and shards of this round.
    pub nw: usize,
    pub ns: usize,
    pub f32_read: u64,
    pub f32_written: u64,
    /// Statistics of the layer being stepped, pushed onto the report when
    /// its `round_process` ends.
    pub layer: LayerStats,
}

/// The model over the engine's cached state: what a layer's product rows
/// are derived from, outside the batched transform.
#[derive(Clone, Copy)]
pub(crate) struct Cached<'a> {
    pub model: &'a Model,
    pub state: &'a FullState,
}

impl Cached<'_> {
    /// Layer `l`'s product row for `u` from the cached state: the next
    /// layer's message, or the output row on the last layer. `degree` feeds
    /// the degree weights of degree-scaled layers.
    pub fn product_row(&self, l: usize, u: VertexId, degree: usize) -> Vec<f32> {
        let (alpha, m) = (self.state.alpha[l].row(u as usize), self.state.m[l].row(u as usize));
        let h = self.model.next_hidden(l, alpha, m, degree);
        if l + 1 < self.model.num_layers() {
            self.model.message(l + 1, &h, degree)
        } else {
            h
        }
    }
}

/// Whether `v` is owned: no mask means the engine owns everything; with a
/// mask, out-of-range vertices are not owned (the driver keeps the mask
/// sized to the graph).
#[inline]
pub(crate) fn owns_in(owned: Option<&[bool]>, v: VertexId) -> bool {
    owned.is_none_or(|o| o.get(v as usize).copied().unwrap_or(false))
}

/// The pipeline's one parallel gate: runs `f` over the `size`-wide chunks of
/// `data`, with their indices, on the rayon pool when the round is
/// `parallel` and the phase has at least [`PARALLEL_MIN_ITEMS`] work items,
/// inline otherwise. Which one never changes results. Worker and shard
/// lists go through with `size == 1`; on the pool, its resident threads and
/// the caller claim blocks of chunks as they free up, so a shard holding a
/// hub's targets does not hold the others back.
pub(crate) fn fan_out<T: Send>(
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

/// Phase 1: ΔG seeding and effect propagation, fanned out over workers. Each
/// worker owns a contiguous ordered chunk of the work lists and writes into
/// its private arena and buckets; changed messages propagate in sorted
/// vertex order, the canonical event order every split reproduces. `w` is
/// the delta rule's weight on a blocked layer: each worker ends by
/// transforming its payloads' tails, once per payload.
pub(crate) fn generate(
    plan: &LayerPlan,
    rs: &mut RoundState,
    w: Option<&Matrix>,
    graph: &DynGraph,
    m_l: &Matrix,
    owned: Option<&[bool]>,
) {
    let (l, nw, ns, blocked) = (plan.layer, rs.nw, rs.ns, plan.blocked());
    let mono = plan.agg.is_monotonic();
    let ScratchPool { workers, old, changed_order, covered, .. } = &mut rs.scratch;
    old.keys_sorted_into(l, changed_order);
    let workers = &mut workers[..nw];
    let (old, changed_order, covered) = (&*old, &*changed_order, &*covered);
    let directed = &rs.directed[..];
    let run = |(wi, ws): (usize, &mut WorkerScratch)| {
        // ΔG events for this layer. Events targeting non-owned vertices are
        // the owning engine's job — skip them.
        for &(s, t, op) in &directed[worker_chunk(directed.len(), wi, nw)] {
            if !owns_in(owned, t) {
                continue;
            }
            let (op, payload, degree_delta) = match op {
                EdgeOp::Remove => {
                    let old_row = old.get(l, s).unwrap_or_else(|| m_l.row(s as usize));
                    if mono {
                        (EventOp::Del, ws.arena.push(old_row), -1)
                    } else {
                        (EventOp::Update, ws.arena.push_negated(old_row), -1)
                    }
                }
                EdgeOp::Insert => {
                    let op = if mono { EventOp::Add } else { EventOp::Update };
                    (op, ws.arena.push(m_l.row(s as usize)), 1)
                }
            };
            ws.dg[shard_of(t, ns, blocked)].push(Event { op, target: t, payload, degree_delta });
        }
        // Effect propagation from messages changed at this layer, skipping
        // edges already covered by ΔG events.
        for &v in &changed_order[worker_chunk(changed_order.len(), wi, nw)] {
            let old_row = old.get(l, v).expect("changed_order lists recorded rows");
            let new = m_l.row(v as usize);
            // Monotonic: `Del(m⁻)` then `Add(m)`; accumulative: one `Update(Δm)`.
            let (events, n) = if mono {
                let del = ws.arena.push(old_row);
                ([(EventOp::Del, del), (EventOp::Add, ws.arena.push(new))], 2)
            } else {
                let diff = ws.arena.push_diff(new, old_row);
                ([(EventOp::Update, diff); 2], 1)
            };
            for &x in graph.out_neighbors(v) {
                if covered.contains(&(v, x)) || !owns_in(owned, x) {
                    continue;
                }
                let bucket = &mut ws.fx[shard_of(x, ns, blocked)];
                for &(op, payload) in &events[..n] {
                    bucket.push(Event { op, target: x, payload, degree_delta: 0 });
                }
            }
        }
        if let Some(w) = w {
            ws.arena.transform_tails(w);
        }
    };
    let work = directed.len() + changed_order.len();
    fan_out(rs.cfg.parallel, work, workers, 1, |(wi, ws)| run((wi, &mut ws[0])));

    let workers = &rs.scratch.workers[..nw];
    rs.layer.events_created = workers.iter().map(WorkerScratch::events_emitted).sum();
    let payloads: usize = workers.iter().map(|ws| ws.arena.len()).sum();
    rs.f32_written += (payloads * (plan.dim + plan.tail)) as u64;
    if blocked {
        rs.layer.delta_sources = payloads;
    }
}

/// Phase 2: each shard reduces its buckets phase-major then worker-major —
/// exactly the sequential emission order restricted to the shard.
pub(crate) fn group(plan: &LayerPlan, rs: &mut RoundState) {
    let (nw, ns, cfg) = (rs.nw, rs.ns, rs.cfg);
    let ScratchPool { workers, shards, .. } = &mut rs.scratch;
    let (workers, shards) = (&workers[..nw], &mut shards[..ns]);
    let run = |(s, shard): (usize, &mut ShardScratch)| {
        shard.begin();
        for ws in workers {
            shard.reduce_bucket(&ws.dg[s], &ws.arena, plan.agg);
        }
        for ws in workers {
            shard.reduce_bucket(&ws.fx[s], &ws.arena, plan.agg);
        }
    };
    fan_out(cfg.parallel, rs.layer.events_created, shards, 1, |(s, shard)| run((s, &mut shard[0])));
    rs.layer.targets = shards.iter().map(|s| s.entries.len()).sum();
    rs.f32_read += shards.iter().map(|s| s.payload_reads).sum::<usize>() as u64;
}

/// Phase 3: the per-target update, α staged in each shard's flat output
/// buffer, one pass and a repair loop per shard ([`apply_shard`]). On a
/// blocked layer every shard is paired with its own 64-row blocks of α and
/// `h`, where the pass commits the delta rows.
pub(crate) fn apply(
    plan: &LayerPlan,
    rs: &mut RoundState,
    graph: &DynGraph,
    state: &mut FullState,
) {
    let (l, ns, cfg, targets) = (plan.layer, rs.ns, rs.cfg, rs.layer.targets);
    let ScratchPool { shards, block_rank, old, .. } = &mut rs.scratch;
    let shards = &mut shards[..ns];
    let FullState { m, alpha, h, .. } = state;
    let ctx = ApplyCtx { plan, graph, m_l: &m[l], old };
    if plan.blocked() {
        let rows = ShardRows::split(&mut alpha[l], h, ns, block_rank);
        let mut work: Vec<_> =
            shards.iter_mut().zip(rows.into_iter().map(AlphaRows::Owned)).collect();
        fan_out(cfg.parallel, targets, &mut work, 1, |(_, w)| {
            let (shard, rows) = &mut w[0];
            apply_shard(&ctx, shard, rows)
        });
    } else {
        let alpha_l = &alpha[l];
        fan_out(cfg.parallel, targets, shards, 1, |(_, shard)| {
            apply_shard(&ctx, &mut shard[0], &mut AlphaRows::Shared(alpha_l))
        });
    }
    for shard in shards.iter() {
        rs.layer.batched_apply_rows += shard.batched_apply_rows;
        rs.layer.exposed_channels += shard.exposed_channels;
        rs.layer.exposed_rows += shard.exposed_rows;
    }
}

/// What every shard of one apply phase reads.
struct ApplyCtx<'a> {
    plan: &'a LayerPlan,
    graph: &'a DynGraph,
    m_l: &'a Matrix,
    old: &'a OldMsgs,
}

/// The apply phase of one shard. Pass 1 classifies every entry and finishes
/// every update in place but the monotonic exposed resets, which it lists
/// for the repair loop; a monotonic empty-old target it rebuilds whole
/// ([`rebuild_empty_old`]). On a blocked layer it commits every delta row:
/// the α row from `Σ Δm`, then `h += s·Σ Δm·W`, in the shard's own blocks,
/// staging nothing. The repair loop then re-aggregates each exposed reset's
/// exposed channels over its in-neighbors.
///
/// Every target's rows sit at unrelated addresses, so pass 1 and the repair
/// loop ask for a later target's lines while they work on the current one
/// ([`ROW_AHEAD`], [`HEADER_AHEAD`], [`REPAIR_AHEAD`]). The hints change
/// timing only, never a result or a count.
///
/// Inlined into both call sites so each copy is specialized to its
/// [`AlphaRows`] variant and keeps the per-target lookups inline; out of
/// line, the delta-row loop of `engine_accum` ran 15–25 % slower.
#[inline(always)]
fn apply_shard(ctx: &ApplyCtx<'_>, shard: &mut ShardScratch, alpha_rows: &mut AlphaRows) {
    let ApplyCtx { plan, graph, m_l, old } = *ctx;
    let (l, agg, dim, tail) = (plan.layer, plan.agg, plan.dim, plan.tail);
    let mono = agg.is_monotonic();
    let ShardScratch {
        entries,
        buf,
        alpha_buf,
        outcomes,
        exposed,
        repairs,
        exposed_channels,
        exposed_rows,
        batched_apply_rows,
        ..
    } = shard;
    // Pass 1. Every entry stages its new α, except a blocked layer's delta
    // rows, so the buffer grows per staged row.
    let mut staged_rows = 0u32;
    for (i, e) in entries.iter().enumerate() {
        if let Some(ahead) = entries.get(i + HEADER_AHEAD) {
            graph.prefetch_in_header(ahead.target);
        }
        if let Some(ahead) = entries.get(i + ROW_AHEAD) {
            let v = ahead.target;
            prefetch_lines(alpha_rows.alpha(v));
            if let AlphaRows::Owned(owned) = &*alpha_rows {
                prefetch_lines(owned.h(v));
            }
            // The repair loop reads the list; sum and mean layers have none.
            if mono {
                graph.prefetch_in_neighbors(v);
            }
        }
        let u = e.target;
        let degree = graph.in_degree(u);
        if let AlphaRows::Owned(owned) = alpha_rows {
            // The delta rule serves an incrementally updated target whose
            // own message stayed put (else the self term of its output row
            // moved too).
            let scale = if old.contains(l, u) {
                None
            } else {
                delta_row_scale(agg, degree, e.degree_delta)
            };
            if let Some(scale) = scale {
                let (sum, w_sum) = acc_slot_in(buf, e.add, dim, tail);
                let (alpha_row, h_row) = owned.rows_mut(u);
                let changed = accumulate_in_place(agg, alpha_row, sum, degree, e.degree_delta);
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
        let (cond, changed) = if mono {
            if degree as i64 - e.degree_delta as i64 <= 0 {
                rebuild_empty_old(agg, graph, m_l, u, out);
                reads += (degree * dim) as u64;
                *batched_apply_rows += degree;
                (CondKind::Mono(Condition::ExposedReset), &*out != alpha_old)
            } else {
                let from = exposed.len();
                let condition = apply_monotonic_into(
                    agg,
                    alpha_old,
                    slot_in(buf, e.del, dim),
                    slot_in(buf, e.add, dim),
                    out,
                    exposed,
                );
                let changed = if condition == Condition::ExposedReset {
                    // `out` is exact everywhere but on the exposed channels:
                    // the repair loop below re-aggregates just those, and
                    // backfills `changed` once the row is final.
                    let channels = exposed.len() - from;
                    reads += (degree * channels) as u64;
                    *exposed_channels += channels;
                    *exposed_rows += degree;
                    let (from, to) = (from as u32, exposed.len() as u32);
                    repairs.push(Repair { entry: i as u32, staged, from, to });
                    false
                } else {
                    &*out != alpha_old
                };
                (CondKind::Mono(condition), changed)
            }
        } else {
            let (sum, _) = acc_slot_in(buf, e.add, dim, tail);
            out.copy_from_slice(alpha_old);
            (CondKind::Acc, accumulate_in_place(agg, out, sum, degree, e.degree_delta))
        };
        outcomes.push(ApplyOutcome { cond, reads, changed, staged, output_changed: false });
    }
    // Exposed repair: reset each listed channel and fold it over the
    // in-neighbors, asking for the exposed channels' lines of the neighbor
    // rows of the reset `REPAIR_AHEAD` on (pass 1 already asked for its
    // list).
    for (j, r) in repairs.iter().enumerate() {
        if let Some(ahead) = repairs.get(j + REPAIR_AHEAD) {
            let channels = ahead.channels(exposed);
            for &v in graph.in_neighbors(entries[ahead.entry as usize].target) {
                let row = m_l.row(v as usize);
                for &c in channels {
                    prefetch(row, c as usize);
                }
            }
        }
        let u = entries[r.entry as usize].target;
        let out = &mut alpha_buf[r.staged as usize * dim..(r.staged as usize + 1) * dim];
        let neighbors = graph.in_neighbors(u).iter().map(|&v| m_l.row(v as usize));
        agg.aggregate_channels_into(neighbors, r.channels(exposed), out);
        outcomes[r.entry as usize].changed = *out != *alpha_rows.alpha(u);
    }
}

/// Rebuilds the whole α of a monotonic target whose *old* neighborhood was
/// empty: its cached `α⁻ = 0` is a convention, not an aggregate, so the
/// incremental rules do not apply. The fold is [`Aggregator::aggregate_into`]
/// over the in-neighbors, the one bootstrap, `audit_vertex` and the
/// reference use, so the row is bitwise theirs.
///
/// Cold and out of line: such targets are rare (about one per ten updates
/// on `engine_trickle`, none on `engine_accum`), so the fold stays out of
/// the code of the `#[inline(always)]` [`apply_shard`] loop. One inline
/// version measured about 15 % slower on `engine_accum` (DESIGN.md §3).
#[cold]
#[inline(never)]
fn rebuild_empty_old(
    agg: Aggregator,
    graph: &DynGraph,
    m_l: &Matrix,
    u: VertexId,
    out: &mut [f32],
) {
    agg.aggregate_into(graph.in_neighbors(u).iter().map(|&v| m_l.row(v as usize)), out);
}

/// Phase 4, sequential: commits the staged α rows, records condition stats,
/// and builds the sorted next-layer target list. A delta row's rows are
/// already committed; it only leaves its counts and, when its `h` row
/// changed, an entry in the round's rewritten-row list.
pub(crate) fn write(
    plan: &LayerPlan,
    rs: &mut RoundState,
    alpha_l: &mut Matrix,
    owned: Option<&[bool]>,
) {
    let (dim, ns, cfg) = (plan.dim, rs.ns, rs.cfg);
    let (stats, report) = (&mut rs.layer, &mut rs.report);
    let ScratchPool { shards, affected, next_targets, changed_order, rewritten, .. } =
        &mut rs.scratch;
    next_targets.clear();
    let mut delta_rows = 0usize;
    for shard in &shards[..ns] {
        for (i, (e, o)) in shard.entries.iter().zip(&shard.outcomes).enumerate() {
            if let Some(ahead) = shard.outcomes.get(i + ROW_AHEAD) {
                if ahead.changed && ahead.staged != NO_SLOT {
                    prefetch_lines(alpha_l.row(shard.entries[i + ROW_AHEAD].target as usize));
                }
            }
            rs.f32_read += o.reads;
            match o.cond {
                CondKind::Mono(c) => {
                    stats.conditions.record(c);
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
                CondKind::Acc => stats.conditions.accumulative += 1,
            }
            if o.changed {
                if o.staged != NO_SLOT {
                    let s = o.staged as usize;
                    alpha_l.set_row(e.target as usize, &shard.alpha_buf[s * dim..(s + 1) * dim]);
                }
                rs.f32_written += dim as u64;
                stats.alpha_changed += 1;
                affected.insert(e.target);
            }
            // Accumulative targets always propagate (Algorithm 1 l.18-21) — a
            // delta row did so in the apply phase.
            let propagates = matches!(o.cond, CondKind::Acc) || o.changed;
            if o.staged == NO_SLOT {
                delta_rows += 1;
                if o.output_changed {
                    rewritten.push(e.target);
                }
            } else if propagates || !cfg.pruning {
                next_targets.push(e.target);
            }
        }
    }

    // Self-dependence: nodes whose own message changed re-enter — owned ones
    // only; a ghost's owner re-enters it on its side.
    if plan.self_dependent {
        next_targets.extend(changed_order.iter().copied().filter(|&v| owns_in(owned, v)));
    }
    next_targets.sort_unstable();
    next_targets.dedup();
    // Delta rows are disjoint from the list above: one group entry per
    // target, and none of them is in `changed_order`.
    let visited = next_targets.len() + delta_rows;
    stats.delta_rows = delta_rows;
    stats.targets = stats.targets.max(visited);
    report.nodes_visited += visited as u64;
}

/// Phase 5: rebuilds the next layer's messages, or the final outputs, for
/// every next target into the flat production buffer — gather→GEMM→scatter
/// on a parallel engine once the target set reaches [`BATCH_MIN_TARGETS`],
/// [`Cached::product_row`] per node otherwise — then commits sequentially:
/// changed output rows go on the round's rewritten-row list, changed
/// messages are recorded as the next layer's old values (every row, when
/// pruning is off). Delta rows never come here.
pub(crate) fn next_messages(
    plan: &LayerPlan,
    rs: &mut RoundState,
    model: &Model,
    graph: &DynGraph,
    state: &mut FullState,
) {
    let (l, dim, out_dim, prod_dim) = (plan.layer, plan.dim, plan.out_dim, plan.prod_dim);
    let cfg = rs.cfg;
    let nt = rs.scratch.next_targets.len();
    let cached = Cached { model, state: &*state };
    if cfg.parallel && nt >= BATCH_MIN_TARGETS && dim > 0 && out_dim > 0 && prod_dim > 0 {
        rs.layer.batched_rows = nt;
        rs.report.gemm_flops += transform_batch(plan, &mut rs.scratch, cached, graph, cfg.parallel);
    } else {
        let ScratchPool { next_targets, next_buf, .. } = &mut rs.scratch;
        next_buf.clear();
        next_buf.resize(nt * prod_dim, 0.0);
        let next_targets = &*next_targets;
        fan_out(cfg.parallel, nt, next_buf, prod_dim.max(1), |(i, chunk)| {
            let u = next_targets[i];
            chunk.copy_from_slice(&cached.product_row(l, u, graph.in_degree(u)));
        });
    }
    let nd = rs.layer.delta_rows;
    rs.f32_read += (nt * 2 * dim + nd * 2 * out_dim) as u64;
    rs.f32_written += ((nt + nd) * out_dim) as u64;

    let ScratchPool { next_targets, next_buf, old, rewritten, .. } = &mut rs.scratch;
    for (i, (&u, chunk)) in next_targets.iter().zip(next_buf.chunks(prod_dim.max(1))).enumerate() {
        if let Some(&ahead) = next_targets.get(i + ROW_AHEAD) {
            let dest = if plan.last { &state.h } else { &state.m[l + 1] };
            prefetch_lines(dest.row(ahead as usize));
        }
        if plan.last {
            if chunk != state.h.row(u as usize) {
                state.h.set_row(u as usize, chunk);
                rewritten.push(u);
            }
            continue;
        }
        let m_next = &mut state.m[l + 1];
        let changed = chunk != m_next.row(u as usize);
        if changed || !cfg.pruning {
            old.insert(l + 1, u, m_next.row(u as usize));
            if changed {
                m_next.set_row(u as usize, chunk);
            }
        }
    }
}

/// The batched transform of [`next_messages`] into `scratch.next_buf`:
/// gathers the targets' (degree-scaled) α rows and, on a self-dependent
/// layer, their messages; runs the layer update as one GEMM, the per-row
/// epilogue (norm, activation), then — below the last layer — the next
/// layer's message GEMM and its source-side degree weight.
/// Returns the GEMM flops. Bitwise equal to [`Cached::product_row`] per row.
fn transform_batch(
    plan: &LayerPlan,
    scratch: &mut ScratchPool,
    cached: Cached<'_>,
    graph: &DynGraph,
    parallel: bool,
) -> u64 {
    let (l, dim, out_dim, prod_dim) = (plan.layer, plan.dim, plan.out_dim, plan.prod_dim);
    let ScratchPool { next_targets, next_buf, gather_alpha, gather_self, hidden_buf, gemm, .. } =
        scratch;
    let (nt, next_targets) = (next_targets.len(), &*next_targets);
    let layer = cached.model.layer(l);
    let conv = &layer.conv;
    next_buf.clear();
    next_buf.resize(nt * prod_dim, 0.0);
    gather_alpha.clear();
    gather_alpha.resize(nt * dim, 0.0);
    let alpha_l = &cached.state.alpha[l];
    let rows = next_targets.iter().map(|&u| u as usize);
    if plan.degree_scaled {
        // The target-side degree weight, folded in as the per-node path's
        // `a[j] * s`.
        let scaled = rows.map(|u| (u, conv.update_scale(graph.in_degree(u as VertexId))));
        gather_rows_scaled_into(alpha_l, scaled, gather_alpha);
    } else {
        gather_rows_into(alpha_l, rows, gather_alpha);
    }
    let self_msg: &[f32] = if plan.self_dependent {
        gather_self.clear();
        gather_self.resize(nt * dim, 0.0);
        gather_rows_into(&cached.state.m[l], next_targets.iter().map(|&u| u as usize), gather_self);
        gather_self
    } else {
        &[]
    };
    // The last layer writes straight into the production buffer
    // (`prod_dim == out_dim` there).
    let h_rows: &mut [f32] = if plan.last {
        next_buf.as_mut_slice()
    } else {
        hidden_buf.clear();
        hidden_buf.resize(nt * out_dim, 0.0);
        hidden_buf.as_mut_slice()
    };
    let mut flops = conv.update_batch_into(nt, gather_alpha, self_msg, h_rows, gemm);
    fan_out(parallel, nt, h_rows, out_dim, |(_, row)| {
        if let Some(norm) = &layer.norm {
            norm.apply_cached(row);
        }
        layer.act.apply(row);
    });
    if !plan.last {
        let next_conv = &cached.model.layer(l + 1).conv;
        flops += next_conv.message_batch_into(nt, hidden_buf, next_buf, gemm);
        if next_conv.degree_scaled() {
            fan_out(parallel, nt, next_buf, prod_dim, |(i, row)| {
                let s = next_conv.degree_scale(graph.in_degree(next_targets[i]));
                ink_tensor::ops::scale(row, s);
            });
        }
    }
    flops
}
