//! Sharded, arena-backed scratch machinery for the engine's event pipeline.
//!
//! The five phases live in [`crate::phases`]; this module owns the reusable
//! storage they work in, sized once during warm-up and then recycled round
//! after round so the steady-state hot path performs no heap allocation:
//!
//! * [`WorkerScratch`] — one per generation worker: a private
//!   [`PayloadArena`] plus per-shard event buckets. Workers process
//!   *contiguous, ordered* chunks of the work list, and buckets are drained
//!   phase-major then worker-major, so the per-target event order is exactly
//!   the sequential emission order no matter how many workers run.
//! * [`ShardScratch`] — one per target shard ([`shard_of`]): the
//!   reduced [`GroupEntry`] per target with payloads as slots in a flat
//!   `f32` buffer (no per-group `Vec` allocations), plus the apply phase's
//!   outputs (`alpha_buf` for the α rows the write phase commits,
//!   [`ApplyOutcome`], and the exposed resets waiting for their channel
//!   repair, [`Repair`]).
//! * [`ShardRows`] — on a delta-rule layer only, one shard's 64-row blocks
//!   of `α` and `h`, cut from the two matrices as disjoint mutable slices,
//!   so the apply phase commits delta rows in place in parallel.
//! * [`OldMsgs`] — the per-layer "old value of every changed message" map,
//!   values stored in per-layer arenas instead of one `Vec<f32>` per entry.
//! * [`ScratchPool`] — the whole bundle, owned by
//!   [`crate::InkStream`] across rounds.
//!
//! Because every target lands in exactly one shard and reduction follows the
//! canonical bucket order, the grouped result — and therefore the whole
//! update — is bitwise identical for *every* worker/shard count, including
//! the sequential 1×1 configuration. `tests/properties.rs` asserts this per
//! aggregator.

use crate::event::{Event, EventOp, PayloadArena, PayloadId};
use crate::monotonic::Condition;
use ink_graph::{FxHashMap, FxHashSet, VertexId};
use ink_gnn::Aggregator;
use ink_tensor::Matrix;

/// Sentinel for "no payload slot assigned yet" in a [`GroupEntry`], and for
/// "nothing staged" in an [`ApplyOutcome`].
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Rows per ownership block on a delta-rule layer (see [`shard_of`]).
pub(crate) const BLOCK_ROWS: usize = 64;

/// The shard a target's events are reduced in. Multiply-shift hash so that
/// consecutive keys spread across shards instead of striping: in an R-MAT
/// or degree-sorted graph the low bits of busy ids are mostly zero, so
/// `key % num_shards` would pile the work onto a few shards.
///
/// The key is the target itself, except on a delta-rule layer (`blocked`),
/// where it is the target's 64-row block: there the apply phase writes α and
/// `h` rows in place, and a shard must own whole blocks of both matrices
/// ([`ShardRows`]). Every other layer keeps the per-vertex key. A block key
/// there would put every target of a graph under 64 vertices in one shard,
/// and the worker/shard-sweep determinism tests run on such graphs.
#[inline]
pub(crate) fn shard_of(target: VertexId, num_shards: usize, blocked: bool) -> usize {
    let key = if blocked { target as u64 / BLOCK_ROWS as u64 } else { target as u64 };
    ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % num_shards
}

/// The contiguous chunk of `n` work items assigned to worker `w` of `total`.
#[inline]
pub(crate) fn worker_chunk(n: usize, w: usize, total: usize) -> std::ops::Range<usize> {
    let per = n.div_ceil(total.max(1));
    let start = (w * per).min(n);
    start..((w + 1) * per).min(n)
}

/// The payload at `slot` of a flat shard buffer, or `None` for [`NO_SLOT`].
#[inline]
pub(crate) fn slot_in(buf: &[f32], slot: u32, dim: usize) -> Option<&[f32]> {
    if slot == NO_SLOT {
        None
    } else {
        Some(&buf[slot as usize * dim..(slot as usize + 1) * dim])
    }
}

/// An accumulative group's reduced payload at `slot` of a flat shard buffer,
/// split the way [`PayloadArena`] lays a payload out: `Σ Δm` (`head` floats),
/// then `Σ Δm·W` (`tail` floats — empty off a delta-rule layer).
#[inline]
pub(crate) fn acc_slot_in(buf: &[f32], slot: u32, head: usize, tail: usize) -> (&[f32], &[f32]) {
    slot_in(buf, slot, head + tail).expect("acc group always has a sum").split_at(head)
}

/// Per-target outcome classification of the apply phase.
pub(crate) enum CondKind {
    /// Monotonic target, classified by the evolvability check.
    Mono(Condition),
    /// Accumulative target (always incrementally updated).
    Acc,
    /// Recomputed because incremental updates are disabled (ablation).
    Forced,
}

/// What the apply phase decided for one group entry.
pub(crate) struct ApplyOutcome {
    pub cond: CondKind,
    pub reads: u64,
    /// The new α differs bitwise from `α⁻`.
    pub changed: bool,
    /// The row of the owning shard's `alpha_buf` where the new α waits for
    /// the write phase; [`NO_SLOT`] for a delta row, whose α and `h` rows the
    /// apply phase already committed in place.
    pub staged: u32,
    /// A delta row's `h` row changed bitwise (always false otherwise).
    pub output_changed: bool,
}

/// An exposed reset waiting for its channel repair: the entry, the staged
/// row whose exposed channels are re-aggregated, and where the entry's
/// channels lie in the shard's `exposed` buffer (`from..to`).
#[derive(Clone, Copy)]
pub(crate) struct Repair {
    pub entry: u32,
    pub staged: u32,
    pub from: u32,
    pub to: u32,
}

impl Repair {
    /// The entry's exposed channels, from the shard's `exposed` buffer.
    #[inline]
    pub fn channels<'a>(&self, exposed: &'a [u32]) -> &'a [u32] {
        &exposed[self.from as usize..self.to as usize]
    }
}

/// The reduced events heading to one target: payload slots into the owning
/// shard's flat buffer. Monotonic groups use `del`/`add`; accumulative
/// groups keep their running sum in `add`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GroupEntry {
    pub target: VertexId,
    pub del: u32,
    pub add: u32,
    pub degree_delta: i32,
}

/// One shard's exclusive share of a delta-rule layer's `α` and `h` matrices:
/// the 64-row blocks [`shard_of`] assigns it, as disjoint `split_at_mut`
/// views. Shards own disjoint target sets *and* disjoint rows, so each one
/// commits its delta rows in place while the others do the same — the
/// borrow checker sees only safe, non-overlapping `&mut` slices, no `unsafe`.
pub(crate) struct ShardRows<'a> {
    /// Each block's position in its owner's `alpha` / `h` lists.
    rank: &'a [u32],
    alpha: Vec<&'a mut [f32]>,
    h: Vec<&'a mut [f32]>,
    dim: usize,
    out_dim: usize,
}

impl<'a> ShardRows<'a> {
    /// Cuts `alpha` (`n × dim`) and `h` (`n × out_dim`) into 64-row blocks
    /// and hands every block to the shard [`shard_of`] assigns it, in block
    /// order; `rank` (pooled) records each block's position in its owner's
    /// list. O(n / 64) per call, so only delta-rule layers pay it.
    pub fn split(
        alpha: &'a mut Matrix,
        h: &'a mut Matrix,
        num_shards: usize,
        rank: &'a mut Vec<u32>,
    ) -> Vec<Self> {
        let n = alpha.rows();
        debug_assert_eq!(h.rows(), n);
        let (dim, out_dim) = (alpha.cols(), h.cols());
        let blocks = n.div_ceil(BLOCK_ROWS);
        // The hash spreads blocks about evenly: a quarter above the mean
        // spares nearly every shard a regrow.
        let per_shard = blocks.div_ceil(num_shards) * 5 / 4 + 1;
        let mut views: Vec<Self> = (0..num_shards)
            .map(|_| Self {
                rank: &[],
                alpha: Vec::with_capacity(per_shard),
                h: Vec::with_capacity(per_shard),
                dim,
                out_dim,
            })
            .collect();
        rank.clear();
        let (mut a_rest, mut h_rest) = (alpha.as_mut_slice(), h.as_mut_slice());
        for b in 0..blocks {
            let rows = BLOCK_ROWS.min(n - b * BLOCK_ROWS);
            let (a, a_tail) = std::mem::take(&mut a_rest).split_at_mut(rows * dim);
            let (hb, h_tail) = std::mem::take(&mut h_rest).split_at_mut(rows * out_dim);
            (a_rest, h_rest) = (a_tail, h_tail);
            let owner = &mut views[shard_of((b * BLOCK_ROWS) as VertexId, num_shards, true)];
            rank.push(owner.alpha.len() as u32);
            owner.alpha.push(a);
            owner.h.push(hb);
        }
        let rank: &'a [u32] = rank;
        for v in &mut views {
            v.rank = rank;
        }
        views
    }

    /// The block of `u` in this shard's lists and `u`'s row within it.
    #[inline]
    fn locate(&self, u: VertexId) -> (usize, usize) {
        let (b, r) = (u as usize / BLOCK_ROWS, u as usize % BLOCK_ROWS);
        (self.rank[b] as usize, r)
    }

    /// The current α row of `u`, a target of this shard.
    #[inline]
    pub fn alpha(&self, u: VertexId) -> &[f32] {
        let (i, r) = self.locate(u);
        &self.alpha[i][r * self.dim..(r + 1) * self.dim]
    }

    /// The current `h` row of `u`, a target of this shard.
    #[inline]
    pub fn h(&self, u: VertexId) -> &[f32] {
        let (i, r) = self.locate(u);
        &self.h[i][r * self.out_dim..(r + 1) * self.out_dim]
    }

    /// The α and `h` rows of `u`, a target of this shard, for writing.
    #[inline]
    pub fn rows_mut(&mut self, u: VertexId) -> (&mut [f32], &mut [f32]) {
        let (i, r) = self.locate(u);
        (
            &mut self.alpha[i][r * self.dim..(r + 1) * self.dim],
            &mut self.h[i][r * self.out_dim..(r + 1) * self.out_dim],
        )
    }
}

/// Where the apply phase of one shard reads `α⁻` from.
pub(crate) enum AlphaRows<'a> {
    /// Every layer but a delta-rule one: the whole matrix, read-only; new α
    /// rows are staged and the write phase commits them.
    Shared(&'a Matrix),
    /// A delta-rule layer: the shard's own blocks of α and `h`, which pass 1
    /// updates in place for every delta row.
    Owned(ShardRows<'a>),
}

impl AlphaRows<'_> {
    /// The current α row of `u`.
    #[inline]
    pub fn alpha(&self, u: VertexId) -> &[f32] {
        match self {
            AlphaRows::Shared(m) => m.row(u as usize),
            AlphaRows::Owned(rows) => rows.alpha(u),
        }
    }
}

/// One target shard of the group-reduce phase, plus the apply phase's
/// per-entry outputs. All storage is recycled between rounds.
///
/// The shard's targets are the ones [`shard_of`] maps to it: by vertex on
/// most layers, by 64-row block on a delta-rule layer, where the apply phase
/// also receives the matching [`ShardRows`].
#[derive(Default)]
pub(crate) struct ShardScratch {
    index: FxHashMap<VertexId, u32>,
    pub entries: Vec<GroupEntry>,
    /// The reduced payloads, one slot per [`GroupEntry`] side.
    pub buf: Vec<f32>,
    /// Neumaier compensation channel parallel to `buf`, used only when the
    /// engine runs with [`crate::UpdateConfig::compensated`] on an
    /// accumulative layer. [`ShardScratch::fold_compensation`] folds it into
    /// the sums once all buckets are reduced.
    comp: Vec<f32>,
    pub outcomes: Vec<ApplyOutcome>,
    /// New α rows the write phase commits, one per outcome with a
    /// `staged` row — delta rows, committed in place, take none.
    pub alpha_buf: Vec<f32>,
    pub payload_reads: usize,
    /// The exposed channels of every exposed reset in this shard, back to
    /// back: [`crate::monotonic::apply_monotonic_into`] appends each
    /// target's list, and `repairs` holds where it lies.
    pub exposed: Vec<u32>,
    /// The exposed resets apply pass 1 left for the repair loop, in entry
    /// order.
    pub repairs: Vec<Repair>,
    /// Channels this shard re-aggregated for exposed resets this layer.
    pub exposed_channels: usize,
    /// Neighbor rows this shard visited for those repairs this layer.
    pub exposed_rows: usize,
    /// Entries deferred to full recomputation by the apply phase's first
    /// pass: `(sort key, entry index)` with the key from
    /// [`crate::grouping::recompute_sort_key`]. Sorting the pairs groups the
    /// panel batches by event kind × degree class; the index tiebreak keeps
    /// the order fully deterministic.
    pub recompute: Vec<(u32, u32)>,
    /// Reusable Neumaier channel for the panel folds
    /// ([`Aggregator::aggregate_rows_into`]).
    pub apply_comp: Vec<f32>,
    /// Panel buffer pool for the gathered neighbor rows. Per-shard so the
    /// apply phase stays embarrassingly parallel.
    pub gemm: ink_tensor::GemmScratch,
    /// Neighbor rows this shard's full recomputations folded this layer.
    pub batched_apply_rows: usize,
}

impl ShardScratch {
    /// Clears the shard for a new layer, keeping every allocation.
    pub fn begin(&mut self) {
        self.index.clear();
        self.entries.clear();
        self.buf.clear();
        self.comp.clear();
        self.outcomes.clear();
        self.alpha_buf.clear();
        self.payload_reads = 0;
        self.exposed.clear();
        self.repairs.clear();
        self.exposed_channels = 0;
        self.exposed_rows = 0;
        self.recompute.clear();
        self.apply_comp.clear();
        self.batched_apply_rows = 0;
    }

    /// The payload stored in `slot`, or `None` for [`NO_SLOT`].
    #[cfg(test)]
    pub fn slot(&self, slot: u32, dim: usize) -> Option<&[f32]> {
        slot_in(&self.buf, slot, dim)
    }

    /// Reduces one bucket of events (all targeting this shard) into the
    /// group entries, in bucket order. A slot is as wide as the arena's
    /// payloads — the message, plus the transformed tail on a delta-rule
    /// layer, which is summed in the same slot. With `compensated`,
    /// accumulative slots carry a Neumaier error channel in `comp`; call
    /// [`ShardScratch::fold_compensation`] after the last bucket.
    pub fn reduce_bucket(
        &mut self,
        events: &[Event],
        arena: &PayloadArena,
        agg: Aggregator,
        compensated: bool,
    ) {
        let dim = arena.dim();
        let mono = agg.is_monotonic();
        let compensated = compensated && !mono;
        for ev in events {
            let payload = arena.get(ev.payload);
            self.payload_reads += dim;
            let idx = match self.index.get(&ev.target) {
                Some(&i) => i as usize,
                None => {
                    let i = self.entries.len() as u32;
                    self.index.insert(ev.target, i);
                    self.entries.push(GroupEntry {
                        target: ev.target,
                        del: NO_SLOT,
                        add: NO_SLOT,
                        degree_delta: 0,
                    });
                    i as usize
                }
            };
            let entry = &mut self.entries[idx];
            entry.degree_delta += ev.degree_delta as i32;
            let slot = if mono {
                match ev.op {
                    EventOp::Del => &mut entry.del,
                    EventOp::Add => &mut entry.add,
                    EventOp::Update => {
                        panic!("Update events are only valid with accumulative aggregation")
                    }
                }
            } else {
                match ev.op {
                    EventOp::Update => &mut entry.add,
                    EventOp::Add | EventOp::Del => {
                        panic!("Add/Del events are only valid with monotonic aggregation")
                    }
                }
            };
            if *slot == NO_SLOT {
                *slot = (self.buf.len() / dim.max(1)) as u32;
                self.buf.extend_from_slice(payload);
                if compensated {
                    self.comp.resize(self.buf.len(), 0.0);
                }
            } else {
                let range = *slot as usize * dim..(*slot as usize + 1) * dim;
                let acc = &mut self.buf[range.clone()];
                if mono {
                    agg.combine_into(acc, payload);
                } else if compensated {
                    ink_tensor::ops::neumaier_add_assign(acc, &mut self.comp[range], payload);
                } else {
                    ink_tensor::ops::add_assign(acc, payload);
                }
            }
        }
    }

    /// Folds the Neumaier error channel into the accumulated sums. Call once
    /// after every bucket of a compensated accumulative layer has been
    /// reduced; a no-op otherwise (`comp` stays empty).
    pub fn fold_compensation(&mut self) {
        for (s, c) in self.buf.iter_mut().zip(&self.comp) {
            *s += c;
        }
    }

    fn bytes(&self) -> usize {
        self.index.capacity() * std::mem::size_of::<(VertexId, u32)>()
            + self.entries.capacity() * std::mem::size_of::<GroupEntry>()
            + (self.buf.capacity() + self.comp.capacity() + self.alpha_buf.capacity())
                * std::mem::size_of::<f32>()
            + self.outcomes.capacity() * std::mem::size_of::<ApplyOutcome>()
            + self.exposed.capacity() * std::mem::size_of::<u32>()
            + self.repairs.capacity() * std::mem::size_of::<Repair>()
            + self.recompute.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.apply_comp.capacity() * std::mem::size_of::<f32>()
            + self.gemm.bytes()
    }
}

/// One generation worker's private output: a payload arena and per-shard
/// event buckets, split by emission phase (ΔG seeding vs effect
/// propagation) so buckets can be concatenated back into canonical order.
#[derive(Default)]
pub(crate) struct WorkerScratch {
    pub arena: PayloadArena,
    /// Degree-rescaled messages staged by this worker: `(vertex, new msg)`.
    pub rescaled: Vec<(VertexId, PayloadId)>,
    /// ΔG-seeding buckets, one per shard.
    pub dg: Vec<Vec<Event>>,
    /// Effect-propagation buckets, one per shard.
    pub fx: Vec<Vec<Event>>,
}

impl WorkerScratch {
    /// Clears the worker for a new layer of `dim`-channel payloads (widened
    /// by `tail` transformed channels on a delta-rule layer) and `shards`
    /// buckets, keeping allocations.
    pub fn begin(&mut self, shards: usize, dim: usize, tail: usize) {
        self.arena.reset_widened(dim, tail);
        self.rescaled.clear();
        for b in [&mut self.dg, &mut self.fx] {
            // Grow-only, like the pool itself. Buckets beyond this round's
            // shard count are cleared too so `events_emitted` never counts a
            // previous round's events.
            if b.len() < shards {
                b.resize_with(shards, Vec::new);
            }
            for bucket in b.iter_mut() {
                bucket.clear();
            }
        }
    }

    /// Events emitted by this worker this layer.
    pub fn events_emitted(&self) -> usize {
        self.dg.iter().chain(&self.fx).map(Vec::len).sum()
    }

    fn bytes(&self) -> usize {
        self.arena.capacity() * std::mem::size_of::<f32>()
            + self.rescaled.capacity() * std::mem::size_of::<(VertexId, PayloadId)>()
            + self
                .dg
                .iter()
                .chain(&self.fx)
                .map(|b| b.capacity() * std::mem::size_of::<Event>())
                .sum::<usize>()
    }
}

/// Old values of the messages that changed this round, per layer. Values are
/// arena slots instead of owned `Vec<f32>`s so steady-state rounds reuse one
/// allocation per layer.
#[derive(Default)]
pub(crate) struct OldMsgs {
    idx: Vec<FxHashMap<VertexId, PayloadId>>,
    vals: Vec<PayloadArena>,
}

impl OldMsgs {
    /// Prepares layer `l` for a new round with `dim`-channel messages.
    pub fn reset_layer(&mut self, l: usize, dim: usize) {
        if self.idx.len() <= l {
            self.idx.resize_with(l + 1, FxHashMap::default);
            self.vals.resize_with(l + 1, PayloadArena::default);
        }
        self.idx[l].clear();
        self.vals[l].reset(dim);
    }

    /// Records the old value of `v`'s layer-`l` message. Each vertex may be
    /// recorded at most once per round.
    pub fn insert(&mut self, l: usize, v: VertexId, old: &[f32]) {
        let id = self.vals[l].push(old);
        let prev = self.idx[l].insert(v, id);
        debug_assert!(prev.is_none(), "message {v} recorded twice in layer {l}");
    }

    /// The recorded old message of `v` at layer `l`, if it changed.
    #[inline]
    pub fn get(&self, l: usize, v: VertexId) -> Option<&[f32]> {
        self.idx[l].get(&v).map(|&id| self.vals[l].get(id))
    }

    /// True when `v`'s layer-`l` message already changed this round.
    #[inline]
    pub fn contains(&self, l: usize, v: VertexId) -> bool {
        self.idx[l].contains_key(&v)
    }

    /// Writes the changed vertices of layer `l` into `out`, ascending — the
    /// canonical effect-propagation order.
    pub fn keys_sorted_into(&self, l: usize, out: &mut Vec<VertexId>) {
        out.clear();
        out.extend(self.idx[l].keys().copied());
        out.sort_unstable();
    }

    fn bytes(&self) -> usize {
        self.idx
            .iter()
            .map(|m| m.capacity() * std::mem::size_of::<(VertexId, PayloadId)>())
            .sum::<usize>()
            + self.vals.iter().map(|a| a.capacity() * std::mem::size_of::<f32>()).sum::<usize>()
    }
}

/// Every reusable buffer of the update pipeline, owned by the engine across
/// rounds. `bytes()` exposes the reserved footprint; the scratch-reuse test
/// asserts it stops growing once the pool is warm.
#[derive(Default)]
pub(crate) struct ScratchPool {
    pub workers: Vec<WorkerScratch>,
    pub shards: Vec<ShardScratch>,
    pub old: OldMsgs,
    /// Sorted changed-message vertices of the current layer.
    pub changed_order: Vec<VertexId>,
    /// Net in-degree change per vertex.
    pub degree_net: FxHashMap<VertexId, i64>,
    /// `degree_net` as sorted `(vertex, net)` pairs.
    pub degree_order: Vec<(VertexId, i64)>,
    /// Degree-rescale candidates of the current layer (subset of
    /// `degree_order`).
    pub rescale_list: Vec<(VertexId, i64)>,
    /// Directed edges covered by ΔG insert events (duplicate-event rule).
    pub covered: FxHashSet<(VertexId, VertexId)>,
    /// Vertices whose α changed in any layer (the *real affected* set).
    pub affected: FxHashSet<VertexId>,
    /// Targets entering the next-messages phase's full transform.
    pub next_targets: Vec<VertexId>,
    /// Output rows the current layer rewrote (delta rows in write, full
    /// transforms in next-messages); the engine drains it into its dirty
    /// list after each layer.
    pub rewritten: Vec<VertexId>,
    /// [`ShardRows::split`]'s block positions on a delta-rule layer.
    pub block_rank: Vec<u32>,
    /// Flat row-major output of the next-messages phase.
    pub next_buf: Vec<f32>,
    /// Gathered (degree-scaled) α rows of the batched transform.
    pub gather_alpha: Vec<f32>,
    /// Gathered self-message rows of the batched transform.
    pub gather_self: Vec<f32>,
    /// Post-update hidden rows of the batched transform (input of the
    /// next-layer batched message).
    pub hidden_buf: Vec<f32>,
    /// GEMM packing / ping-pong buffer pool shared by the batched transform
    /// and the in-place full inference of a resync.
    pub gemm: ink_tensor::GemmScratch,
}

impl ScratchPool {
    /// Prepares the pool for a round with `workers` generation workers and
    /// `shards` target shards.
    ///
    /// Worker and shard vectors only ever *grow*: `set_config` may lower the
    /// counts between rounds, and shrinking here would drop the idle
    /// scratches' warm allocations only to rebuild them when the counts go
    /// back up. Excess workers get empty chunks from [`worker_chunk`] and
    /// excess shards receive no targets from [`shard_of`], so the phases can
    /// keep iterating the whole vectors.
    pub fn begin_round(&mut self, workers: usize, shards: usize) {
        if self.workers.len() < workers {
            self.workers.resize_with(workers, WorkerScratch::default);
        }
        if self.shards.len() < shards {
            self.shards.resize_with(shards, ShardScratch::default);
        }
        self.degree_net.clear();
        self.degree_order.clear();
        self.covered.clear();
        self.affected.clear();
        self.rewritten.clear();
    }

    /// Reserved heap footprint of the pool, in bytes. Capacities only —
    /// the value is stable across steady-state rounds.
    pub fn bytes(&self) -> usize {
        self.workers.iter().map(WorkerScratch::bytes).sum::<usize>()
            + self.shards.iter().map(ShardScratch::bytes).sum::<usize>()
            + self.old.bytes()
            + self.changed_order.capacity() * std::mem::size_of::<VertexId>()
            + self.degree_net.capacity() * std::mem::size_of::<(VertexId, i64)>()
            + (self.degree_order.capacity() + self.rescale_list.capacity())
                * std::mem::size_of::<(VertexId, i64)>()
            + self.covered.capacity() * std::mem::size_of::<(VertexId, VertexId)>()
            + self.affected.capacity() * std::mem::size_of::<VertexId>()
            + (self.next_targets.capacity() + self.rewritten.capacity())
                * std::mem::size_of::<VertexId>()
            + self.block_rank.capacity() * std::mem::size_of::<u32>()
            + (self.next_buf.capacity()
                + self.gather_alpha.capacity()
                + self.gather_self.capacity()
                + self.hidden_buf.capacity())
                * std::mem::size_of::<f32>()
            + self.gemm.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::{group_events, Group};

    fn ev(op: EventOp, target: VertexId, payload: PayloadId, dd: i8) -> Event {
        Event { op, target, payload, degree_delta: dd }
    }

    /// Random-ish event stream reduced by the sharded path must equal the
    /// reference `group_events` map, for any worker/shard split.
    #[test]
    fn sharded_reduce_matches_reference_grouping() {
        for (agg, num_shards, num_workers) in [
            (Aggregator::Max, 1usize, 1usize),
            (Aggregator::Max, 4, 3),
            (Aggregator::Min, 8, 2),
            (Aggregator::Sum, 4, 4),
            (Aggregator::Mean, 3, 2),
        ] {
            let dim = 3;
            let mono = agg.is_monotonic();
            // Deterministic pseudo-random event stream over 10 targets.
            let mut arena = PayloadArena::new(dim);
            let mut events = Vec::new();
            let mut x = 12345u64;
            for i in 0..200u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let target = (x >> 33) % 10;
                let val = ((x >> 17) % 1000) as f32 * 0.01 - 5.0;
                let payload = arena.push(&[val, -val, val * 0.5]);
                let (op, dd) = if mono {
                    if i % 3 == 0 {
                        (EventOp::Del, -1)
                    } else {
                        (EventOp::Add, if i % 2 == 0 { 1 } else { 0 })
                    }
                } else {
                    (EventOp::Update, [(-1i8), 0, 1][(i % 3) as usize])
                };
                events.push(ev(op, target as VertexId, payload, dd));
            }

            let reference = group_events(&events, &arena, agg);

            // Sharded path: workers get contiguous chunks, buckets are
            // drained worker-major per shard.
            let mut workers: Vec<WorkerScratch> = (0..num_workers)
                .map(|_| WorkerScratch::default())
                .collect();
            for (w, ws) in workers.iter_mut().enumerate() {
                ws.begin(num_shards, dim, 0);
                for e in &events[worker_chunk(events.len(), w, num_workers)] {
                    let payload = ws.arena.push(arena.get(e.payload));
                    ws.dg[shard_of(e.target, num_shards, false)].push(Event { payload, ..*e });
                }
            }
            let mut shards: Vec<ShardScratch> =
                (0..num_shards).map(|_| ShardScratch::default()).collect();
            let mut total_entries = 0;
            for (s, shard) in shards.iter_mut().enumerate() {
                shard.begin();
                for ws in &workers {
                    shard.reduce_bucket(&ws.dg[s], &ws.arena, agg, false);
                }
                total_entries += shard.entries.len();
                for e in &shard.entries {
                    let expect = &reference.groups[&e.target];
                    match expect {
                        Group::Mono { del, add, degree_delta } => {
                            assert_eq!(shard.slot(e.del, dim), del.as_deref());
                            assert_eq!(shard.slot(e.add, dim), add.as_deref());
                            assert_eq!(e.degree_delta, *degree_delta);
                        }
                        Group::Acc { sum, degree_delta } => {
                            assert_eq!(shard.slot(e.add, dim), Some(sum.as_slice()));
                            assert_eq!(shard.slot(e.del, dim), None);
                            assert_eq!(e.degree_delta, *degree_delta);
                        }
                    }
                }
            }
            assert_eq!(
                total_entries,
                reference.groups.len(),
                "{agg:?} with {num_shards} shards / {num_workers} workers"
            );
            let reads: usize = shards.iter().map(|s| s.payload_reads).sum();
            assert_eq!(reads, reference.payload_values_read);
        }
    }

    /// A cancellation stream (big, tiny, −big) through one accumulative slot:
    /// the plain reduce loses the tiny value to rounding, the compensated
    /// reduce recovers it from the error channel.
    #[test]
    fn compensated_reduce_keeps_cancelled_tail() {
        let dim = 1;
        let tiny = 2.0_f32.powi(-40);
        let mut arena = PayloadArena::new(dim);
        let events: Vec<Event> = [3.0e7f32, tiny, -3.0e7]
            .iter()
            .map(|&v| ev(EventOp::Update, 0, arena.push(&[v]), 0))
            .collect();
        for (compensated, want) in [(false, 0.0f32), (true, tiny)] {
            let mut shard = ShardScratch::default();
            shard.begin();
            shard.reduce_bucket(&events, &arena, Aggregator::Sum, compensated);
            shard.fold_compensation();
            assert_eq!(shard.slot(shard.entries[0].add, dim), Some(&[want][..]));
        }
    }

    #[test]
    fn shard_of_is_total_and_stable() {
        for blocked in [false, true] {
            for v in 0..1000u32 {
                let s = shard_of(v, 8, blocked);
                assert!(s < 8);
                assert_eq!(s, shard_of(v, 8, blocked));
            }
            // All targets land in shard 0 when there is only one shard.
            assert!((0..100u32).all(|v| shard_of(v, 1, blocked) == 0));
        }
        // Blocked, a whole 64-row block shares one shard.
        for v in 0..1000u32 {
            let first = v - v % BLOCK_ROWS as u32;
            assert_eq!(shard_of(v, 8, true), shard_of(first, 8, true));
        }
    }

    /// Every row of both matrices is reachable through exactly the shard
    /// that owns its block, including the rows of a partial last block.
    #[test]
    fn shard_rows_partition_both_matrices_by_block() {
        for (n, shards) in [(1usize, 1usize), (63, 3), (64, 2), (200, 8), (130, 64)] {
            let (dim, out_dim) = (3, 2);
            let mut alpha = Matrix::from_fn(n, dim, |r, c| (r * dim + c) as f32);
            let mut h = Matrix::from_fn(n, out_dim, |r, c| -((r * out_dim + c) as f32));
            let mut rank = Vec::new();
            let mut views = ShardRows::split(&mut alpha, &mut h, shards, &mut rank);
            assert_eq!(views.len(), shards);
            for u in 0..n as VertexId {
                let rows = &mut views[shard_of(u, shards, true)];
                let want: Vec<f32> = (0..dim).map(|c| (u as usize * dim + c) as f32).collect();
                assert_eq!(rows.alpha(u), want.as_slice(), "n={n} shards={shards} u={u}");
                let (a, hr) = rows.rows_mut(u);
                a[0] += 0.5;
                hr[1] = 7.0;
            }
            drop(views);
            for u in 0..n {
                assert_eq!(alpha.get(u, 0), (u * dim) as f32 + 0.5);
                assert_eq!(h.row(u), [-((u * out_dim) as f32), 7.0]);
            }
        }
    }

    #[test]
    fn worker_chunks_tile_the_range() {
        for n in [0usize, 1, 7, 100, 101] {
            for total in [1usize, 2, 3, 8] {
                let mut covered = Vec::new();
                for w in 0..total {
                    covered.extend(worker_chunk(n, w, total));
                }
                assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n={n} total={total}");
            }
        }
    }

    #[test]
    fn old_msgs_roundtrip_and_sorted_keys() {
        let mut old = OldMsgs::default();
        old.reset_layer(0, 2);
        old.insert(0, 9, &[1.0, 2.0]);
        old.insert(0, 3, &[3.0, 4.0]);
        old.insert(0, 7, &[5.0, 6.0]);
        assert_eq!(old.get(0, 3), Some(&[3.0, 4.0][..]));
        assert_eq!(old.get(0, 4), None);
        assert!(old.contains(0, 9));
        let mut keys = Vec::new();
        old.keys_sorted_into(0, &mut keys);
        assert_eq!(keys, vec![3, 7, 9]);
        old.reset_layer(0, 2);
        assert!(!old.contains(0, 9), "reset clears the layer");
    }

    #[test]
    fn scratch_pool_bytes_stable_after_reuse() {
        let mut pool = ScratchPool::default();
        let fill = |pool: &mut ScratchPool| {
            pool.begin_round(2, 4);
            pool.old.reset_layer(0, 4);
            for v in 0..50u32 {
                pool.old.insert(0, v, &[0.5; 4]);
                pool.degree_net.insert(v, 1);
                pool.covered.insert((v, v + 1));
                pool.next_targets.push(v);
            }
            pool.old.keys_sorted_into(0, &mut pool.changed_order);
            for ws in &mut pool.workers {
                ws.begin(4, 4, 0);
                let p = ws.arena.push(&[1.0; 4]);
                for v in 0..50u32 {
                    ws.dg[shard_of(v, 4, false)].push(Event {
                        op: EventOp::Add,
                        target: v,
                        payload: p,
                        degree_delta: 0,
                    });
                }
            }
            pool.next_targets.clear();
        };
        fill(&mut pool);
        let warm = pool.bytes();
        assert!(warm > 0);
        for _ in 0..3 {
            fill(&mut pool);
        }
        assert_eq!(pool.bytes(), warm, "steady-state reuse must not grow the pool");
    }
}
