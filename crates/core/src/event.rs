//! The event system.
//!
//! An *event* tells a target node to add or cancel the impact of an embedding
//! vector on its aggregated neighborhood (paper §II-B). Embedding vectors are
//! heavy and shared — one affected node sends the *same* old/new pair to all
//! of its neighbors — so, exactly as the paper prescribes, the lightweight
//! event metadata and the heavy payload vectors live in two separate stores:
//! [`Event`] is 12 bytes and points into a [`PayloadArena`].

use ink_graph::VertexId;
use ink_tensor::Matrix;

/// The operation an event performs on its target (paper §II-B: `Add`/`Del`
/// for monotonic aggregation, `Update` for accumulative).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventOp {
    /// Add the payload's impact (monotonic aggregation).
    Add,
    /// Cancel the payload's impact (monotonic aggregation).
    Del,
    /// Accumulate the signed payload (accumulative aggregation).
    Update,
}

/// Index of a payload vector inside a [`PayloadArena`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PayloadId(u32);

/// One event: operation, target node, payload reference, and the in-degree
/// change it implies at the target (±1 for ΔG edge events, 0 for effect
/// propagation — needed by the mean aggregator's denominator).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// What to do at the target.
    pub op: EventOp,
    /// The node whose aggregated neighborhood this event updates.
    pub target: VertexId,
    /// The embedding vector the operation refers to.
    pub payload: PayloadId,
    /// In-degree change at the target implied by this event.
    pub degree_delta: i8,
}

/// Flat storage for the fixed-dimension payload vectors of one layer's
/// events. Payloads are written once and shared by any number of events.
///
/// A layer that takes the delta rule (see [`crate::accumulative`]) stores
/// *widened* payloads `[Δm ‖ Δm·W]`: the `push*` methods still take the
/// message-wide head and leave `tail` zeroed floats behind it, which
/// `transform_tails` fills. Everything downstream — [`PayloadArena::get`],
/// the group phase's reduce — sees one `dim`-wide payload.
#[derive(Clone, Debug, Default)]
pub struct PayloadArena {
    /// Stored floats per payload, tail included.
    dim: usize,
    /// Trailing floats of each payload that `push*` zero-fills.
    tail: usize,
    data: Vec<f32>,
}

impl PayloadArena {
    /// An arena for `dim`-channel payloads.
    pub fn new(dim: usize) -> Self {
        Self { dim, tail: 0, data: Vec::new() }
    }

    /// Channel count of every payload.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored payloads.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// True when no payload has been stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Stores a payload, returning its shareable id.
    pub fn push(&mut self, payload: &[f32]) -> PayloadId {
        assert_eq!(payload.len(), self.dim - self.tail, "payload dim mismatch");
        let id = self.len() as u32;
        self.data.extend_from_slice(payload);
        self.pad_tail();
        PayloadId(id)
    }

    /// Stores the element-wise negation of `payload` (accumulative edge
    /// removals carry `−m⁻`).
    pub fn push_negated(&mut self, payload: &[f32]) -> PayloadId {
        assert_eq!(payload.len(), self.dim - self.tail, "payload dim mismatch");
        let id = self.len() as u32;
        self.data.extend(payload.iter().map(|x| -x));
        self.pad_tail();
        PayloadId(id)
    }

    /// Stores `new − old` (accumulative effect propagation carries the change
    /// in a neighbor's message).
    pub fn push_diff(&mut self, new: &[f32], old: &[f32]) -> PayloadId {
        assert_eq!(new.len(), self.dim - self.tail, "payload dim mismatch");
        assert_eq!(old.len(), new.len(), "payload dim mismatch");
        let id = self.len() as u32;
        self.data.extend(new.iter().zip(old).map(|(n, o)| n - o));
        self.pad_tail();
        PayloadId(id)
    }

    /// Stores `payload · factor` (degree-rescaled messages carry the old
    /// vector scaled by the weight ratio).
    pub fn push_scaled(&mut self, payload: &[f32], factor: f32) -> PayloadId {
        assert_eq!(payload.len(), self.dim - self.tail, "payload dim mismatch");
        let id = self.len() as u32;
        self.data.extend(payload.iter().map(|x| x * factor));
        self.pad_tail();
        PayloadId(id)
    }

    /// Appends the zeroed tail of the payload just pushed.
    #[inline]
    fn pad_tail(&mut self) {
        if self.tail > 0 {
            self.data.resize(self.data.len() + self.tail, 0.0);
        }
    }

    /// Fills every payload's tail with `head · w` — the delta rule's source
    /// transform, one `vecmul` per payload however many events share it.
    pub(crate) fn transform_tails(&mut self, w: &Matrix) {
        let head = self.dim - self.tail;
        debug_assert_eq!(w.shape(), (head, self.tail));
        for payload in self.data.chunks_exact_mut(self.dim) {
            let (h, t) = payload.split_at_mut(head);
            w.vecmul(h, t);
        }
    }

    /// The payload for `id`.
    #[inline]
    pub fn get(&self, id: PayloadId) -> &[f32] {
        &self.data[id.0 as usize * self.dim..(id.0 as usize + 1) * self.dim]
    }

    /// Drops every payload but keeps the allocation for reuse.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Clears the arena and switches it to `dim`-channel payloads, keeping
    /// the allocation (the scratch-pool path between layers of different
    /// widths).
    pub fn reset(&mut self, dim: usize) {
        self.reset_widened(dim, 0);
    }

    /// [`PayloadArena::reset`] to widened payloads: `head` pushed floats
    /// followed by `tail` floats for [`PayloadArena::transform_tails`].
    pub(crate) fn reset_widened(&mut self, head: usize, tail: usize) {
        self.data.clear();
        self.dim = head + tail;
        self.tail = tail;
    }

    /// Reserved `f32` capacity — the scratch-reuse tests watch this to prove
    /// steady-state rounds stop allocating.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_roundtrip() {
        let mut a = PayloadArena::new(3);
        let p1 = a.push(&[1.0, 2.0, 3.0]);
        let p2 = a.push(&[4.0, 5.0, 6.0]);
        assert_eq!(a.get(p1), &[1.0, 2.0, 3.0]);
        assert_eq!(a.get(p2), &[4.0, 5.0, 6.0]);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn payload_is_shared_not_copied_per_event() {
        let mut a = PayloadArena::new(2);
        let p = a.push(&[9.0, 9.0]);
        let events: Vec<Event> = (0..100)
            .map(|t| Event { op: EventOp::Add, target: t, payload: p, degree_delta: 0 })
            .collect();
        assert_eq!(a.len(), 1, "one payload serves all 100 events");
        assert_eq!(events.len(), 100);
    }

    #[test]
    fn negated_payload() {
        let mut a = PayloadArena::new(2);
        let p = a.push_negated(&[1.5, -2.0]);
        assert_eq!(a.get(p), &[-1.5, 2.0]);
    }

    #[test]
    fn diff_payload() {
        let mut a = PayloadArena::new(2);
        let p = a.push_diff(&[5.0, 1.0], &[2.0, 4.0]);
        assert_eq!(a.get(p), &[3.0, -3.0]);
    }

    #[test]
    #[should_panic(expected = "payload dim mismatch")]
    fn wrong_dim_rejected() {
        let mut a = PayloadArena::new(3);
        let _ = a.push(&[1.0]);
    }

    #[test]
    fn scaled_payload() {
        let mut a = PayloadArena::new(2);
        let p = a.push_scaled(&[2.0, -4.0], 0.5);
        assert_eq!(a.get(p), &[1.0, -2.0]);
    }

    #[test]
    fn clear_and_reset_keep_capacity() {
        let mut a = PayloadArena::new(4);
        for _ in 0..16 {
            a.push(&[1.0; 4]);
        }
        let cap = a.capacity();
        assert!(cap >= 64);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.capacity(), cap, "clear must keep the allocation");
        a.reset(8);
        assert_eq!(a.dim(), 8);
        assert_eq!(a.capacity(), cap, "reset must keep the allocation");
        let p = a.push(&[2.0; 8]);
        assert_eq!(a.get(p), &[2.0; 8]);
    }

    #[test]
    fn widened_payloads_carry_their_transform_behind_the_head() {
        let w = Matrix::from_vec(2, 3, vec![1.0, 0.0, 2.0, 0.0, 1.0, -1.0]);
        let mut a = PayloadArena::new(2);
        a.reset_widened(2, 3);
        assert_eq!(a.dim(), 5);
        let plain = a.push(&[1.0, 2.0]);
        let diff = a.push_diff(&[5.0, 1.0], &[2.0, 4.0]);
        assert_eq!(a.get(plain), &[1.0, 2.0, 0.0, 0.0, 0.0], "tail is zeroed until transformed");
        a.transform_tails(&w);
        assert_eq!(a.get(plain), &[1.0, 2.0, 1.0, 2.0, 0.0]);
        assert_eq!(a.get(diff), &[3.0, -3.0, 3.0, -3.0, 9.0]);
        assert_eq!(a.len(), 2);
        a.reset(2);
        let narrow = a.push(&[7.0, 8.0]);
        assert_eq!(a.get(narrow), &[7.0, 8.0], "reset drops the tail");
    }

    #[test]
    fn event_metadata_is_small() {
        // The metadata/payload split only pays off if Event stays tiny.
        assert!(std::mem::size_of::<Event>() <= 16);
    }
}
