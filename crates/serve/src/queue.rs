//! The bounded ingest FIFO between the event loop and the writer.
//!
//! The event-loop thread pushes update batches and flush barriers; the one
//! writer thread drains them in arrival order, so the drained stream is
//! exactly the order updates were admitted in — the invariant that keeps
//! the served embeddings bitwise identical to a single-threaded replay of
//! the same stream. Capacity counts *update* batches only: flush barriers
//! are tiny control messages and are always admitted, so a saturated queue
//! can still be flushed and shut down.
//!
//! Admission never blocks. When an update arrives and the queue is full,
//! the configured [`Backpressure`] mode decides:
//!
//! * [`Backpressure::Block`] — the push returns [`Admission::Full`] and the
//!   server parks just the submitting connection until the next drain (and
//!   thus the TCP connection exerts end-to-end backpressure on its client),
//! * [`Backpressure::Reject`] — the push returns [`Admission::Rejected`]
//!   and the client gets a `retry_after_ms` hint.
//!
//! Either way an update is answered `Ack` only once it is queued, and a
//! queued update is always applied: the final state is a replay of the
//! acknowledged updates.
//!
//! The writer parks on the queue's condvar and is woken by the next push —
//! no timed polling on the idle path.
//!
//! ```
//! use ink_serve::queue::{Admission, Backpressure, IngestQueue};
//! use ink_graph::EdgeChange;
//!
//! // Two pending batches at most, shedding load when full.
//! let q = IngestQueue::new(2, Backpressure::Reject { retry_after_ms: 5 });
//! assert_eq!(q.try_push_updates(&[EdgeChange::insert(0, 1)]), Admission::Accepted);
//! assert_eq!(q.try_push_updates(&[EdgeChange::insert(2, 3)]), Admission::Accepted);
//! q.push_flush(7); // flush id 7, always admitted
//!
//! let d = q.drain_wait(16);
//! assert_eq!(d.changes.len(), 2); // admission order
//! assert_eq!(d.flushes, vec![7]); // releasable once the drain is published
//! ```

use ink_graph::EdgeChange;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// What to do with an update that arrives while the queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backpressure {
    /// Make the submitting connection wait for space.
    Block,
    /// Turn the update away with a retry hint of this many milliseconds.
    Reject {
        /// Backoff hint returned to the client.
        retry_after_ms: u32,
    },
}

/// The verdict on one push.
#[derive(Debug, PartialEq, Eq)]
pub enum Admission {
    /// Enqueued.
    Accepted,
    /// Turned away ([`Backpressure::Reject`]); retry after the hint.
    Rejected {
        /// Backoff hint in milliseconds.
        retry_after_ms: u32,
    },
    /// The queue is at capacity under [`Backpressure::Block`]: the caller
    /// should stall this producer and retry after the writer's next drain
    /// (the server parks the connection, not the event loop).
    Full,
    /// The queue is closed (server shutting down).
    Closed,
}

/// One writer-side drain: a prefix of everything admitted.
#[derive(Debug, Default)]
pub struct Drained {
    /// Edge changes concatenated in admission order.
    pub changes: Vec<EdgeChange>,
    /// Flush ids whose barriers are now behind every queued update; ack
    /// them after publishing the epoch that contains `changes`.
    pub flushes: Vec<u64>,
    /// Admission timestamps of the drained batches, one per batch in
    /// admission order — the writer records admission-to-apply latency from
    /// these once the containing epoch publishes.
    pub admitted: Vec<Instant>,
    /// True once the queue is closed and this drain emptied it — the
    /// writer's exit condition.
    pub finished: bool,
}

#[derive(Debug)]
enum Item {
    /// An admitted update batch and when it was admitted.
    Updates(Instant, Vec<EdgeChange>),
    /// A flush barrier.
    Flush(u64),
}

#[derive(Debug, Default)]
struct Inner {
    items: VecDeque<Item>,
    pending_updates: usize,
    max_depth: usize,
    closed: bool,
}

/// A bounded FIFO of update batches and flush barriers with admission
/// control. See the [module docs](self) for the ordering invariant and a
/// usage example.
#[derive(Debug)]
pub struct IngestQueue {
    inner: Mutex<Inner>,
    /// Signalled when an item arrives or the queue closes.
    ready: Condvar,
    capacity: usize,
    mode: Backpressure,
    /// Read-only accessors recovered this many poisoned-lock acquisitions.
    poisoned_reads: AtomicU64,
}

impl IngestQueue {
    /// A queue admitting at most `capacity` pending update batches.
    ///
    /// # Panics
    ///
    /// If `capacity` is 0 — nothing could ever be admitted.
    pub fn new(capacity: usize, mode: Backpressure) -> Self {
        assert!(capacity >= 1, "IngestQueue: capacity must be at least 1");
        Self {
            inner: Mutex::new(Inner::default()),
            ready: Condvar::new(),
            capacity,
            mode,
            poisoned_reads: AtomicU64::new(0),
        }
    }

    /// Lock acquisition for read-only accessors. A poisoned lock means the
    /// event loop or the writer panicked mid-operation — the queue contents
    /// may be inconsistent, but the stats counters read here are plain
    /// integers that are always safe to report, and a monitoring scrape must
    /// not take the server down. Recoveries are counted so operators can see
    /// them in [`IngestQueue::poisoned_reads`] / `ink_serve_lock_poisoned`. Write
    /// paths (push/drain) keep panicking: they would act on the inconsistent
    /// state.
    fn read_lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e: PoisonError<_>| {
            self.poisoned_reads.fetch_add(1, Ordering::Relaxed);
            e.into_inner()
        })
    }

    /// Submits one update batch without ever blocking. See [`Admission`]
    /// for the verdicts; [`Admission::Full`] means "stall this producer and
    /// retry after the next drain". Takes a slice so a stalling caller keeps
    /// ownership for the retry; the batch is copied only on admission.
    pub fn try_push_updates(&self, changes: &[EdgeChange]) -> Admission {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        if inner.closed {
            return Admission::Closed;
        }
        if inner.pending_updates >= self.capacity {
            return match self.mode {
                Backpressure::Block => Admission::Full,
                Backpressure::Reject { retry_after_ms } => Admission::Rejected { retry_after_ms },
            };
        }
        inner.items.push_back(Item::Updates(Instant::now(), changes.to_vec()));
        inner.pending_updates += 1;
        inner.max_depth = inner.max_depth.max(inner.pending_updates);
        drop(inner);
        self.ready.notify_one();
        Admission::Accepted
    }

    /// Submits a flush barrier (always admitted — barriers are control
    /// messages outside the capacity accounting). Returns `false` when the
    /// queue is closed. The barrier's `flush_id` comes back from
    /// [`IngestQueue::drain_wait`] once every update admitted before it has
    /// been drained.
    pub fn push_flush(&self, flush_id: u64) -> bool {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        if inner.closed {
            return false;
        }
        inner.items.push_back(Item::Flush(flush_id));
        drop(inner);
        self.ready.notify_one();
        true
    }

    /// Drains up to `max_batches` update batches in admission order, parking
    /// until a push, flush or [`IngestQueue::close`] gives it something to
    /// return. [`Drained::flushes`] are the barriers now behind every queued
    /// update — including those right after the last drained batch.
    pub fn drain_wait(&self, max_batches: usize) -> Drained {
        let mut batches = Vec::new();
        let mut flushes = Vec::new();
        let finished = {
            let inner = self.inner.lock().expect("queue lock poisoned");
            let mut inner = self
                .ready
                .wait_while(inner, |i| i.items.is_empty() && !i.closed)
                .expect("queue lock poisoned");
            while let Some(item) = inner.items.pop_front() {
                match item {
                    Item::Flush(id) => flushes.push(id),
                    Item::Updates(at, c) if batches.len() < max_batches.max(1) => {
                        batches.push((at, c))
                    }
                    item => {
                        inner.items.push_front(item);
                        break;
                    }
                }
            }
            inner.pending_updates -= batches.len();
            inner.closed && inner.items.is_empty()
        };
        // Concatenate outside the lock so admission is never held up by it.
        let mut changes = Vec::with_capacity(batches.iter().map(|(_, c)| c.len()).sum());
        let mut admitted = Vec::with_capacity(batches.len());
        for (at, c) in batches {
            admitted.push(at);
            changes.extend(c);
        }
        Drained { changes, flushes, admitted, finished }
    }

    /// Pending update batches (excludes flush barriers). Survives a
    /// poisoned lock — see [`IngestQueue::poisoned_reads`].
    pub fn depth(&self) -> u64 {
        self.read_lock().pending_updates as u64
    }

    /// Deepest the queue ever got. Survives a poisoned lock — see
    /// [`IngestQueue::poisoned_reads`].
    pub fn max_depth(&self) -> u64 {
        self.read_lock().max_depth as u64
    }

    /// How many times a read-only accessor found the lock poisoned and
    /// recovered instead of panicking. Non-zero means a thread panicked
    /// while holding the queue lock; the server keeps answering `metrics`
    /// but the count surfaces the incident.
    pub fn poisoned_reads(&self) -> u64 {
        self.poisoned_reads.load(Ordering::Relaxed)
    }

    /// Closes the queue: further pushes return [`Admission::Closed`] /
    /// `false`; queued items stay drainable so the writer can finish.
    /// Setting the flag is safe on any state, so a poisoned lock is
    /// recovered here too (the server closes from `Drop`).
    pub fn close(&self) {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).closed = true;
        self.ready.notify_all();
    }

    /// True once [`IngestQueue::close`] has run. Survives a poisoned lock —
    /// see [`IngestQueue::poisoned_reads`].
    pub fn is_closed(&self) -> bool {
        self.read_lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn upd(a: u32, b: u32) -> Vec<EdgeChange> {
        vec![EdgeChange::insert(a, b)]
    }

    fn srcs(d: &Drained) -> Vec<u32> {
        d.changes.iter().map(|c| c.src).collect()
    }

    #[test]
    fn drain_keeps_admission_order_across_edges() {
        let q = IngestQueue::new(64, Backpressure::Block);
        for i in 0..32u32 {
            assert_eq!(q.try_push_updates(&upd(i, i + 1)), Admission::Accepted);
        }
        let d = q.drain_wait(64);
        assert_eq!(d.admitted.len(), 32);
        assert_eq!(srcs(&d), (0..32).collect::<Vec<_>>());
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn capped_drain_takes_a_prefix() {
        let q = IngestQueue::new(64, Backpressure::Block);
        for i in 0..10u32 {
            q.try_push_updates(&upd(i, i + 1));
        }
        let first = q.drain_wait(4);
        assert_eq!(first.admitted.len(), 4);
        let second = q.drain_wait(64);
        let all: Vec<u32> = srcs(&first).into_iter().chain(srcs(&second)).collect();
        assert_eq!(
            all,
            (0..10).collect::<Vec<_>>(),
            "prefix property: no reordering across drains"
        );
    }

    #[test]
    fn barriers_release_only_behind_every_queued_update() {
        let q = IngestQueue::new(64, Backpressure::Block);
        q.try_push_updates(&upd(0, 1));
        assert!(q.push_flush(77));
        q.try_push_updates(&upd(2, 3));
        // A capped drain that leaves the post-barrier update queued still
        // releases the barrier (everything *before* it has drained)...
        let d = q.drain_wait(1);
        assert_eq!(d.admitted.len(), 1);
        assert_eq!(d.flushes, vec![77]);
        // ...and the rest follows.
        let d = q.drain_wait(16);
        assert_eq!(d.admitted.len(), 1);
        assert!(d.flushes.is_empty());
    }

    #[test]
    fn barrier_does_not_release_while_an_older_update_is_queued() {
        let q = IngestQueue::new(64, Backpressure::Block);
        q.try_push_updates(&upd(0, 1));
        q.try_push_updates(&upd(2, 3));
        assert!(q.push_flush(5));
        let d = q.drain_wait(1);
        assert!(d.flushes.is_empty(), "an update admitted before the barrier is still queued");
        let d = q.drain_wait(1);
        assert_eq!(d.flushes, vec![5]);
    }

    #[test]
    fn block_mode_reports_full_instead_of_parking() {
        let q = IngestQueue::new(1, Backpressure::Block);
        assert_eq!(q.try_push_updates(&upd(0, 1)), Admission::Accepted);
        assert_eq!(q.try_push_updates(&upd(0, 1)), Admission::Full);
        q.drain_wait(16);
        assert_eq!(q.try_push_updates(&upd(0, 1)), Admission::Accepted);
    }

    #[test]
    fn the_whole_capacity_serves_one_hot_edge() {
        // Every batch touches the same edge; none of the capacity is set
        // aside for other edges.
        let q = IngestQueue::new(64, Backpressure::Block);
        for _ in 0..64 {
            assert_eq!(q.try_push_updates(&upd(3, 9)), Admission::Accepted);
        }
        assert_eq!(q.try_push_updates(&upd(3, 9)), Admission::Full);
        assert_eq!(q.depth(), 64);
    }

    #[test]
    fn reject_mode_sheds_with_the_hint() {
        let q = IngestQueue::new(1, Backpressure::Reject { retry_after_ms: 9 });
        q.try_push_updates(&upd(0, 1));
        assert_eq!(q.try_push_updates(&upd(0, 1)), Admission::Rejected { retry_after_ms: 9 });
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn close_releases_a_parked_drain_and_refuses_new_work() {
        let q = Arc::new(IngestQueue::new(4, Backpressure::Block));
        let q2 = q.clone();
        let writer = std::thread::spawn(move || q2.drain_wait(16));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        let d = writer.join().unwrap();
        assert!(d.finished, "closed + empty = finished");
        assert!(q.is_closed());
        assert_eq!(q.try_push_updates(&upd(0, 1)), Admission::Closed);
        assert!(!q.push_flush(1));
    }

    #[test]
    fn drain_wait_wakes_on_push_and_stamps_admission() {
        let q = Arc::new(IngestQueue::new(4, Backpressure::Block));
        let q2 = q.clone();
        let writer = std::thread::spawn(move || q2.drain_wait(16));
        std::thread::sleep(Duration::from_millis(20));
        let before = Instant::now();
        q.try_push_updates(&upd(0, 1));
        let d = writer.join().unwrap();
        assert_eq!(d.admitted.len(), 1, "one admission stamp per drained batch");
        assert!(d.admitted[0] >= before, "stamped at admission, not at drain");
        assert!(!d.finished);
    }

    #[test]
    fn max_depth_ignores_barrier_admission() {
        let q = IngestQueue::new(8, Backpressure::Block);
        q.try_push_updates(&upd(0, 1));
        q.try_push_updates(&upd(1, 2));
        assert_eq!(q.max_depth(), 2);
        // Barriers are control messages outside the capacity accounting;
        // admitting them must not move the update high-water mark.
        for id in 0..3 {
            q.push_flush(id);
        }
        assert_eq!(q.depth(), 2, "barriers are not pending updates");
        assert_eq!(q.max_depth(), 2, "barriers must not bump the high-water mark");
        q.drain_wait(16);
        q.try_push_updates(&upd(2, 3));
        assert_eq!(q.max_depth(), 2, "high-water mark persists across a drain");
        q.try_push_updates(&upd(3, 4));
        q.try_push_updates(&upd(4, 5));
        assert_eq!(q.max_depth(), 3, "new deeper backlog raises it");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        IngestQueue::new(0, Backpressure::Block);
    }

    #[test]
    fn stats_reads_survive_a_poisoned_lock_and_count_recoveries() {
        let q = Arc::new(IngestQueue::new(4, Backpressure::Block));
        q.try_push_updates(&upd(0, 1));
        q.try_push_updates(&upd(1, 2));
        // Poison the mutex: a thread panics while holding the guard, the way
        // a crashed event loop or writer would.
        let q2 = q.clone();
        let _ = std::thread::spawn(move || {
            let _guard = q2.inner.lock().unwrap();
            panic!("simulated crash while holding the queue lock");
        })
        .join();
        assert_eq!(q.poisoned_reads(), 0, "nothing recovered yet");
        // Read-only stats paths keep working and report the pre-crash state.
        assert_eq!(q.depth(), 2);
        assert_eq!(q.max_depth(), 2);
        assert!(!q.is_closed());
        assert_eq!(q.poisoned_reads(), 3, "each recovery is counted");
    }
}
