//! Epoch-versioned embedding snapshots.
//!
//! The serving layer needs readers that never block on an in-flight update:
//! while the writer thread applies a delta through the pipeline, concurrent
//! queries must keep seeing a *consistent* output matrix tagged with the
//! epoch it belongs to. [`SnapshotPublisher`] / [`SnapshotReader`] provide
//! that with two buffers: readers clone the current snapshot's `Arc` (lock
//! held only for the clone) and then read entirely lock-free, while the
//! writer brings the *other* buffer up to date, wraps it in an
//! [`EmbeddingSnapshot`], and swaps the shared pointer under a lock held
//! only for the swap itself.
//!
//! # Delta publish
//!
//! The buffer being recycled is the snapshot the *previous* publish replaced,
//! so it is exactly one publish behind the current one. Its content differs
//! from the source's only in the rows the previous publish changed and the
//! rows this one changes, and [`SnapshotPublisher::publish_rows`] copies just
//! those — a publish costs O(rows changed), not O(|V|). The replaced
//! snapshot's `Arc` is kept until the next publish and reclaimed then with
//! [`Arc::into_inner`], which succeeds only when no reader holds it any more;
//! a buffer is written only after that proof of sole ownership, so there is
//! no `unsafe` and a loaded snapshot is immutable for as long as it is held.
//! Steady-state publishing allocates nothing.
//!
//! The whole matrix is copied instead when
//!
//! * a reader still pins the replaced snapshot at the next publish (it keeps
//!   that buffer; a fresh one is allocated), or there is none yet (the first
//!   publish after [`SnapshotPublisher::new`]),
//! * the source's shape differs from the buffer's, or
//! * this publish's or the previous publish's changed rows are not known row
//!   by row (`rows` is `None`, or [`SnapshotPublisher::publish`] was used).

use ink_graph::VertexId;
use ink_tensor::Matrix;
use std::sync::{Arc, RwLock};

/// One published, immutable view of the output embeddings.
#[derive(Debug)]
pub struct EmbeddingSnapshot {
    /// Publish counter: 0 is the bootstrap output, each applied batch
    /// increments it. Monotonically non-decreasing across reads.
    pub epoch: u64,
    /// The output embedding matrix as of `epoch`.
    pub embeddings: Matrix,
}

/// Shared cell between one publisher and any number of readers.
#[derive(Debug)]
struct SnapshotCell {
    current: RwLock<Arc<EmbeddingSnapshot>>,
}

/// What one publish copied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PublishReport {
    /// Rows written into the published buffer (duplicates counted).
    pub rows_copied: usize,
    /// The whole matrix was copied — one of the fallbacks in the module docs.
    pub full_copy: bool,
}

/// Writer half: owns the buffer being recycled.
#[derive(Debug)]
pub struct SnapshotPublisher {
    cell: Arc<SnapshotCell>,
    /// The snapshot the last publish replaced. Reclaimed by the next publish
    /// rather than at the swap, so a reader that loaded it moments before
    /// the swap has let go by then.
    retired: Option<Arc<EmbeddingSnapshot>>,
    /// The rows in which `retired` differs from the current snapshot;
    /// `None` when the last publish did not know them.
    last_rows: Option<Vec<VertexId>>,
}

/// Reader half: cheap to clone, hand one to every reader thread.
#[derive(Clone, Debug)]
pub struct SnapshotReader {
    cell: Arc<SnapshotCell>,
}

impl SnapshotPublisher {
    /// Publishes `bootstrap` as epoch 0 and returns both halves.
    ///
    /// ```
    /// use ink_tensor::Matrix;
    /// use inkstream::snapshot::SnapshotPublisher;
    ///
    /// let mut output = Matrix::zeros(4, 3);
    /// let (mut publisher, reader) = SnapshotPublisher::new(output.clone());
    /// assert_eq!(reader.load().epoch, 0);
    ///
    /// // The first publish has no buffer to recycle yet: whole-matrix copy.
    /// output.set_row(1, &[1.0; 3]);
    /// assert!(publisher.publish_rows(&output, Some(&[1]), 1).full_copy);
    ///
    /// // From then on a publish copies the previous publish's rows plus its own.
    /// output.set_row(2, &[2.0; 3]);
    /// let report = publisher.publish_rows(&output, Some(&[2]), 2);
    /// assert_eq!((report.rows_copied, report.full_copy), (2, false));
    /// let snap = reader.load();
    /// assert_eq!(snap.epoch, 2);
    /// assert_eq!(snap.embeddings, output);
    /// ```
    pub fn new(bootstrap: Matrix) -> (Self, SnapshotReader) {
        let cell = Arc::new(SnapshotCell {
            current: RwLock::new(Arc::new(EmbeddingSnapshot { epoch: 0, embeddings: bootstrap })),
        });
        (Self { cell: cell.clone(), retired: None, last_rows: None }, SnapshotReader { cell })
    }

    /// Publishes a full copy of `embeddings` at `epoch`, for a caller that
    /// does not know which rows changed. The buffer is still recycled, but
    /// this publish and the next one each copy the whole matrix.
    ///
    /// # Panics
    ///
    /// As [`SnapshotPublisher::publish_rows`].
    pub fn publish(&mut self, embeddings: &Matrix, epoch: u64) {
        self.publish_rows(embeddings, None, epoch);
    }

    /// Publishes `src` at `epoch`. `rows` lists every row of `src` that may
    /// differ from what the previous publish (or [`SnapshotPublisher::new`])
    /// was given — a superset and duplicates are fine — or is `None` when
    /// that is not known. Only those rows and the previous publish's are
    /// copied unless one of the module docs' fallbacks applies. Readers
    /// observe the swap atomically; all copying happens outside the lock.
    ///
    /// # Panics
    ///
    /// If `epoch` is not strictly greater than the published one — epochs
    /// must move forward or readers could not order their observations — or
    /// if a listed row is out of range.
    pub fn publish_rows(
        &mut self,
        src: &Matrix,
        rows: Option<&[VertexId]>,
        epoch: u64,
    ) -> PublishReport {
        let shape = src.shape();
        // `into_inner` yields the buffer only if no reader holds it: from
        // here on nobody else can observe what is written into it.
        let recycled = self
            .retired
            .take()
            .and_then(Arc::into_inner)
            .map(|snap| snap.embeddings)
            .filter(|buf| buf.shape() == shape);
        let last_rows = self.last_rows.take();
        let (buf, report) = match (recycled, &last_rows, rows) {
            (Some(mut buf), Some(last), Some(rows)) => {
                for &v in last.iter().chain(rows) {
                    buf.set_row(v as usize, src.row(v as usize));
                }
                (buf, PublishReport { rows_copied: last.len() + rows.len(), full_copy: false })
            }
            (recycled, ..) => {
                let mut buf = recycled.unwrap_or_else(|| Matrix::zeros(shape.0, shape.1));
                buf.as_mut_slice().copy_from_slice(src.as_slice());
                (buf, PublishReport { rows_copied: shape.0, full_copy: true })
            }
        };
        // Remember this publish's rows in the list the last one used.
        self.last_rows = rows.map(|rows| {
            let mut kept = last_rows.unwrap_or_default();
            kept.clear();
            kept.extend_from_slice(rows);
            kept
        });
        let next = Arc::new(EmbeddingSnapshot { epoch, embeddings: buf });
        let old = {
            let mut cur = self.cell.current.write().expect("snapshot lock poisoned");
            assert!(
                epoch > cur.epoch,
                "snapshot epochs must be strictly increasing ({} -> {epoch})",
                cur.epoch
            );
            std::mem::replace(&mut *cur, next)
        };
        self.retired = Some(old);
        report
    }

    /// The epoch readers currently observe.
    pub fn epoch(&self) -> u64 {
        self.cell.current.read().expect("snapshot lock poisoned").epoch
    }

    /// A reader handle for this publisher's cell.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader { cell: self.cell.clone() }
    }
}

impl SnapshotReader {
    /// The current snapshot. The lock is held only for the `Arc` clone; the
    /// returned snapshot stays valid (and immutable) however long the caller
    /// keeps it, even across later publishes.
    pub fn load(&self) -> Arc<EmbeddingSnapshot> {
        self.cell.current.read().expect("snapshot lock poisoned").clone()
    }

    /// The current epoch without retaining the snapshot.
    pub fn epoch(&self) -> u64 {
        self.cell.current.read().expect("snapshot lock poisoned").epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn bootstrap_is_epoch_zero() {
        let (_p, r) = SnapshotPublisher::new(Matrix::full(3, 2, 7.0));
        let s = r.load();
        assert_eq!(s.epoch, 0);
        assert_eq!(s.embeddings.get(2, 1), 7.0);
    }

    #[test]
    fn held_snapshot_survives_later_publishes() {
        let (mut p, r) = SnapshotPublisher::new(Matrix::zeros(2, 2));
        let old = r.load();
        p.publish(&Matrix::full(2, 2, 1.0), 1);
        p.publish(&Matrix::full(2, 2, 2.0), 2);
        assert_eq!(old.epoch, 0);
        assert_eq!(old.embeddings.get(0, 0), 0.0, "old epoch is immutable");
        assert_eq!(r.load().epoch, 2);
        assert_eq!(r.load().embeddings.get(1, 1), 2.0);
    }

    #[test]
    fn pinned_retired_snapshot_costs_one_full_copy() {
        let mut src = Matrix::zeros(4, 4);
        let (mut p, r) = SnapshotPublisher::new(src.clone());
        let step = |src: &mut Matrix, p: &mut SnapshotPublisher, e: u64| {
            src.set_row(e as usize % 4, &[e as f32; 4]);
            p.publish_rows(&*src, Some(&[e as u32 % 4]), e)
        };
        assert!(step(&mut src, &mut p, 1).full_copy, "nothing to recycle yet");
        let held = r.load(); // epoch 1: retired by publish 2, wanted back by publish 3
        assert!(!step(&mut src, &mut p, 2).full_copy);
        assert!(step(&mut src, &mut p, 3).full_copy, "the reader keeps the buffer");
        assert!(!step(&mut src, &mut p, 4).full_copy, "row lists survive the fallback");
        assert_eq!(held.embeddings.row(1), &[1.0; 4]);
        assert_eq!(held.embeddings.row(2), &[0.0; 4], "a held snapshot never changes");
        assert_eq!(r.load().embeddings, src);
    }

    #[test]
    fn full_publish_makes_the_next_publish_full_too() {
        let mut src = Matrix::zeros(3, 2);
        let (mut p, r) = SnapshotPublisher::new(src.clone());
        p.publish_rows(&src, Some(&[]), 1);
        src.set_row(0, &[1.0, 1.0]);
        p.publish(&src, 2);
        src.set_row(1, &[2.0, 2.0]);
        // The recycled buffer is one publish behind, and publish 2 did not
        // say which rows it changed.
        assert!(p.publish_rows(&src, Some(&[1]), 3).full_copy);
        assert_eq!(r.load().embeddings, src);
        src.set_row(2, &[3.0, 3.0]);
        assert_eq!(
            p.publish_rows(&src, Some(&[2]), 4),
            PublishReport { rows_copied: 2, full_copy: false }
        );
        assert_eq!(r.load().embeddings, src);
    }

    #[test]
    fn shape_change_reallocates() {
        let (mut p, r) = SnapshotPublisher::new(Matrix::zeros(2, 2));
        p.publish(&Matrix::full(5, 3, 4.0), 1);
        let s = r.load();
        assert_eq!(s.embeddings.shape(), (5, 3));
        assert_eq!(s.embeddings.get(4, 2), 4.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotonic_epoch_is_rejected() {
        let (mut p, _r) = SnapshotPublisher::new(Matrix::zeros(1, 1));
        p.publish(&Matrix::zeros(1, 1), 1);
        p.publish(&Matrix::zeros(1, 1), 1);
    }

    #[test]
    fn concurrent_readers_always_see_consistent_epochs() {
        let (mut p, r) = SnapshotPublisher::new(Matrix::zeros(8, 4));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let r = r.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let s = r.load();
                        assert!(s.epoch >= last, "epochs regressed");
                        last = s.epoch;
                        // Every value in a snapshot equals its epoch: a torn
                        // or in-place-mutated buffer would mix values.
                        for &x in s.embeddings.as_slice() {
                            assert_eq!(x, s.epoch as f32, "inconsistent snapshot");
                        }
                    }
                })
            })
            .collect();
        for e in 1..200u64 {
            p.publish(&Matrix::full(8, 4, e as f32), e);
        }
        stop.store(true, Ordering::Relaxed);
        for t in readers {
            t.join().unwrap();
        }
        assert_eq!(r.epoch(), 199);
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// One step of a random publish sequence: what kind of publish, which
    /// rows it rewrites (empty and duplicates included), and for how many
    /// further publishes a reader pins the snapshot it produces (0 = no pin).
    type Step = (u32, Vec<u32>, usize);

    const COLS: usize = 3;

    fn steps(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Step>> {
        proptest::collection::vec(
            (0u32..10, proptest::collection::vec(0u32..64, 0..6), 0usize..4),
            len,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Every load equals the source of its epoch bitwise, held snapshots
        /// never change, and the whole matrix is copied exactly when the
        /// module docs say so.
        #[test]
        fn every_epoch_matches_its_source_under_pins(steps in steps(1..40)) {
            let mut src = Matrix::zeros(8, COLS);
            let (mut p, r) = SnapshotPublisher::new(src.clone());
            // (snapshot, the source it was published from, publishes left)
            let mut pins: Vec<(Arc<EmbeddingSnapshot>, Vec<u32>, usize)> = Vec::new();
            let mut last_known = false;
            let mut last_shape = src.shape();
            for (i, (kind, rows, span)) in steps.iter().enumerate() {
                let epoch = i as u64 + 1;
                if *kind == 0 {
                    src = Matrix::zeros(if src.rows() == 8 { 11 } else { 8 }, COLS);
                }
                let rows: Vec<u32> = rows.iter().map(|v| v % src.rows() as u32).collect();
                // Half of the listed rows really change: a list is a superset.
                for &v in rows.iter().step_by(2) {
                    src.set_row(v as usize, &[epoch as f32 + v as f32 / 64.0; COLS]);
                }
                let listed = (*kind > 1).then_some(rows.as_slice());
                // The buffer publish `epoch` wants back is epoch - 2's.
                let recyclable = epoch >= 2
                    && !pins.iter().any(|(snap, ..)| snap.epoch + 2 == epoch)
                    && last_shape == src.shape();
                let expect_full = !(recyclable && last_known && listed.is_some());
                let report = p.publish_rows(&src, listed, epoch);
                prop_assert!(report.full_copy == expect_full, "epoch {epoch}");
                last_known = listed.is_some();
                last_shape = src.shape();

                let snap = r.load();
                prop_assert_eq!(snap.epoch, epoch);
                prop_assert_eq!(snap.embeddings.shape(), src.shape());
                prop_assert!(bits(&snap.embeddings) == bits(&src), "epoch {epoch}");
                for (held, expected, _) in &pins {
                    prop_assert!(&bits(&held.embeddings) == expected, "pinned {}", held.epoch);
                }
                pins.retain_mut(|(.., left)| {
                    *left -= 1;
                    *left > 0
                });
                if *span > 0 && pins.len() < 2 {
                    pins.push((snap, bits(&src), *span));
                }
            }
        }

        /// With no reader holding on, full and delta publishes alike reuse
        /// the same two buffers: nothing is allocated after the first publish.
        #[test]
        fn unpinned_publishes_alternate_between_two_buffers(steps in steps(4..40)) {
            let mut src = Matrix::zeros(16, COLS);
            let (mut p, r) = SnapshotPublisher::new(src.clone());
            let mut addrs = vec![r.load().embeddings.as_slice().as_ptr()];
            for (i, (kind, rows, _)) in steps.iter().enumerate() {
                let epoch = i as u64 + 1;
                let rows: Vec<u32> = rows.iter().map(|v| v % 16).collect();
                for &v in &rows {
                    src.set_row(v as usize, &[epoch as f32; COLS]);
                }
                if *kind > 1 {
                    p.publish_rows(&src, Some(&rows), epoch);
                } else {
                    p.publish(&src, epoch);
                }
                prop_assert_eq!(bits(&r.load().embeddings), bits(&src));
                addrs.push(r.load().embeddings.as_slice().as_ptr());
            }
            for k in 2..addrs.len() {
                prop_assert!(addrs[k] == addrs[k - 2], "publish {k} took a third buffer");
            }
        }
    }
}
