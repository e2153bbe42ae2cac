#![warn(missing_docs)]
//! Offline stand-in for `rayon`.
//!
//! The build environment has no crates.io access, so this crate provides the
//! surface the workspace actually uses — `par_chunks_mut()` with `.for_each()`
//! or `.enumerate().for_each()`, [`current_num_threads`], and
//! [`ThreadPoolBuilder`] / [`ThreadPool::install`] — on `std::thread::scope`.
//! The chunks are split into one contiguous band per thread; with one thread
//! (one available core, or `RAYON_NUM_THREADS=1`) everything runs inline with
//! zero spawn overhead. As upstream, inside `install` the current thread count
//! and every band split (on the threads spawned for it too) are the pool's.

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// Thread count of the innermost [`ThreadPool::install`] running on this
    /// thread; 0 outside any pool.
    static POOL_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// The global count: `RAYON_NUM_THREADS` when set and non-zero, else one
/// per available core.
fn default_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            })
    })
}

/// Number of worker threads parallel operations will use: the count of the
/// [`ThreadPool`] installed on this thread, else the global count.
pub fn current_num_threads() -> usize {
    match POOL_THREADS.with(Cell::get) {
        0 => default_num_threads(),
        n => n,
    }
}

/// Configures a [`ThreadPool`]; the subset of upstream's builder this
/// workspace uses.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// The error upstream's [`ThreadPoolBuilder::build`] can return; the shim's
/// never fails.
pub type ThreadPoolBuildError = std::convert::Infallible;

impl ThreadPoolBuilder {
    /// A builder with the default thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the pool's thread count; `0` (the default) means the global
    /// count, as upstream.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = match self.num_threads {
            0 => default_num_threads(),
            n => n,
        };
        Ok(ThreadPool { threads })
    }
}

/// A thread count that parallel operations inside [`ThreadPool::install`]
/// split their work into. Upstream keeps resident workers; the shim spawns
/// scoped threads per operation, as everywhere else in this crate.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Runs `op` in this pool: until it returns (or unwinds) the calling
    /// thread, and every thread a parallel operation spawns from it, report
    /// this pool's count. Nested calls restore the outer count on exit.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                POOL_THREADS.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(POOL_THREADS.with(|c| c.replace(self.threads)));
        op()
    }
}

/// The import surface mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::ParallelSliceMut;
}

/// `par_chunks_mut()` on mutable slices (and, through deref, vectors).
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over non-overlapping mutable chunks of `size`.
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
        assert!(size > 0, "chunk size must be non-zero");
        ParChunksMut { data: self, size }
    }
}

/// Parallel iterator over mutable chunks.
pub struct ParChunksMut<'a, T> {
    data: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pairs each chunk with its chunk index.
    pub fn enumerate(self) -> EnumerateChunksMut<'a, T> {
        EnumerateChunksMut { data: self.data, size: self.size }
    }

    /// Applies `f` to every chunk.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        self.enumerate().for_each(|(_, chunk)| f(chunk));
    }
}

/// The result of [`ParChunksMut::enumerate`].
pub struct EnumerateChunksMut<'a, T> {
    data: &'a mut [T],
    size: usize,
}

impl<T: Send> EnumerateChunksMut<'_, T> {
    /// Applies `f` to every `(chunk_index, chunk)` pair, one contiguous band
    /// of chunks per thread, the first band on the calling thread.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let size = self.size;
        let run = |first: usize, band: &mut [T]| {
            for (i, chunk) in band.chunks_mut(size).enumerate() {
                f((first + i, chunk));
            }
        };
        let n_chunks = self.data.len().div_ceil(size);
        let threads = current_num_threads().min(n_chunks);
        if threads <= 1 {
            run(0, self.data);
            return;
        }
        let per = n_chunks.div_ceil(threads);
        let pool = POOL_THREADS.with(Cell::get);
        let run = &run;
        std::thread::scope(|s| {
            let mut bands = self.data.chunks_mut(per * size).enumerate();
            let (_, first) = bands.next().expect("more than one chunk");
            for (b, band) in bands {
                s.spawn(move || {
                    POOL_THREADS.with(|c| c.set(pool));
                    run(b * per, band);
                });
            }
            run(0, first);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, ThreadPool, ThreadPoolBuilder};

    #[test]
    fn chunks_mut_touches_every_element_once() {
        let mut data = vec![0u32; 1003];
        data.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = (i * 10 + j) as u32 + 1;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &x)| x == i as u32 + 1));
        data.par_chunks_mut(7).for_each(|chunk| chunk.iter_mut().for_each(|x| *x -= 1));
        assert!(data.iter().enumerate().all(|(i, &x)| x == i as u32));
    }

    #[test]
    fn empty_inputs_are_fine() {
        let mut nothing: [u16; 0] = [];
        nothing.par_chunks_mut(4).enumerate().for_each(|_| panic!("no chunks expected"));
    }

    fn pool(n: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    #[test]
    fn install_scopes_the_thread_count() {
        let outside = current_num_threads();
        assert_eq!(pool(3).install(current_num_threads), 3);
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn nested_install_restores_the_outer_count() {
        let (inner, outer) = pool(5).install(|| {
            let inner = pool(2).install(current_num_threads);
            (inner, current_num_threads())
        });
        assert_eq!((inner, outer), (2, 5));
    }

    #[test]
    fn panic_inside_install_restores_the_callers_count() {
        let outside = current_num_threads();
        let caught = std::panic::catch_unwind(|| {
            pool(7).install(|| panic!("inside the pool"));
        });
        assert!(caught.is_err());
        assert_eq!(current_num_threads(), outside);
        let inner = pool(4).install(|| {
            let _ = std::panic::catch_unwind(|| pool(9).install(|| panic!("nested")));
            current_num_threads()
        });
        assert_eq!(inner, 4);
    }

    #[test]
    fn bands_spawned_inside_install_see_the_pool_count() {
        let mut seen = vec![(0, None); 1000];
        pool(3).install(|| {
            seen.par_chunks_mut(1).for_each(|c| {
                c[0] = (current_num_threads(), Some(std::thread::current().id()));
            })
        });
        assert!(seen.iter().all(|&(n, _)| n == 3));
        let mut ids: Vec<_> = seen.iter().map(|&(_, id)| id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 3, "1000 chunks split into one band per pool thread");
    }

    #[test]
    fn zero_threads_means_the_default() {
        let default = current_num_threads();
        assert_eq!(pool(0).install(current_num_threads), default);
        assert_eq!(pool(5).install(|| pool(0).install(current_num_threads)), default);
    }
}
