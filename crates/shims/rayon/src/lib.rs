#![warn(missing_docs)]
//! Offline stand-in for `rayon`.
//!
//! The build environment has no crates.io access, so this crate provides the
//! surface the workspace actually uses — `par_chunks_mut()` with `.for_each()`
//! or `.enumerate().for_each()`, [`current_num_threads`], and
//! [`ThreadPoolBuilder`] / [`ThreadPool::install`] — on resident worker
//! threads.
//!
//! A pool of `n` threads owns `n − 1` workers; the calling thread is the
//! n-th. A parallel call publishes one job, cut into about four blocks of
//! chunks per thread, and every thread — the caller included — claims
//! blocks from one atomic counter until none are left, so a slow block
//! does not hold up a static band. The call
//! returns once every claimed block has finished and re-raises the first
//! panic a block raised. An idle worker spins for 50 µs before it parks,
//! so the back-to-back phases of one engine round find it awake.
//!
//! A call runs inline (on the calling thread, in chunk order) when the pool
//! has one thread, when it makes a single chunk, when it is made from
//! inside a job (a nested call), or when another thread's job holds the
//! pool. Outside any [`ThreadPool::install`] calls go to a global pool
//! built on first use with `RAYON_NUM_THREADS` threads, else one per
//! available core. As upstream, inside `install` the current thread count
//! is the pool's, on its workers too.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle worker, and a caller waiting for the last blocks,
/// polls before blocking on a condition variable. Long enough to span the
/// gap between two phases of one engine round, short enough that an idle
/// pool costs next to no CPU.
const SPIN: Duration = Duration::from_micros(50);

/// Blocks of chunks a parallel call is cut into, per pool thread: enough
/// that a thread finishing early takes over the rest of a heavy block's
/// neighbours, few enough that claiming stays a handful of atomic adds.
const BLOCKS_PER_THREAD: usize = 4;

thread_local! {
    /// The pool of the innermost [`ThreadPool::install`] on this thread, or
    /// the pool this thread is a worker of; `None` means the global pool.
    static CURRENT: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
    /// Set while this thread runs blocks of a parallel call, and for good on
    /// a worker: parallel calls made from there run inline.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
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

/// The global pool, started on first use; its workers park for the life of
/// the process.
fn global_registry() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    &GLOBAL.get_or_init(|| ThreadPool::start(default_num_threads())).registry
}

/// Number of worker threads parallel operations will use: the count of the
/// [`ThreadPool`] installed on (or owning) this thread, else the global
/// count.
pub fn current_num_threads() -> usize {
    CURRENT.with(|c| c.borrow().as_ref().map(|r| r.threads)).unwrap_or_else(default_num_threads)
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

    /// Builds the pool and starts its workers.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool::start(match self.num_threads {
            0 => default_num_threads(),
            n => n,
        }))
    }
}

/// A pool of `n` threads: `n − 1` resident workers plus whichever thread
/// makes a parallel call inside [`ThreadPool::install`]. Dropping it stops
/// and joins the workers.
pub struct ThreadPool {
    registry: Arc<Registry>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("threads", &self.registry.threads).finish()
    }
}

impl ThreadPool {
    fn start(threads: usize) -> Self {
        let registry = Arc::new(Registry {
            threads,
            busy: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            slot: Mutex::new(Slot::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|i| {
                let registry = Arc::clone(&registry);
                std::thread::Builder::new()
                    .name(format!("rayon-shim-{i}"))
                    .spawn(move || registry.worker_loop())
                    .expect("spawning a pool worker thread")
            })
            .collect();
        Self { registry, workers }
    }

    /// Runs `op` in this pool: until it returns (or unwinds) the calling
    /// thread reports this pool's count and its parallel calls run on this
    /// pool's workers. Nested calls restore the outer pool on exit.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        struct Restore(Option<Arc<Registry>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.with(|c| *c.borrow_mut() = self.0.take());
            }
        }
        let outer = CURRENT.with(|c| c.replace(Some(Arc::clone(&self.registry))));
        let _restore = Restore(outer);
        op()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut slot = self.registry.lock();
            slot.shutdown = true;
            self.registry.seq.fetch_add(1, Ordering::Release);
        }
        self.registry.work_cv.notify_all();
        for worker in self.workers.drain(..) {
            // A worker catches every panic of the blocks it runs, so a join
            // error would only repeat one the caller already re-raised.
            let _ = worker.join();
        }
    }
}

/// What the workers of one pool share.
struct Registry {
    /// Threads including the caller's.
    threads: usize,
    /// Held by the thread whose job is on the pool; a call that finds it
    /// set runs inline.
    busy: AtomicBool,
    /// Bumped on every published job and on shutdown; spinning workers
    /// watch it.
    seq: AtomicU64,
    /// Workers that joined the current job and have not left it.
    active: AtomicUsize,
    slot: Mutex<Slot>,
    /// Wakes parked workers for a new job or shutdown.
    work_cv: Condvar,
    /// Wakes a caller waiting for `active` to reach zero.
    done_cv: Condvar,
}

#[derive(Default)]
struct Slot {
    /// The published job, cleared by its caller once it has no blocks left.
    job: Option<JobRef>,
    /// `Registry::seq` as of the last publish (or shutdown).
    seq: u64,
    shutdown: bool,
    /// Workers blocked on `work_cv`.
    parked: usize,
    /// The caller is blocked on `done_cv`.
    caller_waiting: bool,
}

/// One parallel call: `run(b)` processes block `b` of `blocks`.
struct Job<'a> {
    run: &'a (dyn Fn(usize) + Sync),
    blocks: usize,
    /// Next unclaimed block. Relaxed: it hands out indices and publishes no
    /// data; the job itself is published through `Registry::slot` and the
    /// blocks' writes through `Registry::active`.
    next: AtomicUsize,
    /// The first panic a block raised.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job<'_> {
    /// Claims and runs blocks until none are left. A panicking block stops
    /// further claims and is kept for the caller to re-raise.
    fn work(&self) {
        loop {
            let b = self.next.fetch_add(1, Ordering::Relaxed);
            if b >= self.blocks {
                return;
            }
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (self.run)(b))) {
                self.next.fetch_max(self.blocks, Ordering::Relaxed);
                let mut first = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                first.get_or_insert(payload);
            }
        }
    }
}

/// A lifetime-erased pointer to the caller's [`Job`].
#[derive(Clone, Copy)]
struct JobRef(*const Job<'static>);

// SAFETY: the pointee is a `Job`, whose fields are `Sync` (`run` is a
// `&(dyn Fn + Sync)`, the rest are atomics and a mutex), and `Registry::run`
// keeps it alive until every worker holding the pointer has left.
unsafe impl Send for JobRef {}

impl Registry {
    /// Locks the slot. No user code runs under this lock and no update of
    /// it can panic, so it is never poisoned.
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().expect("pool slot lock poisoned (no user code runs under it)")
    }

    /// Runs `run(0..blocks)` on this pool, the caller included, and returns
    /// after the last block; re-raises the first panic of a block. `None`
    /// when the pool is held by another thread's job; the caller then runs
    /// the blocks itself.
    fn run(&self, blocks: usize, run: &(dyn Fn(usize) + Sync)) -> Option<()> {
        if self.busy.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).is_err() {
            return None;
        }
        struct Idle<'a>(&'a AtomicBool);
        impl Drop for Idle<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Release);
            }
        }
        let _idle = Idle(&self.busy);
        let job = Job { run, blocks, next: AtomicUsize::new(0), panic: Mutex::new(None) };
        {
            let mut slot = self.lock();
            // Erasing the lifetime is sound because this function does not
            // return, or unwind, before `active` is back to zero with the
            // slot cleared: no worker can reach `job` after that.
            slot.job = Some(JobRef(std::ptr::from_ref(&job).cast::<Job<'static>>()));
            slot.seq += 1;
            self.seq.store(slot.seq, Ordering::Release);
            if slot.parked > 0 {
                self.work_cv.notify_all();
            }
        }
        job.work();
        // Every block is claimed; stop workers from joining, then wait for
        // those that did. Their `Release` decrements pair with the
        // `Acquire` loads here, so their blocks' writes are visible after.
        self.lock().job = None;
        let spin = Instant::now();
        while self.active.load(Ordering::Acquire) != 0 && spin.elapsed() < SPIN {
            std::hint::spin_loop();
        }
        if self.active.load(Ordering::Acquire) != 0 {
            let mut slot = self.lock();
            slot.caller_waiting = true;
            while self.active.load(Ordering::Acquire) != 0 {
                slot = self.done_cv.wait(slot).expect("pool slot lock poisoned");
            }
            slot.caller_waiting = false;
        }
        let payload = job.panic.into_inner().unwrap_or_else(|e| e.into_inner());
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
        Some(())
    }

    /// A worker: wait for a job (spinning for `SPIN`, then parked), help
    /// with its blocks, repeat until shutdown.
    fn worker_loop(self: Arc<Self>) {
        CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&self)));
        IN_JOB.with(|f| f.set(true));
        let mut seen = 0u64;
        loop {
            let spin = Instant::now();
            while self.seq.load(Ordering::Acquire) == seen && spin.elapsed() < SPIN {
                std::hint::spin_loop();
            }
            let job = {
                let mut slot = self.lock();
                while slot.seq == seen && !slot.shutdown {
                    slot.parked += 1;
                    slot = self.work_cv.wait(slot).expect("pool slot lock poisoned");
                    slot.parked -= 1;
                }
                if slot.shutdown {
                    return;
                }
                seen = slot.seq;
                // Joining under the lock: the caller clears the job under the
                // same lock before it reads `active`, so it sees this join.
                if slot.job.is_some() {
                    self.active.fetch_add(1, Ordering::Relaxed);
                }
                slot.job
            };
            let Some(JobRef(job)) = job else { continue };
            // SAFETY: `active` counts this worker, so the caller in
            // `Registry::run` has not returned and `job` is alive.
            unsafe { &*job }.work();
            if self.active.fetch_sub(1, Ordering::Release) == 1 {
                let slot = self.lock();
                if slot.caller_waiting {
                    self.done_cv.notify_one();
                }
            }
        }
    }
}

/// Runs `run(0..blocks)` on the current pool, inline when it has one thread
/// or is busy, or when this thread is already inside a job. Either way the
/// blocks run as a job: parallel calls they make run inline.
fn run_blocks(blocks: usize, run: &(dyn Fn(usize) + Sync)) {
    let inline = || (0..blocks).for_each(run);
    if blocks <= 1 || IN_JOB.with(Cell::get) {
        return inline();
    }
    struct Leave;
    impl Drop for Leave {
        fn drop(&mut self) {
            IN_JOB.with(|f| f.set(false));
        }
    }
    IN_JOB.with(|f| f.set(true));
    let _leave = Leave;
    let installed = CURRENT.with(|c| c.borrow().clone());
    let registry = match &installed {
        Some(r) => r,
        None if default_num_threads() > 1 => global_registry(),
        None => return inline(),
    };
    if registry.threads <= 1 || registry.run(blocks, run).is_none() {
        inline();
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

/// The base of a slice whose disjoint blocks go to different threads.
struct SlicePtr<T>(*mut T);

// SAFETY: the threads sharing a `SlicePtr` only build `&mut` sub-slices of
// disjoint blocks from it (see `EnumerateChunksMut::for_each`), which is what
// sending those sub-slices to them would allow; hence `T: Send`.
unsafe impl<T: Send> Sync for SlicePtr<T> {}

impl<T: Send> EnumerateChunksMut<'_, T> {
    /// Applies `f` to every `(chunk_index, chunk)` pair. The chunks are cut
    /// into blocks of consecutive chunks, which the pool's threads claim;
    /// within a block the chunks run in order.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let (size, len) = (self.size, self.data.len());
        let n_chunks = len.div_ceil(size);
        let threads = current_num_threads();
        let per_block = n_chunks.div_ceil((BLOCKS_PER_THREAD * threads).max(1)).max(1);
        let blocks = n_chunks.div_ceil(per_block);
        let base = SlicePtr(self.data.as_mut_ptr());
        let base = &base;
        let run = |b: usize| {
            assert!(b < blocks, "block {b} of {blocks}");
            let first = b * per_block;
            let lo = first * size;
            let hi = ((first + per_block) * size).min(len);
            // SAFETY: `b < blocks`, so `lo < hi <= len` lie inside the slice
            // `self.data` borrows mutably for this whole call, and every
            // block index is run exactly once (claimed from one counter, or
            // in turn inline), so no two live sub-slices overlap.
            let block = unsafe { std::slice::from_raw_parts_mut(base.0.add(lo), hi - lo) };
            for (i, chunk) in block.chunks_mut(size).enumerate() {
                f((first + i, chunk));
            }
        };
        run_blocks(blocks, &run);
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, ThreadPool, ThreadPoolBuilder};
    use std::collections::HashSet;
    use std::sync::{Arc, Barrier};

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

    /// Fills `data` through `par_chunks_mut(size)`, each element with one
    /// plus its chunk index, and checks every chunk got exactly one visit.
    fn fill_and_check(data: &mut [usize], size: usize) {
        let len = data.len();
        data.iter_mut().for_each(|x| *x = 0);
        data.par_chunks_mut(size).enumerate().for_each(|(i, chunk)| {
            assert_eq!(chunk.len(), size.min(len - i * size), "chunk {i}");
            chunk.iter_mut().for_each(|x| *x += i + 1);
        });
        for (j, &x) in data.iter().enumerate() {
            assert_eq!(x, j / size + 1, "element {j} of {} at chunk size {size}", data.len());
        }
    }

    #[test]
    fn every_chunk_is_visited_once_for_every_length_and_pool_size() {
        for threads in 1..=4 {
            let pool = pool(threads);
            pool.install(|| {
                for len in 0..=130 {
                    for size in [1, 3, 8] {
                        fill_and_check(&mut vec![0; len], size);
                    }
                }
            });
        }
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
    fn every_chunk_sees_the_pool_count_on_at_most_that_many_threads() {
        let mut seen = vec![(0, None); 1000];
        pool(3).install(|| {
            seen.par_chunks_mut(1).for_each(|c| {
                c[0] = (current_num_threads(), Some(std::thread::current().id()));
            })
        });
        assert!(seen.iter().all(|&(n, _)| n == 3));
        let ids: HashSet<_> = seen.iter().map(|&(_, id)| id.expect("every chunk ran")).collect();
        assert!((1..=3).contains(&ids.len()), "{} threads ran a 3-thread pool's chunks", ids.len());
    }

    #[test]
    fn the_call_returns_after_the_last_slow_block() {
        let mut done = [false; 32];
        // Kept alive past the check: dropping it would join the workers.
        let pool = pool(4);
        pool.install(|| {
            done.par_chunks_mut(1).for_each(|c| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                c[0] = true;
            })
        });
        assert!(done.iter().all(|&d| d), "returned before a worker's block finished");
    }

    /// Panics in the chunk holding element 57, wherever it runs.
    fn panic_at_57(data: &mut [usize]) -> std::thread::Result<()> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            data.par_chunks_mut(1).enumerate().for_each(|(i, c)| {
                if i == 57 {
                    panic!("chunk 57");
                }
                c[0] = i;
            })
        }))
    }

    #[test]
    fn a_panicking_chunk_reraises_and_the_pool_serves_the_next_call() {
        for threads in [2, 4] {
            let pool = pool(threads);
            for _ in 0..3 {
                let caught = pool.install(|| panic_at_57(&mut vec![0; 200]));
                let payload = caught.expect_err("the chunk's panic reaches the caller");
                assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk 57"));
                // Nothing else uses this pool, so it must take the next job
                // rather than send it inline.
                assert!(pool.registry.run(8, &|_| {}).is_some(), "pool stuck busy");
                pool.install(|| fill_and_check(&mut vec![0; 999], 3));
            }
        }
    }

    #[test]
    fn the_global_pool_survives_a_panicking_chunk() {
        let caught = panic_at_57(&mut vec![0; 200]);
        assert!(caught.is_err());
        fill_and_check(&mut vec![0; 999], 4);
        if super::default_num_threads() > 1 {
            // Other tests share the global pool, so it may be briefly busy;
            // it must not stay so.
            let global = super::global_registry();
            let taken = (0..100_000).any(|_| {
                std::thread::yield_now();
                global.run(8, &|_| {}).is_some()
            });
            assert!(taken, "global pool stuck busy after a panic");
        }
    }

    #[test]
    fn nested_calls_run_inline_without_deadlock() {
        let other = pool(3);
        for threads in [1, 2, 4] {
            let mut outer = vec![vec![0usize; 64]; 16];
            pool(threads).install(|| {
                outer.par_chunks_mut(1).enumerate().for_each(|(i, row)| {
                    let here = std::thread::current().id();
                    let fill = |(j, c): (usize, &mut [usize])| {
                        assert_eq!(std::thread::current().id(), here, "nested call went parallel");
                        c.iter_mut().for_each(|x| *x = i * 100 + j);
                    };
                    // Into this pool, and into another one.
                    if i % 2 == 0 {
                        row[0].par_chunks_mut(4).enumerate().for_each(fill);
                    } else {
                        other.install(|| row[0].par_chunks_mut(4).enumerate().for_each(fill));
                    }
                })
            });
            for (i, row) in outer.iter().enumerate() {
                assert!(row.iter().enumerate().all(|(k, &x)| x == i * 100 + k / 4));
            }
        }
    }

    #[test]
    fn concurrent_callers_both_finish_correctly() {
        for pool in [Some(Arc::new(pool(2))), Some(Arc::new(pool(4))), None] {
            let start = Arc::new(Barrier::new(2));
            let callers: Vec<_> = (0..2)
                .map(|t| {
                    let (pool, start) = (pool.clone(), Arc::clone(&start));
                    std::thread::spawn(move || {
                        let work = || {
                            start.wait();
                            for round in 0..50 {
                                let mut data = vec![0usize; 300 + 7 * t + round];
                                fill_and_check(&mut data, 1 + (round % 5));
                            }
                        };
                        match pool {
                            Some(pool) => pool.install(work),
                            None => work(),
                        }
                    })
                })
                .collect();
            for caller in callers {
                caller.join().expect("caller thread");
            }
        }
    }

    #[test]
    fn dropping_a_pool_joins_its_workers() {
        let pools: Vec<_> = (0..20).map(|_| pool(4)).collect();
        let alive: Vec<_> = pools.iter().map(|p| Arc::downgrade(&p.registry)).collect();
        for pool in &pools {
            pool.install(|| fill_and_check(&mut vec![0; 100], 1));
        }
        drop(pools);
        // Every worker holds its registry until its thread exits, so once
        // the drops return none may be left.
        assert!(alive.iter().all(|w| w.upgrade().is_none()), "a worker outlived its pool");
    }

    #[test]
    fn zero_threads_means_the_default() {
        let default = current_num_threads();
        assert_eq!(pool(0).install(current_num_threads), default);
        assert_eq!(pool(5).install(|| pool(0).install(current_num_threads)), default);
    }
}
