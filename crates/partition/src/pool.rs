//! Persistent partition worker pool.
//!
//! The BSP driver steps its engines on one long-lived, parked worker thread
//! per partition instead of spawning threads every round. A round step is a
//! condvar/epoch-counter barrier:
//!
//! 1. The driver publishes the [`StepOp`] and one raw engine pointer per
//!    partition, bumps the round counter, and notifies `work`.
//! 2. Every worker wakes, takes the engines assigned to it (worker `w` owns
//!    partitions `w, w + W, w + 2W, …`), runs the step under
//!    `catch_unwind`, records its per-engine wall time, and increments
//!    `done` — notifying `finished` when it is the last one.
//! 3. The driver sleeps on `finished` until `done == workers`, then folds the
//!    durations into the usual skew/wall instruments.
//!
//! A panic inside a step does **not** abort the process: the unwinding worker
//! still reaches the barrier (so the driver never deadlocks), the first panic
//! payload is captured, and the pool is *poisoned* — every subsequent
//! [`WorkerPool::step`] fails fast with the same [`PoolPanic`] until
//! [`WorkerPool::clear_poison`] runs (the partitioned driver does this from
//! `resync()`, after rebuilding engine state from the global replica).
//!
//! ## Safety
//!
//! Workers receive `*mut InkStream` wrapped in `Task`. The contract making
//! this sound is structural: [`WorkerPool::step`] takes `&mut [InkStream]`,
//! hands out one distinct pointer per engine, and does not return until every
//! worker has passed the barrier — the mutable borrow therefore outlives all
//! worker access, and no two workers ever hold the same pointer.

use ink_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use inkstream::InkStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The engine step a pool round dispatches to every partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOp {
    /// [`InkStream::round_rescale`] on the given layer.
    Rescale(usize),
    /// [`InkStream::round_process`] on the given layer.
    Process(usize),
}

impl StepOp {
    pub(crate) fn run(self, e: &mut InkStream) {
        match self {
            StepOp::Rescale(l) => e.round_rescale(l),
            StepOp::Process(l) => e.round_process(l),
        }
    }
}

/// A captured worker panic: which partition's step unwound, and the rendered
/// payload. Also the poison token — once set, the pool fails fast.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolPanic {
    /// Index of the partition whose step panicked.
    pub partition: usize,
    /// Rendered panic payload (the message for `&str`/`String` panics).
    pub detail: String,
}

/// The `ink_partition_pool_*` instrument set.
pub struct PoolInstruments {
    /// Worker threads the pool runs (static after construction).
    pub workers: Arc<Gauge>,
    /// Barrier rounds driven to completion (one per rescale/process step).
    pub rounds: Arc<Counter>,
    /// Time a worker spent parked between rounds, per wake, in nanoseconds.
    pub park_ns: Arc<Histogram>,
    /// Slowest minus fastest per-engine step within one pool round, in
    /// nanoseconds — the pool-side straggler signal.
    pub skew_ns: Arc<Histogram>,
    /// Worker panics captured (each one poisons the pool until resync).
    pub panics: Arc<Counter>,
}

impl PoolInstruments {
    /// Registers the instrument set (idempotent per registry).
    pub fn register(r: &MetricsRegistry) -> Self {
        Self {
            workers: r.gauge("ink_partition_pool_workers", "Persistent pool worker threads"),
            rounds: r.counter(
                "ink_partition_pool_rounds_total",
                "Pool barrier rounds driven to completion",
            ),
            park_ns: r.histogram(
                "ink_partition_pool_park_ns",
                "Time a pool worker spent parked between rounds",
            ),
            skew_ns: r.histogram(
                "ink_partition_pool_skew_ns",
                "Slowest minus fastest engine step within one pool round",
            ),
            panics: r.counter(
                "ink_partition_pool_panics_total",
                "Worker panics captured (pool poisoned until resync)",
            ),
        }
    }
}

/// Raw engine pointer, movable to a worker. See the module-level safety
/// argument: the driver's `&mut` borrow brackets all worker access.
struct Task(*mut InkStream);
// SAFETY: the pointer is only dereferenced between the work signal and the
// finish barrier of one `step` call, during which the driver holds `&mut`
// over the pointee and hands each pointer to exactly one worker.
unsafe impl Send for Task {}

/// Everything behind the barrier mutex.
struct PoolState {
    /// Epoch counter: a bump is the wake signal for parked workers.
    round: u64,
    op: StepOp,
    /// One slot per partition; workers `take()` their assigned slots.
    tasks: Vec<Option<Task>>,
    /// Per-partition step durations for the round in flight.
    durations: Vec<Duration>,
    /// Workers past the barrier for the round in flight.
    done: usize,
    /// First panic captured in the round in flight.
    panic: Option<PoolPanic>,
    /// Sticky poison from an earlier round.
    poisoned: Option<PoolPanic>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Driver → workers: a new round (or shutdown) is published.
    work: Condvar,
    /// Workers → driver: the last worker passed the barrier.
    finished: Condvar,
}

/// The persistent worker pool owned by `PartitionedInkStream`. One thread per
/// worker slot, parked between rounds; see the module docs for the protocol.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    parts: usize,
    inst: PoolInstruments,
}

impl WorkerPool {
    /// Spawns `workers` threads (clamped to `[1, parts]`) covering `parts`
    /// partitions round-robin, and registers the `ink_partition_pool_*`
    /// instruments into `registry`.
    pub fn new(parts: usize, workers: usize, registry: &MetricsRegistry) -> Self {
        assert!(parts >= 1, "pool needs at least one partition");
        let workers = workers.clamp(1, parts);
        let inst = PoolInstruments::register(registry);
        inst.workers.set_u64(workers as u64);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                round: 0,
                op: StepOp::Rescale(0),
                tasks: (0..parts).map(|_| None).collect(),
                durations: vec![Duration::ZERO; parts],
                done: 0,
                panic: None,
                poisoned: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            finished: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let park_ns = Arc::clone(&inst.park_ns);
                std::thread::Builder::new()
                    .name(format!("ink-part-w{w}"))
                    .spawn(move || worker_loop(w, workers, parts, &shared, &park_ns))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, handles, workers, parts, inst }
    }

    /// Worker threads actually running.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The poison token, when a worker has panicked since the last
    /// [`WorkerPool::clear_poison`].
    pub fn poisoned(&self) -> Option<PoolPanic> {
        self.shared.state.lock().unwrap().poisoned.clone()
    }

    /// Clears the poison token; the driver calls this after `resync()`
    /// rebuilt every engine's state, making the pool usable again.
    pub fn clear_poison(&self) {
        self.shared.state.lock().unwrap().poisoned = None;
    }

    /// One barrier round: runs `op` on every engine and returns the
    /// per-partition durations. Fails fast (without waking workers) when the
    /// pool is poisoned; captures at most one new panic per round, poisons
    /// the pool with it, and reports it — the barrier itself never deadlocks
    /// because an unwinding worker still increments `done`.
    pub fn step(
        &self,
        engines: &mut [InkStream],
        op: StepOp,
    ) -> Result<Vec<Duration>, PoolPanic> {
        assert_eq!(engines.len(), self.parts, "pool sized for a fixed partition count");
        let mut state = self.shared.state.lock().unwrap();
        if let Some(p) = &state.poisoned {
            return Err(p.clone());
        }
        for (slot, e) in state.tasks.iter_mut().zip(engines.iter_mut()) {
            *slot = Some(Task(e as *mut InkStream));
        }
        state.op = op;
        state.done = 0;
        state.panic = None;
        state.round += 1;
        self.shared.work.notify_all();
        state = self
            .shared
            .finished
            .wait_while(state, |s| s.done < self.workers)
            .unwrap();
        self.inst.rounds.inc();
        let durations = std::mem::replace(
            &mut state.durations,
            vec![Duration::ZERO; self.parts],
        );
        if self.parts > 1 {
            let (mut min, mut max) = (Duration::MAX, Duration::ZERO);
            for d in &durations {
                min = min.min(*d);
                max = max.max(*d);
            }
            self.inst.skew_ns.record((max - min).as_nanos() as u64);
        }
        if let Some(p) = state.panic.take() {
            self.inst.panics.inc();
            state.poisoned = Some(p.clone());
            return Err(p);
        }
        Ok(durations)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap();
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(
    w: usize,
    workers: usize,
    parts: usize,
    shared: &PoolShared,
    park_ns: &Histogram,
) {
    let mut seen = 0u64;
    loop {
        // Park until a new round (or shutdown) is published.
        let (op, mine) = {
            let mut state = shared.state.lock().unwrap();
            let parked = Instant::now();
            state = shared
                .work
                .wait_while(state, |s| s.round == seen && !s.shutdown)
                .unwrap();
            if state.shutdown {
                return;
            }
            park_ns.record(parked.elapsed().as_nanos() as u64);
            seen = state.round;
            let mine: Vec<(usize, Task)> = (w..parts)
                .step_by(workers)
                .filter_map(|i| state.tasks[i].take().map(|t| (i, t)))
                .collect();
            (state.op, mine)
        };

        // Run outside the lock; a panic is captured per engine so the
        // barrier below is always reached.
        let mut results: Vec<(usize, Duration)> = Vec::with_capacity(mine.len());
        let mut first_panic: Option<PoolPanic> = None;
        for (i, task) in mine {
            let t0 = Instant::now();
            // SAFETY: see the module docs — exclusive pointer, bracketed by
            // the driver's `&mut` borrow for the duration of this round.
            let engine = unsafe { &mut *task.0 };
            let outcome = catch_unwind(AssertUnwindSafe(|| op.run(engine)));
            results.push((i, t0.elapsed()));
            if let Err(payload) = outcome {
                first_panic.get_or_insert(PoolPanic {
                    partition: i,
                    detail: payload_str(payload.as_ref()),
                });
            }
        }

        let mut state = shared.state.lock().unwrap();
        for (i, d) in results {
            state.durations[i] = d;
        }
        if state.panic.is_none() {
            state.panic = first_panic;
        }
        state.done += 1;
        if state.done == workers {
            shared.finished.notify_all();
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use ink_gnn::{Aggregator, Model};
    use ink_graph::generators::erdos_renyi;
    use ink_graph::{DeltaBatch, EdgeChange};
    use ink_tensor::init::{seeded_rng, uniform};
    use inkstream::UpdateConfig;

    fn engine(seed: u64) -> InkStream {
        let mut rng = seeded_rng(seed);
        let g = erdos_renyi(&mut rng, 12, 24);
        let x = uniform(&mut rng, 12, 4, -1.0, 1.0);
        let mut mr = seeded_rng(3);
        let m = Model::gcn(&mut mr, &[4, 5, 3], Aggregator::Sum);
        InkStream::new(m, g, x, UpdateConfig::default()).unwrap()
    }

    /// Drives one full round over `engines` through the pool, mirroring the
    /// partitioned driver's schedule (no boundary exchange — each engine
    /// here is an independent full graph).
    fn pool_round(pool: &WorkerPool, engines: &mut [InkStream], delta: &DeltaBatch) {
        for e in engines.iter_mut() {
            e.round_begin(delta, &[]).unwrap();
        }
        let k = engines[0].model().num_layers();
        for l in 0..k {
            pool.step(engines, StepOp::Rescale(l)).unwrap();
            pool.step(engines, StepOp::Process(l)).unwrap();
        }
        for e in engines.iter_mut() {
            e.round_finish();
        }
    }

    #[test]
    fn pool_round_matches_direct_round() {
        let registry = MetricsRegistry::new();
        let pool = WorkerPool::new(2, 2, &registry);
        let mut pooled = vec![engine(1), engine(1)];
        let mut direct = engine(1);
        let delta = DeltaBatch::new(vec![EdgeChange::insert(0, 7), EdgeChange::remove(1, 2)]);
        pool_round(&pool, &mut pooled, &delta);
        direct.apply_delta(&delta);
        assert_eq!(pooled[0].output(), direct.output());
        assert_eq!(pooled[1].output(), direct.output());
        assert!(pool.inst.rounds.get() >= 4);
        let text = registry.render_prometheus();
        assert!(text.contains("ink_partition_pool_workers 2"));
        assert!(text.contains("ink_partition_pool_rounds_total"));
    }

    #[test]
    fn fewer_workers_than_partitions_cover_every_engine() {
        let registry = MetricsRegistry::new();
        let pool = WorkerPool::new(3, 1, &registry);
        assert_eq!(pool.workers(), 1);
        let mut pooled = vec![engine(9), engine(9), engine(9)];
        let delta = DeltaBatch::new(vec![EdgeChange::insert(2, 10)]);
        pool_round(&pool, &mut pooled, &delta);
        let mut direct = engine(9);
        direct.apply_delta(&delta);
        for e in &pooled {
            assert_eq!(e.output(), direct.output());
        }
    }

    #[test]
    fn panic_poisons_pool_and_clears_on_request() {
        let registry = MetricsRegistry::new();
        let pool = WorkerPool::new(2, 2, &registry);
        let mut engines = vec![engine(4), engine(4)];
        // round_rescale without round_begin panics inside the worker.
        let err = pool.step(&mut engines, StepOp::Rescale(0)).unwrap_err();
        assert!(err.detail.contains("active round"), "payload: {}", err.detail);
        assert_eq!(pool.poisoned(), Some(err.clone()));
        // Fail fast: no barrier round runs while poisoned.
        let rounds = pool.inst.rounds.get();
        assert_eq!(pool.step(&mut engines, StepOp::Rescale(0)).unwrap_err(), err);
        assert_eq!(pool.inst.rounds.get(), rounds);
        assert_eq!(pool.inst.panics.get(), 1);
        pool.clear_poison();
        // Healthy engines drive a full round again after clearing.
        let delta = DeltaBatch::new(vec![EdgeChange::insert(0, 5)]);
        pool_round(&pool, &mut engines, &delta);
    }

    #[test]
    fn drop_joins_parked_workers() {
        let registry = MetricsRegistry::new();
        let pool = WorkerPool::new(4, 4, &registry);
        drop(pool); // must not hang
    }
}
