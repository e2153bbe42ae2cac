//! Engine configuration, including the pruning switch of the paper's
//! Table VI ablation.

/// Minimum work-item count of a pipeline phase (ΔG changes plus changed
/// rows for generate, events for group, targets for apply and
/// next-messages) before a parallel engine runs it on the rayon pool.
/// Below it the phase runs inline. Never changes results.
///
/// The pool's workers are resident, so handing a phase to them costs a few
/// µs (publish, claim, wait) rather than a thread spawn and join; a sweep
/// over 32–512 on the repo benchmark found the lowest gate fastest on the
/// small-batch workloads (DESIGN.md §3, "Gating").
pub const PARALLEL_MIN_ITEMS: usize = 32;

/// Minimum next-target count before a parallel engine's next-messages phase
/// switches from the per-node transform to gather→GEMM→scatter: affected
/// rows are gathered into a contiguous scratch matrix, the layer update and
/// next-layer message run as one batched GEMM per layer, and the results
/// scatter back. Below it the per-node path wins (packing the weight panel
/// costs more than it saves). Bitwise identical either way (the kernel
/// accumulates every output element in the same k order).
pub const BATCH_MIN_TARGETS: usize = 8;

/// Tunables of the incremental engine.
///
/// Component 1 of the paper's Table VI ablation, intra-layer incremental
/// update, is the engine itself and has no switch: `pruning` toggles
/// component 2, and the table's baseline row is the k-hop recomputation of
/// `ink_gnn::khop`, not a configuration of this engine.
///
/// How a parallel round splits its work is not configured here: the engine
/// takes `W = rayon::current_num_threads()` workers and
/// `S = (4·W).next_power_of_two()` shards at round start, so the pool the
/// round runs in (`RAYON_NUM_THREADS`, `ThreadPool::install`) decides it.
/// Results are bitwise identical for every thread count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateConfig {
    /// Component 2 (paper Table VI): inter-layer pruned propagation. When
    /// off, resilient nodes propagate events anyway (monotonic layers lose
    /// their savings and behave like accumulative ones, as in the paper's
    /// `InkStream-m (1)` row).
    pub pruning: bool,
    /// Split rounds over the rayon pool: one worker per pool thread, phases
    /// with at least [`PARALLEL_MIN_ITEMS`] work items on the pool, and
    /// gather→GEMM→scatter once a layer has [`BATCH_MIN_TARGETS`] next
    /// targets. `false` is the scalar oracle ([`UpdateConfig::sequential`]):
    /// one worker, one shard, no threads, per-node transform.
    pub parallel: bool,
}

impl Default for UpdateConfig {
    fn default() -> Self {
        Self { pruning: true, parallel: true }
    }
}

impl UpdateConfig {
    /// The full InkStream configuration (components 1 & 2).
    pub fn full() -> Self {
        Self::default()
    }

    /// Ablation: incremental updates only, no pruned propagation —
    /// `InkStream-m (1)` in Table VI.
    pub fn incremental_only() -> Self {
        Self { pruning: false, ..Self::default() }
    }

    /// The scalar oracle every other configuration is bitwise-equal to:
    /// rounds run on the calling thread as one worker and one shard, with
    /// the per-node transform (see [`UpdateConfig::parallel`]).
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_both_components() {
        let c = UpdateConfig::default();
        assert!(c.pruning && c.parallel);
    }

    #[test]
    fn ablation_presets() {
        assert!(!UpdateConfig::incremental_only().pruning);
    }

    #[test]
    fn sequential_turns_off_rayon() {
        assert!(!UpdateConfig::full().sequential().parallel);
    }
}
