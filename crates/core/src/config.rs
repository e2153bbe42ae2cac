//! Engine configuration, including the ablation switches of the paper's
//! Table VI.

/// Tunables of the incremental engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateConfig {
    /// Component 1 (paper Table VI): intra-layer incremental update. When
    /// off, every event target recomputes its aggregated neighborhood from
    /// the full neighborhood (still touching only the affected area).
    pub incremental: bool,
    /// Component 2: inter-layer pruned propagation. When off, resilient
    /// nodes propagate events anyway (monotonic layers lose their savings
    /// and behave like accumulative ones, as in the paper's `InkStream-m (1)`
    /// row).
    pub pruning: bool,
    /// Process independent targets of a layer with rayon once a layer has at
    /// least [`UpdateConfig::parallel_threshold`] of them.
    pub parallel: bool,
    /// Minimum per-layer work-item count before going parallel.
    pub parallel_threshold: usize,
    /// Worker count for the event-generation phase (`0` = one per rayon
    /// thread). The partitioning — and therefore the result, bit for bit —
    /// is identical for every worker count; this knob only tunes load
    /// balance.
    pub num_workers: usize,
    /// Target-shard count for the group-reduce phase (`0` = auto: the next
    /// power of two of 4 × workers). Like `num_workers`, this never changes
    /// results, only how reduction work is distributed.
    pub num_shards: usize,
    /// Compensated (Neumaier) accumulation for the sum/mean incremental
    /// path: the group-reduce phase carries a per-slot error channel and the
    /// α update widens to `f64`, cutting the per-round rounding error that
    /// drift audits exist to bound. Off by default — it costs extra
    /// arithmetic and the monotonic path never needs it.
    pub compensated: bool,
    /// Minimum next-target count before the next-messages phase switches
    /// from the per-node transform to gather→GEMM→scatter: affected rows are
    /// gathered into a contiguous scratch matrix, the layer update and
    /// next-layer message run as one batched GEMM per layer, and the results
    /// scatter back. Below it the per-node path wins (packing the weight
    /// panel costs more than it saves). Bitwise identical either way (the
    /// kernel accumulates every output element in the same k order);
    /// `usize::MAX` pins the per-node path, which is the reference the
    /// equivalence tests compare against.
    pub batch_threshold: usize,
    /// Minimum deferred-recompute count per shard before the apply phase
    /// switches from the scalar per-target loop to batched aggregator
    /// recomputation: targets that need every channel rebuilt (empty-old
    /// neighborhoods, forced recomputes — an exposed reset repairs only its
    /// exposed channels and never comes here) are grouped by
    /// event kind × degree class, their neighbor messages gathered into
    /// contiguous panels, and each panel folded with one batched reduction.
    /// Bitwise identical either way (rows fold in the same order with the
    /// same kernels); `usize::MAX` pins the scalar loop.
    pub apply_batch_threshold: usize,
}

impl Default for UpdateConfig {
    fn default() -> Self {
        Self {
            incremental: true,
            pruning: true,
            parallel: true,
            parallel_threshold: 512,
            num_workers: 0,
            num_shards: 0,
            compensated: false,
            batch_threshold: 8,
            apply_batch_threshold: 8,
        }
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

    /// Ablation: neither component — event-driven recomputation of every
    /// touched node (the engine-internal k-hop-like floor).
    pub fn recompute_all() -> Self {
        Self { incremental: false, pruning: false, ..Self::default() }
    }

    /// Disables rayon (deterministic single-thread profiling runs).
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Enables compensated (Neumaier) accumulation on the sum/mean
    /// incremental path.
    pub fn compensated(mut self) -> Self {
        self.compensated = true;
        self
    }

    /// The worker count the pipeline will partition generation work into.
    pub fn worker_count(&self) -> usize {
        if !self.parallel {
            1
        } else if self.num_workers > 0 {
            self.num_workers
        } else {
            rayon::current_num_threads().max(1)
        }
    }

    /// The shard count the pipeline will split group-reduce targets into.
    pub fn shard_count(&self) -> usize {
        if !self.parallel {
            1
        } else if self.num_shards > 0 {
            self.num_shards
        } else {
            (self.worker_count() * 4).next_power_of_two()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_both_components() {
        let c = UpdateConfig::default();
        assert!(c.incremental && c.pruning && c.parallel);
    }

    #[test]
    fn ablation_presets() {
        assert!(UpdateConfig::incremental_only().incremental);
        assert!(!UpdateConfig::incremental_only().pruning);
        assert!(!UpdateConfig::recompute_all().incremental);
        assert!(!UpdateConfig::recompute_all().pruning);
    }

    #[test]
    fn sequential_turns_off_rayon() {
        assert!(!UpdateConfig::full().sequential().parallel);
    }

    #[test]
    fn compensated_is_opt_in() {
        assert!(!UpdateConfig::default().compensated);
        assert!(UpdateConfig::default().compensated().compensated);
    }

    #[test]
    fn sequential_runs_one_worker_one_shard() {
        let c = UpdateConfig { num_workers: 8, num_shards: 64, ..UpdateConfig::default() };
        assert_eq!(c.sequential().worker_count(), 1);
        assert_eq!(c.sequential().shard_count(), 1);
    }

    #[test]
    fn explicit_worker_and_shard_counts_win() {
        let c = UpdateConfig { num_workers: 3, num_shards: 5, ..UpdateConfig::default() };
        assert_eq!(c.worker_count(), 3);
        assert_eq!(c.shard_count(), 5);
    }

    #[test]
    fn auto_shard_count_is_a_power_of_two() {
        let c = UpdateConfig { num_workers: 3, ..UpdateConfig::default() };
        let s = c.shard_count();
        assert!(s.is_power_of_two());
        assert!(s >= 4 * 3);
    }
}
