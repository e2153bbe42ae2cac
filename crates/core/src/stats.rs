//! Update statistics — the observables behind the paper's Figures 1b and 8
//! and Tables V and VI.

use crate::monotonic::Condition;
use std::time::Duration;

/// Wall-clock time spent in each phase of the per-layer update pipeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Event generation: degree rescaling, ΔG seeding, effect propagation.
    pub generate: Duration,
    /// Target-sharded group-reduce.
    pub group: Duration,
    /// Per-target incremental update / recomputation.
    pub apply: Duration,
    /// Sequential write-back: α rows, conditions, target merge.
    pub write: Duration,
    /// Next-layer message / final output rebuild.
    pub next_messages: Duration,
}

impl PhaseTimes {
    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        self.generate + self.group + self.apply + self.write + self.next_messages
    }

    /// Adds another measurement phase by phase.
    pub fn merge(&mut self, other: &PhaseTimes) {
        self.generate += other.generate;
        self.group += other.group;
        self.apply += other.apply;
        self.write += other.write;
        self.next_messages += other.next_messages;
    }
}

/// How many targets fell into each evolvability condition (paper Fig. 8,
/// plus the accumulative path which is always incrementally updated).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConditionCounts {
    /// Resilient nodes — propagation pruned (monotonic only).
    pub resilient: u64,
    /// Incrementally updated without any reset.
    pub no_reset: u64,
    /// Incrementally updated under a covered reset.
    pub covered_reset: u64,
    /// Exposed reset: the uncovered reset channels were re-aggregated from
    /// the neighborhood, the rest updated incrementally. Also counts targets
    /// whose old neighborhood was empty (rebuilt whole).
    pub exposed_reset: u64,
    /// Accumulative targets (always incrementally updated).
    pub accumulative: u64,
    /// Targets recomputed because incremental updates were disabled
    /// (ablation runs only).
    pub forced_recompute: u64,
}

impl ConditionCounts {
    /// Records one monotonic condition.
    pub fn record(&mut self, c: Condition) {
        match c {
            Condition::Resilient => self.resilient += 1,
            Condition::NoReset => self.no_reset += 1,
            Condition::CoveredReset => self.covered_reset += 1,
            Condition::ExposedReset => self.exposed_reset += 1,
        }
    }

    /// Total recorded targets.
    pub fn total(&self) -> u64 {
        self.resilient
            + self.no_reset
            + self.covered_reset
            + self.exposed_reset
            + self.accumulative
            + self.forced_recompute
    }

    /// Merges another count set into this one.
    pub fn merge(&mut self, other: &ConditionCounts) {
        self.resilient += other.resilient;
        self.no_reset += other.no_reset;
        self.covered_reset += other.covered_reset;
        self.exposed_reset += other.exposed_reset;
        self.accumulative += other.accumulative;
        self.forced_recompute += other.forced_recompute;
    }
}

/// Per-layer observations of one update round.
#[derive(Clone, Debug, Default)]
pub struct LayerStats {
    /// Events created for this layer (ΔG seeds + propagated).
    pub events_created: usize,
    /// Distinct target nodes after grouping.
    pub targets: usize,
    /// Targets whose aggregated neighborhood actually changed.
    pub alpha_changed: usize,
    /// Condition distribution for this layer.
    pub conditions: ConditionCounts,
    /// Rows the next-messages phase pushed through the batched
    /// gather→GEMM→scatter transform (0 when the per-node path ran). Delta
    /// rows never come here.
    pub batched_rows: usize,
    /// Neighbor rows folded by the apply phase's full recomputations
    /// (empty-old targets, `incremental: false`), which gather them into
    /// panels.
    pub batched_apply_rows: usize,
    /// Channels the apply phase re-aggregated for exposed resets, summed over
    /// targets; `exposed_channels / conditions.exposed_reset` is the mean
    /// repair width (empty-old targets are rebuilt whole by the panel path
    /// and add nothing here).
    pub exposed_channels: usize,
    /// Neighbor rows visited by those channel repairs (the in-degrees of the
    /// repaired targets, summed).
    pub exposed_rows: usize,
    /// Targets whose cached output row the next-messages phase committed by
    /// the delta rule (`h += s·Σ Δm·W`, see [`crate::accumulative`]) instead
    /// of the full transform; `delta_rows / targets` is the share of the
    /// layer's work that had the property. 0 on a layer that is not affine
    /// in α.
    pub delta_rows: usize,
    /// Payloads the generate phase widened with their `Δm·W` transform — the
    /// source transforms that replace the per-target ones. 0 on a layer that
    /// is not affine in α.
    pub delta_sources: usize,
    /// Per-phase wall times of this layer's pipeline pass.
    pub phases: PhaseTimes,
}

impl LayerStats {
    /// Adds another layer observation into this one (counts and phase times
    /// sum) — used when folding per-partition reports of the same layer.
    pub fn merge(&mut self, other: &LayerStats) {
        self.events_created += other.events_created;
        self.targets += other.targets;
        self.alpha_changed += other.alpha_changed;
        self.conditions.merge(&other.conditions);
        self.batched_rows += other.batched_rows;
        self.batched_apply_rows += other.batched_apply_rows;
        self.exposed_channels += other.exposed_channels;
        self.exposed_rows += other.exposed_rows;
        self.delta_rows += other.delta_rows;
        self.delta_sources += other.delta_sources;
        self.phases.merge(&other.phases);
    }
}

/// The report returned by every engine update.
#[derive(Clone, Debug, Default)]
pub struct UpdateReport {
    /// Per-layer breakdown.
    pub per_layer: Vec<LayerStats>,
    /// Wall-clock time of the update.
    pub elapsed: Duration,
    /// Distinct nodes touched across all layers (RNVV numerator).
    pub nodes_visited: u64,
    /// Distinct nodes whose aggregated neighborhood changed in any layer —
    /// the paper's *real affected* nodes (Fig. 1b).
    pub real_affected: u64,
    /// Nodes whose final output embedding changed.
    pub output_changed: u64,
    /// `f32` embedding values read (RMC numerator, reads).
    pub f32_read: u64,
    /// `f32` embedding values written (RMC numerator, writes).
    pub f32_written: u64,
    /// Requested changes that were no-ops against the current graph
    /// (duplicate inserts, missing removals) and were skipped.
    pub skipped_changes: usize,
    /// Floating-point operations spent in batched GEMM kernels (the
    /// next-messages phase's gather→GEMM→scatter transform). 0 when every
    /// layer took the per-node path. A delta-rule layer's source transforms
    /// are `vecmul`s and not counted here; their work is
    /// [`LayerStats::delta_sources`] × `2·dim·out_dim`.
    pub gemm_flops: u64,
    /// The *worst* (most expensive) condition each monotonic target hit
    /// across layers — the per-node view behind the paper's Fig. 8. Nodes of
    /// the theoretical affected area that are absent here were never even
    /// visited (their subtree was pruned upstream).
    pub per_node_condition: ink_graph::FxHashMap<ink_graph::VertexId, Condition>,
}

impl UpdateReport {
    /// Total condition counts across layers.
    pub fn conditions(&self) -> ConditionCounts {
        let mut total = ConditionCounts::default();
        for l in &self.per_layer {
            total.merge(&l.conditions);
        }
        total
    }

    /// Total events created across layers.
    pub fn events_created(&self) -> usize {
        self.per_layer.iter().map(|l| l.events_created).sum()
    }

    /// Total embedding traffic (reads + writes).
    pub fn traffic(&self) -> u64 {
        self.f32_read + self.f32_written
    }

    /// Per-phase wall times summed across layers.
    pub fn phase_times(&self) -> PhaseTimes {
        let mut total = PhaseTimes::default();
        for l in &self.per_layer {
            total.merge(&l.phases);
        }
        total
    }

    /// Rows transformed by the batched path, summed across layers.
    pub fn batched_rows(&self) -> usize {
        self.per_layer.iter().map(|l| l.batched_rows).sum()
    }

    /// Neighbor rows folded by the batched apply-phase recomputation,
    /// summed across layers.
    pub fn batched_apply_rows(&self) -> usize {
        self.per_layer.iter().map(|l| l.batched_apply_rows).sum()
    }

    /// Folds another report into this one, layer by layer — the
    /// partitioned-engine summary path, where each partition contributes one
    /// report for the *same* logical round. Counters and per-layer stats
    /// sum; `elapsed` takes the maximum (partitions run concurrently, so
    /// the round's wall time is the slowest partition's);
    /// `per_node_condition` keeps each node's worst condition should the same
    /// node appear in both (it normally cannot — every target is owned by
    /// exactly one partition).
    pub fn absorb(&mut self, other: &UpdateReport) {
        if self.per_layer.len() < other.per_layer.len() {
            self.per_layer.resize_with(other.per_layer.len(), LayerStats::default);
        }
        for (mine, theirs) in self.per_layer.iter_mut().zip(&other.per_layer) {
            mine.merge(theirs);
        }
        self.elapsed = self.elapsed.max(other.elapsed);
        self.nodes_visited += other.nodes_visited;
        self.real_affected += other.real_affected;
        self.output_changed += other.output_changed;
        self.f32_read += other.f32_read;
        self.f32_written += other.f32_written;
        self.skipped_changes += other.skipped_changes;
        self.gemm_flops += other.gemm_flops;
        for (&v, &c) in &other.per_node_condition {
            self.per_node_condition
                .entry(v)
                .and_modify(|worst| {
                    if c.severity() > worst.severity() {
                        *worst = c;
                    }
                })
                .or_insert(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_covers_all_conditions() {
        let mut c = ConditionCounts::default();
        c.record(Condition::Resilient);
        c.record(Condition::NoReset);
        c.record(Condition::CoveredReset);
        c.record(Condition::ExposedReset);
        assert_eq!((c.resilient, c.no_reset, c.covered_reset, c.exposed_reset), (1, 1, 1, 1));
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = ConditionCounts { resilient: 1, accumulative: 2, ..Default::default() };
        let b = ConditionCounts { resilient: 3, exposed_reset: 4, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.resilient, 4);
        assert_eq!(a.exposed_reset, 4);
        assert_eq!(a.accumulative, 2);
    }

    #[test]
    fn phase_times_sum_and_merge() {
        let a = PhaseTimes {
            generate: Duration::from_micros(10),
            group: Duration::from_micros(20),
            apply: Duration::from_micros(30),
            write: Duration::from_micros(5),
            next_messages: Duration::from_micros(35),
        };
        assert_eq!(a.total(), Duration::from_micros(100));
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.total(), Duration::from_micros(200));
        assert_eq!(b.group, Duration::from_micros(40));
    }

    #[test]
    fn report_aggregates_phase_times_across_layers() {
        let mut r = UpdateReport::default();
        for _ in 0..2 {
            r.per_layer.push(LayerStats {
                phases: PhaseTimes { apply: Duration::from_micros(7), ..Default::default() },
                ..Default::default()
            });
        }
        assert_eq!(r.phase_times().apply, Duration::from_micros(14));
        assert_eq!(r.phase_times().total(), Duration::from_micros(14));
    }

    #[test]
    fn absorb_sums_counters_and_maxes_elapsed() {
        let mut a = UpdateReport {
            elapsed: Duration::from_micros(50),
            real_affected: 3,
            f32_read: 10,
            ..Default::default()
        };
        a.per_layer.push(LayerStats { targets: 2, delta_rows: 1, ..Default::default() });
        let mut b = UpdateReport {
            elapsed: Duration::from_micros(80),
            real_affected: 4,
            f32_written: 7,
            ..Default::default()
        };
        b.per_layer.push(LayerStats {
            targets: 5,
            delta_rows: 3,
            delta_sources: 2,
            ..Default::default()
        });
        b.per_layer.push(LayerStats { targets: 1, ..Default::default() });
        b.per_node_condition.insert(9, Condition::ExposedReset);
        a.absorb(&b);
        assert_eq!(a.elapsed, Duration::from_micros(80));
        assert_eq!(a.real_affected, 7);
        assert_eq!((a.f32_read, a.f32_written), (10, 7));
        assert_eq!(a.per_layer.len(), 2);
        assert_eq!(a.per_layer[0].targets, 7);
        assert_eq!((a.per_layer[0].delta_rows, a.per_layer[0].delta_sources), (4, 2));
        assert_eq!(a.per_layer[1].targets, 1);
        assert_eq!(a.per_node_condition[&9], Condition::ExposedReset);
    }

    #[test]
    fn absorb_keeps_worst_per_node_condition() {
        let mut a = UpdateReport::default();
        a.per_node_condition.insert(1, Condition::NoReset);
        let mut b = UpdateReport::default();
        b.per_node_condition.insert(1, Condition::ExposedReset);
        b.per_node_condition.insert(2, Condition::Resilient);
        a.absorb(&b);
        assert_eq!(a.per_node_condition[&1], Condition::ExposedReset);
        assert_eq!(a.per_node_condition[&2], Condition::Resilient);
        // Absorbing a weaker condition does not downgrade.
        a.absorb(&{
            let mut c = UpdateReport::default();
            c.per_node_condition.insert(1, Condition::Resilient);
            c
        });
        assert_eq!(a.per_node_condition[&1], Condition::ExposedReset);
    }

    #[test]
    fn aggregates_across_layers() {
        let mut r = UpdateReport::default();
        for _ in 0..3 {
            r.per_layer.push(LayerStats {
                events_created: 5,
                conditions: ConditionCounts { no_reset: 2, ..Default::default() },
                ..Default::default()
            });
        }
        assert_eq!(r.events_created(), 15);
        assert_eq!(r.conditions().no_reset, 6);
    }
}
