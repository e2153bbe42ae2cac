//! Event grouping and reduction (paper §II-B1).
//!
//! Events heading to the same node are grouped and reduced to at most one
//! deletion payload and one addition payload (monotonic) or a single signed
//! sum (accumulative) before any node state is touched. Grouping is not just
//! a batching optimisation: the paper's Fig. 4 shows that for monotonic
//! aggregation, judging evolvability requires *all* of a node's events at
//! once — processing them one-by-one either recomputes needlessly or
//! produces wrong results.
//!
//! The reduction is sound because a reset channel can only be caused by the
//! extreme value among the deleted messages, so reducing deletions with the
//! aggregation function loses nothing (paper §II-C1).

use crate::event::{Event, EventOp, PayloadArena};
use ink_graph::{FxHashMap, VertexId};
use ink_gnn::Aggregator;

/// The reduced events heading to one target node.
#[derive(Clone, Debug, PartialEq)]
pub enum Group {
    /// Monotonic aggregation: reduced deletion and addition payloads
    /// (`m⁻_A` and `m_A` in the paper's notation).
    Mono {
        /// `A`-reduction of all `Del` payloads, if any.
        del: Option<Vec<f32>>,
        /// `A`-reduction of all `Add` payloads, if any.
        add: Option<Vec<f32>>,
        /// Net in-degree change at the target. Needed to detect targets whose
        /// *old* neighborhood was empty: their cached `α⁻ = 0` is a
        /// convention, not a real aggregate, so the incremental rules do not
        /// apply and the target must recompute.
        degree_delta: i32,
    },
    /// Accumulative aggregation: the sum of all `Update` payloads plus the
    /// net in-degree change.
    Acc {
        /// Σ of signed payloads.
        sum: Vec<f32>,
        /// Net in-degree change at the target.
        degree_delta: i32,
    },
}

/// Outcome of [`group_events`].
pub struct Grouped {
    /// Reduced group per target node.
    pub groups: FxHashMap<VertexId, Group>,
    /// Raw event count before grouping.
    pub events_before: usize,
    /// `f32` values read from payloads during reduction (for the cost model).
    pub payload_values_read: usize,
}

/// Groups `events` by target and reduces each group with `agg`.
pub fn group_events(events: &[Event], arena: &PayloadArena, agg: Aggregator) -> Grouped {
    let dim = arena.dim();
    let mut groups: FxHashMap<VertexId, Group> = FxHashMap::default();
    let mut payload_values_read = 0usize;

    for ev in events {
        let payload = arena.get(ev.payload);
        payload_values_read += dim;
        if agg.is_monotonic() {
            let entry = groups
                .entry(ev.target)
                .or_insert_with(|| Group::Mono { del: None, add: None, degree_delta: 0 });
            let Group::Mono { del, add, degree_delta } = entry else {
                unreachable!("aggregator kind is uniform within a layer")
            };
            *degree_delta += ev.degree_delta as i32;
            let slot = match ev.op {
                EventOp::Del => del,
                EventOp::Add => add,
                EventOp::Update => {
                    panic!("Update events are only valid with accumulative aggregation")
                }
            };
            match slot {
                Some(acc) => agg.combine_into(acc, payload),
                None => *slot = Some(payload.to_vec()),
            }
        } else {
            let entry = groups
                .entry(ev.target)
                .or_insert_with(|| Group::Acc { sum: vec![0.0; dim], degree_delta: 0 });
            let Group::Acc { sum, degree_delta } = entry else {
                unreachable!("aggregator kind is uniform within a layer")
            };
            match ev.op {
                EventOp::Update => {
                    ink_tensor::ops::add_assign(sum, payload);
                    *degree_delta += ev.degree_delta as i32;
                }
                EventOp::Add | EventOp::Del => {
                    panic!("Add/Del events are only valid with monotonic aggregation")
                }
            }
        }
    }

    Grouped { groups, events_before: events.len(), payload_values_read }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(op: EventOp, target: VertexId, payload: crate::event::PayloadId, dd: i8) -> Event {
        Event { op, target, payload, degree_delta: dd }
    }

    #[test]
    fn monotonic_reduces_dels_and_adds_separately() {
        let mut arena = PayloadArena::new(2);
        let d1 = arena.push(&[5.0, 1.0]);
        let d2 = arena.push(&[2.0, 7.0]);
        let a1 = arena.push(&[0.0, 3.0]);
        let events = vec![
            ev(EventOp::Del, 4, d1, -1),
            ev(EventOp::Del, 4, d2, -1),
            ev(EventOp::Add, 4, a1, 1),
        ];
        let g = group_events(&events, &arena, Aggregator::Max);
        assert_eq!(g.groups.len(), 1);
        match &g.groups[&4] {
            Group::Mono { del, add, .. } => {
                assert_eq!(del.as_deref(), Some(&[5.0, 7.0][..]), "channel-wise max of dels");
                assert_eq!(add.as_deref(), Some(&[0.0, 3.0][..]));
            }
            _ => panic!("expected Mono group"),
        }
    }

    #[test]
    fn min_aggregator_reduces_with_min() {
        let mut arena = PayloadArena::new(2);
        let d1 = arena.push(&[5.0, 1.0]);
        let d2 = arena.push(&[2.0, 7.0]);
        let events = vec![ev(EventOp::Del, 0, d1, 0), ev(EventOp::Del, 0, d2, 0)];
        let g = group_events(&events, &arena, Aggregator::Min);
        match &g.groups[&0] {
            Group::Mono { del, .. } => assert_eq!(del.as_deref(), Some(&[2.0, 1.0][..])),
            _ => panic!("expected Mono group"),
        }
    }

    #[test]
    fn accumulative_sums_payloads_and_degree_deltas() {
        let mut arena = PayloadArena::new(2);
        let p1 = arena.push(&[1.0, 2.0]);
        let p2 = arena.push_negated(&[0.5, 0.5]);
        let events = vec![ev(EventOp::Update, 7, p1, 1), ev(EventOp::Update, 7, p2, -1)];
        let g = group_events(&events, &arena, Aggregator::Sum);
        match &g.groups[&7] {
            Group::Acc { sum, degree_delta } => {
                assert_eq!(sum, &[0.5, 1.5]);
                assert_eq!(*degree_delta, 0);
            }
            _ => panic!("expected Acc group"),
        }
    }

    #[test]
    fn distinct_targets_stay_separate() {
        let mut arena = PayloadArena::new(1);
        let p = arena.push(&[1.0]);
        let events = vec![ev(EventOp::Add, 1, p, 0), ev(EventOp::Add, 2, p, 0)];
        let g = group_events(&events, &arena, Aggregator::Max);
        assert_eq!(g.groups.len(), 2);
        assert_eq!(g.events_before, 2);
    }

    #[test]
    fn payload_read_accounting() {
        let mut arena = PayloadArena::new(4);
        let p = arena.push(&[0.0; 4]);
        let events = vec![ev(EventOp::Update, 0, p, 0); 3];
        let g = group_events(&events, &arena, Aggregator::Mean);
        assert_eq!(g.payload_values_read, 12);
    }

    #[test]
    #[should_panic(expected = "Update events are only valid")]
    fn update_event_with_monotonic_panics() {
        let mut arena = PayloadArena::new(1);
        let p = arena.push(&[1.0]);
        let events = vec![ev(EventOp::Update, 0, p, 0)];
        let _ = group_events(&events, &arena, Aggregator::Max);
    }

    #[test]
    #[should_panic(expected = "Add/Del events are only valid")]
    fn add_event_with_accumulative_panics() {
        let mut arena = PayloadArena::new(1);
        let p = arena.push(&[1.0]);
        let events = vec![ev(EventOp::Add, 0, p, 0)];
        let _ = group_events(&events, &arena, Aggregator::Sum);
    }

    #[test]
    fn empty_event_list_yields_no_groups() {
        let arena = PayloadArena::new(2);
        let g = group_events(&[], &arena, Aggregator::Max);
        assert!(g.groups.is_empty());
        assert_eq!(g.events_before, 0);
    }
}
