//! Cross-partition delta routing.
//!
//! A change to edge `(a, b)` must reach every partition whose subgraph holds
//! that edge: the owner of `b` for a directed graph (partition subgraphs
//! keep the in-edges of owned vertices), and the owners of both endpoints
//! for an undirected one. The router preserves the relative order of the
//! changes inside each partition's delta, which is what makes routing
//! commute with [`DeltaBatch::coalesce`] (last-op-wins semantics survive the
//! split — see `tests/partition_routing.rs`).

use ink_graph::{DeltaBatch, EdgeChange, VertexId};
use std::sync::Arc;

/// Routes [`DeltaBatch`]es onto per-partition deltas according to a vertex
/// ownership assignment. The assignment lives behind an [`Arc`], so a clone
/// shares it for free; [`DeltaRouter::push_vertex`] copies-on-write.
#[derive(Clone, Debug)]
pub struct DeltaRouter {
    assignment: Arc<Vec<u32>>,
    parts: usize,
    directed: bool,
}

impl DeltaRouter {
    /// A router over `parts` partitions for the given per-vertex owners.
    ///
    /// # Panics
    ///
    /// When `parts` is 0 or a label is out of range.
    pub fn new(assignment: Vec<u32>, parts: usize, directed: bool) -> Self {
        assert!(parts > 0, "need at least one partition");
        assert!(
            assignment.iter().all(|&p| (p as usize) < parts),
            "partition labels must be < parts"
        );
        Self { assignment: Arc::new(assignment), parts, directed }
    }

    /// The partition owning vertex `v`.
    ///
    /// # Panics
    ///
    /// When `v` is not covered by the assignment.
    pub fn owner(&self, v: VertexId) -> u32 {
        self.assignment[v as usize]
    }

    /// Number of partitions routed to.
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// The per-vertex owner labels.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Extends the assignment with the owner of a newly added vertex (ids
    /// are dense, so the new vertex is `assignment.len()`).
    pub fn push_vertex(&mut self, part: u32) {
        assert!((part as usize) < self.parts, "partition label out of range");
        Arc::make_mut(&mut self.assignment).push(part);
    }

    /// The partitions a single change lands on: the second slot is occupied
    /// only for an undirected cross-cut change (and differs from the first).
    pub fn route_change(&self, c: &EdgeChange) -> (u32, Option<u32>) {
        let (ps, pd) = (self.owner(c.src), self.owner(c.dst));
        if self.directed {
            (pd, None)
        } else if ps == pd {
            (ps, None)
        } else {
            (ps, Some(pd))
        }
    }

    /// Splits `delta` into one delta per partition, preserving relative
    /// change order within each. An undirected cross-cut change appears in
    /// both endpoint owners' deltas; every other change appears exactly
    /// once.
    pub fn route(&self, delta: &DeltaBatch) -> Vec<DeltaBatch> {
        let mut out: Vec<Vec<EdgeChange>> = vec![Vec::new(); self.parts];
        for c in delta.changes() {
            let (ps, pd) = (self.owner(c.src), self.owner(c.dst));
            if self.directed {
                out[pd as usize].push(*c);
            } else {
                out[ps as usize].push(*c);
                if ps != pd {
                    out[pd as usize].push(*c);
                }
            }
        }
        out.into_iter().map(DeltaBatch::new).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ink_graph::EdgeOp;

    fn change(src: u32, dst: u32, op: EdgeOp) -> EdgeChange {
        match op {
            EdgeOp::Insert => EdgeChange::insert(src, dst),
            EdgeOp::Remove => EdgeChange::remove(src, dst),
        }
    }

    #[test]
    fn directed_routes_to_dst_owner_only() {
        let r = DeltaRouter::new(vec![0, 1, 1], 2, true);
        let d = DeltaBatch::new(vec![change(0, 1, EdgeOp::Insert), change(1, 0, EdgeOp::Insert)]);
        let routed = r.route(&d);
        assert_eq!(routed[0].changes(), &[change(1, 0, EdgeOp::Insert)]);
        assert_eq!(routed[1].changes(), &[change(0, 1, EdgeOp::Insert)]);
    }

    #[test]
    fn undirected_cut_change_lands_on_both_owners() {
        let r = DeltaRouter::new(vec![0, 1, 1], 2, false);
        let d = DeltaBatch::new(vec![change(0, 1, EdgeOp::Insert), change(1, 2, EdgeOp::Remove)]);
        let routed = r.route(&d);
        assert_eq!(routed[0].changes(), &[change(0, 1, EdgeOp::Insert)]);
        assert_eq!(
            routed[1].changes(),
            &[change(0, 1, EdgeOp::Insert), change(1, 2, EdgeOp::Remove)]
        );
    }

    #[test]
    fn routing_preserves_relative_order() {
        let r = DeltaRouter::new(vec![0, 0, 1], 2, false);
        let d = DeltaBatch::new(vec![
            change(0, 1, EdgeOp::Insert),
            change(0, 2, EdgeOp::Insert),
            change(0, 1, EdgeOp::Remove),
        ]);
        let routed = r.route(&d);
        assert_eq!(
            routed[0].changes(),
            &[
                change(0, 1, EdgeOp::Insert),
                change(0, 2, EdgeOp::Insert),
                change(0, 1, EdgeOp::Remove)
            ]
        );
        assert_eq!(routed[1].changes(), &[change(0, 2, EdgeOp::Insert)]);
    }

    #[test]
    fn push_vertex_extends_ownership() {
        let mut r = DeltaRouter::new(vec![0], 2, false);
        r.push_vertex(1);
        assert_eq!(r.owner(1), 1);
    }
}
