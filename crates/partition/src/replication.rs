//! Boundary-vertex replication bookkeeping.
//!
//! A vertex is *replicated* onto every foreign partition that needs its
//! cached messages to aggregate — i.e. every partition owning the other end
//! of one of its cut edges. Each `(vertex, partition)` mirror is refcounted
//! by the cut edges inducing it, so edge churn can create and drop mirrors
//! incrementally: the count rises to 1 → the mirror needs a message-row
//! snapshot from the owner; the count falls to 0 → the mirror's rows go
//! stale harmlessly (its subgraph no longer references the vertex).

use ink_graph::{DynGraph, FxHashMap, VertexId};

/// Refcounted mirror registry: which foreign partitions hold a ghost copy of
/// which vertex, and how many cut edges keep each copy alive.
#[derive(Clone, Debug, Default)]
pub struct ReplicationTable {
    /// `counts[v][p]` = cut edges forcing `v` to be mirrored on `p`.
    counts: FxHashMap<VertexId, FxHashMap<u32, u32>>,
}

impl ReplicationTable {
    /// An empty table (no boundary vertices).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the table for an existing graph and ownership assignment: one
    /// refcount per cut edge. For a directed graph only the source mirrors
    /// (onto the target's owner — the aggregating side); for an undirected
    /// graph both endpoints do.
    pub fn build(g: &DynGraph, assignment: &[u32]) -> Self {
        let mut t = Self::new();
        for (u, v) in g.edges() {
            let (pu, pv) = (assignment[u as usize], assignment[v as usize]);
            if pu != pv {
                t.add(u, pv);
                if !g.is_directed() {
                    t.add(v, pu);
                }
            }
        }
        t
    }

    /// Adds one cut-edge reference for `v` mirrored on `part`. Returns true
    /// when this created the mirror (count 0 → 1), in which case the caller
    /// must snapshot the owner's message rows onto `part` before the next
    /// round.
    pub fn add(&mut self, v: VertexId, part: u32) -> bool {
        let c = self.counts.entry(v).or_default().entry(part).or_insert(0);
        *c += 1;
        *c == 1
    }

    /// Drops one cut-edge reference for `v` on `part`. Returns true when the
    /// mirror disappeared (count 1 → 0).
    ///
    /// # Panics
    ///
    /// When the mirror was not registered — a refcount underflow means the
    /// driver's routing and the table disagree about the cut.
    pub fn remove(&mut self, v: VertexId, part: u32) -> bool {
        let per_v = self.counts.get_mut(&v).expect("removing unregistered mirror");
        let c = per_v.get_mut(&part).expect("removing unregistered mirror");
        *c -= 1;
        if *c == 0 {
            per_v.remove(&part);
            if per_v.is_empty() {
                self.counts.remove(&v);
            }
            true
        } else {
            false
        }
    }

    /// The foreign partitions currently mirroring `v`, ascending (a
    /// deterministic order so exchanges replay identically).
    pub fn mirrors_of(&self, v: VertexId) -> Vec<u32> {
        let mut parts: Vec<u32> =
            self.counts.get(&v).map(|m| m.keys().copied().collect()).unwrap_or_default();
        parts.sort_unstable();
        parts
    }

    /// Total `(vertex, partition)` mirror pairs.
    pub fn total_mirrors(&self) -> usize {
        self.counts.values().map(FxHashMap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refcount_lifecycle() {
        let mut t = ReplicationTable::new();
        assert!(t.add(3, 1)); // new mirror
        assert!(!t.add(3, 1)); // second cut edge, same mirror
        assert_eq!(t.mirrors_of(3), vec![1]);
        assert!(!t.remove(3, 1)); // still one reference
        assert!(t.remove(3, 1)); // dropped
        assert!(t.mirrors_of(3).is_empty());
        assert_eq!(t.total_mirrors(), 0);
    }

    #[test]
    #[should_panic(expected = "unregistered")]
    fn underflow_panics() {
        ReplicationTable::new().remove(1, 0);
    }

    #[test]
    fn build_undirected_mirrors_both_sides() {
        let g = DynGraph::undirected_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let t = ReplicationTable::build(&g, &[0, 0, 1, 1]);
        assert_eq!(t.mirrors_of(1), vec![1]);
        assert_eq!(t.mirrors_of(2), vec![0]);
        assert!(t.mirrors_of(0).is_empty());
        assert_eq!(t.total_mirrors(), 2);
    }

    #[test]
    fn build_directed_mirrors_source_onto_target_owner() {
        let g = DynGraph::directed_from_edges(4, &[(0, 2), (2, 3)]);
        let t = ReplicationTable::build(&g, &[0, 0, 1, 1]);
        assert_eq!(t.mirrors_of(0), vec![1]);
        assert!(t.mirrors_of(2).is_empty()); // 2→3 stays inside partition 1
        assert_eq!(t.total_mirrors(), 1);
    }

    #[test]
    fn mirrors_are_sorted() {
        let mut t = ReplicationTable::new();
        t.add(7, 5);
        t.add(7, 1);
        t.add(7, 3);
        assert_eq!(t.mirrors_of(7), vec![1, 3, 5]);
    }
}
