#![warn(missing_docs)]
//! # ink-graph
//!
//! Dynamic graph substrate for the InkStream reproduction.
//!
//! The paper operates on discrete-time dynamic graphs: a large, mostly-stable
//! graph plus a small batch of edge insertions/removals (ΔG) between two
//! timestamps. This crate provides:
//!
//! * [`DynGraph`] — a mutable adjacency structure with O(log d) edge
//!   insert/remove and both in- and out-neighbor views (message passing
//!   aggregates *in*-neighbors; effect propagation follows *out*-edges).
//! * [`Csr`] — an immutable compressed-sparse-row snapshot for the full-graph
//!   baselines, where gather bandwidth dominates.
//! * [`DeltaBatch`] — a batch of edge changes with apply/revert and random
//!   scenario generation (evenly split insert/remove, as in the paper).
//! * [`bfs`] — the *theoretical affected area*: the k-hop forward cone
//!   around a delta's seeds.
//! * [`generators`] — Erdős–Rényi, Barabási–Albert, R-MAT and
//!   planted-partition generators used to synthesise dataset stand-ins.
//! * [`datasets`] — scaled stand-ins for the paper's six benchmark graphs.
//! * [`temporal`] — T-GCN-style random edge creation/deletion timelines.
//! * [`hash`] — an FxHash-style fast hasher used for event grouping.
//! * [`prefetch()`] and [`prefetch_lines`] — cache hints for loops that
//!   chase rows at random addresses; the crate's one `unsafe` block.

pub mod bfs;
pub mod csr;
pub mod datasets;
pub mod delta;
pub mod dynamic;
pub mod generators;
pub mod hash;
pub mod io;
pub mod prefetch;
pub mod stats;
pub mod temporal;

pub use csr::Csr;
pub use delta::{DeltaBatch, EdgeChange, EdgeOp};
pub use dynamic::DynGraph;
pub use hash::{FxHashMap, FxHashSet};
pub use prefetch::{prefetch, prefetch_lines};

/// Vertex identifier. Graphs in this repo stay under 2^32 vertices.
pub type VertexId = u32;
