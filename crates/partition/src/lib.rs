#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! # ink-partition
//!
//! Partition-parallel incremental inference: [`PartitionedInkStream`] splits
//! one logical graph across N independent [`inkstream::InkStream`] engines —
//! one per partition — and keeps the merged result **bitwise identical** to a
//! single engine running the same update stream.
//!
//! The design follows the scale-out recipe of Ripple-style streaming GNN
//! systems (see PAPERS.md): vertex partitioning with boundary-vertex
//! replication and cross-partition update routing, layered on top of the
//! single-engine event pipeline instead of replacing it. The driver is
//! in-process only — no session, server or checkpoint takes it — and is
//! kept for the benchmark's `partition_bulk` workload, which measures it
//! against one engine (DESIGN.md §10).
//!
//! * [`partitioner`] — [`Partitioner`] strategies ([`HashPartitioner`],
//!   [`GreedyEdgeCut`]) that label every vertex with an owning partition.
//! * [`router`] — [`DeltaRouter`] turns one [`ink_graph::DeltaBatch`] into
//!   per-partition deltas (a cross-cut change lands on every partition that
//!   holds the edge).
//! * [`replication`] — [`ReplicationTable`] tracks, per boundary vertex, the
//!   foreign partitions holding a ghost copy, refcounted by cut edges.
//! * [`engine`] — [`PartitionedInkStream`]: the BSP driver stepping every
//!   engine layer by layer with a boundary-row exchange in between. Each
//!   step runs the engines as blocks on the caller's rayon pool.

//! ## Ownership model
//!
//! Every engine sees the **full vertex set** (global ids, full-width state
//! matrices) but only the edges incident to the vertices it owns. Vertices it
//! does not own are *ghosts*: their cached messages mirror the owner's and
//! are refreshed between layers; their aggregates and outputs are never
//! touched (the engine's ownership mask filters every event that targets
//! them). The merged output takes each vertex's row from its owner.
//!
//! ```
//! use ink_graph::{DeltaBatch, DynGraph, EdgeChange};
//! use ink_gnn::{Aggregator, Model};
//! use ink_partition::{HashPartitioner, PartitionConfig, PartitionedInkStream};
//! use ink_tensor::init;
//! use inkstream::{InkStream, UpdateConfig};
//!
//! let mut rng = init::seeded_rng(7);
//! let graph = DynGraph::undirected_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
//! let features = init::uniform(&mut rng, 6, 4, -1.0, 1.0);
//! let model = |seed: u64| {
//!     let mut mr = init::seeded_rng(seed);
//!     Model::gcn(&mut mr, &[4, 5, 3], Aggregator::Max)
//! };
//!
//! let mut single =
//!     InkStream::new(model(1), graph.clone(), features.clone(), UpdateConfig::default()).unwrap();
//! let mut parted = PartitionedInkStream::new(
//!     move || model(1),
//!     graph,
//!     features,
//!     HashPartitioner,
//!     PartitionConfig { parts: 3, ..Default::default() },
//! )
//! .unwrap();
//!
//! let delta = DeltaBatch::new(vec![EdgeChange::insert(0, 4), EdgeChange::remove(2, 3)]);
//! single.apply_delta(&delta);
//! parted.apply_delta(&delta);
//! assert_eq!(&parted.output(), single.output()); // bitwise
//! ```

pub mod engine;
pub mod partitioner;
pub mod replication;
pub mod router;

pub use engine::{PartitionConfig, PartitionSummary, PartitionedInkStream};
pub use partitioner::{GreedyEdgeCut, HashPartitioner, Partitioner};
pub use replication::ReplicationTable;
pub use router::DeltaRouter;
