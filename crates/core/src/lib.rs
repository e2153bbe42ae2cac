#![warn(missing_docs)]
//! # inkstream
//!
//! A Rust reproduction of **InkStream: Instantaneous GNN Inference on
//! Dynamic Graphs via Incremental Update** (Wu, Li, Mitra — IPDPS 2025).
//!
//! InkStream takes the result of an initial full-graph inference and evolves
//! it through batches of edge/vertex changes, following the paper's design
//! principle: *"Propagate only when necessary. Fetch only the necessary."*
//!
//! * **Inter-layer** ([`engine`]): an event-based computing model prunes the
//!   effect-propagation tree at *resilient* nodes — nodes that could have
//!   been affected but turn out uninfluenced (monotonic aggregation only).
//! * **Intra-layer** ([`monotonic`], [`accumulative`]): node embeddings
//!   evolve incrementally from the previous timestamp's cached messages and
//!   aggregated neighborhoods instead of refetching whole neighborhoods.
//!
//! ## Quick start
//!
//! ```
//! use ink_graph::{DeltaBatch, DynGraph, EdgeChange};
//! use ink_gnn::{Aggregator, Model};
//! use ink_tensor::{init, Matrix};
//! use inkstream::{InkStream, UpdateConfig};
//!
//! let mut rng = init::seeded_rng(7);
//! let graph = DynGraph::undirected_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
//! let features = init::uniform(&mut rng, 5, 8, -1.0, 1.0);
//! let model = Model::gcn(&mut rng, &[8, 16, 4], Aggregator::Max);
//!
//! // Bootstrap with one full inference, then update incrementally.
//! let mut engine = InkStream::new(model, graph, features, UpdateConfig::default()).unwrap();
//! let report = engine.apply_delta(&DeltaBatch::new(vec![EdgeChange::insert(0, 3)]));
//! assert_eq!(engine.output(), &engine.recompute_reference()); // bitwise, for max
//! assert!(report.elapsed.as_secs() < 1);
//! ```

pub mod accumulative;
pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod error;
pub mod event;
pub mod grouping;
pub mod monotonic;
mod phases;
mod pipeline;
pub mod session;
pub mod snapshot;
pub mod stats;

pub use config::UpdateConfig;
pub use engine::{InkStream, ResyncReport};
pub use error::InkError;
pub use event::{Event, EventOp, PayloadArena};
pub use grouping::{group_events, Group};
pub use monotonic::Condition;
pub use session::{
    AuditKind, DriftAction, DriftError, DriftPolicy, IngestReport, SessionConfig, StreamSession,
    DEFAULT_TRACE_CAPACITY,
};
pub use snapshot::{EmbeddingSnapshot, PublishReport, SnapshotPublisher, SnapshotReader};
pub use stats::{ConditionCounts, LayerStats, PhaseTimes, UpdateReport};
