#![warn(missing_docs)]
//! # ink-gnn
//!
//! A from-scratch message-passing GNN framework — the substrate the
//! InkStream reproduction runs on, since Rust has no mature GNN stack.
//!
//! The crate follows the paper's computing abstraction (its Fig. 3): a layer
//! is a *combination* function `T()`, an *aggregation* function `A()` over
//! the in-neighborhood, and an activation `act()`. It provides:
//!
//! * [`Aggregator`] — max / min (monotonic) and sum / mean (accumulative);
//! * [`Conv`] + the three benchmark layers [`GcnConv`], [`SageConv`],
//!   [`GinConv`], composed into a [`Model`];
//! * [`GraphNorm`] with exact and cached-statistics modes (paper §II-E);
//! * full-graph inference ([`full::full_inference`]) that caches the
//!   per-layer `m`/`α` checkpoints InkStream evolves;
//! * the evaluation baselines: the *PyG (+SAGE sampler)* stand-in
//!   ([`sampler`] + full inference), the *k-hop* affected-area baseline
//!   ([`khop`]), and the *Graphiler* stand-in ([`fused`]);
//! * the embedding-traffic [`cost`] model behind the paper's Table V.

pub mod aggregator;
pub mod cost;
pub mod full;
pub mod fused;
pub mod gcn;
pub mod gin;
pub mod graphnorm;
pub mod khop;
pub mod layer;
pub mod lightgcn;
pub mod model;
pub mod sage;
pub mod sampler;

pub use aggregator::Aggregator;
pub use cost::CostMeter;
pub use full::{full_inference, FullState, Neighborhood, NormStats};
pub use fused::{estimate_peak_bytes, fused_inference, OomError};
pub use gcn::GcnConv;
pub use gin::GinConv;
pub use graphnorm::{GraphNorm, GraphNormMode};
pub use khop::{khop_update, KhopOutput};
pub use layer::Conv;
pub use lightgcn::LightGcnConv;
pub use model::{LayerDef, Model};
pub use sage::SageConv;
pub use sampler::SampledGraph;
