//! # ink-serve — a concurrent serving layer for the InkStream engine
//!
//! Turns a [`StreamSession`](inkstream::StreamSession) into a network
//! service: a threaded TCP server speaking a small length-prefixed binary
//! protocol that multiplexes **edge-update events** and **embedding /
//! top-k queries** from many concurrent clients.
//!
//! The design keeps the engine single-threaded (it is not `Sync`) and moves
//! the concurrency to the edges:
//!
//! * updates flow through one bounded FIFO, the [`IngestQueue`], with
//!   lossless [`Backpressure`] (block / reject-with-retry-after) into the
//!   **single writer thread**, which coalesces
//!   everything pending via
//!   [`DeltaBatch::coalesce`](ink_graph::DeltaBatch::coalesce) and applies
//!   one net batch through the incremental pipeline,
//! * queries are answered by the event-loop thread straight from
//!   epoch-versioned, double-buffered
//!   [`EmbeddingSnapshot`](inkstream::snapshot::EmbeddingSnapshot)s —
//!   readers never block on an in-flight update,
//! * a `flush` request inserts a barrier and returns the epoch at which all
//!   previously admitted updates are visible, giving clients
//!   read-your-writes when they want it,
//! * [`ServerHandle::shutdown`] drains the queue, publishes the final
//!   epoch, optionally writes a checkpoint, and hands the session back,
//! * observability rides the same socket: a `metrics` request scrapes the
//!   session's [`MetricsRegistry`](ink_obs::MetricsRegistry) as Prometheus
//!   text, and a `trace_dump` request returns the span ring as Chrome
//!   `trace_event` JSON (see [`InkClient::metrics`] and
//!   [`InkClient::trace_dump`]).
//!
//! Everything is `std::net` and `std::sync::mpsc` over the workspace `mio`
//! readiness shim — no async runtime.

#![deny(missing_docs)]

pub mod client;
mod conn;
mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::{InkClient, ServerHello};
pub use protocol::{DecodeError, Request, Response, MAX_FRAME, PROTOCOL_VERSION};
pub use queue::{Admission, Backpressure, Drained, IngestQueue};
pub use server::{InkServer, ServeConfig, ServerHandle};
