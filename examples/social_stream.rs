//! Social-network stream: a producer thread emits timestamped follow /
//! unfollow events over a preferential-attachment graph; a consumer thread
//! keeps GraphSAGE embeddings fresh with InkStream and reports per-batch
//! latency percentiles.
//!
//! This is the paper's motivating scenario — real-time inference on a
//! C-TDG-style event stream — wired through a bounded channel.
//!
//! Run with: `cargo run --release --example social_stream`

use ink_graph::generators::barabasi_albert;
use ink_graph::temporal::TemporalGraph;
use ink_gnn::{Aggregator, Model};
use ink_tensor::init::{seeded_rng, uniform};
use inkstream::{InkStream, UpdateConfig};
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let mut rng = seeded_rng(2024);
    let n = 20_000;

    // A follower graph with hubs (influencers) and a timeline of follow /
    // unfollow events in T-GCN style.
    let base = barabasi_albert(&mut rng, n, 4);
    let timeline = TemporalGraph::from_graph(&base, &mut rng, 0.3);
    let t0 = 0.5; // bootstrap on the mid-timeline snapshot
    let graph0 = timeline.snapshot_at(t0);
    println!(
        "social graph: {} users, {} follow edges at t={t0}",
        graph0.num_vertices(),
        graph0.num_edges()
    );

    let features = uniform(&mut rng, n, 64, -1.0, 1.0);
    let model = Model::sage(&mut rng, &[64, 32, 16], Aggregator::Max);
    let mut engine =
        InkStream::new(model, graph0, features, UpdateConfig::default()).expect("valid model");

    // Producer: walk the timeline in small strides and ship each stride's
    // delta through a bounded channel.
    let (tx, rx) = sync_channel(8);
    let strides = 40usize;
    let producer = std::thread::spawn(move || {
        for i in 0..strides {
            let a = t0 + (1.0 - t0) * i as f64 / strides as f64;
            let b = t0 + (1.0 - t0) * (i + 1) as f64 / strides as f64;
            // Ship each stride as mini-batches, the granularity a real-time
            // consumer would refresh at.
            let delta = timeline.delta_between(a, b);
            for chunk in delta.changes().chunks(100) {
                if tx.send(ink_graph::DeltaBatch::new(chunk.to_vec())).is_err() {
                    return;
                }
            }
        }
    });

    // Consumer: apply every batch, tracking latency.
    let mut latencies = Vec::new();
    let mut total_changes = 0usize;
    let mut total_affected = 0u64;
    for delta in rx.iter() {
        total_changes += delta.len();
        let t = Instant::now();
        let report = engine.apply_delta(&delta);
        latencies.push(t.elapsed());
        total_affected += report.real_affected;
    }
    producer.join().unwrap();

    latencies.sort_unstable();
    println!(
        "processed {} batches / {} follow|unfollow events",
        latencies.len(),
        total_changes
    );
    println!(
        "update latency p50 {:?}  p90 {:?}  p99 {:?}  max {:?}",
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.90),
        percentile(&latencies, 0.99),
        latencies.last().copied().unwrap_or_default(),
    );
    println!(
        "avg real affected nodes per batch: {:.1} of {n}",
        total_affected as f64 / latencies.len().max(1) as f64
    );

    // End-state check: the incrementally maintained embeddings must equal a
    // from-scratch inference on the final graph.
    assert_eq!(engine.output(), &engine.recompute_reference());
    println!("final embeddings verified bitwise against full recompute");
}
