//! Real-time recommendation embeddings with LightGCN-style propagation —
//! the topology-only weighted sum the paper's expressiveness section names.
//!
//! Users and items share one vertex space; interactions are edges arriving
//! in a stream. Each vertex carries a trained-elsewhere base embedding, and
//! k rounds of symmetric `1/√(d_v·d_u)` propagation produce the serving
//! embeddings. InkStream keeps those fresh per interaction batch — including
//! the subtle part: a popular item gaining interactions rescales its weight
//! toward *all* of its existing users.
//!
//! Run with: `cargo run --release --example recommendation`

use ink_graph::{DeltaBatch, DynGraph, EdgeChange, VertexId};
use ink_gnn::Model;
use ink_tensor::init::{seeded_rng, uniform};
use ink_tensor::ops::dot;
use inkstream::{DriftAction, DriftPolicy, InkStream, SessionConfig, StreamSession, UpdateConfig};
use rand::{RngExt, SeedableRng};

const USERS: usize = 4_000;
const ITEMS: usize = 1_000;
const DIM: usize = 32;

fn item_id(i: usize) -> VertexId {
    (USERS + i) as VertexId
}

/// Top-k items for a user by embedding dot product.
fn recommend(engine: &InkStream, user: VertexId, k: usize) -> Vec<(VertexId, f32)> {
    let h_user = engine.output().row(user as usize);
    let mut scored: Vec<(VertexId, f32)> = (0..ITEMS)
        .map(|i| {
            let v = item_id(i);
            (v, dot(h_user, engine.output().row(v as usize)))
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    scored.truncate(k);
    scored
}

fn main() {
    let mut rng = seeded_rng(99);
    let n = USERS + ITEMS;

    // Bootstrap interaction graph: every user has touched a few items, with
    // popularity skew (low item ids are "hits").
    let mut g = DynGraph::new(n, false);
    for u in 0..USERS {
        let interactions = rng.random_range(2..8);
        for _ in 0..interactions {
            let i = (rng.random_range(0.0f64..1.0).powi(2) * ITEMS as f64) as usize;
            g.insert_edge(u as VertexId, item_id(i.min(ITEMS - 1)));
        }
    }
    println!("interaction graph: {USERS} users, {ITEMS} items, {} interactions", g.num_edges());

    // Base embeddings (stand-in for trained factors) + 2 propagation rounds.
    let base = uniform(&mut rng, n, DIM, -0.5, 0.5);
    let model = Model::lightgcn(DIM, 2);
    let engine = InkStream::new(model, g, base, UpdateConfig::default()).expect("valid model");
    let mut session = StreamSession::with_config(
        engine,
        SessionConfig {
            max_batch: 64,
            // Full-audit every 10 ingests; self-heal instead of failing.
            drift: DriftPolicy::full(10, 1e-3).with_action(DriftAction::Resync),
        },
    );

    let probe_user: VertexId = 17;
    let before = recommend(session.engine(), probe_user, 5);
    println!("\nuser {probe_user} top-5 before the stream:");
    for (item, score) in &before {
        println!("  item {:4}  score {score:.4}", item - USERS as VertexId);
    }

    // Stream interaction batches; the probe user discovers a cluster of
    // niche items (and so do a handful of like-minded users, giving the
    // items a neighborhood signal to propagate).
    let niche_items: Vec<VertexId> = (1..=3).map(|j| item_id(ITEMS - j)).collect();
    let mut drng = rand::rngs::StdRng::seed_from_u64(7);
    for round in 1..=20 {
        let mut changes = Vec::new();
        for _ in 0..40 {
            let u = drng.random_range(0..USERS) as VertexId;
            let i = item_id(drng.random_range(0..ITEMS));
            if !session.engine().graph().has_edge(u, i) {
                changes.push(EdgeChange::insert(u, i));
            }
        }
        if round <= 3 {
            let item = niche_items[round - 1];
            if !session.engine().graph().has_edge(probe_user, item) {
                changes.push(EdgeChange::insert(probe_user, item));
            }
            // A few like-minded users interact with the same niche cluster.
            for j in 0..5 {
                let buddy = (500 + 37 * j) as VertexId;
                if !session.engine().graph().has_edge(buddy, item) {
                    changes.push(EdgeChange::insert(buddy, item));
                }
            }
        }
        let report = session.ingest(&DeltaBatch::new(changes)).expect("no drift");
        if round % 5 == 0 {
            println!(
                "round {round:2}: applied {:3} interactions in {:?} ({} embeddings refreshed)",
                report.changes_applied, report.elapsed, report.output_changed
            );
        }
    }

    let after = recommend(session.engine(), probe_user, 5);
    println!("\nuser {probe_user} top-5 after the stream:");
    for (item, score) in &after {
        let marker = if niche_items.contains(item) { "  ← newly discovered niche item" } else { "" };
        println!("  item {:4}  score {score:.4}{marker}", item - USERS as VertexId);
    }

    // The session's statistics are its metrics registry, read as a scrape.
    let scrape = ink_obs::parse::parse_prometheus(&session.metrics().render_prometheus())
        .expect("the registry renders valid Prometheus text");
    let stat = |name: &str| {
        let mut samples = scrape.iter().flat_map(|f| &f.samples);
        samples.find(|s| s.name == name).unwrap_or_else(|| panic!("no {name}")).value
    };
    let batches = stat("ink_session_batches_total").max(1.0);
    println!(
        "\nsession: {} ingests / {} interactions | mean batch latency {:.1} µs",
        stat("ink_session_ingests_total"),
        stat("ink_session_changes_total"),
        stat("ink_session_batch_latency_ns_sum") / batches / 1e3,
    );
    println!(
        "avg embeddings touched per batch: {:.1} of {n} (the rest were never visited)",
        stat("ink_session_affected_total") / batches
    );

    // Final consistency proof.
    let diff = session
        .engine()
        .output()
        .max_abs_diff(&session.engine().recompute_reference());
    println!("final max deviation vs full recompute: {diff:.2e}");
    assert!(diff < 1e-3);
}
