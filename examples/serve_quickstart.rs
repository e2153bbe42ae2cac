//! Serving quickstart: start an `ink-serve` server on a loopback port, then
//! drive it — a `hello` handshake, pipelined `Update` frames streaming edge
//! churn, and a concurrent reader querying versioned snapshots. The wire rules live in `docs/PROTOCOL.md`; the capacity knobs
//! in README's "Capacity planning" section.
//!
//! Run with: `cargo run --release --example serve_quickstart`

use ink_graph::generators::erdos_renyi;
use ink_graph::EdgeChange;
use ink_gnn::{Aggregator, Model};
use ink_serve::{Backpressure, InkClient, InkServer, Request, Response, ServeConfig};
use ink_tensor::init::{seeded_rng, uniform};
use inkstream::{InkStream, StreamSession, UpdateConfig};
use rand::RngExt;

fn main() {
    let mut rng = seeded_rng(42);

    // 1. Bootstrap an engine (2-layer max-aggregation GCN) and wrap it in a
    //    session — the serving layer owns it from here.
    let n = 2_000u32;
    let graph = erdos_renyi(&mut rng, n as usize, 8_000);
    let features = uniform(&mut rng, n as usize, 32, -1.0, 1.0);
    let model = Model::gcn(&mut rng, &[32, 32, 16], Aggregator::Max);
    let engine = InkStream::new(model, graph, features, UpdateConfig::default()).unwrap();
    let session = StreamSession::new(engine);

    // 2. Serve it. Port 0 picks an ephemeral port; Block backpressure makes
    //    writers wait instead of shedding load once 64 update batches are
    //    queued.
    let config = ServeConfig {
        queue_capacity: 64,
        backpressure: Backpressure::Block,
        ..ServeConfig::default()
    };
    let handle = InkServer::bind("127.0.0.1:0", session, config).expect("bind");
    let addr = handle.local_addr();
    println!("serving on {addr}");

    // 3. An update client: handshake first, then stream edge churn as
    //    pipelined Update frames — several frames in flight, no round-trip
    //    wait between them. A flush barrier at the end returns the epoch at
    //    which everything it sent is visible.
    let updater = std::thread::spawn(move || {
        let mut rng = seeded_rng(7);
        let mut client = InkClient::connect(addr).unwrap();
        let hello = client.hello().unwrap();
        println!("updater: protocol v{}, |V| = {}", hello.version, hello.num_vertices);
        const PIPELINE: usize = 16;
        for _ in 0..80 {
            // One frame = one update of 50 edge ops.
            let changes = (0..50)
                .map(|i| {
                    let src = rng.random_range(0..n);
                    let dst = (src + 1 + rng.random_range(0..n - 1)) % n;
                    if i % 2 == 0 {
                        EdgeChange::insert(src, dst)
                    } else {
                        EdgeChange::remove(src, dst)
                    }
                })
                .collect();
            client.queue(&Request::Update(changes)).unwrap();
            // Keep PIPELINE frames in flight; collect the oldest response
            // once the window is full.
            if client.in_flight() == PIPELINE {
                match client.recv().unwrap() {
                    Response::Ack { .. } => {}
                    other => panic!("expected an Ack, got {other:?}"),
                }
            }
        }
        while client.in_flight() > 0 {
            client.recv().unwrap();
        }
        let epoch = client.flush().unwrap();
        println!("updater: 80 pipelined frames (4000 edge ops) visible at epoch {epoch}");
    });

    // 4. A query client reads embeddings and top-k neighbours concurrently —
    //    snapshot reads never block on in-flight updates. The three reads
    //    are pipelined: one round trip for all of them.
    let querier = std::thread::spawn(move || {
        let mut client = InkClient::connect(addr).unwrap();
        for v in [0u32, 17, 42] {
            client.queue(&Request::Embedding(v)).unwrap();
        }
        while client.in_flight() > 0 {
            match client.recv().unwrap() {
                Response::Embedding { epoch, values } => println!(
                    "querier: embedding @ epoch {epoch}: |h| = {:.3}",
                    values.iter().map(|x| x * x).sum::<f32>().sqrt()
                ),
                other => panic!("unexpected response {other:?}"),
            }
        }
        let (epoch, similar) = client.top_k(0, 3).unwrap();
        println!(
            "querier: vertex 0 @ epoch {epoch}: nearest = {:?}",
            similar.iter().map(|&(u, _)| u).collect::<Vec<_>>(),
        );
    });

    updater.join().unwrap();
    querier.join().unwrap();

    // 5. Graceful shutdown drains the queue and returns the session. Its
    //    registry holds the serving counters next to its own, read here the
    //    way a `Metrics` scrape reads them. Coalescing shows up: received edge
    //    ops collapse into far fewer applied events.
    let session = handle.shutdown().expect("graceful shutdown");
    let scrape = ink_obs::parse::parse_prometheus(&session.metrics().render_prometheus())
        .expect("the registry renders valid Prometheus text");
    let stat = |name: &str| {
        let mut samples = scrape.iter().flat_map(|f| &f.samples);
        samples.find(|s| s.name == name).unwrap_or_else(|| panic!("no {name}")).value
    };
    println!(
        "shutdown: {} epochs, {} changes coalesced to {}, {} queries (mean {:.1} µs)",
        stat("ink_serve_epochs"),
        stat("ink_serve_events_received_total"),
        stat("ink_serve_events_applied_total"),
        stat("ink_serve_queries_total"),
        stat("ink_serve_query_latency_ns_sum") / stat("ink_serve_queries_total").max(1.0) / 1e3,
    );
    println!("session is back: {} ingests recorded", stat("ink_session_ingests_total"));
}
