//! Loopback integration test: a server on an ephemeral port, four concurrent
//! clients mixing updates and queries, and every response checked bitwise
//! against a single-threaded reference replay.
//!
//! The engine runs max aggregation, where incremental outputs are bitwise
//! equal to full recomputation — so after the updater's `i`-th
//! update+flush, epoch `i + 1` must equal the reference engine after `i + 1`
//! raw batches, no matter how the server coalesced or partitioned the work.
//! Query clients race the writer the whole time and verify whatever epoch
//! they observe against the precomputed per-epoch outputs. Shutdown must
//! leave a checkpoint that loads back into a bitwise-identical engine.

use ink_gnn::{Aggregator, Model};
use ink_graph::generators::erdos_renyi;
use ink_graph::{DeltaBatch, DynGraph, EdgeChange};
use ink_partition::{HashPartitioner, PartitionConfig, PartitionedInkStream};
use ink_serve::protocol::{read_frame, write_frame, Request, Response};
use ink_serve::{Backpressure, InkClient, InkServer, ServeConfig};
use ink_tensor::init::{seeded_rng, sparse_power_law};
use ink_tensor::Matrix;
use inkstream::{InkStream, SessionConfig, StreamSession, UpdateConfig};
use rand::RngExt;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const N: usize = 60;
const EDGES: usize = 150;
const FEAT_DIM: usize = 6;
const BATCHES: usize = 24;
const BATCH: usize = 8;
const MODEL_SEED: u64 = 11;
const GRAPH_SEED: u64 = 22;
const FEAT_SEED: u64 = 33;

fn model() -> Model {
    Model::gcn(&mut seeded_rng(MODEL_SEED), &[FEAT_DIM, 8, 4], Aggregator::Max)
}

fn graph() -> DynGraph {
    erdos_renyi(&mut seeded_rng(GRAPH_SEED), N, EDGES)
}

fn engine() -> InkStream {
    let feats = sparse_power_law(&mut seeded_rng(FEAT_SEED), N, FEAT_DIM, 0.2, 0.9);
    InkStream::new(model(), graph(), feats, UpdateConfig::default()).unwrap()
}

/// The same model, graph and features as `source`, split three ways behind
/// the one session layer (and the one `InkServer::bind`).
fn parted_session(source: &InkStream) -> StreamSession<PartitionedInkStream> {
    PartitionedInkStream::new(
        model,
        source.graph().clone(),
        source.features().clone(),
        HashPartitioner,
        PartitionConfig { parts: 3, ..Default::default() },
    )
    .expect("partitioned bootstrap")
    .into_session(SessionConfig::default())
}

/// The deterministic update stream both the server and the reference see.
fn update_batches() -> Vec<Vec<EdgeChange>> {
    let mut rng = seeded_rng(0xB47C);
    (0..BATCHES)
        .map(|_| {
            (0..BATCH)
                .map(|i| {
                    let src = rng.random_range(0..N as u32);
                    let mut dst = rng.random_range(0..N as u32);
                    if dst == src {
                        dst = (dst + 1) % N as u32;
                    }
                    if i % 3 == 0 {
                        EdgeChange::remove(src, dst)
                    } else {
                        EdgeChange::insert(src, dst)
                    }
                })
                .collect()
        })
        .collect()
}

/// Reference outputs per epoch: index 0 is the bootstrap, index `i + 1` the
/// state after raw batches `0..=i` applied by one thread.
fn reference_outputs(batches: &[Vec<EdgeChange>]) -> Vec<Matrix> {
    let mut reference = engine();
    let mut outputs = vec![reference.output().clone()];
    for batch in batches {
        reference.apply_delta(&DeltaBatch::new(batch.clone()));
        outputs.push(reference.output().clone());
    }
    outputs
}

#[test]
fn four_clients_match_single_threaded_reference_bitwise() {
    let batches = update_batches();
    let expected = Arc::new(reference_outputs(&batches));

    let dir = std::env::temp_dir().join(format!("ink-serve-loopback-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("shutdown.ckpt");

    let handle = InkServer::bind(
        "127.0.0.1:0",
        StreamSession::new(engine()),
        ServeConfig {
            queue_capacity: 8,
            backpressure: Backpressure::Block,
            checkpoint_path: Some(ckpt.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("bind on ephemeral port");
    let addr = handle.local_addr();
    let done = Arc::new(AtomicBool::new(false));

    // Client 1 of 4: the updater, which also queries between updates.
    let updater = {
        let expected = expected.clone();
        let batches = batches.clone();
        std::thread::spawn(move || {
            let mut client = InkClient::connect(addr).unwrap();
            for (i, batch) in batches.iter().enumerate() {
                client.update(batch.clone()).unwrap().expect("block mode never rejects");
                let epoch = client.flush().unwrap();
                assert_eq!(epoch as usize, i + 1, "one epoch per flushed update");
                let v = (i % N) as u32;
                let (e, values) = client.embedding(v).unwrap();
                assert_eq!(e as usize, i + 1, "no other updater is running");
                assert_eq!(values, expected[e as usize].row(v as usize), "bitwise at epoch {e}");
            }
        })
    };

    // Clients 2-4: queriers racing the writer, checking whatever epoch the
    // snapshot hands them against the reference replay.
    let queriers: Vec<_> = (0..3)
        .map(|q| {
            let expected = expected.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut rng = seeded_rng(0x9E + q as u64);
                let mut client = InkClient::connect(addr).unwrap();
                let mut checked = 0u32;
                while !done.load(Ordering::Relaxed) || checked < 50 {
                    let v = rng.random_range(0..N as u32);
                    let (e, values) = client.embedding(v).unwrap();
                    let want = &expected[e as usize];
                    assert_eq!(values, want.row(v as usize), "bitwise at epoch {e}");
                    if checked.is_multiple_of(8) {
                        let (te, items) = client.top_k(v, 5).unwrap();
                        assert_eq!(items.len(), 5);
                        let want = &expected[te as usize];
                        for w in items.windows(2) {
                            assert!(w[0].1 >= w[1].1, "top-k must be sorted descending");
                        }
                        for &(u, score) in &items {
                            let dot: f32 = want
                                .row(v as usize)
                                .iter()
                                .zip(want.row(u as usize))
                                .map(|(a, b)| a * b)
                                .sum();
                            assert_eq!(score, dot, "top-k score is the snapshot dot product");
                        }
                    }
                    checked += 1;
                }
            })
        })
        .collect();

    updater.join().expect("updater thread");
    done.store(true, Ordering::Relaxed);
    for q in queriers {
        q.join().expect("querier thread");
    }

    // Stats must be valid JSON-ish and reflect the workload.
    let mut client = InkClient::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.contains("\"epochs\": 24"), "24 update epochs in {stats}");
    assert!(stats.contains("\"updates_enqueued\": 24"), "all updates admitted in {stats}");
    drop(client);

    let (session, summary) = handle.shutdown().expect("graceful shutdown");
    assert_eq!(summary.serve.epochs, BATCHES as u64);
    assert_eq!(summary.serve.updates_rejected, 0);
    assert_eq!(summary.serve.flushes, BATCHES as u64);
    assert!(summary.serve.queries > 0);
    assert_eq!(
        session.engine().output().as_slice(),
        expected.last().unwrap().as_slice(),
        "final server state equals the reference replay bitwise"
    );

    // The shutdown checkpoint loads back into a bitwise-identical engine.
    let mut f = std::fs::File::open(&ckpt).expect("shutdown wrote a checkpoint");
    let restored =
        inkstream::checkpoint::load(model(), &mut f, UpdateConfig::default(), None).unwrap();
    assert_eq!(restored.output().as_slice(), expected.last().unwrap().as_slice());
    std::fs::remove_dir_all(&dir).ok();
}

/// Round-trip for the observability requests: a `metrics` scrape must parse
/// as valid Prometheus text exposition (with the histogram invariants the
/// parser enforces — cumulative buckets ending in `+Inf`), and a
/// `trace_dump` must validate as Chrome `trace_event` JSON. Both documents
/// must reflect the workload that just ran.
#[test]
fn metrics_and_trace_dump_round_trip_over_the_wire() {
    let handle =
        InkServer::bind("127.0.0.1:0", StreamSession::new(engine()), ServeConfig::default())
            .unwrap();
    let mut client = InkClient::connect(handle.local_addr()).unwrap();
    client.update(vec![EdgeChange::insert(0, 1)]).unwrap().unwrap();
    assert_eq!(client.flush().unwrap(), 1);
    client.embedding(0).unwrap();
    client.top_k(0, 3).unwrap();

    // Prometheus scrape: parser round-trip + workload visibility. One
    // document covers the session, the drift auditor and the serving layer.
    let text = client.metrics().unwrap();
    let families = ink_obs::parse::parse_prometheus(&text).expect("scrape parses as Prometheus");
    let find = |name: &str| {
        families.iter().find(|f| f.name == name).unwrap_or_else(|| panic!("missing {name}"))
    };
    assert_eq!(find("ink_session_ingests_total").samples[0].value, 1.0);
    assert_eq!(find("ink_serve_updates_enqueued_total").samples[0].value, 1.0);
    assert_eq!(find("ink_serve_epochs").samples[0].value, 1.0);
    let latency = find("ink_serve_query_latency_ns");
    assert_eq!(latency.kind, "histogram");
    let count =
        latency.samples.iter().find(|s| s.name == "ink_serve_query_latency_ns_count").unwrap();
    assert_eq!(count.value, 2.0, "embedding + top_k");

    // Chrome trace dump: schema-validates and contains both the serve spans
    // and the synthesized pipeline-phase spans.
    let json = client.trace_dump().unwrap();
    let events = ink_obs::parse::validate_chrome_trace(&json).expect("valid Chrome trace JSON");
    assert!(events > 0, "trace ring captured spans");
    for name in ["\"epoch\"", "\"embedding\"", "\"generate\"", "\"apply\""] {
        assert!(json.contains(name), "trace dump missing {name}");
    }

    handle.shutdown().unwrap();
}

#[test]
fn invalid_updates_are_refused_not_applied() {
    let handle =
        InkServer::bind("127.0.0.1:0", StreamSession::new(engine()), ServeConfig::default())
            .unwrap();
    let mut client = InkClient::connect(handle.local_addr()).unwrap();

    // Out-of-range endpoint and self-loop both come back as protocol errors
    // (the graph would panic on them), leaving the connection usable.
    let err = client.update(vec![EdgeChange::insert(0, N as u32)]).unwrap_err();
    assert!(err.to_string().contains("invalid edge"), "{err}");
    let err = client.update(vec![EdgeChange::insert(3, 3)]).unwrap_err();
    assert!(err.to_string().contains("invalid edge"), "{err}");
    let err = client.embedding(N as u32).unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");

    // A valid update still lands afterwards.
    client.update(vec![EdgeChange::insert(0, 1)]).unwrap().unwrap();
    assert_eq!(client.flush().unwrap(), 1);
    let (session, summary) = handle.shutdown().unwrap();
    assert_eq!(summary.serve.epochs, 1);
    assert!(session.engine().graph().has_edge(0, 1));
}

/// Regression test for the mid-frame desync: a client that stalls for much
/// longer than the server's poll interval *inside* a frame (between the
/// length prefix and the payload, and between payload bytes) must still get
/// a correct response, and the connection must stay usable afterwards.
/// With a per-read socket timeout this dribbled frame would desync the
/// stream — `read_exact` discards the bytes consumed before the timeout.
#[test]
fn slow_mid_frame_writes_do_not_desync_the_connection() {
    let handle = InkServer::bind(
        "127.0.0.1:0",
        StreamSession::new(engine()),
        ServeConfig { poll_interval: Duration::from_millis(5), ..ServeConfig::default() },
    )
    .unwrap();

    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let payload = Request::Embedding(7).encode();
    let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&payload);
    for byte in wire {
        stream.write_all(&[byte]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(15)); // 3x the poll interval
    }
    let resp = Response::decode(&read_frame(&mut stream).unwrap().unwrap()).unwrap();
    match resp {
        Response::Embedding { epoch: 0, values } => assert_eq!(values.len(), 4),
        other => panic!("dribbled request got {other:?}"),
    }

    // The framing survived: a normally-written request on the same
    // connection still decodes.
    write_frame(&mut stream, &Request::TopK { vertex: 7, k: 3 }.encode()).unwrap();
    let resp = Response::decode(&read_frame(&mut stream).unwrap().unwrap()).unwrap();
    assert!(matches!(resp, Response::TopK { epoch: 0, ref items } if items.len() == 3), "{resp:?}");
    drop(stream);
    handle.shutdown().unwrap();
}

/// Shutdown must complete while clients are connected but idle: handler
/// threads are parked in blocking reads with no timeout, so the server has
/// to wake them by closing their sockets.
#[test]
fn shutdown_unblocks_idle_connections() {
    let handle =
        InkServer::bind("127.0.0.1:0", StreamSession::new(engine()), ServeConfig::default())
            .unwrap();
    let mut idle = InkClient::connect(handle.local_addr()).unwrap();
    let mut active = InkClient::connect(handle.local_addr()).unwrap();
    active.update(vec![EdgeChange::insert(0, 1)]).unwrap().unwrap();
    assert_eq!(active.flush().unwrap(), 1);

    let (session, summary) = handle.shutdown().expect("shutdown with idle connections hangs?");
    assert_eq!(summary.serve.epochs, 1);
    assert!(session.engine().graph().has_edge(0, 1));
    // The idle client's connection was closed by the server.
    assert!(idle.flush().is_err(), "socket should be closed after shutdown");
}

#[test]
fn reject_mode_sheds_load_but_applies_what_it_admits() {
    let handle = InkServer::bind(
        "127.0.0.1:0",
        StreamSession::new(engine()),
        ServeConfig {
            queue_capacity: 1,
            backpressure: Backpressure::Reject { retry_after_ms: 2 },
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = InkClient::connect(handle.local_addr()).unwrap();
    // update_blocking retries through any Rejected responses, so all batches
    // land even against a capacity-1 queue.
    for i in 0..10u32 {
        client.update_blocking(vec![EdgeChange::insert(i, i + 1)]).unwrap();
    }
    client.flush().unwrap();
    let (session, _) = handle.shutdown().unwrap();
    for i in 0..10u32 {
        assert!(session.engine().graph().has_edge(i, i + 1), "admitted update {i} applied");
    }
}

/// `queue_capacity: 0` is read as 1: the server binds, admits, flushes and
/// applies, with Block backpressure stalling the connection in between.
#[test]
fn zero_queue_capacity_still_admits_and_applies() {
    let handle = InkServer::bind(
        "127.0.0.1:0",
        StreamSession::new(engine()),
        ServeConfig { queue_capacity: 0, ..ServeConfig::default() },
    )
    .unwrap();
    let mut client = InkClient::connect(handle.local_addr()).unwrap();
    for i in 0..5u32 {
        client.update(vec![EdgeChange::insert(i, i + 1)]).unwrap().expect("Block never rejects");
    }
    assert!(client.flush().unwrap() >= 1);
    let (session, summary) = handle.shutdown().unwrap();
    assert_eq!(summary.serve.updates_enqueued, 5);
    assert_eq!(summary.serve.max_queue_depth, 1, "capacity 0 is read as 1");
    for i in 0..5u32 {
        assert!(session.engine().graph().has_edge(i, i + 1), "admitted update {i} applied");
    }
}

/// Protocol v2 end to end on one connection: the `hello` handshake reports
/// the negotiated version and capacity facts, pipelined `Batch` frames carry
/// the whole update stream without waiting on round trips, in-slot errors
/// do not poison their neighbours, and the final state is bitwise equal to
/// the single-threaded reference replay.
#[test]
fn pipelined_batch_frames_match_reference_bitwise() {
    let batches = update_batches();
    let expected = reference_outputs(&batches);

    let handle = InkServer::bind(
        "127.0.0.1:0",
        StreamSession::new(engine()),
        ServeConfig {
            queue_capacity: 16,
            backpressure: Backpressure::Block,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = InkClient::connect(handle.local_addr()).unwrap();

    let hello = client.hello().unwrap();
    assert_eq!(hello.version, ink_serve::PROTOCOL_VERSION);
    assert_eq!(hello.num_vertices, N as u64);
    assert_eq!(hello.feat_dim, 4, "output width of the 2-layer GCN");
    assert_eq!(hello.shards, 1, "one ingest queue");

    // Queue every update as its own pipelined Batch frame (update + read),
    // then collect: responses must come back in request order, one Batch
    // response per frame with per-slot answers in slot order.
    for batch in &batches {
        let frame =
            Request::Batch(vec![Request::Update(batch.clone()), Request::Embedding(0)]);
        client.queue(&frame).unwrap();
    }
    assert_eq!(client.in_flight(), BATCHES);
    let mut acks = 0;
    for _ in 0..BATCHES {
        match client.recv().unwrap() {
            Response::Batch(slots) => {
                assert_eq!(slots.len(), 2);
                assert!(matches!(slots[0], Response::Ack { .. }), "{:?}", slots[0]);
                // Pipelined updates coalesce, so epochs do not map 1:1 onto
                // raw-batch prefixes mid-stream — the bitwise anchor is the
                // flushed final state below. Here: a well-formed read at a
                // plausible epoch.
                match &slots[1] {
                    Response::Embedding { epoch, values } => {
                        assert!(*epoch as usize <= BATCHES);
                        assert_eq!(values.len(), 4);
                    }
                    other => panic!("read slot got {other:?}"),
                }
                acks += 1;
            }
            other => panic!("expected a Batch response, got {other:?}"),
        }
    }
    assert_eq!(acks, BATCHES);

    // Non-data-plane requests inside a batch answer as in-slot errors and
    // leave their neighbours intact.
    let slots = client
        .batch(&[Request::Embedding(1), Request::Stats, Request::Embedding(2)])
        .unwrap();
    assert!(matches!(slots[0], Response::Embedding { .. }));
    assert!(matches!(slots[1], Response::Error { .. }), "{:?}", slots[1]);
    assert!(matches!(slots[2], Response::Embedding { .. }));

    // After a barrier everything admitted above is visible; the snapshot is
    // bitwise the reference replay of all 24 raw batches.
    let epoch = client.flush().unwrap();
    let want = expected.last().unwrap();
    for v in 0..N as u32 {
        let (e, values) = client.embedding(v).unwrap();
        assert!(e >= epoch);
        assert_eq!(values, want.row(v as usize), "vertex {v} bitwise at the final epoch");
    }

    // The batch instruments saw every frame and slot.
    let families = ink_obs::parse::parse_prometheus(&client.metrics().unwrap()).unwrap();
    let counter = |name: &str| {
        families
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("missing {name}"))
            .samples[0]
            .value
    };
    assert_eq!(counter("ink_serve_batch_frames_total"), BATCHES as f64 + 1.0);
    assert_eq!(counter("ink_serve_batched_requests_total"), 2.0 * BATCHES as f64 + 3.0);
    drop(client);

    let (session, _) = handle.shutdown().unwrap();
    assert_eq!(session.engine().output().as_slice(), want.as_slice());
}

/// The partition-parallel engine behind the same `bind`, wire protocol and
/// session layer: fed the identical update stream it must publish epochs
/// bitwise equal to the single-threaded reference (max aggregation makes
/// incremental == full recompute exactly), and its scrape and trace dump
/// must carry the session's families and spans next to `ink_partition_*`.
#[test]
fn partitioned_backend_matches_single_threaded_reference_bitwise() {
    let batches = update_batches();
    let expected = reference_outputs(&batches);

    let handle = InkServer::bind(
        "127.0.0.1:0",
        parted_session(&engine()),
        ServeConfig { queue_capacity: 8, backpressure: Backpressure::Block, ..ServeConfig::default() },
    )
    .unwrap();

    let mut client = InkClient::connect(handle.local_addr()).unwrap();
    for (i, batch) in batches.iter().enumerate() {
        client.update(batch.clone()).unwrap().expect("block mode never rejects");
        let epoch = client.flush().unwrap();
        assert_eq!(epoch as usize, i + 1, "one epoch per flushed update");
        let v = (i % N) as u32;
        let (e, values) = client.embedding(v).unwrap();
        assert_eq!(e, epoch);
        assert_eq!(values, expected[e as usize].row(v as usize), "bitwise at epoch {e}");
    }

    assert_eq!(scraped(&mut client, "ink_session_ingests_total"), BATCHES as f64);
    assert_eq!(scraped(&mut client, "ink_partition_rounds_total"), BATCHES as f64);
    assert_eq!(scraped(&mut client, "ink_pipeline_phase_apply_ns_count"), BATCHES as f64);
    let trace = client.trace_dump().unwrap();
    for name in ["\"epoch\"", "\"batch\"", "\"generate\"", "\"apply\""] {
        assert!(trace.contains(name), "partitioned trace dump missing {name}");
    }
    drop(client);

    let (session, summary) = handle.shutdown().unwrap();
    assert_eq!(summary.serve.epochs, BATCHES as u64);
    assert_eq!(summary.ingests, BATCHES, "the session summary is the partitioned one");
    assert_eq!(
        session.engine().output().as_slice(),
        expected.last().unwrap().as_slice(),
        "partitioned final state equals the reference replay bitwise"
    );
}

/// `ServeConfig::checkpoint_path` means the same thing for every engine:
/// either shutdown leaves a loadable checkpoint, or it says why not. The
/// partitioned engine has no checkpoint format — its shutdown still drains
/// and publishes everything admitted, then fails with the engine's typed
/// error and leaves no file — never success with nothing written.
#[test]
fn checkpoint_path_is_honoured_or_refused_never_ignored() {
    let dir = std::env::temp_dir().join(format!("ink-serve-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let batch = update_batches().remove(0);
    let mut reference = engine();
    reference.apply_delta(&DeltaBatch::new(batch.clone()));
    let config = |name: &str| ServeConfig {
        checkpoint_path: Some(dir.join(name)),
        ..ServeConfig::default()
    };
    let drive = |addr| {
        let mut client = InkClient::connect(addr).unwrap();
        client.update(batch.clone()).unwrap().expect("block mode never rejects");
        // No flush: the drain is shutdown's job.
    };

    let handle = InkServer::bind("127.0.0.1:0", StreamSession::new(engine()), config("single"))
        .unwrap();
    drive(handle.local_addr());
    handle.shutdown().expect("a single engine checkpoints");
    let mut f = std::fs::File::open(dir.join("single")).expect("shutdown wrote a checkpoint");
    let restored =
        inkstream::checkpoint::load(model(), &mut f, UpdateConfig::default(), None).unwrap();
    assert!(bits(restored.output()) == bits(reference.output()));
    let listing = || {
        let mut names: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        names.sort();
        names
    };
    assert_eq!(listing(), ["single"], "no temp file is left behind");

    // A refused checkpoint must not touch the last good one at its path.
    let previous = b"last run's checkpoint".to_vec();
    std::fs::write(dir.join("parted"), &previous).unwrap();
    let handle =
        InkServer::bind("127.0.0.1:0", parted_session(&engine()), config("parted")).unwrap();
    let reader = handle.snapshot_reader();
    drive(handle.local_addr());
    let err = handle.shutdown().err().expect("a partitioned engine cannot checkpoint");
    assert!(err.to_string().contains("no checkpoint format"), "{err}");
    let kept = std::fs::read(dir.join("parted")).expect("a refused checkpoint keeps the old file");
    assert_eq!(kept, previous, "a refused checkpoint leaves the old file unchanged");
    assert_eq!(listing(), ["parted", "single"], "no temp file is left behind");
    let last = reader.load();
    assert_eq!(last.epoch, 1, "the refusal comes after the drain");
    assert!(bits(&last.embeddings) == bits(reference.output()));
    std::fs::remove_dir_all(&dir).ok();
}

/// A graph large enough that a few changes per epoch stay far below the
/// engine's dirty-row cap (an eighth of the vertices), so every publish
/// after the first takes the delta path unless a reader gets in its way.
const BIG_N: usize = 1200;

fn big_engine() -> InkStream {
    let g = erdos_renyi(&mut seeded_rng(GRAPH_SEED), BIG_N, 3 * BIG_N);
    let feats = sparse_power_law(&mut seeded_rng(FEAT_SEED), BIG_N, FEAT_DIM, 0.2, 0.9);
    InkStream::new(model(), g, feats, UpdateConfig::default()).unwrap()
}

fn big_batches(count: usize) -> Vec<Vec<EdgeChange>> {
    let mut rng = seeded_rng(0xDE17A);
    (0..count)
        .map(|i| {
            (0..3)
                .map(|_| {
                    let src = rng.random_range(0..BIG_N as u32);
                    let dst = (src + rng.random_range(1..BIG_N as u32)) % BIG_N as u32;
                    if i % 3 == 2 {
                        EdgeChange::remove(src, dst)
                    } else {
                        EdgeChange::insert(src, dst)
                    }
                })
                .collect()
        })
        .collect()
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn scraped(client: &mut InkClient, sample: &str) -> f64 {
    let families = ink_obs::parse::parse_prometheus(&client.metrics().unwrap()).unwrap();
    families
        .iter()
        .flat_map(|f| &f.samples)
        .find(|s| s.name == sample)
        .unwrap_or_else(|| panic!("missing {sample}"))
        .value
}

/// Delta publish under a pinning reader, on both backends: an in-process
/// reader holds one snapshot across more than 50 epochs. It must never
/// change, every later epoch must still equal the single-threaded replay
/// bitwise (whole matrix, not a sampled row), and the pin may cost exactly
/// one whole-matrix copy — the publish that wanted the pinned buffer back —
/// on top of the first publish, which has no buffer to recycle.
#[test]
fn pinned_reader_sees_its_snapshot_unchanged_across_delta_publishes() {
    const EPOCHS: usize = 56;
    const PIN_AT: usize = 3;
    const { assert!(EPOCHS - PIN_AT >= 50, "the pin must span at least 50 epochs") };

    let batches = big_batches(EPOCHS);
    let mut reference = big_engine();
    let mut expected = vec![bits(reference.output())];
    for batch in &batches {
        reference.apply_delta(&DeltaBatch::new(batch.clone()));
        expected.push(bits(reference.output()));
    }

    for partitioned in [false, true] {
        let (addr, reader, shutdown): (_, _, Box<dyn FnOnce() -> Matrix>) = if partitioned {
            let session = parted_session(&big_engine());
            let h = InkServer::bind("127.0.0.1:0", session, ServeConfig::default()).unwrap();
            (
                h.local_addr(),
                h.snapshot_reader(),
                Box::new(move || h.shutdown().unwrap().0.engine().output()),
            )
        } else {
            let session = StreamSession::new(big_engine());
            let h = InkServer::bind("127.0.0.1:0", session, ServeConfig::default()).unwrap();
            (
                h.local_addr(),
                h.snapshot_reader(),
                Box::new(move || h.shutdown().unwrap().0.engine().output().clone()),
            )
        };

        let mut client = InkClient::connect(addr).unwrap();
        let mut pinned = None;
        for (i, batch) in batches.iter().enumerate() {
            client.update(batch.clone()).unwrap().expect("block mode never rejects");
            let epoch = client.flush().unwrap() as usize;
            assert_eq!(epoch, i + 1, "one epoch per flushed update");
            // Loaded and dropped before the next update: never in the way.
            let snap = reader.load();
            assert_eq!(snap.epoch as usize, epoch);
            assert!(
                bits(&snap.embeddings) == expected[epoch],
                "epoch {epoch} differs from the replay (partitioned={partitioned})"
            );
            if epoch == PIN_AT {
                pinned = Some(snap);
            }
        }
        let pinned = pinned.expect("the stream is longer than PIN_AT");
        assert_eq!(pinned.epoch as usize, PIN_AT);
        assert!(bits(&pinned.embeddings) == expected[PIN_AT], "a held snapshot never changes");

        assert_eq!(scraped(&mut client, "ink_serve_publish_rows_count"), EPOCHS as f64);
        let full = scraped(&mut client, "ink_serve_publish_full_total");
        assert_eq!(full, 2.0, "first publish + the one pinned swap (partitioned={partitioned})");
        drop(client);

        let final_output = shutdown();
        assert!(bits(&final_output) == expected[EPOCHS]);
        assert!(bits(&reader.load().embeddings) == expected[EPOCHS]);
        assert!(bits(&pinned.embeddings) == expected[PIN_AT], "not even by shutdown");
    }
}

/// Shutdown racing the writer: updates are acknowledged but never flushed,
/// so `shutdown()` closes the queue while epochs are still being applied and
/// published. Whatever the interleaving, the session handed back and the
/// last published snapshot must be the same state — every acknowledged
/// update applied, bitwise.
#[test]
fn publish_racing_shutdown_leaves_snapshot_and_session_identical() {
    let batches = big_batches(40);
    let mut reference = big_engine();
    for batch in &batches {
        reference.apply_delta(&DeltaBatch::new(batch.clone()));
    }

    let handle = InkServer::bind(
        "127.0.0.1:0",
        StreamSession::new(big_engine()),
        ServeConfig { max_drain: 2, ..ServeConfig::default() },
    )
    .unwrap();
    let reader = handle.snapshot_reader();
    let mut client = InkClient::connect(handle.local_addr()).unwrap();
    for batch in &batches {
        client.update(batch.clone()).unwrap().expect("block mode never rejects");
    }
    drop(client);
    let (session, summary) = handle.shutdown().unwrap();

    let last = reader.load();
    assert_eq!(last.epoch, summary.serve.epochs);
    assert!(bits(&last.embeddings) == bits(session.engine().output()));
    assert!(bits(&last.embeddings) == bits(reference.output()), "every acked update applied");
}
