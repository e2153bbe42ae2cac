//! Loopback integration test: a server on an ephemeral port, four concurrent
//! clients mixing updates and queries, and every response checked bitwise
//! against a single-threaded reference replay.
//!
//! The engine runs max aggregation, where incremental outputs are bitwise
//! equal to full recomputation — so after the updater's `i`-th
//! update+flush, epoch `i + 1` must equal the reference engine after `i + 1`
//! raw batches, no matter how the server coalesced the work.
//! Query clients race the writer the whole time and verify whatever epoch
//! they observe against the precomputed per-epoch outputs. Shutdown must
//! leave a checkpoint that loads back into a bitwise-identical engine.

use ink_gnn::{Aggregator, Model};
use ink_graph::generators::erdos_renyi;
use ink_graph::{DeltaBatch, DynGraph, EdgeChange};
use ink_serve::protocol::{read_frame, write_frame, Request, Response};
use ink_serve::{Backpressure, InkClient, InkServer, ServeConfig};
use ink_tensor::init::{seeded_rng, sparse_power_law};
use ink_tensor::Matrix;
use inkstream::{DriftAction, DriftPolicy, InkStream, SessionConfig, StreamSession, UpdateConfig};
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

    // The scrape reflects the workload.
    let mut client = InkClient::connect(addr).unwrap();
    assert_eq!(scraped(&mut client, "ink_serve_epochs"), BATCHES as f64, "24 update epochs");
    assert_eq!(
        scraped(&mut client, "ink_serve_updates_enqueued_total"),
        BATCHES as f64,
        "all updates admitted"
    );
    drop(client);

    let session = handle.shutdown().expect("graceful shutdown");
    assert_eq!(recorded(&session, "ink_serve_epochs"), BATCHES as f64);
    assert_eq!(recorded(&session, "ink_serve_updates_rejected_total"), 0.0);
    assert_eq!(recorded(&session, "ink_serve_flushes_total"), BATCHES as f64);
    assert!(recorded(&session, "ink_serve_queries_total") > 0.0);
    assert_eq!(
        session.engine().output().as_slice(),
        expected.last().unwrap().as_slice(),
        "final server state equals the reference replay bitwise"
    );

    // The shutdown checkpoint loads back into a bitwise-identical engine.
    let mut f = std::fs::File::open(&ckpt).expect("shutdown wrote a checkpoint");
    let restored =
        inkstream::checkpoint::load(model(), &mut f, UpdateConfig::default()).unwrap();
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
    let session = handle.shutdown().unwrap();
    assert_eq!(recorded(&session, "ink_serve_epochs"), 1.0);
    assert!(session.engine().graph().has_edge(0, 1));
}

/// Regression test for the mid-frame desync: a client that stalls for longer
/// than the server's 50 ms idle poll tick *inside* a frame (between the
/// length prefix and the payload, and between payload bytes) must still get
/// a correct response, and the connection must stay usable afterwards.
/// With a per-read socket timeout this dribbled frame would desync the
/// stream — `read_exact` discards the bytes consumed before the timeout.
#[test]
fn slow_mid_frame_writes_do_not_desync_the_connection() {
    let handle =
        InkServer::bind("127.0.0.1:0", StreamSession::new(engine()), ServeConfig::default())
            .unwrap();

    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let payload = Request::Embedding(7).encode();
    let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&payload);
    for byte in wire {
        stream.write_all(&[byte]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(75)); // 1.5x the idle poll tick
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

    let session = handle.shutdown().expect("shutdown with idle connections hangs?");
    assert_eq!(recorded(&session, "ink_serve_epochs"), 1.0);
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
    let session = handle.shutdown().unwrap();
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
    let session = handle.shutdown().unwrap();
    assert_eq!(recorded(&session, "ink_serve_updates_enqueued_total"), 5.0);
    assert_eq!(recorded(&session, "ink_serve_queue_depth_max"), 1.0, "capacity 0 is read as 1");
    for i in 0..5u32 {
        assert!(session.engine().graph().has_edge(i, i + 1), "admitted update {i} applied");
    }
}

/// Pipelining end to end on one connection: the `hello` handshake reports
/// the server's revision and capacity facts, and the whole update stream
/// goes out as plain frames without waiting on round trips, each update
/// followed by a read. The queue holds fewer updates than the stream, so
/// under `Block` an update parks with frames pipelined behind it. Responses
/// must still come back in request order, an invalid update must not
/// disturb its neighbours, and the final state must equal the
/// single-threaded reference replay bitwise.
#[test]
fn pipelined_frames_match_reference_bitwise() {
    const CAPACITY: usize = 2;
    const { assert!(CAPACITY < BATCHES, "the stream must overflow the queue") };
    let batches = update_batches();
    let expected = reference_outputs(&batches);

    let handle = InkServer::bind(
        "127.0.0.1:0",
        StreamSession::new(engine()),
        ServeConfig {
            queue_capacity: CAPACITY,
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

    // Queue every update as its own frame, each followed by a read, with a
    // flush barrier and an invalid update halfway; then collect.
    let half = BATCHES / 2;
    for (i, batch) in batches.iter().enumerate() {
        if i == half {
            client.queue(&Request::Flush).unwrap();
            client.queue(&Request::Update(vec![EdgeChange::insert(5, 5)])).unwrap();
        }
        client.queue(&Request::Update(batch.clone())).unwrap();
        client.queue(&Request::Embedding(0)).unwrap();
    }
    assert_eq!(client.in_flight(), 2 * BATCHES + 2);
    // Pipelined updates coalesce, so epochs do not map 1:1 onto raw-batch
    // prefixes mid-stream — the bitwise anchor is the flushed final state
    // below. In request order, though, nothing goes backwards: each read
    // sees at least the epoch of the one before it, and the barrier's epoch
    // covers every read queued ahead of it. (A read queued *behind* the
    // barrier is served when it is processed, not when the barrier resolves.)
    let mut floor = 0;
    for i in 0..BATCHES {
        if i == half {
            match client.recv().unwrap() {
                Response::Flushed { epoch } => assert!(epoch >= floor, "flushed at {epoch}"),
                other => panic!("expected Flushed, got {other:?}"),
            }
            match client.recv().unwrap() {
                Response::Error { message } => assert!(message.contains("invalid edge")),
                other => panic!("expected the self-loop's Error, got {other:?}"),
            }
        }
        match client.recv().unwrap() {
            Response::Ack { .. } => {}
            other => panic!("update {i}: expected Ack, got {other:?}"),
        }
        match client.recv().unwrap() {
            Response::Embedding { epoch, values } => {
                assert!(epoch >= floor && epoch as usize <= BATCHES, "read {i} at epoch {epoch}");
                assert_eq!(values.len(), 4);
                floor = epoch;
            }
            other => panic!("read {i}: expected Embedding, got {other:?}"),
        }
    }

    // After a barrier everything admitted above is visible; the snapshot is
    // bitwise the reference replay of all 24 raw batches.
    let epoch = client.flush().unwrap();
    let want = expected.last().unwrap();
    for v in 0..N as u32 {
        let (e, values) = client.embedding(v).unwrap();
        assert!(e >= epoch);
        assert_eq!(values, want.row(v as usize), "vertex {v} bitwise at the final epoch");
    }

    // The queue really filled: at least one update parked with frames
    // pipelined behind it.
    assert!(scraped(&mut client, "ink_serve_conn_stalls_total") > 0.0, "no update ever stalled");
    assert_eq!(scraped(&mut client, "ink_serve_updates_enqueued_total"), BATCHES as f64);
    drop(client);

    let session = handle.shutdown().unwrap();
    assert!(recorded(&session, "ink_serve_epochs") >= 1.0);
    assert_eq!(recorded(&session, "ink_serve_updates_enqueued_total"), BATCHES as f64);
    assert_eq!(session.engine().output().as_slice(), want.as_slice());
}

/// One session served by two servers in turn. The `ink_serve_*` counters
/// live in the session's registry and accumulate across both servers; the
/// epoch and queue gauges belong to one server and restart with the second.
/// After shutdown the session's registry, read in process, holds what the
/// last live `Metrics` scrape read.
#[test]
fn one_session_on_two_servers_accumulates_counters_and_restarts_gauges() {
    const CAPACITY: usize = 2;
    let batches = update_batches();
    let expected = reference_outputs(&batches);
    let (first, second) = batches.split_at(BATCHES - 3);

    // Server 1: 21 updates pipelined on one connection against a queue of 2,
    // so the queue fills (a stall proves it), then one flush.
    let handle = InkServer::bind(
        "127.0.0.1:0",
        StreamSession::new(engine()),
        ServeConfig { queue_capacity: CAPACITY, ..ServeConfig::default() },
    )
    .unwrap();
    let mut client = InkClient::connect(handle.local_addr()).unwrap();
    for batch in first {
        client.queue(&Request::Update(batch.clone())).unwrap();
    }
    for _ in first {
        assert!(matches!(client.recv().unwrap(), Response::Ack { .. }));
    }
    let first_epochs = client.flush().unwrap() as f64;
    assert!(scraped(&mut client, "ink_serve_conn_stalls_total") > 0.0, "the queue never filled");
    assert_eq!(scraped(&mut client, "ink_serve_queue_depth_max"), CAPACITY as f64);
    assert_eq!(scraped(&mut client, "ink_serve_epochs"), first_epochs);
    drop(client);
    let session = handle.shutdown().unwrap();

    // Server 2: the last 3 updates one at a time, each flushed, so the queue
    // never holds more than one.
    let handle = InkServer::bind("127.0.0.1:0", session, ServeConfig::default()).unwrap();
    let mut client = InkClient::connect(handle.local_addr()).unwrap();
    for (i, batch) in second.iter().enumerate() {
        client.update(batch.clone()).unwrap().expect("block mode never rejects");
        assert_eq!(client.flush().unwrap() as usize, i + 1, "the second server counts from 0");
    }
    let last = client.metrics().unwrap();
    drop(client);
    let session = handle.shutdown().unwrap();
    assert_eq!(session.engine().output().as_slice(), expected[BATCHES].as_slice());

    // Counters accumulate over both servers ...
    assert_eq!(sample(&last, "ink_serve_updates_enqueued_total"), BATCHES as f64);
    assert_eq!(sample(&last, "ink_serve_flushes_total"), 4.0);
    assert_eq!(sample(&last, "ink_session_ingests_total"), first_epochs + 3.0);
    // ... and the per-server gauges restart.
    assert_eq!(sample(&last, "ink_serve_epochs"), 3.0);
    assert_eq!(sample(&last, "ink_serve_queue_depth"), 0.0);
    assert_eq!(sample(&last, "ink_serve_queue_depth_max"), 1.0);

    // In process after shutdown the registry reads what the last live scrape
    // read, except the connection gauge, which follows the sockets.
    let families = |text: &str| {
        let mut families = ink_obs::parse::parse_prometheus(text).unwrap();
        families.retain(|f| f.name != "ink_serve_connections");
        families
    };
    assert_eq!(families(&session.metrics().render_prometheus()), families(&last));
}

/// Revision 3 retired the `Batch` container and revision 4 the `Stats`
/// request: a frame with either tag gets the typed unknown-tag `Error`, and
/// the connection keeps working.
#[test]
fn retired_batch_tag_is_refused_and_the_connection_lives() {
    let handle =
        InkServer::bind("127.0.0.1:0", StreamSession::new(engine()), ServeConfig::default())
            .unwrap();
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    let mut call = |payload: &[u8]| {
        write_frame(&mut stream, payload).unwrap();
        Response::decode(&read_frame(&mut stream).unwrap().unwrap()).unwrap()
    };

    // A revision-2 Batch frame holding one Embedding(0) slot, and a
    // revision-1 to 3 Stats request.
    let slot = Request::Embedding(0).encode();
    let mut batch = vec![0x09];
    batch.extend_from_slice(&1u32.to_le_bytes());
    batch.extend_from_slice(&(slot.len() as u32).to_le_bytes());
    batch.extend_from_slice(&slot);
    for (frame, tag) in [(&batch[..], "0x09"), (&[0x04][..], "0x04")] {
        match call(frame) {
            Response::Error { message } => assert!(message.contains(tag), "{message}"),
            other => panic!("a retired {tag} frame got {other:?}"),
        }
    }

    match call(&Request::Embedding(3).encode()) {
        Response::Embedding { epoch: 0, values } => assert_eq!(values.len(), 4),
        other => panic!("embedding after the refusal got {other:?}"),
    }
    let update = Request::Update(vec![EdgeChange::insert(0, 1)]).encode();
    assert!(matches!(call(&update), Response::Ack { epoch: 0 }));
    assert_eq!(call(&Request::Flush.encode()), Response::Flushed { epoch: 1 });
    drop(stream);
    let session = handle.shutdown().unwrap();
    assert!(session.engine().graph().has_edge(0, 1));
}

/// An epoch whose ingest fails (a `Fail` drift policy over a planted NaN,
/// so every full audit breaches) is still published and still resolves its
/// flush barrier: readers and writers never wait on a refused ingest. Each
/// refusal ticks `ink_serve_apply_errors_total`, and shutdown hands the
/// session back.
#[test]
fn failed_ingests_are_counted_and_flushes_still_resolve() {
    let mut engine = engine();
    engine.state_mut().h.set(0, 0, f32::NAN);
    let config = SessionConfig {
        drift: DriftPolicy::full(1, 0.0).with_action(DriftAction::Fail),
        ..SessionConfig::default()
    };
    let handle = InkServer::bind(
        "127.0.0.1:0",
        StreamSession::with_config(engine, config),
        ServeConfig::default(),
    )
    .unwrap();
    let mut client = InkClient::connect(handle.local_addr()).unwrap();
    for (i, batch) in update_batches().into_iter().take(3).enumerate() {
        client.update(batch).unwrap().expect("block mode never rejects");
        assert_eq!(client.flush().unwrap() as usize, i + 1, "the refused epoch publishes");
        assert_eq!(scraped(&mut client, "ink_serve_apply_errors_total"), (i + 1) as f64);
    }
    drop(client);
    let session = handle.shutdown().unwrap();
    assert_eq!(recorded(&session, "ink_serve_epochs"), 3.0);
    for name in
        ["ink_drift_full_audits_total", "ink_drift_breaches_total", "ink_drift_nan_detected_total"]
    {
        assert_eq!(recorded(&session, name), 3.0, "{name}");
    }
}

/// `ServeConfig::checkpoint_path` is honoured or refused, never ignored:
/// either shutdown leaves a loadable checkpoint, or it drains and publishes
/// everything admitted, then fails and leaves the last good file at the path
/// byte-identical — never success with nothing written.
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
        inkstream::checkpoint::load(model(), &mut f, UpdateConfig::default()).unwrap();
    assert!(bits(restored.output()) == bits(reference.output()));
    let listing = || {
        let mut names: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        names.sort();
        names
    };
    assert_eq!(listing(), ["single"], "no temp file is left behind");

    // A failed checkpoint must not touch the last good one at its path. A
    // directory where the temp file goes makes creating it fail.
    let previous = b"last run's checkpoint".to_vec();
    std::fs::write(dir.join("kept"), &previous).unwrap();
    std::fs::create_dir(dir.join("kept.tmp")).unwrap();
    let handle =
        InkServer::bind("127.0.0.1:0", StreamSession::new(engine()), config("kept")).unwrap();
    let reader = handle.snapshot_reader();
    drive(handle.local_addr());
    handle.shutdown().err().expect("the temp file cannot be created");
    let kept = std::fs::read(dir.join("kept")).expect("a failed checkpoint keeps the old file");
    assert_eq!(kept, previous, "a failed checkpoint leaves the old file byte-identical");
    assert_eq!(listing(), ["kept", "kept.tmp", "single"], "nothing else is left behind");
    let last = reader.load();
    assert_eq!(last.epoch, 1, "the failure comes after the drain");
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

/// Sample `name` of a Prometheus document. A name the document does not hold
/// panics, so a misspelt name fails instead of reading 0.
fn sample(text: &str, name: &str) -> f64 {
    let families = ink_obs::parse::parse_prometheus(text).unwrap();
    families
        .iter()
        .flat_map(|f| &f.samples)
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("missing {name}"))
        .value
}

/// Sample `name` of a live `Metrics` scrape over the wire.
fn scraped(client: &mut InkClient, name: &str) -> f64 {
    sample(&client.metrics().unwrap(), name)
}

/// Sample `name` of the session's registry, read in process.
fn recorded(session: &StreamSession, name: &str) -> f64 {
    sample(&session.metrics().render_prometheus(), name)
}

/// Delta publish under a pinning reader: an in-process reader holds one
/// snapshot across more than 50 epochs. It must never change, every later
/// epoch must still equal the single-threaded replay bitwise (whole matrix,
/// not a sampled row), and the pin may cost exactly one whole-matrix copy —
/// the publish that wanted the pinned buffer back — on top of the first
/// publish, which has no buffer to recycle.
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

    let session = StreamSession::new(big_engine());
    let handle = InkServer::bind("127.0.0.1:0", session, ServeConfig::default()).unwrap();
    let reader = handle.snapshot_reader();
    let mut client = InkClient::connect(handle.local_addr()).unwrap();
    let mut pinned = None;
    for (i, batch) in batches.iter().enumerate() {
        client.update(batch.clone()).unwrap().expect("block mode never rejects");
        let epoch = client.flush().unwrap() as usize;
        assert_eq!(epoch, i + 1, "one epoch per flushed update");
        // Loaded and dropped before the next update: never in the way.
        let snap = reader.load();
        assert_eq!(snap.epoch as usize, epoch);
        assert!(bits(&snap.embeddings) == expected[epoch], "epoch {epoch} differs from the replay");
        if epoch == PIN_AT {
            pinned = Some(snap);
        }
    }
    let pinned = pinned.expect("the stream is longer than PIN_AT");
    assert_eq!(pinned.epoch as usize, PIN_AT);
    assert!(bits(&pinned.embeddings) == expected[PIN_AT], "a held snapshot never changes");

    assert_eq!(scraped(&mut client, "ink_serve_publish_rows_count"), EPOCHS as f64);
    let full = scraped(&mut client, "ink_serve_publish_full_total");
    assert_eq!(full, 2.0, "first publish + the one pinned swap");
    drop(client);

    let session = handle.shutdown().unwrap();
    assert!(bits(session.engine().output()) == expected[EPOCHS]);
    assert!(bits(&reader.load().embeddings) == expected[EPOCHS]);
    assert!(bits(&pinned.embeddings) == expected[PIN_AT], "not even by shutdown");
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
    let session = handle.shutdown().unwrap();

    let last = reader.load();
    assert_eq!(last.epoch as f64, recorded(&session, "ink_serve_epochs"));
    assert!(bits(&last.embeddings) == bits(session.engine().output()));
    assert!(bits(&last.embeddings) == bits(reference.output()), "every acked update applied");
}
