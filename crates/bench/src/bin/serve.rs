//! Serving data-plane load generator: sustained update/query throughput of
//! the `ink-serve` readiness loop under a thousand-client, Zipf-skewed mix.
//!
//! Two phases, each on a fresh session of the same engine, then a raw-apply series:
//!
//! * **v1 baseline** — a handful of strict request/response clients, one
//!   `Update` frame (16 edge ops) per round trip. This is the PR 3 serving
//!   model and the denominator of the reported speedup.
//! * **pipelined data plane** — 1k+ concurrent connections multiplexed by
//!   the readiness loop, driven by a few worker threads. Every connection
//!   pipelines groups of plain frames (8 updates × 16 edge ops + 2 reads
//!   each, 4 groups in flight); update endpoints and query vertices are Zipf-distributed so a small
//!   set of celebrity vertices absorbs most traffic, as in production
//!   feeds. Coalescing in the writer collapses the hot-edge churn into
//!   small net batches — the InkStream serving story end to end.
//! * **raw apply** — a fresh engine behind the same `InkServer::bind`, fed
//!   a unique-edge stream (nothing coalesces) through one connection:
//!   applied events per second of the writer's drain → coalesce → apply →
//!   publish loop.
//!
//! Each phase's `server` block is its own session's `ink_serve_*` instruments. Output goes
//! to `results/BENCH_serve.json` (+ `.prom`: the pipelined phase's registry; under `--quick`,
//! `target/bench-quick/`) via the shared writer; the schema is documented in EXPERIMENTS.md. Set
//! `INK_BENCH_MIN_UPDATES_PER_S` to a float to turn the run into a smoke
//! gate: the process exits non-zero when the pipelined phase's sustained
//! edge-op throughput lands below the floor; `INK_BENCH_MIN_APPLY_PER_S` does the
//! same for the raw-apply series.

use ink_bench::json::{rounded, Json};
use ink_bench::workload::Zipf;
use ink_bench::{latency_us, write_metrics, write_results, BenchOpts, ModelKind, Scrape};
use ink_graph::generators::erdos_renyi;
use ink_graph::EdgeChange;
use ink_gnn::Aggregator;
use ink_serve::{
    InkClient, InkServer, Request, Response, ServeConfig, ServerHandle, PROTOCOL_VERSION,
};
use ink_tensor::init::{seeded_rng, sparse_power_law};
use inkstream::{InkStream, StreamSession, UpdateConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

const FEAT_DIM: usize = 16;
const SEED: u64 = 0x5E12E;
/// Edge ops per `Update` request — the PR 3 baseline unit, kept so the
/// speedup ratio compares like with like.
const BATCH: usize = 16;
/// `Update` frames per pipelined group.
const GROUP_UPDATES: usize = 8;
/// Read frames per pipelined group.
const GROUP_QUERIES: usize = 2;
/// Groups in flight per connection.
const PIPELINE: usize = 4;
/// Zipf exponent of the vertex popularity distribution.
const ZIPF_EXPONENT: f64 = 1.1;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn build_session(n: usize, edges: usize, opts: &BenchOpts) -> StreamSession {
    let mut rng = seeded_rng(SEED);
    let graph = erdos_renyi(&mut rng, n, edges);
    let features = sparse_power_law(&mut rng, n, FEAT_DIM, 0.2, 0.9);
    let model = ModelKind::Gcn.build(FEAT_DIM, opts, Aggregator::Max, SEED);
    StreamSession::new(InkStream::new(model, graph, features, UpdateConfig::default()).unwrap())
}

/// The churn universe: a fixed pool of candidate edges whose popularity is
/// Zipf-distributed. Celebrity edges flap (insert/remove) constantly while
/// tail edges change rarely — the traffic shape the writer's coalescing
/// window is designed for: repeated flips of one canonical edge collapse
/// to at most one net change per epoch.
struct EdgePool {
    edges: Vec<(u32, u32)>,
    zipf: Zipf,
}

impl EdgePool {
    fn new(n: u32, size: usize, exponent: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let vertex_zipf = Zipf::new(n as usize, exponent);
        let edges = (0..size)
            .map(|_| {
                let src = vertex_zipf.sample(&mut rng) as u32;
                let mut dst = vertex_zipf.sample(&mut rng) as u32;
                if dst == src {
                    dst = (dst + 1) % n;
                }
                (src, dst)
            })
            .collect();
        Self { edges, zipf: Zipf::new(size, exponent) }
    }

    fn sample(&self, rng: &mut StdRng) -> (u32, u32) {
        self.edges[self.zipf.sample(rng)]
    }
}

/// A churn batch over the hot pool: alternating inserts and removes.
fn pool_batch(rng: &mut StdRng, pool: &EdgePool) -> Vec<EdgeChange> {
    (0..BATCH)
        .map(|i| {
            let (src, dst) = pool.sample(rng);
            if i % 2 == 0 {
                EdgeChange::insert(src, dst)
            } else {
                EdgeChange::remove(src, dst)
            }
        })
        .collect()
}

/// One pipelined group: hot-edge updates plus Zipf-addressed reads (every
/// 32nd group trades one embedding read for a top-k).
fn build_group(rng: &mut StdRng, pool: &EdgePool, zipf: &Zipf, round: usize) -> Vec<Request> {
    let mut reqs = Vec::with_capacity(GROUP_UPDATES + GROUP_QUERIES);
    for _ in 0..GROUP_UPDATES {
        reqs.push(Request::Update(pool_batch(rng, pool)));
    }
    for q in 0..GROUP_QUERIES {
        let v = zipf.sample(rng) as u32;
        if q == 0 && round.is_multiple_of(32) {
            reqs.push(Request::TopK { vertex: v, k: 8 });
        } else {
            reqs.push(Request::Embedding(v));
        }
    }
    reqs
}

#[derive(Default)]
struct WorkerOut {
    group_lat_us: Vec<f64>,
    acks: u64,
    rejections: u64,
    errors: u64,
    queries: u64,
}

/// One worker thread driving `conns` pipelined connections round-robin:
/// each round collects one group's responses per connection (once the
/// pipeline is primed) and queues the next group, so every connection keeps
/// [`PIPELINE`] groups in flight without a thread per client.
fn pipelined_worker(
    addr: std::net::SocketAddr,
    conns: usize,
    groups_each: usize,
    pool: Arc<EdgePool>,
    zipf: Arc<Zipf>,
    seed: u64,
) -> io::Result<WorkerOut> {
    let mut clients = Vec::with_capacity(conns);
    for _ in 0..conns {
        clients.push(InkClient::connect(addr)?);
    }
    // Handshake once per worker: the server must speak this build's revision.
    let hello = clients[0].hello()?;
    assert_eq!(hello.version, PROTOCOL_VERSION, "server speaks another revision");
    let mut pending: Vec<VecDeque<Instant>> = (0..conns).map(|_| VecDeque::new()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = WorkerOut::default();
    for round in 0..groups_each + PIPELINE {
        for (i, client) in clients.iter_mut().enumerate() {
            if round >= PIPELINE {
                let t0 = pending[i].pop_front().expect("pipeline accounting");
                for _ in 0..GROUP_UPDATES + GROUP_QUERIES {
                    match client.recv()? {
                        Response::Ack { .. } => out.acks += 1,
                        Response::Rejected { .. } => out.rejections += 1,
                        Response::Embedding { .. } | Response::TopK { .. } => out.queries += 1,
                        _ => out.errors += 1,
                    }
                }
                out.group_lat_us.push(us(t0.elapsed()));
            }
            if round < groups_each {
                for req in build_group(&mut rng, &pool, &zipf, round) {
                    client.queue(&req)?;
                }
                pending[i].push_back(Instant::now());
            }
        }
    }
    Ok(out)
}

struct PipelinedResult {
    out: WorkerOut,
    wall: Duration,
}

/// The pipelined phase: `clients` connections split across `workers`
/// threads.
fn run_pipelined(
    handle: &ServerHandle,
    clients: usize,
    workers: usize,
    groups_each: usize,
    pool: &Arc<EdgePool>,
    zipf: &Arc<Zipf>,
) -> PipelinedResult {
    let addr = handle.local_addr();
    let per_worker = clients / workers;
    let t0 = Instant::now();
    let threads: Vec<_> = (0..workers)
        .map(|w| {
            let pool = pool.clone();
            let zipf = zipf.clone();
            std::thread::spawn(move || {
                let seed = SEED ^ ((w as u64 + 1) << 16);
                pipelined_worker(addr, per_worker, groups_each, pool, zipf, seed)
            })
        })
        .collect();
    let mut out = WorkerOut::default();
    for t in threads {
        let part =
            t.join().expect("pipelined worker panicked").expect("pipelined worker I/O failed");
        out.group_lat_us.extend(part.group_lat_us);
        out.acks += part.acks;
        out.rejections += part.rejections;
        out.errors += part.errors;
        out.queries += part.queries;
    }
    // Barrier: everything admitted is applied before the clock stops, so
    // the reported rate is *sustained* (engine included), not just enqueue.
    let mut flusher = InkClient::connect(addr).expect("flush connect");
    flusher.flush().expect("flush");
    let wall = t0.elapsed();
    out.group_lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    PipelinedResult { out, wall }
}

struct V1Result {
    lat_us: Vec<f64>,
    frames: u64,
    wall: Duration,
}

/// The v1 baseline: strict request/response, one update frame per round
/// trip per client — the PR 3 serving model.
fn run_v1(
    handle: &ServerHandle,
    clients: usize,
    updates_each: usize,
    pool: &Arc<EdgePool>,
) -> V1Result {
    let addr = handle.local_addr();
    let t0 = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let pool = pool.clone();
            std::thread::spawn(move || -> io::Result<Vec<f64>> {
                let mut rng = StdRng::seed_from_u64(SEED ^ (0x9000 + c as u64));
                let mut client = InkClient::connect(addr)?;
                let mut lat = Vec::with_capacity(updates_each);
                for _ in 0..updates_each {
                    let batch = pool_batch(&mut rng, &pool);
                    let t = Instant::now();
                    loop {
                        match client.update(batch.clone())? {
                            Ok(_) => break,
                            Err(retry_ms) => {
                                std::thread::sleep(Duration::from_millis(retry_ms.max(1).into()))
                            }
                        }
                    }
                    lat.push(us(t.elapsed()));
                }
                Ok(lat)
            })
        })
        .collect();
    let mut lat_us = Vec::new();
    for t in threads {
        lat_us.extend(t.join().expect("v1 client panicked").expect("v1 client I/O failed"));
    }
    let mut flusher = InkClient::connect(addr).expect("flush connect");
    flusher.flush().expect("flush");
    let wall = t0.elapsed();
    let frames = lat_us.len() as u64;
    lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    V1Result { lat_us, frames, wall }
}

/// Phase 3 workload: globally unique inserts, so the writer's coalescing
/// window never collapses anything — `events_applied == events_received` and
/// the applied-events/s series measures the raw apply path (queue drain →
/// engine round → publish), not admission or coalescing wins.
fn unique_edge_batches(n: u32, frames: usize) -> Vec<Vec<EdgeChange>> {
    let mut k = 0u64;
    (0..frames)
        .map(|_| {
            (0..BATCH)
                .map(|_| {
                    let src = (k % n as u64) as u32;
                    let hop = 1 + ((k / n as u64) % (n as u64 - 1)) as u32;
                    k += 1;
                    EdgeChange::insert(src, (src + hop) % n)
                })
                .collect()
        })
        .collect()
}

/// Drives the whole unique-edge stream through one pipelined connection
/// (bounded in-flight window) and stops the clock after a flush barrier, so
/// the rate is apply-complete, not enqueue-complete.
fn drive_apply(addr: std::net::SocketAddr, batches: &[Vec<EdgeChange>]) -> io::Result<Duration> {
    let mut client = InkClient::connect(addr)?;
    let t0 = Instant::now();
    for batch in batches {
        client.queue(&Request::Update(batch.clone()))?;
        while client.in_flight() > 128 {
            client.recv()?;
        }
    }
    while client.in_flight() > 0 {
        client.recv()?;
    }
    client.flush()?;
    Ok(t0.elapsed())
}

fn main() {
    let opts = BenchOpts::from_env();
    let n = ((10_000.0 * opts.scale) as usize).max(1_000);
    let edges = 3 * n;
    let (clients, workers, groups_each) = if opts.quick { (256, 2, 12) } else { (1024, 2, 40) };
    let v1_clients = 8;
    let v1_updates_each = if opts.quick { 50 } else { 200 };
    let zipf = Arc::new(Zipf::new(n, ZIPF_EXPONENT));
    // Hot churn universe: ~4k candidate edges, Zipf-popular. Small enough
    // that the writer's coalescing window sees the same canonical edge flip
    // many times per drain — the production follow/unfollow-churn shape.
    let pool = Arc::new(EdgePool::new(n as u32, 4096, ZIPF_EXPONENT, SEED ^ 0xED6E));

    eprintln!(
        "serve bench: |V|={n} |E|={edges} zipf_s={ZIPF_EXPONENT} \
         pipelined: {clients} clients x {groups_each} groups ({GROUP_UPDATES}upd+{GROUP_QUERIES}qry, \
         batch={BATCH}, pipeline={PIPELINE}) | v1 baseline: {v1_clients} clients x {v1_updates_each}"
    );
    // ---- Phase 1: v1 strict request/response baseline (PR 3 model). ----
    let v1_config = ServeConfig { queue_capacity: 64, ..ServeConfig::default() };
    let handle = InkServer::bind("127.0.0.1:0", build_session(n, edges, &opts), v1_config)
        .expect("bind v1");
    let v1 = run_v1(&handle, v1_clients, v1_updates_each, &pool);
    let v1_server = Scrape::of(handle.shutdown().expect("v1 shutdown").metrics());
    let v1_secs = v1.wall.as_secs_f64();
    let v1_frames_per_s = v1.frames as f64 / v1_secs;
    let v1_ops_per_s = v1_frames_per_s * BATCH as f64;
    eprintln!(
        "  v1 baseline: {} frames in {v1_secs:.2}s -> {v1_frames_per_s:.0} frames/s \
         ({v1_ops_per_s:.0} edge-ops/s)",
        v1.frames
    );

    // ---- Phase 2: pipelined plain frames at 1k+ clients. ----
    let pipe_config =
        ServeConfig { queue_capacity: 4096, max_drain: 2048, ..ServeConfig::default() };
    let handle =
        InkServer::bind("127.0.0.1:0", build_session(n, edges, &opts), pipe_config.clone())
            .expect("bind pipelined");
    let pipe = run_pipelined(&handle, clients, workers, groups_each, &pool, &zipf);
    let pipe_session = handle.shutdown().expect("pipelined shutdown");
    let pipe_server = Scrape::of(pipe_session.metrics());
    assert_eq!(
        pipe_server.count("ink_serve_updates_enqueued_total"),
        pipe.out.acks,
        "the phase's own session admitted exactly the updates it acknowledged"
    );

    let pipe_secs = pipe.wall.as_secs_f64();
    let pipe_ops = pipe.out.acks * BATCH as u64;
    let pipe_ops_per_s = pipe_ops as f64 / pipe_secs;
    let pipe_queries_per_s = pipe.out.queries as f64 / pipe_secs;
    let speedup = pipe_ops_per_s / v1_ops_per_s;
    // PR 3's recorded result: ~807 update frames/s x 16 edge ops.
    let pr3_reference_ops_per_s = 807.0 * BATCH as f64;
    eprintln!(
        "  pipelined: {} acks ({pipe_ops} edge-ops) + {} reads in {pipe_secs:.2}s -> \
         {pipe_ops_per_s:.0} edge-ops/s, {pipe_queries_per_s:.0} reads/s, \
         {} rejections, {} errors",
        pipe.out.acks, pipe.out.queries, pipe.out.rejections, pipe.out.errors
    );
    eprintln!(
        "  speedup: {speedup:.1}x vs in-run v1 baseline, {:.1}x vs PR 3 reference \
         ({pr3_reference_ops_per_s:.0} edge-ops/s); applied after coalescing: {} of {}",
        pipe_ops_per_s / pr3_reference_ops_per_s,
        pipe_server.count("ink_serve_events_applied_total"),
        pipe_server.count("ink_serve_events_received_total"),
    );

    // ---- Phase 3: raw apply throughput of the writer loop. ----
    // Unique-edge stream (zero coalescing): the series isolates drain +
    // coalesce + engine round + publish.
    let apply_frames = if opts.quick { 400 } else { 2000 };
    let apply_batches = unique_edge_batches(n as u32, apply_frames);
    let mut prng = seeded_rng(SEED);
    let pgraph = erdos_renyi(&mut prng, n, edges);
    let pfeats = sparse_power_law(&mut prng, n, FEAT_DIM, 0.2, 0.9);
    let model = ink_gnn::Model::gcn(
        &mut seeded_rng(SEED ^ 0xA11),
        &[FEAT_DIM, opts.hidden, opts.hidden],
        Aggregator::Max,
    );
    let engine = InkStream::new(model, pgraph, pfeats, UpdateConfig::default())
        .expect("apply-phase bootstrap");
    // max_drain bounds the epoch at 64 batches so the run forms many epochs
    // instead of swallowing the backlog whole — the series measures
    // steady-state apply, not one giant batch.
    let config = ServeConfig { queue_capacity: 1024, max_drain: 64, ..ServeConfig::default() };
    let handle = InkServer::bind("127.0.0.1:0", StreamSession::new(engine), config)
        .expect("bind apply");
    let wall = drive_apply(handle.local_addr(), &apply_batches).expect("apply driver");
    let apply_server = Scrape::of(handle.shutdown().expect("apply shutdown").metrics());
    let applied = apply_server.count("ink_serve_events_applied_total");
    let epochs = apply_server.count("ink_serve_epochs");
    let wall_s = wall.as_secs_f64();
    let apply_per_s = applied as f64 / wall_s;
    eprintln!(
        "  apply: {applied} events ({epochs} epochs) in {wall_s:.2}s -> \
         {apply_per_s:.0} applied events/s"
    );
    let apply_doc = Json::obj([
        ("frames", Json::from(apply_frames)),
        ("batch", Json::from(BATCH)),
        ("applied_events", Json::from(applied)),
        ("received_events", Json::from(apply_server.count("ink_serve_events_received_total"))),
        ("epochs", Json::from(epochs)),
        ("wall_s", rounded(wall_s, 3)),
        ("applied_events_per_s", rounded(apply_per_s, 1)),
        ("server", apply_server.json("ink_serve_")),
    ]);

    let doc = Json::obj([
        ("bench", Json::from("serve")),
        ("protocol_version", Json::from(u64::from(PROTOCOL_VERSION))),
        ("model", Json::from("GCN")),
        ("aggregator", Json::from("max")),
        ("graph", Json::obj([("vertices", Json::from(n)), ("edges", Json::from(edges))])),
        ("zipf_exponent", rounded(ZIPF_EXPONENT, 2)),
        ("batch", Json::from(BATCH)),
        (
            "baseline_v1",
            Json::obj([
                ("clients", Json::from(v1_clients)),
                ("updates_per_client", Json::from(v1_updates_each)),
                ("update_frames", Json::from(v1.frames)),
                ("wall_s", rounded(v1_secs, 3)),
                ("update_frames_per_s", rounded(v1_frames_per_s, 1)),
                ("edge_ops_per_s", rounded(v1_ops_per_s, 1)),
                ("update_latency_us", latency_us(&v1.lat_us)),
                ("server", v1_server.json("ink_serve_")),
            ]),
        ),
        (
            "pipelined",
            Json::obj([
                ("clients", Json::from(clients)),
                ("worker_threads", Json::from(workers)),
                ("groups_per_client", Json::from(groups_each)),
                ("group_updates", Json::from(GROUP_UPDATES)),
                ("group_queries", Json::from(GROUP_QUERIES)),
                ("pipeline_depth", Json::from(PIPELINE)),
                ("queue_capacity", Json::from(pipe_config.queue_capacity)),
                ("max_drain", Json::from(pipe_config.max_drain)),
                ("update_acks", Json::from(pipe.out.acks)),
                ("edge_ops", Json::from(pipe_ops)),
                ("queries", Json::from(pipe.out.queries)),
                ("rejections", Json::from(pipe.out.rejections)),
                ("errors", Json::from(pipe.out.errors)),
                ("wall_s", rounded(pipe_secs, 3)),
                ("edge_ops_per_s", rounded(pipe_ops_per_s, 1)),
                ("queries_per_s", rounded(pipe_queries_per_s, 1)),
                ("group_latency_us", latency_us(&pipe.out.group_lat_us)),
                ("server", pipe_server.json("ink_serve_")),
            ]),
        ),
        ("apply", apply_doc),
        ("speedup_vs_v1", rounded(speedup, 2)),
        ("pr3_reference_edge_ops_per_s", rounded(pr3_reference_ops_per_s, 1)),
        (
            "speedup_vs_pr3_reference",
            rounded(pipe_ops_per_s / pr3_reference_ops_per_s, 2),
        ),
    ]);
    write_results(&opts, "serve", &doc);
    write_metrics(&opts, "serve", pipe_session.metrics());

    // Smoke-gate mode: fail the run when the pipelined phase's sustained
    // update throughput lands below the floor (used by CI's serve smoke job).
    if let Ok(floor) = std::env::var("INK_BENCH_MIN_UPDATES_PER_S") {
        let floor: f64 = floor.parse().expect("INK_BENCH_MIN_UPDATES_PER_S must be a float");
        if pipe_ops_per_s < floor {
            eprintln!(
                "FAIL: pipelined sustained {pipe_ops_per_s:.0} edge-ops/s < floor {floor:.0}"
            );
            std::process::exit(1);
        }
        eprintln!("throughput floor OK: {pipe_ops_per_s:.0} >= {floor:.0} edge-ops/s");
    }
    // Apply floor: the raw-apply series must sustain the floor — a
    // regression in the engine round or the writer loop shows up here even
    // when admission throughput is unaffected.
    if let Ok(floor) = std::env::var("INK_BENCH_MIN_APPLY_PER_S") {
        let floor: f64 = floor.parse().expect("INK_BENCH_MIN_APPLY_PER_S must be a float");
        if apply_per_s < floor {
            eprintln!("FAIL: apply {apply_per_s:.0} events/s < floor {floor:.0}");
            std::process::exit(1);
        }
        eprintln!("apply floor OK: {apply_per_s:.0} >= {floor:.0} applied events/s");
    }
}
