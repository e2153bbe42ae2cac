//! `serve_mixed`: an in-process `InkServer` on loopback under a traffic mix.
//!
//! The generator is two threads on two connections. The **writer** is an
//! open loop: one frame of 16 edge changes every 20 ms, each sent as
//! `Update` + `Flush` pipelined on one connection and timed from the instant
//! it was *due* until its `Flushed` response is read — so a stall is charged
//! to every frame it delays. The **reader** is a closed loop: one
//! `Embedding` query, 1 ms think time, next query. After the paced phase the
//! writer sends bursts of back-to-back update frames to find what the
//! writer path sustains when it never idles.

use crate::inproc::{prom, write_trace, SETUP_REPEATS};
use crate::probe::{self, Calibration, Rounds, MAX_ROUNDS, MIN_ROUNDS};
use crate::report::{end_to_end, mean, median, percentile, Metrics, Outcome, PER_LAYER};
use crate::workloads::{same_bits, Inputs, Workload};
use ink_graph::{DeltaBatch, VertexId};
use ink_obs::parse::{parse_prometheus, PromFamily};
use ink_obs::Tracer;
use ink_serve::{InkClient, InkServer, Request, Response, ServeConfig, ServerHandle};
use inkstream::{InkStream, StreamSession, UpdateConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Gap between paced frames: 50 frames/s, about a quarter of what the
/// writer path sustains. At 100 frames/s (half) a stretch of this box at
/// half speed saturated the server, and the backlog, not the service time,
/// set p90: 3 runs in 10 were off by 40–160 %.
const FRAME_GAP: Duration = Duration::from_millis(20);
const THINK_TIME: Duration = Duration::from_millis(1);
const BURSTS: usize = 5;
const BURST_FRAMES: usize = 256;
/// Embeddings read back over the wire and compared after the last flush.
const CHECKED_READS: usize = 256;
const CALIB_RUNS: usize = 20;

struct Server {
    handle: ServerHandle,
    writer: InkClient,
    reader: InkClient,
}

/// Graph build, model, bootstrap inference, bind, and both connections up:
/// everything before the first update can be sent.
fn start(w: &Workload, inputs: &Inputs) -> Server {
    let engine = InkStream::new(
        w.model(),
        inputs.build_graph(),
        inputs.features.clone(),
        UpdateConfig::default(),
    )
    .expect("bootstrap");
    let handle = InkServer::bind(
        "127.0.0.1:0",
        StreamSession::new(engine),
        ServeConfig::default(),
    )
    .expect("bind on loopback");
    let connect = || {
        let mut c = InkClient::connect(handle.local_addr()).expect("connect");
        c.hello().expect("handshake");
        c
    };
    let (writer, reader) = (connect(), connect());
    Server {
        handle,
        writer,
        reader,
    }
}

/// Sends one frame as `Update` + `Flush` and reads both answers. Returns the
/// instants the frame was written, acknowledged and flushed, or `None` when
/// the server refused it.
fn send_frame(
    client: &mut InkClient,
    batch: &DeltaBatch,
    tracer: Option<&Tracer>,
) -> Option<(Instant, Instant, Instant)> {
    let sent = Instant::now();
    client
        .queue(&Request::Update(batch.changes().to_vec()))
        .expect("queue update");
    client.queue(&Request::Flush).expect("queue flush");
    let queued = Instant::now();
    let ack = client.recv().expect("read ack");
    let acked = Instant::now();
    let flushed = client.recv().expect("read flushed");
    let done = Instant::now();
    if let Some(t) = tracer {
        t.record_at("serve", "serve.send", sent, queued - sent);
        t.record_at("serve", "serve.ack", queued, acked - queued);
        t.record_at("serve", "serve.flushed", acked, done - acked);
    }
    let ok = matches!(ack, Response::Ack { .. }) && matches!(flushed, Response::Flushed { .. });
    ok.then_some((sent, acked, done))
}

#[derive(Default)]
struct Pass {
    /// Per distinct paced frame: the fastest of its due → flushed times, in
    /// microseconds (see `probe::Rounds`).
    best_us: Vec<f64>,
    /// Per paced frame sent, in microseconds: due → flushed, sent → ack,
    /// ack → flushed, and how late the frame left.
    latency_us: Vec<f64>,
    ack_us: Vec<f64>,
    ack_to_flushed_us: Vec<f64>,
    late_us: Vec<f64>,
    read_us: Vec<f64>,
    /// Events of paced frames whose `Flushed` arrived, over the paced wall.
    throughput_eps: f64,
    burst_eps: f64,
    cpu_us_per_event: f64,
    /// `VmHWM` after the last burst, before the harness's own replay.
    rss_mb: f64,
    frames_sent: u64,
    /// Rounds the paced phase made.
    rounds: usize,
    refused: u64,
    read_errors: u64,
    mismatches: u64,
    /// The server's metrics after the paced phase and after the bursts.
    paced_scrape: Vec<PromFamily>,
    final_scrape: Vec<PromFamily>,
}

/// Warm-up, paced phase with the reader beside it, bursts, then the
/// correctness check and shutdown. The paced phase sends the forward frames,
/// then their inverses backward, round after round: `MIN_ROUNDS` rounds, and
/// up to `max_rounds` while the machine is disturbed.
fn run_pass(
    w: &Workload,
    inputs: &Inputs,
    mut server: Server,
    calib: &mut Calibration,
    tracer: Option<&Tracer>,
    max_rounds: usize,
) -> Pass {
    let mut pass = Pass::default();
    let seed = inputs.seed;
    pass.best_us = vec![f64::INFINITY; inputs.slots()];
    for batch in &inputs.warmup {
        pass.refused += send_frame(&mut server.writer, batch, None).is_none() as u64;
    }
    pass.frames_sent += inputs.warmup.len() as u64;

    // The server shares the two cores with the generator, so the
    // calibration kernel runs only while both are idle.
    calib.run(CALIB_RUNS);
    let stop = AtomicBool::new(false);
    let n = inputs.n as VertexId;
    let cpu0 = probe::cpu_us();
    let t0 = Instant::now();
    let mut paced_events = 0u64;
    let mut last_flushed = t0;
    let mut rounds = Rounds::new(max_rounds);
    std::thread::scope(|s| {
        let reader = &mut server.reader;
        let stop = &stop;
        let reads = s.spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EAD);
            let (mut lat, mut errors) = (Vec::new(), 0u64);
            while !stop.load(Ordering::Relaxed) {
                let t = Instant::now();
                let ok = reader.embedding(rng.random_range(0..n)).is_ok();
                let d = t.elapsed();
                if let Some(tr) = tracer {
                    tr.record_at("serve", "serve.read", t, d);
                }
                errors += !ok as u64;
                lat.push(d.as_secs_f64() * 1e6);
                std::thread::sleep(THINK_TIME);
            }
            (lat, errors)
        });
        let mut due = t0;
        while rounds.next() {
            for (slot, batch) in inputs.round() {
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                match send_frame(&mut server.writer, batch, tracer) {
                    Some((sent, acked, done)) => {
                        let us = |d: Duration| d.as_secs_f64() * 1e6;
                        pass.latency_us.push(us(done - due));
                        pass.best_us[slot] = pass.best_us[slot].min(us(done - due));
                        pass.ack_us.push(us(acked - sent));
                        pass.ack_to_flushed_us.push(us(done - acked));
                        pass.late_us.push(us(sent - due));
                        paced_events += batch.len() as u64;
                        last_flushed = done;
                        if let Some(tr) = tracer {
                            tr.record_at("harness", "update", due, done - due);
                        }
                    }
                    None => pass.refused += 1,
                }
                due += FRAME_GAP;
            }
        }
        stop.store(true, Ordering::Relaxed);
        let (lat, errors) = reads.join().expect("reader thread");
        pass.read_us = lat;
        pass.read_errors = errors;
    });
    pass.rounds = rounds.done;
    pass.frames_sent += (rounds.done * inputs.slots()) as u64;
    pass.throughput_eps = paced_events as f64 / (last_flushed - t0).as_secs_f64();
    pass.cpu_us_per_event = (probe::cpu_us() - cpu0) / paced_events.max(1) as f64;

    let scrape = |client: &mut InkClient| {
        parse_prometheus(&client.metrics().expect("scrape metrics"))
            .expect("the scrape is valid Prometheus text")
    };
    pass.paced_scrape = scrape(&mut server.writer);

    // Bursts: 256 update frames back to back, then one flush.
    let mut burst_rates = Vec::new();
    for burst in inputs.bursts.chunks(BURST_FRAMES) {
        let t = Instant::now();
        for batch in burst {
            server
                .writer
                .queue(&Request::Update(batch.changes().to_vec()))
                .expect("queue update");
        }
        server.writer.queue(&Request::Flush).expect("queue flush");
        for _ in burst {
            let ack = server.writer.recv().expect("read ack");
            pass.refused += !matches!(ack, Response::Ack { .. }) as u64;
        }
        let flushed = server.writer.recv().expect("read flushed");
        pass.refused += !matches!(flushed, Response::Flushed { .. }) as u64;
        let events: usize = burst.iter().map(DeltaBatch::len).sum();
        burst_rates.push(events as f64 / t.elapsed().as_secs_f64());
    }
    pass.frames_sent += inputs.bursts.len() as u64;
    pass.burst_eps = median(&mut burst_rates);
    pass.rss_mb = probe::peak_rss_mb();
    calib.run(CALIB_RUNS);

    // Every frame was flushed, so the snapshot must equal a full inference
    // over the graph with every sent change applied.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4EC);
    let sample: Vec<VertexId> = (0..CHECKED_READS).map(|_| rng.random_range(0..n)).collect();
    let read: Vec<Vec<f32>> = sample
        .iter()
        .map(|&v| {
            server
                .reader
                .embedding(v)
                .map(|(_, row)| row)
                .unwrap_or_default()
        })
        .collect();
    pass.final_scrape = scrape(&mut server.writer);
    drop((server.writer, server.reader));
    server.handle.shutdown().expect("graceful shutdown");

    let mut graph = inputs.build_graph();
    let paced = (0..pass.rounds).flat_map(|_| inputs.round().map(|(_, b)| b));
    for batch in inputs.warmup.iter().chain(paced).chain(&inputs.bursts) {
        batch.apply(&mut graph);
    }
    let replay = InkStream::new(
        w.model(),
        graph,
        inputs.features.clone(),
        UpdateConfig::default(),
    )
    .expect("replay bootstrap");
    pass.mismatches = sample
        .iter()
        .zip(&read)
        .filter(|(&v, row)| !same_bits(row, replay.output().row(v as usize)))
        .count() as u64;
    pass
}

impl Pass {
    fn attempted(&self) -> u64 {
        self.frames_sent + (self.read_us.len() + CHECKED_READS) as u64
    }

    fn failed(&self) -> u64 {
        self.refused + self.read_errors + self.mismatches
    }
}

/// The inputs of a run of `seconds`; the bursts shrink with the run so a
/// 1/20-length check stays short.
fn inputs_for(w: &Workload, seed: u64, seconds: f64) -> Inputs {
    let paced = 2 * MIN_ROUNDS * w.op_counts(seconds).1;
    Inputs::generate(w, seed, seconds, BURSTS * BURST_FRAMES.min(paced))
}

/// The timed pass: tracing off, end-to-end metrics only.
pub fn timed(w: &'static Workload, seed: u64, seconds: f64) -> Outcome {
    let inputs = inputs_for(w, seed, seconds);
    let mut calib = Calibration::new();

    let t = Instant::now();
    let server = start(w, &inputs);
    let mut setups = vec![t.elapsed().as_secs_f64()];
    let mut pass = run_pass(w, &inputs, server, &mut calib, None, MAX_ROUNDS);
    // The other set-ups come last, as in `inproc::timed`.
    for _ in 1..SETUP_REPEATS {
        let t = Instant::now();
        let Server {
            handle,
            writer,
            reader,
        } = start(w, &inputs);
        setups.push(t.elapsed().as_secs_f64());
        drop((writer, reader));
        handle.shutdown().expect("graceful shutdown");
    }
    calib.print(w.name);
    println!("{}/harness.rounds {} count", w.name, pass.rounds);
    println!("{}/serve.burst_eps {:.1} events/s", w.name, pass.burst_eps);
    let metrics = end_to_end(
        w.name,
        &mut pass.best_us,
        pass.throughput_eps,
        pass.rss_mb,
        &mut setups,
    );
    Outcome {
        attempted: pass.attempted(),
        failed: pass.failed(),
        metrics,
    }
}

/// The traced pass: the same frames against two fresh servers, first
/// untraced (the base of `harness.trace_overhead_share`), then with spans.
pub fn traced(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    trace_path: &std::path::Path,
) -> Outcome {
    let inputs = inputs_for(w, seed, seconds / 2.0);
    let mut calib = Calibration::new();
    let base = run_pass(w, &inputs, start(w, &inputs), &mut calib, None, MIN_ROUNDS);

    let tracer = Tracer::new(16 * MIN_ROUNDS * inputs.slots() + 65_536);
    let t = Instant::now();
    let server = start(w, &inputs);
    let setup_s = t.elapsed().as_secs_f64();
    let mut pass = run_pass(w, &inputs, server, &mut calib, Some(&tracer), MIN_ROUNDS);

    let mut metrics = Metrics::new(PER_LAYER);
    // Histogram means come from the scrape taken before the bursts, which
    // queue 256 frames at once and would swamp the paced waits.
    let (paced, s) = (&pass.paced_scrape, &pass.final_scrape);
    let hist_mean_us = |name: &str| {
        prom(paced, &format!("{name}_sum")) / prom(paced, &format!("{name}_count")).max(1.0) / 1e3
    };
    let mean_us = mean(&pass.latency_us);
    let admission_us = hist_mean_us("ink_serve_admission_wait_ns");
    metrics.set("gnn.bootstrap_s", setup_s);
    metrics.set("serve.ack_us_p50", percentile(&mut pass.ack_us, 0.50));
    metrics.set(
        "serve.ack_to_flushed_us_p50",
        percentile(&mut pass.ack_to_flushed_us, 0.50),
    );
    metrics.set(
        "serve.update_us_p99",
        percentile(&mut pass.latency_us, 0.99),
    );
    metrics.set("serve.admission_wait_us_mean", admission_us);
    metrics.set("serve.apply_us_mean", hist_mean_us("ink_serve_apply_ns"));
    metrics.set(
        "serve.query_us_mean",
        hist_mean_us("ink_serve_query_latency_ns"),
    );
    metrics.set("serve.unattributed_us_mean", mean_us - admission_us);
    metrics.set("serve.read_us_p50", percentile(&mut pass.read_us, 0.50));
    metrics.set("serve.read_us_p90", percentile(&mut pass.read_us, 0.90));
    metrics.set("serve.burst_eps", pass.burst_eps);
    let received = prom(s, "ink_serve_events_received_total");
    let applied = prom(s, "ink_serve_events_applied_total");
    metrics.set("serve.epochs", prom(s, "ink_serve_epochs"));
    metrics.set("serve.events_received", received);
    metrics.set("serve.events_applied", applied);
    metrics.set("serve.coalesce_ratio", received / applied.max(1.0));
    metrics.set(
        "serve.updates_rejected",
        prom(s, "ink_serve_updates_rejected_total"),
    );
    metrics.set(
        "serve.queue_depth_max",
        prom(s, "ink_serve_queue_depth_max"),
    );
    metrics.set("serve.conn_stalls", prom(s, "ink_serve_conn_stalls_total"));
    let (encode_us, decode_us) = probe::wire_us(crate::workloads::HIDDEN);
    metrics.set("serve.encode_us", encode_us);
    metrics.set("serve.decode_us", decode_us);
    // The engine behind the server, seen through the session's instruments.
    let n = prom(paced, "ink_session_batches_total").max(1.0);
    for phase in ["generate", "group", "apply", "write", "next_messages"] {
        metrics.set(
            &format!("core.phase_{phase}_us"),
            hist_mean_us(&format!("ink_pipeline_phase_{phase}_ns")),
        );
    }
    metrics.set(
        "core.real_affected",
        prom(paced, "ink_session_affected_total") / n,
    );
    metrics.set(
        "core.output_changed",
        prom(paced, "ink_session_output_changed_total") / n,
    );
    metrics.set(
        "core.skipped_changes",
        prom(paced, "ink_session_skipped_total") / n,
    );
    metrics.set(
        "harness.gen_late_us_p90",
        percentile(&mut pass.late_us, 0.90),
    );
    let (calib_ms, calib_drift) = calib.summary();
    metrics.set("harness.calib_ms", calib_ms);
    metrics.set("harness.calib_drift", calib_drift);
    metrics.set("harness.cpu_us_per_event", pass.cpu_us_per_event);
    metrics.set(
        "harness.trace_overhead_share",
        mean(&pass.best_us) / mean(&base.best_us) - 1.0,
    );

    let spans_ok = write_trace(&tracer, trace_path, pass.latency_us.len());
    Outcome {
        attempted: base.attempted() + pass.attempted() + 1,
        failed: base.failed() + pass.failed() + !spans_ok as u64,
        metrics,
    }
}
