//! The readiness-based TCP server.
//!
//! Thread layout (no async runtime — non-blocking `std::net` sockets driven
//! by the workspace `mio` shim's poll(2) selector):
//!
//! * **event-loop thread** — one thread multiplexes the listener and every
//!   client connection through [`mio::Poll`]. It assembles frames from
//!   partial reads (`conn::Conn`), decodes one request per frame, answers
//!   queries straight from the current
//!   [`inkstream::snapshot::EmbeddingSnapshot`] — embedding rows are
//!   serialized directly from the snapshot buffer into the connection's
//!   write queue, no intermediate `Response` allocation — and routes
//!   updates into the one [`IngestQueue`] FIFO. Pipelined responses go out
//!   strictly in request order per connection.
//! * **writer thread** — the only thread that owns the [`StreamSession`]:
//!   drains a prefix of the queue, coalesces it into one net
//!   [`DeltaBatch`], ingests it, and publishes a fresh snapshot epoch —
//!   all on this one thread, so
//!   admission order, epoch monotonicity and flush-barrier semantics need
//!   no hand-off to preserve them. It parks on the queue's condvar between
//!   drains (no polling) and signals the event loop through a
//!   [`mio::Waker`] when flush barriers resolve or queue space frees up.
//!
//! Readers therefore never block on an in-flight update: a query served
//! mid-apply simply sees the previous epoch. Backpressure is
//! per-connection — a full queue under [`Backpressure::Block`] parks the
//! one update that found it full (`conn::Conn::pending`) and pauses reading
//! that connection, while every other connection keeps being served.
//! [`ServerHandle::shutdown`] closes the queue, lets the writer drain what
//! was admitted, delivers the final flush acks, writes a checkpoint (when
//! configured) and returns the session, whose registry holds the serving
//! layer's instruments alongside its own.
//!
//! The wire format is specified normatively in `docs/PROTOCOL.md`.

use crate::conn::Conn;
use crate::metrics::ServerMetrics;
use crate::protocol::{
    append_frame, encode_embedding, Request, Response, MAX_FRAME, PROTOCOL_VERSION,
};
use crate::queue::{Admission, Backpressure, Drained, IngestQueue};
use ink_graph::{DeltaBatch, EdgeChange, VertexId};
use ink_obs::{MetricsRegistry, Tracer};
use inkstream::snapshot::{EmbeddingSnapshot, SnapshotPublisher, SnapshotReader};
use inkstream::{InkStream, StreamSession};
use mio::{Events, Interest, Poll, Token, Waker};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poll token of the TCP listener.
const LISTENER: usize = 0;
/// Poll token of the writer-thread waker.
const WAKER: usize = 1;
/// First token handed to a client connection.
const FIRST_CONN: usize = 2;
/// Upper bound on one event-loop tick: the poll timeout used when no I/O is
/// ready. Wakeups (new completions, freed queue space, shutdown) arrive
/// eagerly through the waker; this only bounds the idle tick.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Server tunables. See the README "Serving" section for a capacity-planning
/// guide relating these to client counts and update rates.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Ingest capacity in pending update batches (0 is read as 1).
    pub queue_capacity: usize,
    /// What happens to updates arriving while the queue is full.
    pub backpressure: Backpressure,
    /// Maximum update batches drained (and coalesced) into one epoch.
    pub max_drain: usize,
    /// Where the shutdown checkpoint goes (`None` disables it).
    pub checkpoint_path: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            backpressure: Backpressure::Block,
            max_drain: 32,
            checkpoint_path: None,
        }
    }
}

/// Everything the two threads share.
struct Shared {
    ingest: IngestQueue,
    metrics: ServerMetrics,
    /// The session's registry (the serve instruments are registered into it
    /// too), rendered by the `Metrics` request.
    registry: Arc<MetricsRegistry>,
    /// The span tracer; request handlers add `serve`-category spans, and
    /// the `TraceDump` request dumps the ring.
    tracer: Arc<Tracer>,
    reader: SnapshotReader,
    epochs: AtomicU64,
    shutdown: AtomicBool,
    /// Vertex-id bound for validating updates before they reach the graph.
    num_vertices: u64,
    /// Output embedding width, reported by `Hello`.
    feat_dim: u32,
    directed: bool,
    /// Wakes the event loop out of `poll` (writer → loop signal).
    waker: Arc<Waker>,
}

impl Shared {
    /// Refreshes the gauges that live with the queue and the writer, so a
    /// scrape reflects this instant.
    fn refresh_gauges(&self) {
        let m = &self.metrics;
        m.epochs.set_u64(self.epochs.load(Ordering::Relaxed));
        m.queue_depth.set_u64(self.ingest.depth());
        m.queue_depth_max.set_u64(self.ingest.max_depth());
        m.lock_poisoned.set_u64(self.ingest.poisoned_reads());
    }
}

/// The entry point: bind, spawn the thread pair, return a handle.
pub struct InkServer;

impl InkServer {
    /// Starts serving `session` on `addr` (use port 0 for an ephemeral
    /// port; the bound address is on the returned handle).
    pub fn bind(
        addr: impl ToSocketAddrs,
        session: StreamSession,
        config: ServeConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let engine = session.engine();
        let (publisher, reader) = SnapshotPublisher::new(engine.output().clone());
        let poll = Poll::new()?;
        poll.register(&listener, Token(LISTENER), Interest::READABLE)?;
        let waker = Arc::new(Waker::new(&poll, Token(WAKER))?);
        let (completions_tx, completions_rx) = sync_channel(1024);
        let registry = session.metrics().clone();
        let shared = Arc::new(Shared {
            ingest: IngestQueue::new(config.queue_capacity.max(1), config.backpressure),
            metrics: ServerMetrics::register(&registry),
            registry,
            tracer: session.tracer().clone(),
            reader,
            epochs: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            num_vertices: engine.graph().num_vertices() as u64,
            feat_dim: engine.output().cols() as u32,
            directed: engine.graph().is_directed(),
            waker,
        });
        let writer_thread = {
            let shared = shared.clone();
            let max_drain = config.max_drain;
            std::thread::Builder::new()
                .name("ink-serve-writer".into())
                .spawn(move || writer_loop(session, publisher, shared, max_drain, completions_tx))?
        };
        let event_thread = {
            let shared = shared.clone();
            std::thread::Builder::new().name("ink-serve-loop".into()).spawn(move || {
                EventLoop {
                    poll,
                    listener,
                    conns: HashMap::new(),
                    next_token: FIRST_CONN,
                    shared,
                    completions: completions_rx,
                    flush_waiters: HashMap::new(),
                    next_flush_id: 0,
                }
                .run()
            })?
        };
        Ok(ServerHandle {
            addr,
            shared,
            event_thread: Some(event_thread),
            writer_thread: Some(writer_thread),
            checkpoint_path: config.checkpoint_path,
        })
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] stops the threads without draining — call
/// `shutdown` for a graceful drain.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    event_thread: Option<JoinHandle<()>>,
    writer_thread: Option<JoinHandle<StreamSession>>,
    checkpoint_path: Option<PathBuf>,
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Un-graceful path: stop the threads so tests that panic don't hang.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.ingest.close();
        let _ = self.shared.waker.wake();
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current snapshot epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.epochs.load(Ordering::Relaxed)
    }

    /// An in-process reader of the published snapshots — what the query
    /// path loads from, without the wire in between.
    pub fn snapshot_reader(&self) -> SnapshotReader {
        self.shared.reader.clone()
    }

    /// Graceful shutdown: stop admitting work, let the writer apply
    /// everything admitted and publish the final epoch, stop the event loop
    /// (which delivers the final flush acks and best-effort writes before
    /// the sockets drop), write the checkpoint (when configured) and return
    /// the session. Its registry ([`StreamSession::metrics`]) holds the
    /// `ink_serve_*` instruments with their final values. The checkpoint
    /// goes to a
    /// temp file renamed over the path, so a crash mid-write never tears it. A
    /// checkpoint that cannot be written fails the shutdown after the drain
    /// and leaves the path as it was.
    pub fn shutdown(mut self) -> io::Result<StreamSession> {
        self.shared.ingest.close();
        let writer = self.writer_thread.take().expect("shutdown runs once");
        let session =
            writer.join().map_err(|_| io::Error::other("ink-serve writer thread panicked"))?;
        // Flag the loop only after the writer has drained — its last flush
        // completions are already in the channel, so the loop's exit pass
        // cannot miss them.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = self.shared.waker.wake();
        if let Some(ev) = self.event_thread.take() {
            ev.join().map_err(|_| io::Error::other("ink-serve event loop panicked"))?;
        }
        if let Some(path) = &self.checkpoint_path {
            write_checkpoint(session.engine(), path)?;
        }
        self.shared.refresh_gauges();
        Ok(session)
    }
}

/// Writes `engine`'s checkpoint to a sibling temp file, syncs it, renames it
/// over `path` and syncs the directory, so `path` only ever holds a whole
/// checkpoint. On any error only the temp file is removed: the previous
/// checkpoint at `path`, if any, survives unchanged.
fn write_checkpoint(engine: &InkStream, path: &Path) -> io::Result<()> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let written = std::fs::File::create(&tmp).and_then(|mut f| {
        inkstream::checkpoint::save(engine, &mut f)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        std::fs::File::open(dir)?.sync_all()
    });
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Applies and publishes one drained queue prefix as an epoch: coalesce,
/// ingest, publish, record the latency attribution (apply-only service
/// time; admission-to-visibility wait per drained batch), resolve the flush
/// barriers drained with it, and signal the event loop. Flush ids ride
/// *inside* the drain they follow, so acking after its epoch publishes
/// preserves read-your-writes exactly.
fn apply_epoch(
    session: &mut StreamSession,
    publisher: &mut SnapshotPublisher,
    dirty_rows: &mut Vec<VertexId>,
    shared: &Shared,
    completions: &SyncSender<(u64, u64)>,
    drained: Drained,
) {
    let Drained { changes, flushes, admitted, .. } = drained;
    let received = changes.len() as u64;
    let batch = DeltaBatch::new(changes).coalesce(shared.directed);
    if !batch.is_empty() {
        let _span = shared.tracer.span("serve", "epoch");
        shared.metrics.events_received.add(received);
        shared.metrics.events_applied.add(batch.len() as u64);
        let apply_start = Instant::now();
        {
            let _span = shared.tracer.span("serve", "ingest");
            // A Fail drift-policy breach: the batch is applied but the
            // audit refused the state. The serving loop keeps going.
            if session.ingest(&batch).is_err() {
                shared.metrics.apply_errors.inc();
            }
        }
        let epoch = shared.epochs.load(Ordering::Relaxed) + 1;
        let publish_start = Instant::now();
        let published = {
            let _span = shared.tracer.span("serve", "publish");
            // Copy only the rows the engine rewrote since the last publish,
            // when it knows them.
            dirty_rows.clear();
            let known = session.engine_mut().take_dirty_rows(dirty_rows);
            let rows = known.then_some(&dirty_rows[..]);
            publisher.publish_rows(session.engine().output(), rows, epoch)
        };
        let done = Instant::now();
        shared.metrics.publish_latency.record((done - publish_start).as_nanos() as u64);
        shared.metrics.publish_rows.record(published.rows_copied as u64);
        if published.full_copy {
            shared.metrics.publish_full.inc();
        }
        shared.metrics.apply_latency.record((done - apply_start).as_nanos() as u64);
        shared.epochs.store(epoch, Ordering::SeqCst);
    }
    // Every batch in this drain is snapshot-visible from here on: the gap
    // back to its admission stamp is pure queueing wait.
    let visible_at = Instant::now();
    for t in &admitted {
        shared
            .metrics
            .admission_wait
            .record(visible_at.saturating_duration_since(*t).as_nanos() as u64);
    }
    let epoch = shared.epochs.load(Ordering::Relaxed);
    shared.refresh_gauges();
    let mut wake = !admitted.is_empty(); // freed queue space: stalled conns can retry
    for flush_id in flushes {
        shared.metrics.flushes.inc();
        wake = true;
        if let Err(TrySendError::Full(item)) = completions.try_send((flush_id, epoch)) {
            // Channel full: wake the loop so it drains, then block.
            let _ = shared.waker.wake();
            let _ = completions.send(item); // a vanished loop is shutdown
        }
    }
    if wake {
        let _ = shared.waker.wake();
    }
}

/// The writer: owns the session and the epoch counter, and runs drain →
/// coalesce → apply → publish on one thread until the queue is closed and
/// empty.
fn writer_loop(
    mut session: StreamSession,
    mut publisher: SnapshotPublisher,
    shared: Arc<Shared>,
    max_drain: usize,
    completions: SyncSender<(u64, u64)>,
) -> StreamSession {
    // Reused across epochs: the rows each publish has to copy.
    let mut dirty_rows: Vec<VertexId> = Vec::new();
    loop {
        let drained = shared.ingest.drain_wait(max_drain);
        let finished = drained.finished;
        apply_epoch(&mut session, &mut publisher, &mut dirty_rows, &shared, &completions, drained);
        if finished {
            return session;
        }
    }
}

/// The one-thread readiness loop multiplexing the listener, the waker and
/// every client connection.
struct EventLoop {
    poll: Poll,
    listener: TcpListener,
    conns: HashMap<usize, Conn>,
    next_token: usize,
    shared: Arc<Shared>,
    /// Writer → loop: `(flush_id, epoch)` per resolved barrier.
    completions: Receiver<(u64, u64)>,
    /// Which connection waits on which flush barrier.
    flush_waiters: HashMap<u64, usize>,
    next_flush_id: u64,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = Events::with_capacity(1024);
        loop {
            let _ = self.poll.poll(&mut events, Some(POLL_INTERVAL));
            let fired: Vec<(usize, bool, bool)> =
                events.iter().map(|e| (e.token().0, e.is_readable(), e.is_writable())).collect();
            for (token, readable, writable) in fired {
                match token {
                    LISTENER => self.accept_ready(),
                    WAKER => {} // byte already drained by the poll shim
                    token => self.conn_ready(token, readable, writable),
                }
            }
            // Run the writer-signalled work every tick (not only on waker
            // events) so progress never depends on wakeup delivery.
            self.drain_completions();
            self.retry_stalled();
            if self.shared.shutdown.load(Ordering::Relaxed) {
                // The writer has exited: every completion is already in the
                // channel. Deliver them, flush what the sockets accept, go.
                self.drain_completions();
                let tokens: Vec<usize> = self.conns.keys().copied().collect();
                for token in tokens {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.write_ready();
                    }
                }
                return;
            }
        }
    }

    /// Accepts everything pending on the listener (level-triggered, so a
    /// backlog left behind re-fires the next tick).
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    let mut conn = Conn::new(stream, token);
                    if self.poll.register(&conn.stream, Token(token), Interest::READABLE).is_ok() {
                        conn.registered = (true, false);
                        self.conns.insert(token, conn);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    // Per-connection failures (ECONNABORTED, ECONNRESET) and
                    // resource exhaustion (EMFILE) surface from accept();
                    // none invalidate the listener, so count and move on.
                    self.shared.metrics.accept_errors.inc();
                    break;
                }
            }
        }
        self.shared.metrics.connections.set_u64(self.conns.len() as u64);
    }

    /// One connection's readiness: read what's there, write what fits, then
    /// advance its request pipeline.
    fn conn_ready(&mut self, token: usize, readable: bool, writable: bool) {
        {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if readable {
                conn.fill_read_buf();
            }
            if writable {
                conn.write_ready();
            }
        }
        self.advance(token);
    }

    /// Drives a connection as far as it can go: retry a parked update,
    /// parse and answer buffered frames, write, then reconcile poll
    /// interest and lifecycle.
    fn advance(&mut self, token: usize) {
        loop {
            let shared = &self.shared;
            let flush_waiters = &mut self.flush_waiters;
            let next_flush_id = &mut self.next_flush_id;
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if conn.dead {
                break;
            }
            if let Some(changes) = conn.pending.take() {
                if !admit(shared, conn, changes) {
                    break; // still stalled on a full queue
                }
            }
            match conn.next_frame(MAX_FRAME) {
                Ok(Some(payload)) => {
                    process_frame(shared, conn, flush_waiters, next_flush_id, &payload)
                }
                Ok(None) => break,
                Err(()) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        let Some(conn) = self.conns.get_mut(&token) else { return };
        conn.write_ready();
        if conn.dead || (conn.peer_eof && conn.pending.is_none() && conn.is_drained()) {
            self.close_conn(token);
            return;
        }
        self.sync_interest(token);
    }

    /// Delivers resolved flush barriers to their waiting connections.
    fn drain_completions(&mut self) {
        let mut touched = Vec::new();
        while let Ok((flush_id, epoch)) = self.completions.try_recv() {
            let Some(token) = self.flush_waiters.remove(&flush_id) else { continue };
            if let Some(conn) = self.conns.get_mut(&token) {
                let _ = conn.complete_flush(flush_id, |buf| {
                    append_frame(buf, |b| Response::Flushed { epoch }.encode_into(b))
                });
                touched.push(token);
            }
        }
        for token in touched {
            self.advance(token);
        }
    }

    /// Gives admission-stalled connections another try (queue space may have
    /// freed up after a writer drain). The queue is one FIFO, so once a
    /// connection stalls again it is full for every other one too: stop
    /// there, and the writer's next wake retries the rest.
    fn retry_stalled(&mut self) {
        let stalled: Vec<usize> =
            self.conns.iter().filter(|(_, c)| c.pending.is_some()).map(|(t, _)| *t).collect();
        for token in stalled {
            self.advance(token);
            if self.conns.get(&token).is_some_and(|c| c.pending.is_some()) {
                break;
            }
        }
    }

    /// Reconciles the connection's poll registration with what it currently
    /// wants, reregistering only on change.
    fn sync_interest(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let want = (conn.wants_read(), conn.wants_write());
        if want == conn.registered {
            return;
        }
        let interest = match want {
            (true, true) => Some(Interest::READABLE | Interest::WRITABLE),
            (true, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::WRITABLE),
            (false, false) => None,
        };
        match interest {
            Some(i) => {
                let ok = if conn.registered == (false, false) {
                    self.poll.register(&conn.stream, Token(token), i).is_ok()
                } else {
                    self.poll.reregister(&conn.stream, Token(token), i).is_ok()
                };
                if ok {
                    conn.registered = want;
                }
            }
            None => {
                let _ = self.poll.deregister(&conn.stream);
                conn.registered = (false, false);
            }
        }
    }

    fn close_conn(&mut self, token: usize) {
        if let Some(conn) = self.conns.remove(&token) {
            // A barrier queued on a dying connection must not leave a
            // dangling waiter.
            for id in conn.queued_flush_ids() {
                self.flush_waiters.remove(&id);
            }
            if conn.registered != (false, false) {
                let _ = self.poll.deregister(&conn.stream);
            }
            self.shared.metrics.connections.set_u64(self.conns.len() as u64);
        }
    }
}

/// Decodes one frame and answers it. A decode failure — an unknown tag
/// included — answers with an `Error` frame and keeps the connection
/// (framing is still intact: the length prefix was valid). Only an update
/// stalled on a full queue and a flush barrier leave their answer for later.
fn process_frame(
    shared: &Shared,
    conn: &mut Conn,
    flush_waiters: &mut HashMap<u64, usize>,
    next_flush_id: &mut u64,
    payload: &[u8],
) {
    let req = match Request::decode(payload) {
        Ok(req) => req,
        Err(e) => {
            let message = format!("bad request: {e}");
            return push_frame(conn, |b| Response::Error { message }.encode_into(b));
        }
    };
    match req {
        Request::Update(changes) => {
            if !admit(shared, conn, changes) {
                shared.metrics.stalls.inc();
            }
        }
        Request::Flush => {
            let id = *next_flush_id;
            *next_flush_id += 1;
            if shared.ingest.push_flush(id) {
                flush_waiters.insert(id, conn.token);
                conn.push_flush_marker(id);
            } else {
                push_frame(conn, |b| {
                    Response::Error { message: "server is shutting down".into() }.encode_into(b)
                });
            }
        }
        Request::Hello { .. } => {
            let resp = Response::Hello {
                version: PROTOCOL_VERSION,
                num_vertices: shared.num_vertices,
                feat_dim: shared.feat_dim,
                epoch: shared.epochs.load(Ordering::Relaxed),
            };
            push_frame(conn, |b| resp.encode_into(b));
        }
        Request::Embedding(v) => push_frame(conn, |b| {
            read_into(shared, "embedding", v, b, |snap, b| {
                encode_embedding(b, snap.epoch, snap.embeddings.row(v as usize))
            })
        }),
        Request::TopK { vertex, k } => push_frame(conn, |b| {
            read_into(shared, "top_k", vertex, b, |snap, b| {
                Response::TopK { epoch: snap.epoch, items: top_k(snap, vertex, k as usize) }
                    .encode_into(b)
            })
        }),
        Request::Metrics => {
            let _span = shared.tracer.span("serve", "metrics");
            shared.refresh_gauges();
            let text = shared.registry.render_prometheus();
            push_frame(conn, |b| Response::Metrics { text }.encode_into(b));
        }
        Request::TraceDump => {
            let _span = shared.tracer.span("serve", "trace_dump");
            let json = shared.tracer.dump_chrome_trace();
            push_frame(conn, |b| Response::TraceDump { json }.encode_into(b));
        }
    }
}

/// Validates and queues one update, answering it on `conn`. Returns `false`
/// when the queue is full under Block backpressure: the update parks in
/// `conn.pending`, unanswered, and the loop retries it after the next
/// writer drain.
fn admit(shared: &Shared, conn: &mut Conn, changes: Vec<EdgeChange>) -> bool {
    let _span = shared.tracer.span("serve", "update");
    let resp = if let Some(c) = changes.iter().find(|c| {
        c.src as u64 >= shared.num_vertices || c.dst as u64 >= shared.num_vertices || c.src == c.dst
    }) {
        Response::Error {
            message: format!(
                "invalid edge {} -> {} (graph has {} vertices)",
                c.src, c.dst, shared.num_vertices
            ),
        }
    } else {
        // Read the epoch before the push: once queued, the writer may publish
        // the update before this thread runs again, and the ack must name an
        // epoch that does not contain it.
        let epoch = shared.epochs.load(Ordering::Relaxed);
        match shared.ingest.try_push_updates(&changes) {
            Admission::Accepted => {
                shared.metrics.updates_enqueued.inc();
                Response::Ack { epoch }
            }
            Admission::Rejected { retry_after_ms } => {
                shared.metrics.updates_rejected.inc();
                Response::Rejected { retry_after_ms }
            }
            Admission::Full => {
                conn.pending = Some(changes);
                return false;
            }
            Admission::Closed => Response::Error { message: "server is shutting down".into() },
        }
    };
    push_frame(conn, |b| resp.encode_into(b));
    true
}

/// Answers a read of `vertex` from the current snapshot into `buf` with
/// `encode` (an `Error` when the vertex is out of range) and records its
/// service time. Embedding rows go straight from the snapshot buffer to the
/// wire — no intermediate `Response` allocation.
fn read_into(
    shared: &Shared,
    span: &'static str,
    vertex: VertexId,
    buf: &mut Vec<u8>,
    encode: impl FnOnce(&EmbeddingSnapshot, &mut Vec<u8>),
) {
    let _span = shared.tracer.span("serve", span);
    let t = Instant::now();
    let snap = shared.reader.load();
    if (vertex as usize) < snap.embeddings.rows() {
        encode(&snap, buf);
    } else {
        let rows = snap.embeddings.rows();
        Response::Error { message: format!("vertex {vertex} out of range ({rows} rows)") }
            .encode_into(buf);
    }
    shared.metrics.record_query(t.elapsed());
}

/// Appends one framed response built by `build`; an over-limit frame is
/// replaced by a (small) error frame so the stream never desyncs.
fn push_frame(conn: &mut Conn, build: impl FnOnce(&mut Vec<u8>)) {
    if conn.push_bytes(|out| append_frame(out, build)).is_err() {
        let _ = conn.push_bytes(|out| {
            append_frame(out, |b| {
                Response::Error { message: "response exceeds the frame limit".into() }
                    .encode_into(b)
            })
        });
    }
}

/// The `k` vertices most similar to `vertex` by embedding dot product
/// (excluding the query vertex itself), descending score, ties broken by
/// lower vertex id — fully deterministic for a given snapshot.
fn top_k(snap: &EmbeddingSnapshot, vertex: u32, k: usize) -> Vec<(u32, f32)> {
    let q = snap.embeddings.row(vertex as usize);
    let mut scored: Vec<(u32, f32)> = (0..snap.embeddings.rows() as u32)
        .filter(|&v| v != vertex)
        .map(|v| {
            let row = snap.embeddings.row(v as usize);
            let score: f32 = q.iter().zip(row).map(|(a, b)| a * b).sum();
            (v, score)
        })
        .collect();
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
    });
    scored.truncate(k);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use ink_tensor::Matrix;

    #[test]
    fn top_k_is_deterministic_and_excludes_self() {
        let m = Matrix::from_vec(4, 2, vec![1.0, 0.0, 1.0, 0.0, 0.5, 0.0, 0.0, 1.0]);
        let snap = EmbeddingSnapshot { epoch: 1, embeddings: m };
        let items = top_k(&snap, 0, 3);
        assert_eq!(items.len(), 3);
        assert_eq!(items[0], (1, 1.0), "identical row wins");
        assert_eq!(items[1], (2, 0.5));
        assert_eq!(items[2], (3, 0.0));
        // k larger than the graph truncates cleanly.
        assert_eq!(top_k(&snap, 0, 99).len(), 3);
    }

    #[test]
    fn top_k_breaks_ties_by_lower_id() {
        let m = Matrix::from_vec(4, 1, vec![1.0, 2.0, 2.0, -1.0]);
        let snap = EmbeddingSnapshot { epoch: 1, embeddings: m };
        let items = top_k(&snap, 0, 2);
        assert_eq!(items, vec![(1, 2.0), (2, 2.0)]);
    }
}
