//! The readiness-based TCP server.
//!
//! Thread layout (no async runtime — non-blocking `std::net` sockets driven
//! by the workspace `mio` shim, epoll on Linux with a portable `poll`
//! fallback):
//!
//! * **event-loop thread** — one thread multiplexes the listener and every
//!   client connection through [`mio::Poll`]. It assembles frames from
//!   partial reads (`conn::Conn`), decodes requests (protocol v1
//!   frames and v2 [`Request::Batch`] containers alike), answers queries
//!   straight from the current
//!   [`inkstream::snapshot::EmbeddingSnapshot`] — embedding rows are
//!   serialized directly from the snapshot buffer into the connection's
//!   write queue, no intermediate `Response` allocation — and routes
//!   updates into the one [`IngestQueue`] FIFO. Pipelined responses go out
//!   strictly in request order per connection.
//! * **writer thread** — the only thread that owns the
//!   [`StreamSession`] (over any [`Engine`]: a single `InkStream`, or the
//!   partition-parallel driver from `ink-partition`): drains a prefix of
//!   the queue, coalesces it into one net [`DeltaBatch`], ingests it, and
//!   publishes a fresh snapshot epoch — all on this one thread, so
//!   admission order, epoch monotonicity and flush-barrier semantics need
//!   no hand-off to preserve them. It parks on the queue's condvar between
//!   drains (no polling) and signals the event loop through a
//!   [`mio::Waker`] when flush barriers resolve or queue space frees up.
//!
//! Readers therefore never block on an in-flight update: a query served
//! mid-apply simply sees the previous epoch. Backpressure is
//! per-connection — a full queue under [`Backpressure::Block`] parks the
//! offending connection's half-processed frame (`conn::PendingFrame`)
//! and pauses reading it, while every other connection keeps being served.
//! [`ServerHandle::shutdown`] closes the queue, lets the writer drain what
//! was admitted, delivers the final flush acks, writes a checkpoint (when
//! configured) and returns the session for inspection.
//!
//! The wire format is specified normatively in `docs/PROTOCOL.md`.

use crate::conn::{Conn, PendingFrame};
use crate::metrics::ServerMetrics;
use crate::protocol::{
    append_frame, encode_embedding, Request, Response, MAX_FRAME, PROTOCOL_VERSION,
};
use crate::queue::{Admission, Backpressure, Drained, IngestQueue};
use ink_graph::{DeltaBatch, EdgeChange, VertexId};
use ink_obs::{MetricsRegistry, Tracer};
use ink_tensor::Matrix;
use inkstream::snapshot::{EmbeddingSnapshot, SnapshotPublisher, SnapshotReader};
use inkstream::{Engine, InkStream, SessionSummary, StreamSession};
use mio::{Events, Interest, Poll, Token, Waker};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poll token of the TCP listener.
const LISTENER: usize = 0;
/// Poll token of the writer-thread waker.
const WAKER: usize = 1;
/// First token handed to a client connection.
const FIRST_CONN: usize = 2;

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
    /// Upper bound on one event-loop tick: the poll timeout used when no
    /// I/O is ready. Wakeups (new completions, freed queue space, shutdown)
    /// arrive eagerly through the waker; this only bounds the idle tick.
    pub poll_interval: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            backpressure: Backpressure::Block,
            max_drain: 32,
            checkpoint_path: None,
            poll_interval: Duration::from_millis(50),
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
    /// Refreshed by the writer after every epoch; the `stats` request folds
    /// live queue metrics on top.
    summary: Mutex<SessionSummary>,
    epochs: AtomicU64,
    shutdown: AtomicBool,
    /// Vertex-id bound for validating updates before they reach the graph.
    num_vertices: u64,
    /// Output embedding width, reported by `Hello`.
    feat_dim: u32,
    directed: bool,
    poll_interval: Duration,
    /// Wakes the event loop out of `poll` (writer → loop signal).
    waker: Arc<Waker>,
}

impl Shared {
    /// The `stats` response: last published session summary + live serve
    /// counters.
    fn stats_summary(&self) -> SessionSummary {
        let mut summary = self.summary.lock().expect("summary lock poisoned").clone();
        summary.serve = self.metrics.serve_stats(
            self.epochs.load(Ordering::Relaxed),
            self.ingest.depth(),
            self.ingest.max_depth(),
            self.ingest.poisoned_reads(),
        );
        summary
    }
}

/// The entry point: bind, spawn the thread pair, return a handle.
pub struct InkServer;

impl InkServer {
    /// Starts serving `session` on `addr` (use port 0 for an ephemeral
    /// port; the bound address is on the returned handle). The session may
    /// wrap any [`Engine`]; every engine applies the identical globally
    /// ordered, globally coalesced batch stream, so the published snapshots
    /// are bitwise equal whichever one runs.
    pub fn bind<E: Engine + Send + 'static>(
        addr: impl ToSocketAddrs,
        session: StreamSession<E>,
        config: ServeConfig,
    ) -> io::Result<ServerHandle<E>> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let engine = session.engine();
        let (rows, cols) = engine.shape();
        let mut bootstrap = Matrix::zeros(rows, cols);
        engine.copy_into(&mut bootstrap);
        let (publisher, reader) = SnapshotPublisher::new(bootstrap);
        let poll = Poll::new()?;
        poll.register(&listener, Token(LISTENER), Interest::READABLE)?;
        let waker = Arc::new(Waker::new(&poll, Token(WAKER))?);
        let (completions_tx, completions_rx) = crossbeam::channel::bounded(1024);
        let registry = session.metrics().clone();
        let shared = Arc::new(Shared {
            ingest: IngestQueue::new(config.queue_capacity.max(1), config.backpressure),
            metrics: ServerMetrics::register(&registry),
            registry,
            tracer: session.tracer().clone(),
            reader,
            summary: Mutex::new(session.summary()),
            epochs: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            num_vertices: engine.graph().num_vertices() as u64,
            feat_dim: cols as u32,
            directed: engine.graph().is_directed(),
            poll_interval: config.poll_interval,
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
pub struct ServerHandle<E: Engine = InkStream> {
    addr: SocketAddr,
    shared: Arc<Shared>,
    event_thread: Option<JoinHandle<()>>,
    writer_thread: Option<JoinHandle<StreamSession<E>>>,
    checkpoint_path: Option<PathBuf>,
}

impl<E: Engine> Drop for ServerHandle<E> {
    fn drop(&mut self) {
        // Un-graceful path: stop the threads so tests that panic don't hang.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.ingest.close();
        let _ = self.shared.waker.wake();
    }
}

impl<E: Engine> ServerHandle<E> {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current snapshot epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.epochs.load(Ordering::Relaxed)
    }

    /// Live summary (same document the `stats` request serves).
    pub fn summary(&self) -> SessionSummary {
        self.shared.stats_summary()
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
    /// the session with the final summary. The checkpoint goes to a temp
    /// file renamed over the path, so a crash mid-write never tears it. An
    /// engine that cannot checkpoint ([`Engine::checkpoint`] returned `Err`)
    /// fails the shutdown after the drain and leaves the path as it was.
    pub fn shutdown(mut self) -> io::Result<(StreamSession<E>, SessionSummary)> {
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
        Ok((session, self.shared.stats_summary()))
    }
}

/// Writes `engine`'s checkpoint to a sibling temp file, syncs it, renames it
/// over `path` and syncs the directory, so `path` only ever holds a whole
/// checkpoint. On any error (a refusing engine included) only the temp file
/// is removed: the previous checkpoint at `path`, if any, survives unchanged.
fn write_checkpoint<E: Engine>(engine: &E, path: &Path) -> io::Result<()> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let written = std::fs::File::create(&tmp).and_then(|mut f| {
        engine.checkpoint(&mut f).map_err(io::Error::other)?;
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
fn apply_epoch<E: Engine>(
    session: &mut StreamSession<E>,
    publisher: &mut SnapshotPublisher,
    dirty_rows: &mut Vec<VertexId>,
    shared: &Shared,
    completions: &crossbeam::channel::Sender<(u64, u64)>,
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
            // A Fail drift-policy breach, or an engine that refused the
            // batch (a worker panic poisoned the partition pool). The
            // serving loop keeps going either way — readers stay on the
            // last good snapshot.
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
            publisher.publish_rows(session.engine(), known.then_some(&dirty_rows[..]), epoch)
        };
        let done = Instant::now();
        shared.metrics.publish_latency.record((done - publish_start).as_nanos() as u64);
        shared.metrics.publish_rows.record(published.rows_copied as u64);
        if published.full_copy {
            shared.metrics.publish_full.inc();
        }
        shared.metrics.apply_latency.record((done - apply_start).as_nanos() as u64);
        shared.epochs.store(epoch, Ordering::SeqCst);
        *shared.summary.lock().expect("summary lock poisoned") = session.summary();
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
    shared.metrics.set_queue_gauges(
        epoch,
        shared.ingest.depth(),
        shared.ingest.max_depth(),
        shared.ingest.poisoned_reads(),
    );
    let mut wake = !admitted.is_empty(); // freed queue space: stalled conns can retry
    for flush_id in flushes {
        shared.metrics.flushes.inc();
        wake = true;
        if let Err(crossbeam::channel::TrySendError::Full(item)) =
            completions.try_send((flush_id, epoch))
        {
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
fn writer_loop<E: Engine>(
    mut session: StreamSession<E>,
    mut publisher: SnapshotPublisher,
    shared: Arc<Shared>,
    max_drain: usize,
    completions: crossbeam::channel::Sender<(u64, u64)>,
) -> StreamSession<E> {
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
    completions: crossbeam::channel::Receiver<(u64, u64)>,
    /// Which connection waits on which flush barrier.
    flush_waiters: HashMap<u64, usize>,
    next_flush_id: u64,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = Events::with_capacity(1024);
        loop {
            let _ = self.poll.poll(&mut events, Some(self.shared.poll_interval));
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

    /// Drives a connection as far as it can go: finish a stalled frame,
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
            if conn.pending.is_some() && !drive(shared, conn, flush_waiters, next_flush_id, false) {
                break; // still stalled on a full queue
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

/// Decodes one frame and starts answering it. A decode failure answers with
/// an `Error` frame and keeps the connection (framing is still intact — the
/// length prefix was valid).
fn process_frame(
    shared: &Shared,
    conn: &mut Conn,
    flush_waiters: &mut HashMap<u64, usize>,
    next_flush_id: &mut u64,
    payload: &[u8],
) {
    match Request::decode(payload) {
        Err(e) => {
            push_frame(conn, |b| {
                Response::Error { message: format!("bad request: {e}") }.encode_into(b)
            });
        }
        Ok(Request::Batch(reqs)) => {
            shared.metrics.batches.inc();
            shared.metrics.batched_requests.add(reqs.len() as u64);
            conn.pending =
                Some(PendingFrame { reqs, next: 0, body: Vec::new(), count: 0, is_batch: true });
            drive(shared, conn, flush_waiters, next_flush_id, true);
        }
        Ok(req) => {
            conn.pending = Some(PendingFrame {
                reqs: vec![req],
                next: 0,
                body: Vec::new(),
                count: 0,
                is_batch: false,
            });
            drive(shared, conn, flush_waiters, next_flush_id, true);
        }
    }
}

/// Advances the connection's pending frame. Returns `false` when it stalled
/// on a full queue (Block backpressure) — the frame stays parked in
/// `conn.pending` and the loop retries after the next writer drain.
fn drive(
    shared: &Shared,
    conn: &mut Conn,
    flush_waiters: &mut HashMap<u64, usize>,
    next_flush_id: &mut u64,
    fresh: bool,
) -> bool {
    let Some(mut p) = conn.pending.take() else { return true };
    while p.next < p.reqs.len() {
        let req = &p.reqs[p.next];
        if p.is_batch {
            match req {
                Request::Update(changes) => match admit(shared, changes) {
                    None => {
                        if fresh {
                            shared.metrics.stalls.inc();
                        }
                        conn.pending = Some(p);
                        return false;
                    }
                    Some(resp) => {
                        encode_slot(&mut p.body, &mut p.count, |b| resp.encode_into(b));
                    }
                },
                Request::Embedding(_) | Request::TopK { .. } => {
                    encode_slot(&mut p.body, &mut p.count, |b| answer_query_into(shared, req, b));
                }
                _ => {
                    encode_slot(&mut p.body, &mut p.count, |b| {
                        Response::Error { message: "request not batchable".into() }.encode_into(b)
                    });
                }
            }
        } else {
            match req {
                Request::Update(changes) => match admit(shared, changes) {
                    None => {
                        if fresh {
                            shared.metrics.stalls.inc();
                        }
                        conn.pending = Some(p);
                        return false;
                    }
                    Some(resp) => push_frame(conn, |b| resp.encode_into(b)),
                },
                Request::Flush => {
                    let id = *next_flush_id;
                    *next_flush_id += 1;
                    if shared.ingest.push_flush(id) {
                        flush_waiters.insert(id, conn.token);
                        conn.push_flush_marker(id);
                    } else {
                        push_frame(conn, |b| {
                            Response::Error { message: "server is shutting down".into() }
                                .encode_into(b)
                        });
                    }
                }
                Request::Hello { max_version } => {
                    let resp = Response::Hello {
                        version: PROTOCOL_VERSION.min(*max_version),
                        num_vertices: shared.num_vertices,
                        feat_dim: shared.feat_dim,
                        shards: 1,
                        epoch: shared.epochs.load(Ordering::Relaxed),
                    };
                    push_frame(conn, |b| resp.encode_into(b));
                }
                Request::Batch(_) => {
                    // Decode rejects nested batches; unreachable in practice.
                    push_frame(conn, |b| {
                        Response::Error { message: "nested batch".into() }.encode_into(b)
                    });
                }
                _ => push_frame(conn, |b| answer_query_into(shared, req, b)),
            }
        }
        p.next += 1;
    }
    if p.is_batch {
        let count = p.count;
        let body = std::mem::take(&mut p.body);
        let pushed = conn.push_bytes(|out| {
            append_frame(out, |b| {
                b.push(0x8B);
                b.extend_from_slice(&count.to_le_bytes());
                b.extend_from_slice(&body);
            })
        });
        if pushed.is_err() {
            push_frame(conn, |b| {
                Response::Error { message: "batch response exceeds the frame limit".into() }
                    .encode_into(b)
            });
        }
    }
    true
}

/// Validates and queues one update. `None` means the queue is full under
/// Block backpressure — stall the connection.
fn admit(shared: &Shared, changes: &[EdgeChange]) -> Option<Response> {
    let _span = shared.tracer.span("serve", "update");
    if let Some(c) = changes.iter().find(|c| {
        c.src as u64 >= shared.num_vertices || c.dst as u64 >= shared.num_vertices || c.src == c.dst
    }) {
        return Some(Response::Error {
            message: format!(
                "invalid edge {} -> {} (graph has {} vertices)",
                c.src, c.dst, shared.num_vertices
            ),
        });
    }
    match shared.ingest.try_push_updates(changes) {
        Admission::Accepted => {
            shared.metrics.updates_enqueued.inc();
            Some(Response::Ack { epoch: shared.epochs.load(Ordering::Relaxed) })
        }
        Admission::AcceptedDropped { dropped } => {
            shared.metrics.updates_enqueued.inc();
            shared.metrics.updates_dropped.add(dropped);
            Some(Response::Ack { epoch: shared.epochs.load(Ordering::Relaxed) })
        }
        Admission::Rejected { retry_after_ms } => {
            shared.metrics.updates_rejected.inc();
            Some(Response::Rejected { retry_after_ms })
        }
        Admission::Full => None,
        Admission::Closed => Some(Response::Error { message: "server is shutting down".into() }),
    }
}

/// Serializes the answer to a read-only request directly into `buf`
/// (frame-payload bytes, no length prefix). Embedding rows go straight from
/// the snapshot buffer to the wire — no intermediate `Response` allocation.
fn answer_query_into(shared: &Shared, req: &Request, buf: &mut Vec<u8>) {
    match req {
        Request::Embedding(v) => {
            let _span = shared.tracer.span("serve", "embedding");
            let t = Instant::now();
            let snap = shared.reader.load();
            if (*v as usize) < snap.embeddings.rows() {
                encode_embedding(buf, snap.epoch, snap.embeddings.row(*v as usize));
            } else {
                Response::Error {
                    message: format!("vertex {v} out of range ({} rows)", snap.embeddings.rows()),
                }
                .encode_into(buf);
            }
            shared.metrics.record_query(t.elapsed());
        }
        Request::TopK { vertex, k } => {
            let _span = shared.tracer.span("serve", "top_k");
            let t = Instant::now();
            let snap = shared.reader.load();
            if (*vertex as usize) < snap.embeddings.rows() {
                Response::TopK { epoch: snap.epoch, items: top_k(&snap, *vertex, *k as usize) }
                    .encode_into(buf);
            } else {
                Response::Error {
                    message: format!(
                        "vertex {vertex} out of range ({} rows)",
                        snap.embeddings.rows()
                    ),
                }
                .encode_into(buf);
            }
            shared.metrics.record_query(t.elapsed());
        }
        Request::Stats => {
            let _span = shared.tracer.span("serve", "stats");
            let json = shared.stats_summary().to_json().compact();
            if json.len() > MAX_FRAME {
                Response::Error { message: "stats document too large".into() }.encode_into(buf);
            } else {
                Response::Stats { json }.encode_into(buf);
            }
        }
        Request::Metrics => {
            let _span = shared.tracer.span("serve", "metrics");
            // Refresh the gauges that live with the queue/writer so the
            // scrape reflects this instant, not the last epoch.
            shared.metrics.set_queue_gauges(
                shared.epochs.load(Ordering::Relaxed),
                shared.ingest.depth(),
                shared.ingest.max_depth(),
                shared.ingest.poisoned_reads(),
            );
            let text = shared.registry.render_prometheus();
            if text.len() > MAX_FRAME {
                Response::Error { message: "metrics document too large".into() }.encode_into(buf);
            } else {
                Response::Metrics { text }.encode_into(buf);
            }
        }
        Request::TraceDump => {
            let _span = shared.tracer.span("serve", "trace_dump");
            let json = shared.tracer.dump_chrome_trace();
            if json.len() > MAX_FRAME {
                Response::Error { message: "trace dump too large".into() }.encode_into(buf);
            } else {
                Response::TraceDump { json }.encode_into(buf);
            }
        }
        _ => {
            Response::Error { message: "unsupported request".into() }.encode_into(buf);
        }
    }
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

/// Appends one length-prefixed response slot to a batch body.
fn encode_slot(body: &mut Vec<u8>, count: &mut u32, f: impl FnOnce(&mut Vec<u8>)) {
    let at = body.len();
    body.extend_from_slice(&[0u8; 4]);
    f(body);
    let len = (body.len() - at - 4) as u32;
    body[at..at + 4].copy_from_slice(&len.to_le_bytes());
    *count += 1;
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
