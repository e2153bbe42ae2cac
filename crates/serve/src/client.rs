//! A small blocking client for the ink-serve protocol.
//!
//! One [`InkClient`] wraps one TCP connection. The simple methods run
//! strict request/response: every call writes a frame, then blocks for the
//! answer. High-throughput callers pipeline instead (see `docs/PROTOCOL.md`
//! for the wire rules): [`InkClient::queue`] writes any number of requests
//! without reading, and [`InkClient::recv`] collects the responses in order
//! — the server answers strictly in request order per connection.
//!
//! Use one client per thread for concurrent load (the loopback test and the
//! serve bench both do).

use crate::protocol::{
    read_frame, write_frame, write_frame_noflush, Request, Response, PROTOCOL_VERSION,
};
use ink_graph::EdgeChange;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A connected, blocking protocol client.
pub struct InkClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Frames queued with [`InkClient::queue`] whose responses have not been
    /// collected yet.
    in_flight: usize,
}

/// What the server reports in response to a [`Request::Hello`]: the
/// protocol revision it speaks plus the capacity facts a client needs
/// before sending traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerHello {
    /// The one protocol revision the server speaks.
    pub version: u16,
    /// Vertex-id bound for updates and queries.
    pub num_vertices: u64,
    /// Output embedding width (floats per embedding response).
    pub feat_dim: u32,
    /// Snapshot epoch at the time of the handshake.
    pub epoch: u64,
}

/// Turns a mismatched response into an `io::Error` (server-reported errors
/// come through as `ErrorKind::Other` with the server's message).
fn unexpected(resp: Response) -> io::Error {
    match resp {
        Response::Error { message } => io::Error::other(format!("server error: {message}")),
        other => {
            io::Error::new(io::ErrorKind::InvalidData, format!("unexpected response {other:?}"))
        }
    }
}

impl InkClient {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { reader, writer: BufWriter::new(stream), in_flight: 0 })
    }

    /// Sends one request and blocks for its response. Any frames still
    /// queued by [`InkClient::queue`] are answered first (responses arrive
    /// strictly in request order), and their responses are discarded.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        while self.in_flight > 0 {
            let _ = self.recv()?;
        }
        write_frame(&mut self.writer, &req.encode())?;
        match read_frame(&mut self.reader)? {
            Some(payload) => Ok(Response::decode(&payload)?),
            None => Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "server closed the connection",
            )),
        }
    }

    /// Version/capability handshake. Advertises [`PROTOCOL_VERSION`]; the
    /// server replies with the one revision it speaks plus its capacity
    /// facts. A v1 server does not know the tag and answers with an `Error`,
    /// surfaced here as `io::ErrorKind::Other` — callers wanting to
    /// interoperate can fall back to plain v1 calls on that path.
    pub fn hello(&mut self) -> io::Result<ServerHello> {
        match self.call(&Request::Hello { max_version: PROTOCOL_VERSION })? {
            Response::Hello { version, num_vertices, feat_dim, epoch } => {
                Ok(ServerHello { version, num_vertices, feat_dim, epoch })
            }
            other => Err(unexpected(other)),
        }
    }

    /// Queues one request without waiting for (or reading) its response —
    /// the pipelining half of the client. Frames accumulate in the write
    /// buffer; collect the responses in order with [`InkClient::recv`]
    /// (which flushes the buffer first).
    pub fn queue(&mut self, req: &Request) -> io::Result<()> {
        write_frame_noflush(&mut self.writer, &req.encode())?;
        self.in_flight += 1;
        Ok(())
    }

    /// Collects the next pipelined response (in request order), flushing
    /// any queued frames first. Errors when nothing is in flight.
    pub fn recv(&mut self) -> io::Result<Response> {
        if self.in_flight == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "recv with no queued request",
            ));
        }
        self.writer.flush()?;
        match read_frame(&mut self.reader)? {
            Some(payload) => {
                self.in_flight -= 1;
                Ok(Response::decode(&payload)?)
            }
            None => Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "server closed the connection",
            )),
        }
    }

    /// Queued requests whose responses have not been collected yet.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Submits edge changes. `Ok(Ok(epoch))` — admitted (visible at an epoch
    /// strictly after `epoch`); `Ok(Err(retry_after_ms))` — rejected by
    /// admission control, retry after the hint.
    pub fn update(&mut self, changes: Vec<EdgeChange>) -> io::Result<Result<u64, u32>> {
        match self.call(&Request::Update(changes))? {
            Response::Ack { epoch } => Ok(Ok(epoch)),
            Response::Rejected { retry_after_ms } => Ok(Err(retry_after_ms)),
            other => Err(unexpected(other)),
        }
    }

    /// Submits edge changes, sleeping out `Rejected` responses until the
    /// server admits them.
    pub fn update_blocking(&mut self, changes: Vec<EdgeChange>) -> io::Result<u64> {
        loop {
            match self.update(changes.clone())? {
                Ok(epoch) => return Ok(epoch),
                Err(retry_after_ms) => {
                    std::thread::sleep(std::time::Duration::from_millis(retry_after_ms.max(1).into()))
                }
            }
        }
    }

    /// Reads one vertex's embedding from the current snapshot:
    /// `(epoch, values)`.
    pub fn embedding(&mut self, vertex: u32) -> io::Result<(u64, Vec<f32>)> {
        match self.call(&Request::Embedding(vertex))? {
            Response::Embedding { epoch, values } => Ok((epoch, values)),
            other => Err(unexpected(other)),
        }
    }

    /// Top-k most similar vertices to `vertex`: `(epoch, items)`.
    pub fn top_k(&mut self, vertex: u32, k: u32) -> io::Result<(u64, Vec<(u32, f32)>)> {
        match self.call(&Request::TopK { vertex, k })? {
            Response::TopK { epoch, items } => Ok((epoch, items)),
            other => Err(unexpected(other)),
        }
    }

    /// Scrapes the server's full metrics registry as Prometheus text
    /// exposition — the curl-free monitoring path. The document covers the
    /// whole stack (pipeline, drift auditor, serving layer) because the
    /// serve instruments register into the session's registry.
    ///
    /// ```
    /// use ink_serve::{InkClient, InkServer, ServeConfig};
    /// # use ink_gnn::{Aggregator, Model};
    /// # use ink_graph::DynGraph;
    /// # use ink_tensor::init;
    /// # use inkstream::{InkStream, StreamSession, UpdateConfig};
    /// # let mut rng = init::seeded_rng(7);
    /// # let graph = DynGraph::undirected_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
    /// # let features = init::uniform(&mut rng, 4, 4, -1.0, 1.0);
    /// # let model = Model::gcn(&mut rng, &[4, 4], Aggregator::Max);
    /// # let engine = InkStream::new(model, graph, features, UpdateConfig::default()).unwrap();
    /// # let handle =
    /// #     InkServer::bind("127.0.0.1:0", StreamSession::new(engine), ServeConfig::default())?;
    /// let mut client = InkClient::connect(handle.local_addr())?;
    /// let text = client.metrics()?;
    /// // The document parses as Prometheus text exposition; pick out the
    /// // ingest counter.
    /// let families = ink_obs::parse::parse_prometheus(&text)
    ///     .map_err(std::io::Error::other)?;
    /// let ingests = families
    ///     .iter()
    ///     .find(|f| f.name == "ink_session_ingests_total")
    ///     .expect("session instruments are registered at construction");
    /// assert_eq!(ingests.samples[0].value, 0.0); // nothing ingested yet
    /// # handle.shutdown()?;
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn metrics(&mut self) -> io::Result<String> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            other => Err(unexpected(other)),
        }
    }

    /// Dumps the server's span ring as Chrome `trace_event` JSON — save it
    /// to a file and load it in `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn trace_dump(&mut self) -> io::Result<String> {
        match self.call(&Request::TraceDump)? {
            Response::TraceDump { json } => Ok(json),
            other => Err(unexpected(other)),
        }
    }

    /// Barrier: returns the epoch at which every update admitted before this
    /// call is visible.
    pub fn flush(&mut self) -> io::Result<u64> {
        match self.call(&Request::Flush)? {
            Response::Flushed { epoch } => Ok(epoch),
            other => Err(unexpected(other)),
        }
    }
}
