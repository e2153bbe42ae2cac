//! Per-connection state for the readiness-based event loop.
//!
//! Each [`Conn`] owns a non-blocking socket plus two buffers:
//!
//! * an **inbound** byte buffer that accumulates reads until whole frames
//!   can be peeled off (a frame arriving one byte at a time never desyncs
//!   the stream — parsing only consumes complete frames), and
//! * an **outbound** segment queue that preserves strict request order for
//!   pipelined clients. Contiguous response bytes coalesce into one
//!   segment (one `write` flushes many responses); a pending flush barrier
//!   is an explicit [`Segment::Flush`] placeholder that blocks the writer
//!   side of the queue until the ingest writer reports the barrier's epoch,
//!   at which point it is replaced in place by the encoded `Flushed` frame.
//!
//! Backpressure is per-connection, never per-thread: a connection whose
//! update finds the ingest queue full under `Block` mode parks that one
//! update in [`Conn::pending`] and stops reading; a
//! connection whose peer reads slower than it queries stops being read once
//! [`OUT_HIGH_WATER`] bytes are buffered. The event loop keeps serving
//! every other connection either way.

use ink_graph::EdgeChange;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Stop reading from a connection once this many response bytes are queued
/// for it — per-connection flow control against slow readers.
pub(crate) const OUT_HIGH_WATER: usize = 8 << 20;

/// Cap on bytes read per readiness event, so one firehose connection cannot
/// starve the rest of the loop (level-triggered polling re-fires for the
/// remainder).
const READ_QUANTUM: usize = 256 << 10;

/// One entry in the ordered outbound queue.
#[derive(Debug)]
pub(crate) enum Segment {
    /// Encoded frames plus the count of bytes already written to the socket.
    Bytes(Vec<u8>, usize),
    /// A flush barrier still in flight, keyed by server-assigned flush id.
    /// Everything behind it waits; [`Conn::complete_flush`] turns it into
    /// bytes.
    Flush(u64),
}

/// What a read pass observed.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ReadOutcome {
    /// Socket drained (or quantum reached); connection healthy.
    Open,
    /// Peer half-closed; serve out the queued responses, then drop.
    Eof,
    /// Hard I/O error; drop the connection now.
    Dead,
}

/// One client connection owned by the event loop.
#[derive(Debug)]
pub(crate) struct Conn {
    /// The non-blocking socket.
    pub stream: TcpStream,
    /// The poll token this connection is registered under.
    pub token: usize,
    /// The update that found the queue full, unanswered (Block
    /// backpressure); frames behind it wait in the inbound buffer.
    pub pending: Option<Vec<EdgeChange>>,
    /// Peer sent EOF; no more reads.
    pub peer_eof: bool,
    /// Connection is unusable; the loop reaps it.
    pub dead: bool,
    /// Interest bits currently registered with the poll `(read, write)`,
    /// so the loop only issues `reregister` on change.
    pub registered: (bool, bool),
    read_buf: Vec<u8>,
    read_pos: usize,
    out: VecDeque<Segment>,
    /// Unwritten outbound bytes across all `Bytes` segments.
    out_bytes: usize,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, token: usize) -> Self {
        Self {
            stream,
            token,
            pending: None,
            peer_eof: false,
            dead: false,
            registered: (false, false),
            read_buf: Vec::new(),
            read_pos: 0,
            out: VecDeque::new(),
            out_bytes: 0,
        }
    }

    /// Reads whatever the socket has (up to the fairness quantum) into the
    /// inbound buffer.
    pub(crate) fn fill_read_buf(&mut self) -> ReadOutcome {
        let mut tmp = [0u8; 16 << 10];
        let mut taken = 0usize;
        loop {
            match self.stream.read(&mut tmp) {
                Ok(0) => {
                    self.peer_eof = true;
                    return ReadOutcome::Eof;
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&tmp[..n]);
                    taken += n;
                    if taken >= READ_QUANTUM {
                        return ReadOutcome::Open;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadOutcome::Open,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return ReadOutcome::Dead;
                }
            }
        }
    }

    /// Peels the next complete frame payload off the inbound buffer.
    /// `Ok(None)` means "need more bytes"; `Err` means the peer sent a
    /// hostile length and must be dropped.
    pub(crate) fn next_frame(&mut self, max_frame: usize) -> Result<Option<Vec<u8>>, ()> {
        let avail = &self.read_buf[self.read_pos..];
        if avail.len() < 4 {
            self.compact();
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes checked")) as usize;
        if len > max_frame {
            return Err(());
        }
        if avail.len() < 4 + len {
            self.compact();
            return Ok(None);
        }
        let payload = avail[4..4 + len].to_vec();
        self.read_pos += 4 + len;
        Ok(Some(payload))
    }

    /// Drops consumed bytes from the front of the inbound buffer.
    fn compact(&mut self) {
        if self.read_pos > 0 {
            self.read_buf.drain(..self.read_pos);
            self.read_pos = 0;
        }
    }

    /// Appends response bytes produced by `build` to the outbound queue,
    /// coalescing into the trailing segment when possible.
    pub(crate) fn push_bytes(
        &mut self,
        build: impl FnOnce(&mut Vec<u8>) -> io::Result<()>,
    ) -> io::Result<()> {
        if let Some(Segment::Bytes(buf, _)) = self.out.back_mut() {
            let before = buf.len();
            build(buf)?;
            self.out_bytes += buf.len() - before;
            return Ok(());
        }
        let mut buf = Vec::new();
        build(&mut buf)?;
        self.out_bytes += buf.len();
        self.out.push_back(Segment::Bytes(buf, 0));
        Ok(())
    }

    /// Queues a flush-barrier placeholder; responses to later pipelined
    /// requests will queue behind it.
    pub(crate) fn push_flush_marker(&mut self, flush_id: u64) {
        self.out.push_back(Segment::Flush(flush_id));
    }

    /// Replaces the placeholder for `flush_id` with the bytes `build`
    /// produces. Returns false when no such barrier is queued (the
    /// connection raced shutdown).
    pub(crate) fn complete_flush(
        &mut self,
        flush_id: u64,
        build: impl FnOnce(&mut Vec<u8>) -> io::Result<()>,
    ) -> io::Result<bool> {
        let Some(slot) =
            self.out.iter_mut().find(|s| matches!(s, Segment::Flush(id) if *id == flush_id))
        else {
            return Ok(false);
        };
        let mut buf = Vec::new();
        build(&mut buf)?;
        self.out_bytes += buf.len();
        *slot = Segment::Bytes(buf, 0);
        Ok(true)
    }

    /// Writes queued segments until the socket would block or a pending
    /// flush barrier heads the queue.
    pub(crate) fn write_ready(&mut self) {
        while let Some(front) = self.out.front_mut() {
            let (buf, off) = match front {
                Segment::Flush(_) => return, // barrier still in flight
                Segment::Bytes(buf, off) => (buf, off),
            };
            while *off < buf.len() {
                match self.stream.write(&buf[*off..]) {
                    Ok(0) => {
                        self.dead = true;
                        return;
                    }
                    Ok(n) => {
                        *off += n;
                        self.out_bytes -= n;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.dead = true;
                        return;
                    }
                }
            }
            self.out.pop_front();
        }
    }

    /// The loop should poll this connection for readability: healthy, not
    /// stalled on admission, and not buffering past the high-water mark.
    pub(crate) fn wants_read(&self) -> bool {
        !self.dead && !self.peer_eof && self.pending.is_none() && self.out_bytes < OUT_HIGH_WATER
    }

    /// The loop should poll this connection for writability: bytes are
    /// queued ahead of any flush barrier.
    pub(crate) fn wants_write(&self) -> bool {
        !self.dead && matches!(self.out.front(), Some(Segment::Bytes(..)))
    }

    /// Nothing queued at all — safe to drop once the peer is gone.
    pub(crate) fn is_drained(&self) -> bool {
        self.out.is_empty()
    }

    /// Flush ids of barriers still queued on this connection (for waiter
    /// cleanup when the connection dies first).
    pub(crate) fn queued_flush_ids(&self) -> Vec<u64> {
        self.out
            .iter()
            .filter_map(|s| match s {
                Segment::Flush(id) => Some(*id),
                Segment::Bytes(..) => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Conn, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        (Conn::new(server_side, 7), peer)
    }

    #[test]
    fn frames_assemble_from_dribbled_bytes() {
        use std::io::Write as _;
        let (mut conn, mut peer) = pair();
        let payload = b"hello frame".to_vec();
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&payload);
        // Send one byte at a time; the frame must come out exactly once.
        for chunk in wire.chunks(1) {
            peer.write_all(chunk).unwrap();
            peer.flush().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(1));
            conn.fill_read_buf();
        }
        assert_eq!(conn.next_frame(1 << 20).unwrap(), Some(payload));
        assert_eq!(conn.next_frame(1 << 20).unwrap(), None, "no second frame");
    }

    #[test]
    fn hostile_length_is_rejected() {
        use std::io::Write as _;
        let (mut conn, mut peer) = pair();
        peer.write_all(&u32::MAX.to_le_bytes()).unwrap();
        peer.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        conn.fill_read_buf();
        assert!(conn.next_frame(1 << 20).is_err());
    }

    #[test]
    fn out_queue_preserves_order_across_flush_barriers() {
        let (mut conn, _peer) = pair();
        conn.push_bytes(|b| {
            b.extend_from_slice(b"aa");
            Ok(())
        })
        .unwrap();
        conn.push_flush_marker(42);
        conn.push_bytes(|b| {
            b.extend_from_slice(b"bb");
            Ok(())
        })
        .unwrap();
        assert_eq!(conn.queued_flush_ids(), vec![42]);
        // The barrier heads everything queued after it; the first segment
        // drains, then writing stops at the barrier.
        conn.write_ready();
        assert!(!conn.wants_write(), "blocked on the in-flight flush");
        assert!(!conn.is_drained());
        // Completion splices bytes in place and unblocks the tail.
        assert!(conn
            .complete_flush(42, |b| {
                b.extend_from_slice(b"FF");
                Ok(())
            })
            .unwrap());
        assert!(conn.wants_write());
        conn.write_ready();
        assert!(conn.is_drained());
    }

    #[test]
    fn consecutive_responses_coalesce_into_one_segment() {
        let (mut conn, _peer) = pair();
        for _ in 0..10 {
            conn.push_bytes(|b| {
                b.extend_from_slice(&[0u8; 8]);
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(conn.out.len(), 1, "ten responses, one write segment");
        assert_eq!(conn.out_bytes, 80);
    }

    #[test]
    fn high_water_pauses_reading() {
        let (mut conn, _peer) = pair();
        assert!(conn.wants_read());
        conn.push_bytes(|b| {
            b.resize(OUT_HIGH_WATER + 1, 0);
            Ok(())
        })
        .unwrap();
        assert!(!conn.wants_read(), "slow reader: stop accepting new requests");
        assert!(conn.wants_write());
    }
}
