//! The wire protocol (revision 4 — see `docs/PROTOCOL.md` for the normative
//! spec).
//!
//! Every message is one *frame*: a little-endian `u32` payload length, then
//! the payload — a one-byte tag followed by tag-specific fields (all
//! little-endian, no padding). Length-prefixing keeps framing trivial over
//! TCP and caps a malicious length at [`MAX_FRAME`] before any allocation.
//!
//! ```text
//! frame    := len:u32 payload[len]
//! payload  := tag:u8 body
//!
//! requests                              responses
//!   0x01 Update    n:u32 (src:u32         0x81 Ack        epoch:u64
//!        dst:u32 op:u8){n}                0x82 Rejected   retry_after_ms:u32
//!   0x02 Embedding v:u32                  0x83 Embedding  epoch:u64 d:u32 f32{d}
//!   0x03 TopK      v:u32 k:u32            0x84 TopK       epoch:u64 k:u32
//!   0x05 Flush                                 (v:u32 score:f32){k}
//!   0x06 Metrics                          0x86 Error      len:u32 msg-utf8
//!   0x07 TraceDump                        0x87 Flushed    epoch:u64
//!   0x08 Hello     max_version:u16        0x88 Metrics    len:u32 text-utf8
//!                                         0x89 TraceDump  len:u32 json-utf8
//!                                         0x8A Hello      version:u16
//!                                              vertices:u64 feat_dim:u32
//!                                              epoch:u64
//! ```
//!
//! `op` is 0 for insert, 1 for remove. The `Ack` epoch is the snapshot epoch
//! at admission time — the update lands in some strictly later epoch; send
//! `Flush` to wait for it.
//!
//! **Pipelining.** Responses are sent strictly in request order on every
//! connection, so a client may write any number of frames before reading the
//! matching responses. One frame carries one request; the writer's
//! coalescing window, not the framing, is where updates are batched.
//!
//! **Version skew.** Decoding returns a typed [`DecodeError`]; an
//! unrecognized tag surfaces as [`DecodeError::UnknownTag`], so version skew
//! (an old peer receiving a `Hello` it predates, or this build receiving a
//! retired tag: `Stats` `0x04`/`0x85`, or `Batch` `0x09`/`0x8B`) fails loudly
//! with the offending tag instead of a generic parse error.

use ink_graph::{EdgeChange, EdgeOp, VertexId};
use std::fmt;
use std::io::{self, Read, Write};

/// Hard cap on a frame payload (16 MiB): rejects hostile lengths before
/// allocating, while letting ~1M-edge update batches through.
pub const MAX_FRAME: usize = 16 << 20;

/// Protocol revision spoken by this build. Revision 2 added `Hello` and
/// `Batch` container frames to the v1 tag set; revision 3 is revision 2
/// without `Batch`; revision 4 drops `Stats` (the `Metrics` scrape carries
/// every number it did) and `Hello`'s constant `shards` field.
pub const PROTOCOL_VERSION: u16 = 4;

/// Why a payload failed to decode.
///
/// Unknown tags get their own variant so protocol version skew is
/// distinguishable from a corrupt frame: a peer one protocol revision behind
/// sees exactly which tag it does not speak.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the fields the tag promises.
    Short,
    /// The payload had bytes left over after the last field.
    Trailing(usize),
    /// The leading tag byte is not one this protocol revision defines.
    UnknownTag(u8),
    /// A field held an invalid value (bad edge op, lying length, non-UTF-8
    /// text, ...).
    Malformed(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Short => write!(f, "frame payload too short"),
            DecodeError::Trailing(n) => write!(f, "{n} trailing bytes"),
            DecodeError::UnknownTag(tag) => {
                write!(f, "unknown tag {tag:#04x} (protocol version skew?)")
            }
            DecodeError::Malformed(detail) => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for io::Error {
    fn from(e: DecodeError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Apply these edge changes (asynchronously, possibly coalesced).
    Update(Vec<EdgeChange>),
    /// Read one vertex's output embedding from the current snapshot.
    Embedding(VertexId),
    /// The `k` vertices most similar to `vertex` by embedding dot product.
    TopK {
        /// Query vertex.
        vertex: VertexId,
        /// Result count.
        k: u32,
    },
    /// Barrier: reply only after everything enqueued before this request
    /// has been applied and published.
    Flush,
    /// The server's full metrics registry as Prometheus text exposition.
    Metrics,
    /// The server's span ring as Chrome `trace_event` JSON.
    TraceDump,
    /// v2 — version/capability handshake. Carries the highest protocol
    /// revision the client speaks; answered with [`Response::Hello`].
    Hello {
        /// Highest protocol revision the client supports.
        max_version: u16,
    },
}

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Update admitted; it will be visible at an epoch `> epoch`.
    Ack {
        /// Snapshot epoch at admission time.
        epoch: u64,
    },
    /// Update turned away by admission control; retry after the hint.
    Rejected {
        /// Client backoff hint in milliseconds.
        retry_after_ms: u32,
    },
    /// One embedding row.
    Embedding {
        /// Epoch of the snapshot served.
        epoch: u64,
        /// The row values.
        values: Vec<f32>,
    },
    /// Top-k similar vertices, most similar first.
    TopK {
        /// Epoch of the snapshot served.
        epoch: u64,
        /// `(vertex, score)` pairs, descending score, ties by lower id.
        items: Vec<(VertexId, f32)>,
    },
    /// The request failed; the connection stays usable.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Flush barrier reached.
    Flushed {
        /// Epoch containing every update enqueued before the flush.
        epoch: u64,
    },
    /// The metrics scrape.
    Metrics {
        /// Prometheus text exposition (version 0.0.4).
        text: String,
    },
    /// The trace dump.
    TraceDump {
        /// Chrome `trace_event` JSON (object form with `traceEvents`).
        json: String,
    },
    /// v2 — answer to [`Request::Hello`]: the server's revision plus the
    /// capacity facts a client needs up front.
    Hello {
        /// The one protocol revision the server speaks ([`PROTOCOL_VERSION`]).
        version: u16,
        /// Vertex-id bound for updates and queries.
        num_vertices: u64,
        /// Output embedding width (floats per `Embedding` response).
        feat_dim: u32,
        /// Snapshot epoch at the time of the handshake.
        epoch: u64,
    },
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Cursor over a received payload.
struct Take<'a>(&'a [u8]);

impl Take<'_> {
    fn u8(&mut self) -> Result<u8, DecodeError> {
        let (&b, rest) = self.0.split_first().ok_or(DecodeError::Short)?;
        self.0 = rest;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.chunk::<2>()?))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.chunk::<4>()?))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.chunk::<8>()?))
    }

    fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_le_bytes(self.chunk::<4>()?))
    }

    /// Reads an item count and checks it against the bytes left, `size`
    /// bytes per item, before the caller reserves memory for the items.
    fn count(&mut self, size: usize, what: &str) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(size) > self.0.len() {
            return Err(bad(format!("{what} claims {n} items, frame too small")));
        }
        Ok(n)
    }

    fn chunk<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        if self.0.len() < N {
            return Err(DecodeError::Short);
        }
        let (head, rest) = self.0.split_at(N);
        self.0 = rest;
        Ok(head.try_into().unwrap())
    }

    fn bytes(&mut self, n: usize) -> Result<&[u8], DecodeError> {
        if self.0.len() < n {
            return Err(DecodeError::Short);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn utf8(&mut self, n: usize, what: &str) -> Result<String, DecodeError> {
        String::from_utf8(self.bytes(n)?.to_vec())
            .map_err(|_| bad(format!("{what} payload is not UTF-8")))
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::Trailing(self.0.len()))
        }
    }
}

fn bad(detail: impl Into<String>) -> DecodeError {
    DecodeError::Malformed(detail.into())
}

impl Request {
    /// Serialises the request payload (without the length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the request payload to `buf` — the allocation-free sibling of
    /// [`Request::encode`] for callers that own a reusable buffer.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Update(changes) => {
                buf.push(0x01);
                put_u32(buf, changes.len() as u32);
                for c in changes {
                    put_u32(buf, c.src);
                    put_u32(buf, c.dst);
                    buf.push(match c.op {
                        EdgeOp::Insert => 0,
                        EdgeOp::Remove => 1,
                    });
                }
            }
            Request::Embedding(v) => {
                buf.push(0x02);
                put_u32(buf, *v);
            }
            Request::TopK { vertex, k } => {
                buf.push(0x03);
                put_u32(buf, *vertex);
                put_u32(buf, *k);
            }
            Request::Flush => buf.push(0x05),
            Request::Metrics => buf.push(0x06),
            Request::TraceDump => buf.push(0x07),
            Request::Hello { max_version } => {
                buf.push(0x08);
                put_u16(buf, *max_version);
            }
        }
    }

    /// Parses a request payload.
    pub fn decode(payload: &[u8]) -> Result<Request, DecodeError> {
        let mut t = Take(payload);
        let req = match t.u8()? {
            0x01 => {
                let n = t.count(9, "update")?;
                let mut changes = Vec::with_capacity(n);
                for _ in 0..n {
                    let src = t.u32()?;
                    let dst = t.u32()?;
                    let op = match t.u8()? {
                        0 => EdgeOp::Insert,
                        1 => EdgeOp::Remove,
                        other => return Err(bad(format!("unknown edge op {other}"))),
                    };
                    changes.push(EdgeChange { src, dst, op });
                }
                Request::Update(changes)
            }
            0x02 => Request::Embedding(t.u32()?),
            0x03 => Request::TopK { vertex: t.u32()?, k: t.u32()? },
            0x05 => Request::Flush,
            0x06 => Request::Metrics,
            0x07 => Request::TraceDump,
            0x08 => Request::Hello { max_version: t.u16()? },
            tag => return Err(DecodeError::UnknownTag(tag)),
        };
        t.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serialises the response payload (without the length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the response payload to `buf` — the allocation-free sibling
    /// of [`Response::encode`]; the server encodes straight into connection
    /// write buffers through this.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Ack { epoch } => {
                buf.push(0x81);
                put_u64(buf, *epoch);
            }
            Response::Rejected { retry_after_ms } => {
                buf.push(0x82);
                put_u32(buf, *retry_after_ms);
            }
            Response::Embedding { epoch, values } => encode_embedding(buf, *epoch, values),
            Response::TopK { epoch, items } => {
                buf.push(0x84);
                put_u64(buf, *epoch);
                put_u32(buf, items.len() as u32);
                for &(v, s) in items {
                    put_u32(buf, v);
                    put_f32(buf, s);
                }
            }
            Response::Error { message } => {
                buf.push(0x86);
                put_u32(buf, message.len() as u32);
                buf.extend_from_slice(message.as_bytes());
            }
            Response::Flushed { epoch } => {
                buf.push(0x87);
                put_u64(buf, *epoch);
            }
            Response::Metrics { text } => {
                buf.push(0x88);
                put_u32(buf, text.len() as u32);
                buf.extend_from_slice(text.as_bytes());
            }
            Response::TraceDump { json } => {
                buf.push(0x89);
                put_u32(buf, json.len() as u32);
                buf.extend_from_slice(json.as_bytes());
            }
            Response::Hello { version, num_vertices, feat_dim, epoch } => {
                buf.push(0x8A);
                put_u16(buf, *version);
                put_u64(buf, *num_vertices);
                put_u32(buf, *feat_dim);
                put_u64(buf, *epoch);
            }
        }
    }

    /// Parses a response payload.
    pub fn decode(payload: &[u8]) -> Result<Response, DecodeError> {
        let mut t = Take(payload);
        let resp = match t.u8()? {
            0x81 => Response::Ack { epoch: t.u64()? },
            0x82 => Response::Rejected { retry_after_ms: t.u32()? },
            0x83 => {
                let epoch = t.u64()?;
                let d = t.count(4, "embedding")?;
                let mut values = Vec::with_capacity(d);
                for _ in 0..d {
                    values.push(t.f32()?);
                }
                Response::Embedding { epoch, values }
            }
            0x84 => {
                let epoch = t.u64()?;
                let k = t.count(8, "top-k")?;
                let mut items = Vec::with_capacity(k);
                for _ in 0..k {
                    items.push((t.u32()?, t.f32()?));
                }
                Response::TopK { epoch, items }
            }
            0x86 => {
                let n = t.u32()? as usize;
                Response::Error { message: t.utf8(n, "error")? }
            }
            0x87 => Response::Flushed { epoch: t.u64()? },
            0x88 => {
                let n = t.u32()? as usize;
                Response::Metrics { text: t.utf8(n, "metrics")? }
            }
            0x89 => {
                let n = t.u32()? as usize;
                Response::TraceDump { json: t.utf8(n, "trace dump")? }
            }
            0x8A => Response::Hello {
                version: t.u16()?,
                num_vertices: t.u64()?,
                feat_dim: t.u32()?,
                epoch: t.u64()?,
            },
            tag => return Err(DecodeError::UnknownTag(tag)),
        };
        t.finish()?;
        Ok(resp)
    }
}

/// Appends an `Embedding` response payload built directly from a borrowed
/// row — the zero-copy read path: the server never materialises a `Vec<f32>`
/// or a `Response` for the hot query, it serialises the snapshot row
/// straight into the connection's write buffer.
pub fn encode_embedding(buf: &mut Vec<u8>, epoch: u64, values: &[f32]) {
    buf.push(0x83);
    put_u64(buf, epoch);
    put_u32(buf, values.len() as u32);
    buf.reserve(values.len() * 4);
    for &x in values {
        put_f32(buf, x);
    }
}

/// Appends one length-prefixed frame to `out`, with the payload produced by
/// `build` written in place (no intermediate payload allocation). The length
/// prefix is backpatched after `build` runs. Errors with `InvalidInput` —
/// and leaves `out` exactly as it was — when the payload exceeds
/// [`MAX_FRAME`].
pub fn append_frame(out: &mut Vec<u8>, build: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    build(out);
    let len = out.len() - start - 4;
    if len > MAX_FRAME {
        out.truncate(start);
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})"),
        ));
    }
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// Writes one length-prefixed frame. Errors with `InvalidInput` when the
/// payload exceeds [`MAX_FRAME`] — sending it anyway would make the peer's
/// `read_frame` reject the length as hostile and tear the connection down
/// with no diagnostic on this side.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write_frame_noflush(w, payload)?;
    w.flush()
}

/// [`write_frame`] without the trailing flush — the pipelining building
/// block: queue many frames, then flush the writer once.
pub fn write_frame_noflush(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload of {} bytes exceeds MAX_FRAME ({MAX_FRAME})", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one length-prefixed frame. `Ok(None)` on a clean EOF at a frame
/// boundary (the peer hung up between messages).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(r: Request) {
        assert_eq!(Request::decode(&r.encode()).unwrap(), r);
    }

    fn roundtrip_resp(r: Response) {
        assert_eq!(Response::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Update(vec![]));
        roundtrip_req(Request::Update(vec![
            EdgeChange::insert(0, u32::MAX),
            EdgeChange::remove(7, 9),
        ]));
        roundtrip_req(Request::Embedding(42));
        roundtrip_req(Request::TopK { vertex: 3, k: 10 });
        roundtrip_req(Request::Flush);
        roundtrip_req(Request::Metrics);
        roundtrip_req(Request::TraceDump);
        roundtrip_req(Request::Hello { max_version: PROTOCOL_VERSION });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Ack { epoch: u64::MAX });
        roundtrip_resp(Response::Rejected { retry_after_ms: 25 });
        roundtrip_resp(Response::Embedding { epoch: 3, values: vec![1.0, -2.5, f32::MIN] });
        roundtrip_resp(Response::TopK { epoch: 9, items: vec![(1, 0.5), (2, -0.5)] });
        roundtrip_resp(Response::Error { message: "nope — bad vertex".into() });
        roundtrip_resp(Response::Flushed { epoch: 11 });
        roundtrip_resp(Response::Metrics { text: "# TYPE x counter\nx 1\n".into() });
        roundtrip_resp(Response::TraceDump { json: "{\"traceEvents\":[]}".into() });
        roundtrip_resp(Response::Hello {
            version: PROTOCOL_VERSION,
            num_vertices: 1 << 33,
            feat_dim: 64,
            epoch: 17,
        });
    }

    #[test]
    fn unknown_tags_are_typed() {
        // A peer one protocol revision behind must see exactly which tag it
        // does not speak, not a generic parse failure.
        assert_eq!(Request::decode(&[0x7f]), Err(DecodeError::UnknownTag(0x7f)));
        assert_eq!(Request::decode(&[0xff]), Err(DecodeError::UnknownTag(0xff)));
        assert_eq!(Response::decode(&[0x90]), Err(DecodeError::UnknownTag(0x90)));
        // Revision 3 retired the Batch container tags, revision 4 the Stats
        // tags.
        assert_eq!(Request::decode(&[0x09]), Err(DecodeError::UnknownTag(0x09)));
        assert_eq!(Response::decode(&[0x8B]), Err(DecodeError::UnknownTag(0x8B)));
        assert_eq!(Request::decode(&[0x04]), Err(DecodeError::UnknownTag(0x04)));
        assert_eq!(Response::decode(&[0x85]), Err(DecodeError::UnknownTag(0x85)));
        // Tags this revision *does* define decode fine with empty bodies.
        assert_eq!(Request::decode(&[0x06]), Ok(Request::Metrics));
        assert_eq!(Request::decode(&[0x07]), Ok(Request::TraceDump));
        // The error renders with the tag value and converts to io::Error
        // losslessly enough for logs.
        let e = DecodeError::UnknownTag(0x42);
        assert!(e.to_string().contains("0x42"));
        assert_eq!(std::io::Error::from(e).kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn other_decode_failures_keep_their_shape() {
        assert_eq!(Request::decode(&[]), Err(DecodeError::Short));
        assert_eq!(Request::decode(&[0x02, 1, 0, 0, 0, 9]), Err(DecodeError::Trailing(1)));
        assert!(matches!(Request::decode(&[0x01, 0xff]), Err(DecodeError::Short)));
    }

    #[test]
    fn garbage_is_rejected_not_panicking() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0x01, 0xff]).is_err()); // short count
        assert!(Request::decode(&[0x7f]).is_err()); // unknown tag
        assert!(Request::decode(&[0x02, 1, 0, 0, 0, 9]).is_err()); // trailing
        assert!(Response::decode(&[0x83, 0, 0]).is_err());
        // Update claiming more changes than the frame can hold must fail
        // before allocating.
        let mut lying = vec![0x01];
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(&lying).is_err());
        // So must an embedding or top-k response claiming more values than
        // the frame holds: 13 bytes, no 16 MiB reservation first.
        for tag in [0x83, 0x84] {
            let mut lying = vec![tag];
            lying.extend_from_slice(&7u64.to_le_bytes());
            lying.extend_from_slice(&u32::MAX.to_le_bytes());
            assert!(matches!(Response::decode(&lying), Err(DecodeError::Malformed(_))));
        }
    }

    #[test]
    fn bad_edge_op_is_rejected() {
        let mut buf = vec![0x01];
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.push(7); // not 0/1
        assert!(Request::decode(&buf).is_err());
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut wire = Vec::new();
        let a = Request::TopK { vertex: 1, k: 2 }.encode();
        let b = Request::Flush.encode();
        write_frame(&mut wire, &a).unwrap();
        write_frame(&mut wire, &b).unwrap();
        let mut r = wire.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), a);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b);
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn append_frame_matches_write_frame() {
        let resp = Response::TopK { epoch: 4, items: vec![(9, 1.5), (2, 0.0)] };
        let mut via_writer = Vec::new();
        write_frame(&mut via_writer, &resp.encode()).unwrap();
        let mut via_append = Vec::new();
        append_frame(&mut via_append, |buf| resp.encode_into(buf)).unwrap();
        assert_eq!(via_writer, via_append);
    }

    #[test]
    fn zero_copy_embedding_encoding_matches_the_enum_path() {
        let values = vec![1.5f32, -0.25, f32::NAN, 0.0];
        let mut direct = Vec::new();
        encode_embedding(&mut direct, 7, &values);
        let enum_path = Response::Embedding { epoch: 7, values: values.clone() }.encode();
        assert_eq!(direct, enum_path, "borrowed-row path is byte-identical");
    }

    #[test]
    fn oversized_frame_length_is_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert!(read_frame(&mut wire.as_slice()).is_err());
    }

    #[test]
    fn oversized_payload_is_refused_at_the_writer() {
        let payload = vec![0u8; MAX_FRAME + 1];
        let mut wire = Vec::new();
        let err = write_frame(&mut wire, &payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(wire.is_empty(), "nothing hits the wire on refusal");
        // At the cap exactly is still fine.
        assert!(write_frame(&mut io::sink(), &vec![0u8; MAX_FRAME]).is_ok());
        // The in-place framer refuses the same way and restores the buffer.
        let mut out = vec![0xAB];
        let err = append_frame(&mut out, |buf| buf.extend_from_slice(&vec![0u8; MAX_FRAME + 1]))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(out, vec![0xAB], "buffer restored on refusal");
    }

    #[test]
    fn torn_frame_is_an_error_not_eof() {
        let payload = Request::Metrics.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        wire.pop();
        let mut r = wire.as_slice();
        assert!(read_frame(&mut r).is_err(), "EOF mid-frame is a torn message");
    }

    /// Decodes `bytes` both ways; whatever decodes must re-encode to exactly
    /// `bytes` (decoding rejects trailing bytes, so the encoding is
    /// canonical).
    fn decodes_canonically(bytes: &[u8]) -> Result<(), proptest::TestCaseError> {
        use proptest::prelude::*;
        if let Ok(req) = Request::decode(bytes) {
            prop_assert_eq!(&req.encode()[..], bytes);
        }
        if let Ok(resp) = Response::decode(bytes) {
            prop_assert_eq!(&resp.encode()[..], bytes);
        }
        Ok(())
    }

    /// One valid encoding of every request and response, fields drawn from
    /// `a`, `b` and `raw`.
    fn valid_payloads(a: u32, b: u32, raw: &[u8]) -> Vec<Vec<u8>> {
        let epoch = (u64::from(a) << 32) | u64::from(b);
        let text = String::from_utf8_lossy(raw).into_owned();
        let words: Vec<u32> =
            raw.chunks_exact(4).map(|w| u32::from_le_bytes(w.try_into().unwrap())).collect();
        let changes = words
            .iter()
            .map(|&w| if w % 2 == 0 { EdgeChange::insert(w, a) } else { EdgeChange::remove(b, w) })
            .collect();
        let values: Vec<f32> = words.iter().map(|&w| f32::from_bits(w)).collect();
        let items = words.iter().map(|&w| (w, f32::from_bits(a ^ w))).collect();
        let requests = [
            Request::Update(changes),
            Request::Embedding(a),
            Request::TopK { vertex: a, k: b },
            Request::Flush,
            Request::Metrics,
            Request::TraceDump,
            Request::Hello { max_version: a as u16 },
        ];
        let responses = [
            Response::Ack { epoch },
            Response::Rejected { retry_after_ms: a },
            Response::Embedding { epoch, values },
            Response::TopK { epoch, items },
            Response::Error { message: text.clone() },
            Response::Flushed { epoch },
            Response::Metrics { text: text.clone() },
            Response::TraceDump { json: text },
            Response::Hello {
                version: b as u16,
                num_vertices: epoch,
                feat_dim: a,
                epoch,
            },
        ];
        requests.iter().map(Request::encode).chain(responses.iter().map(Response::encode)).collect()
    }

    proptest::proptest! {
        #[test]
        fn arbitrary_bytes_decode_canonically_or_not_at_all(
            bytes in proptest::collection::vec(0u8..=255, 0..64),
        ) {
            decodes_canonically(&bytes)?;
        }

        #[test]
        fn one_flipped_byte_decodes_canonically_or_not_at_all(
            a in 0u32..=u32::MAX,
            b in 0u32..=u32::MAX,
            raw in proptest::collection::vec(0u8..=255, 0..24),
            at in 0usize..64,
            mask in 1u8..=255,
        ) {
            for mut payload in valid_payloads(a, b, &raw) {
                decodes_canonically(&payload)?;
                let i = at % payload.len();
                payload[i] ^= mask;
                decodes_canonically(&payload)?;
            }
        }
    }
}
