//! Binary edge-list serialisation: the graph section of an engine
//! checkpoint. Format: magic (which carries the version), directed flag,
//! vertex count, edge count, then little-endian `u32` pairs. Callers wrap
//! the stream in buffered I/O (per the perf-book guidance on unbuffered
//! syscalls).

use crate::{DynGraph, VertexId};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"IKG1";

/// Writes `g` to an arbitrary writer.
pub fn write_graph(g: &DynGraph, w: &mut impl Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&[u8::from(g.is_directed())])?;
    w.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    let edges = g.edges();
    w.write_all(&(edges.len() as u64).to_le_bytes())?;
    for (u, v) in edges {
        w.write_all(&u.to_le_bytes())?;
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Reads a graph previously written by [`write_graph`]. A header that
/// declares more vertices than [`VertexId`] can name, or more than can be
/// allocated, is [`io::ErrorKind::InvalidData`].
pub fn read_graph(r: &mut impl Read) -> io::Result<DynGraph> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic"));
    }
    let mut flag = [0u8; 1];
    r.read_exact(&mut flag)?;
    let directed = flag[0] != 0;
    let n = read_u64(r)?;
    if n > u64::from(VertexId::MAX) + 1 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "vertex count out of range"));
    }
    let n = n as usize;
    let m = read_u64(r)?;
    let g = DynGraph::try_new(n, directed)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "vertex count unallocatable"))?;
    // The edge count is untrusted: the buffer grows only as pairs arrive.
    let mut edges = Vec::new();
    let mut buf = [0u8; 8];
    for _ in 0..m {
        r.read_exact(&mut buf)?;
        let u = VertexId::from_le_bytes(buf[..4].try_into().unwrap());
        let v = VertexId::from_le_bytes(buf[4..].try_into().unwrap());
        if u as usize >= n || v as usize >= n {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "vertex id out of range"));
        }
        edges.push((u, v));
    }
    Ok(g.with_edges(&edges))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(g: &DynGraph) -> DynGraph {
        let mut buf = Vec::new();
        write_graph(g, &mut buf).unwrap();
        read_graph(&mut buf.as_slice()).unwrap()
    }

    #[test]
    fn roundtrip_undirected() {
        let g = DynGraph::undirected_from_edges(5, &[(0, 1), (2, 3), (1, 4)]);
        assert_eq!(roundtrip(&g), g);
    }

    #[test]
    fn roundtrip_directed() {
        let g = DynGraph::directed_from_edges(4, &[(0, 1), (1, 0), (3, 2)]);
        let loaded = roundtrip(&g);
        assert_eq!(loaded, g);
        assert!(loaded.is_directed());
    }

    #[test]
    fn an_untrusted_edge_count_reserves_nothing() {
        // A header that promises 2^64 − 1 edges and then ends: the reader
        // must run out of bytes, not try to reserve for the promise.
        let mut bytes = Vec::new();
        write_graph(&DynGraph::new(3, false), &mut bytes).unwrap();
        let count_at = bytes.len() - 8;
        bytes[count_at..].copy_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0, 0, 0, 0, 1, 0, 0, 0]);
        let err = read_graph(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn rejects_an_out_of_range_vertex() {
        let mut bytes = Vec::new();
        write_graph(&DynGraph::undirected_from_edges(3, &[(0, 2)]), &mut bytes).unwrap();
        let last = bytes.len() - 4;
        bytes[last..].copy_from_slice(&3u32.to_le_bytes());
        let err = read_graph(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_garbage() {
        let err = read_graph(&mut &b"not a graph"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
