//! Engine checkpointing.
//!
//! InkStream's whole value is the cached state that survives between
//! timestamps; a production deployment also needs that state to survive
//! restarts without paying a fresh full-graph bootstrap. A checkpoint holds
//! the graph, the feature matrix and every layer's `m`/`α` plus the output —
//! loading it reconstructs the engine exactly (bitwise) as it was saved.
//!
//! The model (weights) is *not* serialised: it lives with the training
//! pipeline; the loader takes it as an argument and validates shape
//! compatibility.
//!
//! All matrix payloads move through buffered chunked conversion (one
//! `write_all`/`read_exact` per ~16 KiB, not per element), and loading is
//! defensive: a stream that is not a checkpoint ([`InkError::BadMagic`]),
//! ends early ([`InkError::Truncated`]) or declares impossible shapes
//! ([`InkError::Corrupt`]) returns a typed error instead of panicking.

use crate::{InkError, InkStream, UpdateConfig};
use ink_gnn::{FullState, Model};
use ink_tensor::Matrix;
use std::io::{self, BufReader, BufWriter, Read, Write};

const MAGIC: &[u8; 4] = b"IKC1";

/// Elements per conversion chunk (16 KiB of `f32`s) — large enough to make
/// the syscall/copy overhead disappear, small enough to live on the stack of
/// any thread.
const CHUNK_ELEMS: usize = 4096;

fn write_matrix(m: &Matrix, w: &mut impl Write) -> io::Result<()> {
    w.write_all(&(m.rows() as u64).to_le_bytes())?;
    w.write_all(&(m.cols() as u64).to_le_bytes())?;
    let mut buf = [0u8; CHUNK_ELEMS * 4];
    for chunk in m.as_slice().chunks(CHUNK_ELEMS) {
        for (slot, &x) in buf.chunks_exact_mut(4).zip(chunk) {
            slot.copy_from_slice(&x.to_le_bytes());
        }
        w.write_all(&buf[..chunk.len() * 4])?;
    }
    Ok(())
}

fn read_matrix(r: &mut impl Read) -> Result<Matrix, InkError> {
    let rows = read_u64(r)? as usize;
    let cols = read_u64(r)? as usize;
    let count = rows
        .checked_mul(cols)
        .filter(|c| c.checked_mul(4).is_some())
        .ok_or_else(|| InkError::Corrupt {
            detail: format!("matrix shape {rows}x{cols} overflows"),
        })?;
    let mut data: Vec<f32> = Vec::new();
    // try_reserve instead of vec![]: a lying header claiming petabytes must
    // come back as a typed error, not an allocation abort.
    data.try_reserve_exact(count).map_err(|_| InkError::Corrupt {
        detail: format!("matrix shape {rows}x{cols} is unallocatable"),
    })?;
    let mut buf = [0u8; CHUNK_ELEMS * 4];
    let mut remaining = count;
    while remaining > 0 {
        let take = remaining.min(CHUNK_ELEMS);
        r.read_exact(&mut buf[..take * 4]).map_err(InkError::from_read_error)?;
        data.extend(
            buf[..take * 4].chunks_exact(4).map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        );
        remaining -= take;
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

fn read_u64(r: &mut impl Read) -> Result<u64, InkError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf).map_err(InkError::from_read_error)?;
    Ok(u64::from_le_bytes(buf))
}

/// Serialises the engine's graph, features and cached state. The writer is
/// wrapped in a [`BufWriter`] internally; callers can hand over a bare
/// `File` or `TcpStream`.
pub fn save(engine: &InkStream, w: &mut impl Write) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    w.write_all(MAGIC)?;
    ink_graph::io::write_graph(engine.graph(), &mut w)?;
    write_matrix(engine.features(), &mut w)?;
    let state = engine.state();
    w.write_all(&(state.m.len() as u64).to_le_bytes())?;
    for l in 0..state.m.len() {
        write_matrix(&state.m[l], &mut w)?;
        write_matrix(&state.alpha[l], &mut w)?;
    }
    write_matrix(&state.h, &mut w)?;
    w.flush()
}

/// Reconstructs an engine from a checkpoint written by [`save`]. `model`
/// must be the same model (weights) the checkpoint was produced with — the
/// shapes are validated, the values are the caller's contract.
///
/// Malformed input comes back as a typed [`InkError`]: [`InkError::BadMagic`]
/// when the stream is not a checkpoint, [`InkError::Truncated`] when it ends
/// mid-section, [`InkError::Corrupt`] for impossible headers or inconsistent
/// shapes, [`InkError::Io`] for genuine I/O faults.
pub fn load(
    model: Model,
    r: &mut impl Read,
    config: UpdateConfig,
) -> Result<InkStream, InkError> {
    let mut r = BufReader::new(r);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic).map_err(InkError::from_read_error)?;
    if &magic != MAGIC {
        return Err(InkError::BadMagic);
    }
    let graph = ink_graph::io::read_graph(&mut r).map_err(InkError::from_read_error)?;
    let features = read_matrix(&mut r)?;
    let layers = read_u64(&mut r)? as usize;
    if layers > u16::MAX as usize {
        return Err(InkError::Corrupt { detail: format!("{layers} layers is implausible") });
    }
    let mut m = Vec::with_capacity(layers);
    let mut alpha = Vec::with_capacity(layers);
    for _ in 0..layers {
        m.push(read_matrix(&mut r)?);
        alpha.push(read_matrix(&mut r)?);
    }
    let h = read_matrix(&mut r)?;
    let state = FullState { m, alpha, h, norm_stats: vec![None; layers] };
    InkStream::from_parts(model, graph, features, state, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ink_graph::generators::erdos_renyi;
    use ink_graph::DeltaBatch;
    use ink_gnn::Aggregator;
    use ink_tensor::init::{seeded_rng, uniform};
    use rand::SeedableRng;

    fn make_engine(seed: u64) -> InkStream {
        let mut rng = seeded_rng(seed);
        let g = erdos_renyi(&mut rng, 30, 70);
        let x = uniform(&mut rng, 30, 4, -1.0, 1.0);
        let model = Model::gcn(&mut rng, &[4, 5, 3], Aggregator::Max);
        InkStream::new(model, g, x, UpdateConfig::default()).unwrap()
    }

    /// `InkStream` has no `Debug`, so `unwrap_err` doesn't apply.
    fn err_of(r: Result<InkStream, InkError>) -> InkError {
        match r {
            Err(e) => e,
            Ok(_) => panic!("expected the load to fail"),
        }
    }

    fn make_model(seed: u64) -> Model {
        // Re-derive the same weights `make_engine(seed)` used by replaying
        // the RNG consumption order.
        let mut mrng = seeded_rng(seed);
        let _ = erdos_renyi(&mut mrng, 30, 70);
        let _ = uniform(&mut mrng, 30, 4, -1.0, 1.0);
        Model::gcn(&mut mrng, &[4, 5, 3], Aggregator::Max)
    }

    #[test]
    fn roundtrip_preserves_state_bitwise() {
        let mut engine = make_engine(1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        engine.apply_delta(&DeltaBatch::random_scenario(engine.graph(), &mut rng, 8));

        let mut buf = Vec::new();
        save(&engine, &mut buf).unwrap();
        let loaded = load(make_model(1), &mut buf.as_slice(), UpdateConfig::default()).unwrap();

        assert_eq!(loaded.graph(), engine.graph());
        assert_eq!(loaded.output(), engine.output());
        assert_eq!(&loaded.state().m[0], &engine.state().m[0]);
        assert_eq!(&loaded.state().alpha[1], &engine.state().alpha[1]);
    }

    #[test]
    fn roundtrip_across_chunk_boundaries() {
        // A feature matrix larger than one 4096-element conversion chunk,
        // with values that would expose any byte-order or offset slip.
        let mut rng = seeded_rng(11);
        let n = 600; // 600 * 12 = 7200 f32 per matrix > CHUNK_ELEMS
        let g = erdos_renyi(&mut rng, n, 1500);
        let x = uniform(&mut rng, n, 12, -3.0, 3.0);
        let model = Model::gcn(&mut rng, &[12, 9, 5], Aggregator::Max);
        let engine = InkStream::new(model, g, x, UpdateConfig::default()).unwrap();

        let mut buf = Vec::new();
        save(&engine, &mut buf).unwrap();
        let mut mrng = seeded_rng(11);
        let _ = erdos_renyi(&mut mrng, n, 1500);
        let _ = uniform(&mut mrng, n, 12, -3.0, 3.0);
        let model = Model::gcn(&mut mrng, &[12, 9, 5], Aggregator::Max);
        let loaded = load(model, &mut buf.as_slice(), UpdateConfig::default()).unwrap();
        assert_eq!(loaded.features(), engine.features());
        assert_eq!(loaded.output(), engine.output());
    }

    #[test]
    fn loaded_engine_keeps_updating_correctly() {
        let mut engine = make_engine(3);
        let mut buf = Vec::new();
        save(&engine, &mut buf).unwrap();
        let mut loaded = load(make_model(3), &mut buf.as_slice(), UpdateConfig::default()).unwrap();

        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let delta = DeltaBatch::random_scenario(loaded.graph(), &mut rng, 6);
        loaded.apply_delta(&delta);
        engine.apply_delta(&delta);
        assert_eq!(loaded.output(), engine.output());
        assert_eq!(loaded.output(), &loaded.recompute_reference());
    }

    #[test]
    fn wrong_model_shape_is_rejected() {
        let engine = make_engine(5);
        let mut buf = Vec::new();
        save(&engine, &mut buf).unwrap();
        let mut mrng = seeded_rng(5);
        let wrong = Model::gcn(&mut mrng, &[4, 7, 3], Aggregator::Max); // hidden 7 ≠ 5
        match err_of(load(wrong, &mut buf.as_slice(), UpdateConfig::default())) {
            InkError::ShapeMismatch { .. } => {}
            other => panic!("shape mismatch must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = err_of(load(
            make_model(6),
            &mut &b"nonsense-that-is-long-enough-to-not-eof"[..],
            UpdateConfig::default(),
        ));
        assert_eq!(err, InkError::BadMagic);
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let engine = make_engine(7);
        let mut buf = Vec::new();
        save(&engine, &mut buf).unwrap();
        // Cutting the stream anywhere past the magic must yield Truncated —
        // never a panic, never a mangled engine. (Sampled lengths keep the
        // test fast; the section boundaries are all covered.)
        for cut in (4..buf.len()).step_by(97).chain([buf.len() - 1]) {
            let err = err_of(load(make_model(7), &mut &buf[..cut], UpdateConfig::default()));
            assert_eq!(err, InkError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn empty_stream_is_truncated_not_bad_magic() {
        let err = err_of(load(make_model(8), &mut &b""[..], UpdateConfig::default()));
        assert_eq!(err, InkError::Truncated);
    }

    #[test]
    fn shape_overflow_is_rejected() {
        let engine = make_engine(9);
        let mut buf = Vec::new();
        save(&engine, &mut buf).unwrap();
        // The feature-matrix header sits right after the graph section.
        // Rebuild the stream with a poisoned header: rows*cols overflows.
        let mut graph_bytes = Vec::new();
        ink_graph::io::write_graph(engine.graph(), &mut graph_bytes).unwrap();
        let header_at = 4 + graph_bytes.len();
        let mut poisoned = buf.clone();
        poisoned[header_at..header_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        poisoned[header_at + 8..header_at + 16].copy_from_slice(&u64::MAX.to_le_bytes());
        let err =
            err_of(load(make_model(9), &mut poisoned.as_slice(), UpdateConfig::default()));
        match err {
            InkError::Corrupt { detail } => assert!(detail.contains("overflow"), "{detail}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // A huge-but-representable element count must also fail typed (the
        // allocation is refused or the stream ends early), not abort.
        let mut huge = buf.clone();
        huge[header_at..header_at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        huge[header_at + 8..header_at + 16].copy_from_slice(&1u64.to_le_bytes());
        let err = err_of(load(make_model(9), &mut huge.as_slice(), UpdateConfig::default()));
        assert!(
            matches!(err, InkError::Corrupt { .. } | InkError::Truncated),
            "got {err:?}"
        );

        // The graph header's vertex count (after the checkpoint magic, the
        // graph magic and the directed flag) is as untrusted as a matrix's.
        let vertices_at = 4 + 4 + 1;
        for n in [1u64 << 40, u64::MAX] {
            let mut poisoned = buf.clone();
            poisoned[vertices_at..vertices_at + 8].copy_from_slice(&n.to_le_bytes());
            let err =
                err_of(load(make_model(9), &mut poisoned.as_slice(), UpdateConfig::default()));
            assert!(
                matches!(err, InkError::Corrupt { .. } | InkError::Truncated),
                "vertex count {n}: got {err:?}"
            );
        }
    }
}
