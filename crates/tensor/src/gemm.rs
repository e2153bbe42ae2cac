//! Blocked, panel-packed GEMM with bitwise-reproducible accumulation.
//!
//! The incremental engine's transform step is dense: every affected node's
//! recovered embedding is multiplied by the layer weight. Done one node at a
//! time that is a GEMV per node — memory-bound, re-streaming the weight matrix
//! from cache for every row. This module batches those rows into a single
//! `n×k · k×m` GEMM built the way high-performance BLAS kernels are built:
//!
//! * **Panel packing** — both operands are repacked once per call. The
//!   right-hand side goes into `NR`-wide column strips read as a contiguous
//!   stream (`packed[strip][kk][jj]`, ragged last strip zero-padded); the
//!   left-hand side goes into `MR`-tall row panels laid out k-major
//!   (`packed[panel][kk][ii]`), so the micro-kernel's whole `k` sweep is two
//!   `chunks_exact` streams with no strided access and no bounds checks.
//!   Packing buffers come from a caller-owned [`GemmScratch`] pool, so
//!   steady-state callers never allocate.
//! * **Register-blocked micro-tiles** — an `MR×NR` accumulator tile lives
//!   entirely in registers across the full `k` sweep (`MR`·`NR` = 32
//!   floats — 8 SIMD registers at SSE width, half the register file); the
//!   innermost loop is a fixed-width multiply-accumulate LLVM
//!   auto-vectorises.
//! * **Row-panel parallelism** — large calls split the output into contiguous
//!   row blocks processed in parallel; each task owns a disjoint output slice.
//!
//! **The k-order argument.** Floating-point addition is not associative, so a
//! blocked GEMM is usually *not* bit-identical to a naive loop. This one is:
//! every output element `out[i][j]` is produced by a single accumulator that
//! adds `a[i][kk] * b[kk][j]` for `kk = 0, 1, …, k-1` — strictly the same
//! operand sequence as the seed i-k-j loop and as [`Matrix::vecmul`]. Tiling
//! changes *which elements* are computed together, never the order of
//! additions *within* an element, and row-panel parallelism only partitions
//! whole output rows. The engine's bitwise drift guarantees therefore survive
//! the kernel swap, at any worker count.
//!
//! Unlike the seed kernel there is no `a == 0.0` skip: the dense path always
//! performs the multiply, so `0.0 × NaN` correctly poisons the output instead
//! of being silently dropped (see `DESIGN.md` §9).

use crate::matrix::Matrix;
use rayon::prelude::*;

/// Rows per register tile and per packed A panel (the tile height).
const MR: usize = 4;
/// Columns per packed B strip. The AVX2 micro-kernel consumes a full strip
/// per tile (4×16 accumulators = 8 of 16 YMM registers); the portable
/// micro-kernel splits each strip into two 8-wide halves so its accumulator
/// tile (4×8 = 8 XMM) fits the baseline SSE register file without spilling.
const NR: usize = 16;
/// Column width of one portable half-tile.
const HALF: usize = NR / 2;
/// Row-block granularity for the parallel path; a multiple of [`MR`].
const PAR_BLOCK: usize = 64;
/// Minimum `2·n·k·m` flop count before the parallel path is worth the
/// fork/join overhead; below this the kernel runs sequentially even when the
/// caller allows parallelism.
const PAR_MIN_FLOPS: usize = 1 << 20;

/// A reusable pool of scratch buffers for [`gemm_into`] and the batched layer
/// transforms built on top of it.
///
/// The pool hands out zero-filled `Vec<f32>` buffers ([`GemmScratch::take`])
/// and accepts them back ([`GemmScratch::put`]) keeping their capacity, so a
/// steady-state caller that needs the same (or smaller) buffer sizes every
/// round performs no allocation after warm-up. Several buffers can be
/// outstanding at once — nested users (e.g. an MLP's ping-pong activations on
/// top of the GEMM packing buffer) simply take more than one.
///
/// Retention is bounded: checked-in capacity beyond the pool's retention
/// limit ([`DEFAULT_RETAIN_BYTES`]) is released immediately, largest
/// buffer first, so one pathologically large update cannot pin peak-sized
/// allocations for the rest of the process.
///
/// ```
/// use ink_tensor::gemm::GemmScratch;
///
/// let mut scratch = GemmScratch::new();
/// let buf = scratch.take(128);
/// assert!(buf.iter().all(|&x| x == 0.0));
/// scratch.put(buf);
/// let again = scratch.take(64); // reuses the 128-capacity buffer
/// assert!(again.capacity() >= 128);
/// # scratch.put(again);
/// ```
#[derive(Debug)]
pub struct GemmScratch {
    pool: Vec<Vec<f32>>,
    retain_limit: usize,
}

/// Default cap on bytes a [`GemmScratch`] keeps checked in (64 MiB). Large
/// enough that every steady-state workload in the engine reuses without
/// reallocating; small enough that a one-off burst does not stay resident.
pub const DEFAULT_RETAIN_BYTES: usize = 64 << 20;

impl Default for GemmScratch {
    fn default() -> Self {
        Self { pool: Vec::new(), retain_limit: DEFAULT_RETAIN_BYTES }
    }
}

impl GemmScratch {
    /// An empty pool; buffers are created on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a zero-filled buffer of exactly `len` elements, reusing pooled
    /// capacity when possible (best fit: the smallest pooled buffer that
    /// already holds `len`, else the largest available).
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let mut best: Option<usize> = None;
        for (i, b) in self.pool.iter().enumerate() {
            let c = b.capacity();
            let better = match best {
                None => true,
                Some(j) => {
                    let cj = self.pool[j].capacity();
                    if cj >= len {
                        c >= len && c < cj
                    } else {
                        c > cj
                    }
                }
            };
            if better {
                best = Some(i);
            }
        }
        let mut buf = best.map(|i| self.pool.swap_remove(i)).unwrap_or_default();
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Returns a buffer to the pool for reuse. Contents are discarded, and
    /// pooled capacity beyond the retention limit is released on the spot
    /// (largest buffer first), so `bytes()` never exceeds the limit after a
    /// check-in.
    pub fn put(&mut self, buf: Vec<f32>) {
        self.pool.push(buf);
        while self.bytes() > self.retain_limit {
            let largest = self
                .pool
                .iter()
                .enumerate()
                .max_by_key(|(_, b)| b.capacity())
                .map(|(i, _)| i)
                .expect("bytes() > 0 implies a pooled buffer");
            self.pool.swap_remove(largest);
        }
    }

    /// Bytes retained by pooled (checked-in) buffers — the observable the
    /// steady-state allocation tests track. Checked-out buffers are counted
    /// by their owners.
    pub fn bytes(&self) -> usize {
        self.pool.iter().map(|b| b.capacity() * std::mem::size_of::<f32>()).sum()
    }
}

/// Flop count of an `n×k · k×m` GEMM (one multiply + one add per term).
pub fn gemm_flops(n: usize, k: usize, m: usize) -> u64 {
    2 * n as u64 * k as u64 * m as u64
}

/// Packs row-major `b (k×m)` into NR-wide column strips:
/// `packed[s*k*NR + kk*NR + jj] = b[kk][s*NR + jj]`, zero-padding the ragged
/// last strip so the micro-kernel never branches on width.
fn pack_b(b: &[f32], k: usize, m: usize, packed: &mut [f32]) {
    let strips = m.div_ceil(NR);
    for s in 0..strips {
        let j0 = s * NR;
        let w = (m - j0).min(NR);
        let dst_base = s * k * NR;
        for kk in 0..k {
            let src = &b[kk * m + j0..kk * m + j0 + w];
            let dst = &mut packed[dst_base + kk * NR..dst_base + (kk + 1) * NR];
            dst[..w].copy_from_slice(src);
            dst[w..].fill(0.0);
        }
    }
}

/// Packs row-major `a (n×k)` into MR-tall k-major row panels:
/// `packed[p*k*MR + kk*MR + ii] = a[p*MR + ii][kk]`, zero-padding the ragged
/// last panel. Padded rows compute zeros the store step discards, so the
/// micro-kernel never branches on height either.
fn pack_a(a: &[f32], n: usize, k: usize, packed: &mut [f32]) {
    let panels = n.div_ceil(MR);
    for p in 0..panels {
        let i0 = p * MR;
        let h = (n - i0).min(MR);
        let dst_base = p * k * MR;
        for kk in 0..k {
            let dst = &mut packed[dst_base + kk * MR..dst_base + (kk + 1) * MR];
            for (ii, d) in dst[..h].iter_mut().enumerate() {
                *d = a[(i0 + ii) * k + kk];
            }
            dst[h..].fill(0.0);
        }
    }
}

/// `MR×NR` register-tile micro-kernel: accumulates the full `k` sweep for one
/// packed A panel against one packed B strip, then stores the `r` live rows ×
/// `w` live columns. Both operands stream through `chunks_exact`, so the hot
/// loop carries no bounds checks. Accumulation is strictly in `kk` order per
/// element. `inline(always)` so the caller's target features (AVX2 in
/// [`gemm_block_avx2`]) reach the loop body.
#[inline(always)]
fn micro_wide(ap: &[f32], bp: &[f32], out: &mut [f32], ldo: usize, j0: usize, w: usize, r: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for (arow, brow) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for (accr, &aik) in acc.iter_mut().zip(arow) {
            for (o, &b) in accr.iter_mut().zip(brow) {
                *o += aik * b;
            }
        }
    }
    for (i, accr) in acc.iter().take(r).enumerate() {
        out[i * ldo + j0..i * ldo + j0 + w].copy_from_slice(&accr[..w]);
    }
}

/// Portable micro-kernel: the same `MR×NR` tile as two sequential `MR×HALF`
/// half-tiles, so the accumulators fit the baseline SSE register file. Each
/// output element is still produced by one accumulator swept in `kk` order —
/// the halves partition *columns*, never an element's additions — so the
/// result is bitwise-identical to [`micro_wide`].
#[inline]
fn micro_halves(ap: &[f32], bp: &[f32], out: &mut [f32], ldo: usize, j0: usize, w: usize, r: usize) {
    for h in 0..2 {
        let c0 = h * HALF;
        if w <= c0 {
            break;
        }
        let hw = (w - c0).min(HALF);
        let mut acc = [[0.0f32; HALF]; MR];
        for (arow, brow) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
            for (accr, &aik) in acc.iter_mut().zip(arow) {
                for (o, &b) in accr.iter_mut().zip(&brow[c0..c0 + HALF]) {
                    *o += aik * b;
                }
            }
        }
        for (i, accr) in acc.iter().take(r).enumerate() {
            out[i * ldo + j0 + c0..i * ldo + j0 + c0 + hw].copy_from_slice(&accr[..hw]);
        }
    }
}

/// The row-block × strip sweep shared by both instruction-set paths.
/// `inline(always)` + a generic `micro` keep the whole loop nest inside the
/// (possibly target-feature-annotated) caller, so the micro-kernel body is
/// compiled with that caller's features.
#[inline(always)]
fn block_loop(
    pa: &[f32],
    rows: usize,
    k: usize,
    packed: &[f32],
    m: usize,
    out: &mut [f32],
    micro: impl Fn(&[f32], &[f32], &mut [f32], usize, usize, usize, usize),
) {
    let strips = m.div_ceil(NR);
    let mut i = 0;
    while i < rows {
        let r = (rows - i).min(MR);
        let ap = &pa[(i / MR) * k * MR..(i / MR + 1) * k * MR];
        for s in 0..strips {
            let j0 = s * NR;
            let w = (m - j0).min(NR);
            let bp = &packed[s * k * NR..(s + 1) * k * NR];
            micro(ap, bp, &mut out[i * m..], m, j0, w, r);
        }
        i += r;
    }
}

/// AVX2 instantiation of the block sweep: eight 8-lane YMM accumulators per
/// tile. Bitwise-identical to the portable path — wider registers change how
/// many elements compute per instruction, not any element's addition order
/// (Rust never contracts `a*b + c` into a fused multiply-add, so enabling
/// AVX2 cannot alter rounding either).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_block_avx2(pa: &[f32], rows: usize, k: usize, packed: &[f32], m: usize, out: &mut [f32]) {
    block_loop(pa, rows, k, packed, m, out, micro_wide);
}

/// Portable instantiation of the block sweep (any architecture).
fn gemm_block_portable(pa: &[f32], rows: usize, k: usize, packed: &[f32], m: usize, out: &mut [f32]) {
    block_loop(pa, rows, k, packed, m, out, micro_halves);
}

/// Computes `rows` output rows (a row block) from packed A panels and the
/// packed B panel, dispatching on runtime CPU features.
fn gemm_block(pa: &[f32], rows: usize, k: usize, packed: &[f32], m: usize, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime (std caches the
        // CPUID probe), and the function reads/writes only its slice
        // arguments.
        unsafe { gemm_block_avx2(pa, rows, k, packed, m, out) };
        return;
    }
    gemm_block_portable(pa, rows, k, packed, m, out);
}

/// Dense GEMM into caller-owned storage: `a (n×k) · b (k×m) → out (n×m)`.
///
/// All slices are row-major and must match the stated shapes exactly. The
/// packing buffer is borrowed from `scratch`; when `parallel` is true and the
/// problem is large enough the row panels are processed in parallel. The
/// result is bitwise-identical for every `parallel`/thread-count combination
/// and to the naive i-k-j loop (see the module docs for why).
///
/// ```
/// use ink_tensor::gemm::{gemm_into, GemmScratch};
///
/// let a = [1.0, 2.0, 3.0, 4.0]; // 2×2
/// let b = [5.0, 6.0, 7.0, 8.0]; // 2×2
/// let mut out = [0.0; 4];
/// gemm_into(2, 2, 2, &a, &b, &mut out, &mut GemmScratch::new(), false);
/// assert_eq!(out, [19.0, 22.0, 43.0, 50.0]);
/// ```
// BLAS-style explicit-shape signature: the three dims cannot be derived from
// the slices alone, and bundling them into a struct would only move the same
// eight values behind a constructor.
#[allow(clippy::too_many_arguments)]
pub fn gemm_into(
    n: usize,
    k: usize,
    m: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    scratch: &mut GemmScratch,
    parallel: bool,
) {
    assert_eq!(a.len(), n * k, "gemm lhs shape mismatch");
    assert_eq!(b.len(), k * m, "gemm rhs shape mismatch");
    assert_eq!(out.len(), n * m, "gemm output shape mismatch");
    if n == 0 || m == 0 {
        return;
    }
    let strips = m.div_ceil(NR);
    let mut packed = scratch.take(strips * k * NR);
    pack_b(b, k, m, &mut packed);
    let mut packed_a = scratch.take(n.div_ceil(MR) * k * MR);
    pack_a(a, n, k, &mut packed_a);
    if parallel && n > PAR_BLOCK && 2 * n * k * m >= PAR_MIN_FLOPS {
        // PAR_BLOCK is a multiple of MR, so each output block starts on an A
        // panel boundary and owns a disjoint packed-A slice.
        out.par_chunks_mut(PAR_BLOCK * m).enumerate().for_each(|(bi, oblock)| {
            let r0 = bi * PAR_BLOCK;
            gemm_block(&packed_a[(r0 / MR) * k * MR..], oblock.len() / m, k, &packed, m, oblock);
        });
    } else {
        gemm_block(&packed_a, n, k, &packed, m, out);
    }
    scratch.put(packed_a);
    scratch.put(packed);
}

/// Gathers rows of `src` named by `ids` into the dense row-major buffer
/// `out` (`ids.len() × src.cols()`): row `i` of `out` becomes
/// `src.row(ids[i])`. The gather half of the engine's gather→GEMM→scatter
/// transform pass.
pub fn gather_rows_into(src: &Matrix, ids: impl ExactSizeIterator<Item = usize>, out: &mut [f32]) {
    let cols = src.cols();
    assert_eq!(out.len(), ids.len() * cols, "gather output shape mismatch");
    for (dst, id) in out.chunks_exact_mut(cols.max(1)).zip(ids) {
        dst.copy_from_slice(src.row(id));
    }
}

/// Like [`gather_rows_into`] but multiplies row `i` by `scale(i)` during the
/// copy — used to fold per-node degree normalisation into the gather so the
/// batched path performs exactly the same `row[j] * s` operations as the
/// per-node path it replaces.
pub fn gather_rows_scaled_into(
    src: &Matrix,
    ids: impl ExactSizeIterator<Item = (usize, f32)>,
    out: &mut [f32],
) {
    let cols = src.cols();
    assert_eq!(out.len(), ids.len() * cols, "gather output shape mismatch");
    for (dst, (id, s)) in out.chunks_exact_mut(cols.max(1)).zip(ids) {
        for (d, &x) in dst.iter_mut().zip(src.row(id)) {
            *d = x * s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seed kernel: naive dense i-k-j loop, sequential, no zero skip.
    fn naive(n: usize, k: usize, m: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; n * m];
        for i in 0..n {
            for kk in 0..k {
                let aik = a[i * k + kk];
                for j in 0..m {
                    out[i * m + j] += aik * b[kk * m + j];
                }
            }
        }
        out
    }

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        // Deterministic awkward values: mixed signs and magnitudes so
        // accumulation order differences would actually show up bitwise.
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                ((s >> 8) as f32 / (1u32 << 24) as f32 - 0.5) * 3.0
            })
            .collect()
    }

    #[test]
    fn matches_seed_loop_on_adversarial_shapes() {
        // 1×1, tall-skinny, wide, non-multiple-of-tile in every dimension,
        // exact tile multiples, and degenerate k.
        for &(n, k, m) in &[
            (1, 1, 1),
            (1, 7, 1),
            (257, 3, 2),
            (2, 3, 257),
            (4, 16, 16),
            (5, 17, 33),
            (3, 1, 16),
            (16, 16, 16),
            (31, 31, 31),
            (33, 64, 15),
            (7, 0, 5),
            (0, 4, 4),
            (4, 4, 0),
        ] {
            let a = fill(n * k, 1 + n as u32);
            let b = fill(k * m, 99 + m as u32);
            let mut out = vec![f32::NAN; n * m]; // poison: kernel must overwrite fully
            let mut scratch = GemmScratch::new();
            gemm_into(n, k, m, &a, &b, &mut out, &mut scratch, false);
            let want = naive(n, k, m, &a, &b);
            assert!(
                out.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{n}x{k}x{m} not bitwise equal to seed loop"
            );
        }
    }

    #[test]
    fn parallel_path_is_bitwise_equal_to_sequential() {
        // Big enough to clear PAR_MIN_FLOPS and span several PAR_BLOCKs.
        let (n, k, m) = (300, 64, 40);
        let a = fill(n * k, 7);
        let b = fill(k * m, 11);
        let mut seq = vec![0.0; n * m];
        let mut par = vec![0.0; n * m];
        let mut scratch = GemmScratch::new();
        gemm_into(n, k, m, &a, &b, &mut seq, &mut scratch, false);
        gemm_into(n, k, m, &a, &b, &mut par, &mut scratch, true);
        assert!(seq.iter().zip(&par).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn portable_and_dispatched_paths_agree_bitwise() {
        // On AVX2 hosts this pits the wide micro-kernel against the
        // half-tile one; elsewhere both sides run the portable path and the
        // test is trivially green.
        for &(n, k, m) in &[(5, 17, 33), (64, 32, 40), (31, 31, 31), (4, 16, 16)] {
            let a = fill(n * k, 21 + n as u32);
            let b = fill(k * m, 22 + m as u32);
            let mut scratch = GemmScratch::new();
            let mut packed = scratch.take(m.div_ceil(NR) * k * NR);
            pack_b(&b, k, m, &mut packed);
            let mut pa = scratch.take(n.div_ceil(MR) * k * MR);
            pack_a(&a, n, k, &mut pa);
            let mut portable = vec![0.0; n * m];
            gemm_block_portable(&pa, n, k, &packed, m, &mut portable);
            let mut dispatched = vec![0.0; n * m];
            gemm_block(&pa, n, k, &packed, m, &mut dispatched);
            assert!(
                portable.iter().zip(&dispatched).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{n}x{k}x{m}: SIMD dispatch changed bits"
            );
        }
    }

    #[test]
    fn propagates_nan_from_either_operand() {
        let mut a = fill(4 * 8, 3);
        let b = fill(8 * 5, 4);
        a[9] = f32::NAN;
        let mut out = vec![0.0; 4 * 5];
        gemm_into(4, 8, 5, &a, &b, &mut out, &mut GemmScratch::new(), false);
        assert!(out[5..10].iter().all(|x| x.is_nan()), "NaN row must poison its output row");
        assert!(out[..5].iter().all(|x| !x.is_nan()), "other rows stay clean");

        let a = vec![0.0f32; 2 * 3]; // all-zero lhs: the seed skip would hide the NaN
        let mut b = fill(3 * 2, 5);
        b[2] = f32::NAN;
        let mut out = vec![0.0; 2 * 2];
        gemm_into(2, 3, 2, &a, &b, &mut out, &mut GemmScratch::new(), false);
        assert!(out[0].is_nan() && out[2].is_nan(), "0·NaN must poison, not vanish");
    }

    #[test]
    fn scratch_take_reuses_capacity_and_zeroes() {
        let mut s = GemmScratch::new();
        let mut b = s.take(100);
        b.iter_mut().for_each(|x| *x = 7.0);
        s.put(b);
        let bytes = s.bytes();
        let b = s.take(50);
        assert!(b.capacity() >= 100, "pooled capacity must be reused");
        assert!(b.iter().all(|&x| x == 0.0), "reissued buffers are zeroed");
        s.put(b);
        assert_eq!(s.bytes(), bytes, "no growth on smaller reuse");
    }

    #[test]
    fn scratch_reserved_bytes_stay_under_retention_limit() {
        // Regression: `put` used to retain unboundedly, so one huge take/put
        // pinned the peak allocation forever.
        let mut s = GemmScratch { pool: Vec::new(), retain_limit: 1024 };
        let small = s.take(64); // 256 B — fits the limit
        let big = s.take(100_000); // 400 kB — must not be retained
        s.put(small);
        s.put(big);
        assert!(
            s.bytes() <= s.retain_limit,
            "reserved {} B exceeds the {} B retention limit",
            s.bytes(),
            s.retain_limit
        );
        // The small buffer survived the eviction (largest-first policy).
        let again = s.take(64);
        assert!(again.capacity() < 100_000);
        s.put(again);

        // Default pools are capped too.
        assert_eq!(GemmScratch::new().retain_limit, DEFAULT_RETAIN_BYTES);

        // A zero-limit pool retains nothing.
        let mut none = GemmScratch { pool: Vec::new(), retain_limit: 0 };
        none.put(vec![0.0; 16]);
        assert_eq!(none.bytes(), 0);
    }

    #[test]
    fn scratch_best_fit_prefers_smallest_sufficient_buffer() {
        let mut s = GemmScratch::new();
        s.put(Vec::with_capacity(1000));
        s.put(Vec::with_capacity(64));
        let b = s.take(60);
        assert!(b.capacity() < 1000, "should pick the 64-capacity buffer");
        s.put(b);
    }

    #[test]
    fn gather_copies_rows_and_scaling_folds_in() {
        let src = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32);
        let ids = [4usize, 0, 2];
        let mut buf = vec![0.0; 3 * 3];
        gather_rows_into(&src, ids.iter().copied(), &mut buf);
        assert_eq!(&buf[..3], src.row(4));
        assert_eq!(&buf[3..6], src.row(0));

        let mut scaled = vec![0.0; 3 * 3];
        gather_rows_scaled_into(&src, ids.iter().map(|&i| (i, 2.0)), &mut scaled);
        assert!(scaled.iter().zip(&buf).all(|(s, b)| *s == b * 2.0));
    }
}
