//! Probes of the machine and of single kernels: process counters from
//! `/proc`, the calibration kernel, and the micro-timings of the tensor,
//! snapshot and wire-format layers that the traced pass reports.

use ink_graph::EdgeChange;
use ink_serve::{Request, Response};
use ink_tensor::gemm::gemm_into;
use ink_tensor::reduce::fold_rows_max_into;
use ink_tensor::{GemmScratch, Matrix};
use inkstream::SnapshotPublisher;
use std::hint::black_box;
use std::time::Instant;

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// User + system CPU time of this process so far, in microseconds.
pub fn cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, in clock ticks of 1/100 s.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let ticks: f64 = (0..2)
        .map(|_| fields.next().unwrap().parse::<f64>().unwrap())
        .sum();
    ticks * 10_000.0
}

/// `(stolen, all)` clock ticks of every CPU since boot, from the first line
/// of `/proc/stat`. Stolen ticks are those the hypervisor gave to another
/// guest while this one had work to run; a machine that is not a guest
/// reports none.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .expect("cpu line in /proc/stat")
        .split_whitespace()
        .skip(1)
        .take(8) // user nice system idle iowait irq softirq steal
        .map(|f| f.parse().expect("tick count"))
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Rounds every timed run makes. A round is one pass forward over the timed
/// ops and one pass backward over their inverses, which puts the graph back.
pub const MIN_ROUNDS: usize = 4;
/// Rounds a timed run makes at most.
pub const MAX_ROUNDS: usize = 6;
/// A run ends once this many of its rounds were quiet.
const QUIET_ROUNDS: usize = 3;
/// A round is quiet when at most this share of its CPU ticks was stolen.
/// Over eleven minutes of `engine_bulk` the stolen share of 5 s windows was
/// 0–1 % where ops ran at their usual pace and 6–29 % wherever their median
/// was 30–120 % above it.
const QUIET_STEAL: f64 = 0.02;

/// Decides, round by round, whether a run makes another. Every op's latency
/// is the fastest of its times, so a round more can only bring a time
/// closer to what the op costs on an undisturbed machine; the run goes on
/// while the hypervisor is seen taking CPU time away, up to `max` rounds.
pub struct Rounds {
    max: usize,
    /// Rounds started so far.
    pub done: usize,
    quiet: usize,
    ticks: (u64, u64),
}

impl Rounds {
    pub fn new(max: usize) -> Self {
        Self {
            max,
            done: 0,
            quiet: 0,
            ticks: cpu_ticks(),
        }
    }

    /// Call before each round, the first too: whether to run it.
    pub fn next(&mut self) -> bool {
        let now = cpu_ticks();
        let (stolen, all) = (now.0 - self.ticks.0, now.1 - self.ticks.1);
        self.ticks = now;
        if self.done > 0 && stolen as f64 <= QUIET_STEAL * all as f64 {
            self.quiet += 1;
        }
        let go = self.done < MIN_ROUNDS || (self.quiet < QUIET_ROUNDS && self.done < self.max);
        self.done += go as usize;
        go
    }
}

/// The machine-drift probe: a fixed kernel of about 25 ms that mixes what
/// the engine does — random 64-float row gathers folded with max over a
/// 32 MB table, and one 64×64 GEMV per 8 rows. Its time tells a slow
/// machine from a slow program; no metric is rescaled by it.
pub struct Calibration {
    table: Vec<f32>,
    weights: Matrix,
    samples_ms: Vec<f64>,
}

const CALIB_DIM: usize = 64;
const CALIB_ROWS: usize = (32 << 20) / (4 * CALIB_DIM);
const CALIB_GATHERS: usize = 80_000;

impl Calibration {
    pub fn new() -> Self {
        let table = (0..CALIB_ROWS * CALIB_DIM)
            .map(|i| (i % 251) as f32 * 0.01)
            .collect();
        let weights = Matrix::from_fn(CALIB_DIM, CALIB_DIM, |r, c| ((r * 7 + c) % 13) as f32 * 0.1);
        Self {
            table,
            weights,
            samples_ms: Vec::new(),
        }
    }

    /// Runs the kernel `times` times and records each wall time.
    pub fn run(&mut self, times: usize) {
        for _ in 0..times {
            let t = Instant::now();
            let mut acc = [f32::NEG_INFINITY; CALIB_DIM];
            let mut out = [0.0f32; CALIB_DIM];
            let mut row = 12_345usize;
            for i in 0..CALIB_GATHERS {
                row = (row
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407))
                    % CALIB_ROWS;
                fold_rows_max_into(
                    &self.table[row * CALIB_DIM..(row + 1) * CALIB_DIM],
                    CALIB_DIM,
                    &mut acc,
                );
                if i % 8 == 7 {
                    self.weights.vecmul(&acc, &mut out);
                    black_box(&out);
                }
            }
            black_box(&acc);
            self.samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }

    /// Prints the summary as metric lines: the timed pass has no per-layer
    /// metrics, but a reader still needs to tell a slow machine.
    pub fn print(&mut self, workload: &str) {
        let (calib_ms, calib_drift) = self.summary();
        println!("{workload}/harness.calib_ms {calib_ms:.3} ms");
        println!("{workload}/harness.calib_drift {calib_drift:.3} x");
    }

    /// `(median ms, max / min)` over every run so far.
    pub fn summary(&mut self) -> (f64, f64) {
        let med = crate::report::median(&mut self.samples_ms);
        (
            med,
            self.samples_ms[self.samples_ms.len() - 1] / self.samples_ms[0],
        )
    }
}

/// Mean wall of `f` over `reps` calls, in microseconds.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() * 1e6 / reps as f64
}

/// `gemm_into` on the engine's transform shape, 256×64 · 64×64, in GFLOP/s.
pub fn gemm_gflops() -> f64 {
    let (n, k, m) = (256, 64, 64);
    let a: Vec<f32> = (0..n * k).map(|i| (i % 17) as f32 * 0.1).collect();
    let b: Vec<f32> = (0..k * m).map(|i| (i % 13) as f32 * 0.1).collect();
    let mut out = vec![0.0f32; n * m];
    let mut scratch = GemmScratch::new();
    let us = time_us(2000, || {
        gemm_into(n, k, m, black_box(&a), &b, &mut out, &mut scratch, false);
        black_box(&out);
    });
    (2 * n * k * m) as f64 / us / 1e3
}

/// `fold_rows_max_into` over a 64-row panel of 64 floats, in GB/s read.
pub fn fold_max_gbps() -> f64 {
    let panel: Vec<f32> = (0..64 * 64).map(|i| (i % 29) as f32).collect();
    let mut out = [f32::NEG_INFINITY; 64];
    let us = time_us(100_000, || {
        fold_rows_max_into(black_box(&panel), 64, &mut out);
        black_box(&out);
    });
    (panel.len() * 4) as f64 / us / 1e3
}

/// One `SnapshotPublisher::publish` of `output` — the per-epoch copy the
/// serve writer pays — in microseconds.
pub fn snapshot_publish_us(output: &Matrix) -> f64 {
    let (mut publisher, _reader) = SnapshotPublisher::new(output.clone());
    let mut epoch = 0;
    time_us(20, || {
        epoch += 1;
        publisher.publish(black_box(output), epoch);
    })
}

/// `(encode, decode)` microseconds for the frames `serve_mixed` sends most:
/// a 16-change `Update` request out, an `Embedding` response of `dim` floats
/// back.
pub fn wire_us(dim: usize) -> (f64, f64) {
    let update = Request::Update((0..16).map(|i| EdgeChange::insert(i, i + 1)).collect());
    let mut buf = Vec::new();
    let encode = time_us(100_000, || {
        buf.clear();
        black_box(&update).encode_into(&mut buf);
    });
    let frame = Response::Embedding {
        epoch: 7,
        values: vec![0.5; dim],
    }
    .encode();
    let decode = time_us(100_000, || {
        black_box(Response::decode(black_box(&frame)).expect("own frame decodes"));
    });
    (encode, decode)
}
