//! Atomic metric instruments and the [`MetricsRegistry`].
//!
//! Three instrument kinds cover the workspace's needs:
//!
//! * [`Counter`] — monotonically increasing `u64` (events, bytes, errors).
//! * [`Gauge`] — instantaneous `f64` value (queue depth, scratch bytes,
//!   maximum observed drift).
//! * [`Histogram`] — fixed-bucket log-scale distribution of `u64` samples
//!   (latencies in nanoseconds). Recording is lock-free and allocation-free:
//!   every sample is three `fetch_add`s, with the bucket array preallocated
//!   at registration time.
//!
//! Instruments are handed out as `Arc`s by a [`MetricsRegistry`], which owns
//! the name → instrument table and renders the whole set as Prometheus text
//! exposition (see [`MetricsRegistry::render_prometheus`]).
//!
//! # Bucket layout
//!
//! Values `0..16` get one exact bucket each. Above that, each power-of-two
//! octave `[2^k, 2^(k+1))` is split into 8 equal sub-buckets, so the relative
//! quantization error of any bucket is at most 12.5 %. The full `u64` range is
//! covered by [`NUM_BUCKETS`] (= 496) buckets — about 4 KiB of atomics per
//! histogram.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of exact low-value buckets (values `0..LINEAR_MAX` map to
/// themselves).
pub const LINEAR_MAX: u64 = 16;
/// log2 of the number of sub-buckets per power-of-two octave.
pub const SUB_BITS: u32 = 3;
/// Sub-buckets per octave (`2^SUB_BITS`).
pub const SUB: u64 = 1 << SUB_BITS;
/// Total number of histogram buckets covering the full `u64` range.
pub const NUM_BUCKETS: usize = LINEAR_MAX as usize + 60 * SUB as usize;

/// A monotonically increasing counter.
///
/// All operations are relaxed atomics; counters are safe to share across
/// threads via `Arc` and never allocate after construction.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Returns the current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous value that can move up and down.
///
/// Stored as `f64` bits inside an `AtomicU64`, so reads and writes are
/// lock-free. Integer convenience setters are provided because most gauges in
/// this workspace track byte counts and queue depths.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self { bits: AtomicU64::new(0f64.to_bits()) }
    }
}

impl Gauge {
    /// Creates a gauge holding `0.0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Sets the gauge from an integer value.
    pub fn set_u64(&self, v: u64) {
        self.set(v as f64);
    }

    /// Adds `d` (may be negative) with a CAS loop.
    pub fn add(&self, d: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + d).to_bits();
            match self.bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Raises the gauge to `v` if `v` is greater than the current value.
    /// `NaN` proposals are ignored.
    pub fn set_max(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let cur_f = f64::from_bits(cur);
            // Keep the current value unless `v` beats it; a NaN current value
            // compares false here, so it is always replaced.
            if v <= cur_f {
                return;
            }
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Returns the current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket log-scale histogram of `u64` samples.
///
/// The record path ([`Histogram::record`]) touches only preallocated atomics —
/// no locks, no allocation — so it is safe on the hot pipeline path. Quantile
/// estimates ([`Histogram::quantile`]) return the inclusive upper bound of the
/// bucket holding the requested rank, which keeps them within one bucket
/// boundary of the exact sample quantile.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        // `AtomicU64` is not Copy; build the array through a Vec once.
        let v: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; NUM_BUCKETS]> =
            v.into_boxed_slice().try_into().expect("bucket count is fixed");
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Returns the bucket index a value falls into.
pub fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    let top = 63 - v.leading_zeros(); // >= 4
    let octave = (top - 4) as usize;
    let sub = ((v >> (top - SUB_BITS)) & (SUB - 1)) as usize;
    LINEAR_MAX as usize + octave * SUB as usize + sub
}

/// Returns the `(lower, upper)` inclusive value range of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < NUM_BUCKETS, "bucket index out of range");
    if (i as u64) < LINEAR_MAX {
        return (i as u64, i as u64);
    }
    let rel = i - LINEAR_MAX as usize;
    let octave = (rel / SUB as usize) as u32;
    let sub = (rel % SUB as usize) as u64;
    let lower = (1u64 << (octave + 4)) + (sub << (octave + 1));
    let width = 1u64 << (octave + 1);
    (lower, lower + (width - 1))
}

impl Histogram {
    /// Creates an empty histogram (all buckets preallocated).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample. Lock-free and allocation-free.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) of the recorded samples.
    ///
    /// Returns the inclusive upper bound of the bucket containing the sample
    /// of rank `ceil(q * count)`. The estimate is therefore always `>=` the
    /// exact quantile and lies in the
    /// same bucket, bounding the error by one bucket width (≤ 12.5 %
    /// relative).
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for i in 0..NUM_BUCKETS {
            cum += self.buckets[i].load(Ordering::Relaxed);
            if cum >= target {
                return bucket_bounds(i).1;
            }
        }
        // Only reachable while a concurrent `record` has bumped `count` but
        // not yet its bucket: the rank lies beyond every bucket read.
        u64::MAX
    }

    /// Raw per-bucket counts (relaxed snapshot; may be mid-update under
    /// concurrent recording).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// Approximate heap footprint of the bucket array in bytes. Constant for
    /// the lifetime of the histogram — the record path never allocates — so
    /// tests can assert this stays flat across heavy recording (mirroring the
    /// scratch-pool `bytes()` stability check in the core pipeline).
    pub fn bytes(&self) -> usize {
        NUM_BUCKETS * std::mem::size_of::<AtomicU64>()
    }
}

/// The kind of an instrument, used for Prometheus `# TYPE` lines and to catch
/// registration conflicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrumentKind {
    /// Monotonic counter.
    Counter,
    /// Instantaneous gauge.
    Gauge,
    /// Log-bucket histogram.
    Histogram,
}

impl InstrumentKind {
    fn as_str(self) -> &'static str {
        match self {
            InstrumentKind::Counter => "counter",
            InstrumentKind::Gauge => "gauge",
            InstrumentKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Entry {
    name: String,
    help: String,
    instrument: Instrument,
}

/// A named collection of instruments, rendered as Prometheus text exposition.
///
/// Registration is idempotent: asking for an existing name returns the same
/// underlying instrument (so independent subsystems can share one registry
/// without coordinating), while asking for an existing name with a different
/// instrument kind panics — that is always a programming error.
///
/// # Example
///
/// ```
/// use ink_obs::MetricsRegistry;
///
/// let registry = MetricsRegistry::new();
/// let batches = registry.counter("ink_session_batches_total", "Batches applied");
/// let latency = registry.histogram("ink_session_batch_latency_ns", "Batch latency");
/// batches.inc();
/// latency.record(1_250);
///
/// let text = registry.render_prometheus();
/// assert!(text.contains("# TYPE ink_session_batches_total counter"));
/// assert!(text.contains("ink_session_batches_total 1"));
/// assert!(text.contains("ink_session_batch_latency_ns_count 1"));
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Formats an `f64` for Prometheus exposition.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{v}")
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name`, creating it if absent.
    ///
    /// # Panics
    /// Panics if `name` is not a valid Prometheus metric name or is already
    /// registered as a different instrument kind.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        match self.get_or_insert(name, help, InstrumentKind::Counter) {
            Instrument::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Returns the gauge registered under `name`, creating it if absent.
    ///
    /// # Panics
    /// Panics if `name` is not a valid Prometheus metric name or is already
    /// registered as a different instrument kind.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, help, InstrumentKind::Gauge) {
            Instrument::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Returns the histogram registered under `name`, creating it if absent.
    ///
    /// # Panics
    /// Panics if `name` is not a valid Prometheus metric name or is already
    /// registered as a different instrument kind.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, help, InstrumentKind::Histogram) {
            Instrument::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    fn get_or_insert(&self, name: &str, help: &str, kind: InstrumentKind) -> Instrument {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let mut entries = self.entries.lock().expect("registry lock poisoned");
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            let existing = match e.instrument {
                Instrument::Counter(_) => InstrumentKind::Counter,
                Instrument::Gauge(_) => InstrumentKind::Gauge,
                Instrument::Histogram(_) => InstrumentKind::Histogram,
            };
            assert_eq!(existing, kind, "metric {name:?} already registered as {existing:?}");
            return e.instrument.clone();
        }
        let instrument = match kind {
            InstrumentKind::Counter => Instrument::Counter(Arc::new(Counter::new())),
            InstrumentKind::Gauge => Instrument::Gauge(Arc::new(Gauge::new())),
            InstrumentKind::Histogram => Instrument::Histogram(Arc::new(Histogram::new())),
        };
        entries.push(Entry {
            name: name.to_owned(),
            help: help.to_owned(),
            instrument: instrument.clone(),
        });
        instrument
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("registry lock poisoned").len()
    }

    /// True when nothing has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders every instrument as Prometheus text exposition (version 0.0.4).
    ///
    /// Counters and gauges emit one sample each; histograms emit cumulative
    /// `_bucket{le="..."}` samples for each non-empty bucket plus the
    /// mandatory `le="+Inf"`, followed by `_sum` and `_count`. Bucket `le`
    /// bounds are the inclusive upper value of each log-scale bucket.
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.lock().expect("registry lock poisoned");
        let mut out = String::with_capacity(entries.len() * 128);
        for e in entries.iter() {
            let kind = match &e.instrument {
                Instrument::Counter(_) => InstrumentKind::Counter,
                Instrument::Gauge(_) => InstrumentKind::Gauge,
                Instrument::Histogram(_) => InstrumentKind::Histogram,
            };
            out.push_str(&format!("# HELP {} {}\n", e.name, escape_help(&e.help)));
            out.push_str(&format!("# TYPE {} {}\n", e.name, kind.as_str()));
            match &e.instrument {
                Instrument::Counter(c) => {
                    out.push_str(&format!("{} {}\n", e.name, c.get()));
                }
                Instrument::Gauge(g) => {
                    out.push_str(&format!("{} {}\n", e.name, fmt_value(g.get())));
                }
                Instrument::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let mut cum = 0u64;
                    for (i, c) in counts.iter().enumerate() {
                        if *c == 0 {
                            continue;
                        }
                        cum += c;
                        let (_, upper) = bucket_bounds(i);
                        out.push_str(&format!(
                            "{}_bucket{{le=\"{}\"}} {}\n",
                            e.name, upper, cum
                        ));
                    }
                    out.push_str(&format!("{}_bucket{{le=\"+Inf\"}} {}\n", e.name, cum));
                    out.push_str(&format!("{}_sum {}\n", e.name, h.sum()));
                    out.push_str(&format!("{}_count {}\n", e.name, h.count()));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.set(2.5);
        g.add(-1.0);
        assert!((g.get() - 1.5).abs() < 1e-12);
        g.set_max(0.5);
        assert!((g.get() - 1.5).abs() < 1e-12);
        g.set_max(9.0);
        assert!((g.get() - 9.0).abs() < 1e-12);
        g.set_max(f64::NAN);
        assert!((g.get() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn bucket_layout_is_contiguous_and_monotonic() {
        // Every value maps into a bucket whose bounds contain it, and bucket
        // ranges tile the u64 axis without gaps or overlaps.
        let mut prev_upper: Option<u64> = None;
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi);
            if let Some(p) = prev_upper {
                assert_eq!(lo, p.wrapping_add(1), "gap before bucket {i}");
            }
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
            prev_upper = Some(hi);
        }
        assert_eq!(prev_upper, Some(u64::MAX));
        for v in [0u64, 1, 15, 16, 17, 255, 1024, 1 << 40, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "value {v} outside its bucket [{lo},{hi}]");
        }
    }

    #[test]
    fn histogram_quantiles_track_exact_values() {
        let h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(i);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        // p50 exact = 500; estimate must land in the same log bucket.
        let p50 = h.quantile(0.5);
        assert_eq!(bucket_index(p50), bucket_index(500));
        assert!(p50 >= 500);
        // p100 is the upper bound of 1000's bucket, [960, 1023].
        assert_eq!(h.quantile(1.0), 1023);
        // Empty histogram is all zeros.
        let empty = Histogram::new();
        assert_eq!(empty.quantile(0.99), 0);
    }

    #[test]
    fn registry_is_idempotent_and_typed() {
        let r = MetricsRegistry::new();
        let a = r.counter("x_total", "x");
        let b = r.counter("x_total", "x");
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_rejects_kind_conflicts() {
        let r = MetricsRegistry::new();
        r.counter("x_total", "x");
        r.gauge("x_total", "x");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn registry_rejects_bad_names() {
        let r = MetricsRegistry::new();
        r.counter("9starts_with_digit", "x");
    }

    #[test]
    fn prometheus_rendering_shape() {
        let r = MetricsRegistry::new();
        r.counter("a_total", "counts a").add(3);
        r.gauge("b_bytes", "bytes of b").set_u64(42);
        let h = r.histogram("c_ns", "latency of c");
        h.record(5);
        h.record(100);
        let text = r.render_prometheus();
        assert!(text.contains("# HELP a_total counts a\n"));
        assert!(text.contains("# TYPE a_total counter\n"));
        assert!(text.contains("a_total 3\n"));
        assert!(text.contains("b_bytes 42\n"));
        assert!(text.contains("c_ns_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("c_ns_sum 105\n"));
        assert!(text.contains("c_ns_count 2\n"));
    }
}
