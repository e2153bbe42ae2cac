//! The shared `results/BENCH_*.json` writer.
//!
//! Every bench binary funnels its document through [`write_results`] so the
//! artifacts share one style: pretty-printed [`Json`], echoed to stdout,
//! written under `results/`.
//! Binaries that carry an `ink-obs` [`MetricsRegistry`] additionally export
//! it through [`write_metrics`] as `results/BENCH_*.prom` — the same
//! Prometheus text a live server serves for the `metrics` request, frozen
//! as a run artifact. A `--quick` run (a CI smoke) writes under
//! `target/bench-quick/` instead, so it never overwrites a recorded
//! artifact.

use crate::BenchOpts;
use ink_obs::MetricsRegistry;
use crate::json::{rounded, Json};
use std::path::{Path, PathBuf};

/// Where a run's artifacts go: `results/`, or `target/bench-quick/` for a
/// `--quick` run.
fn artifact_dir(opts: &BenchOpts) -> &'static Path {
    Path::new(if opts.quick { "target/bench-quick" } else { "results" })
}

/// Writes `contents` to `BENCH_<file>` in the run's artifact directory
/// (created as needed) and returns the path.
fn write_artifact(opts: &BenchOpts, file: &str, contents: &str) -> PathBuf {
    let dir = artifact_dir(opts);
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let path = dir.join(format!("BENCH_{file}"));
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
    path
}

/// Pretty-prints `doc` to stdout and writes it to `BENCH_<name>.json` in the
/// run's artifact directory (`results/`, or `target/bench-quick/` under
/// `--quick`). Returns the written path.
///
/// # Panics
///
/// On I/O failure — a bench run that cannot record its artifact has failed.
pub fn write_results(opts: &BenchOpts, name: &str, doc: &Json) -> PathBuf {
    let rendered = doc.pretty();
    print!("{rendered}");
    write_artifact(opts, &format!("{name}.json"), &rendered)
}

/// Renders `registry` as Prometheus text exposition and writes it to
/// `BENCH_<name>.prom` next to the JSON artifact. The document is
/// parser-validated before it lands, so a malformed scrape fails the run
/// instead of producing a corrupt artifact. Returns the written path.
///
/// # Panics
///
/// On I/O failure or if the rendered text does not parse back as valid
/// Prometheus exposition.
pub fn write_metrics(opts: &BenchOpts, name: &str, registry: &MetricsRegistry) -> PathBuf {
    let text = registry.render_prometheus();
    ink_obs::parse::parse_prometheus(&text)
        .unwrap_or_else(|e| panic!("BENCH_{name}.prom failed Prometheus round-trip: {e}"));
    write_artifact(opts, &format!("{name}.prom"), &text)
}

/// A `(p50, p90, p99, max)` duration tuple in microseconds — the common
/// latency shape of the serve bench rows. Samples may arrive in any order;
/// the function sorts its own copy before indexing percentiles, so callers
/// that forget to pre-sort get correct numbers instead of silently wrong
/// ones.
pub fn latency_us(samples_us: &[f64]) -> Json {
    let mut sorted = samples_us.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let pct = |p: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        sorted[((sorted.len() - 1) as f64 * p).round() as usize]
    };
    Json::obj([
        ("p50", rounded(pct(0.50), 3)),
        ("p90", rounded(pct(0.90), 3)),
        ("p99", rounded(pct(0.99), 3)),
        ("max", rounded(sorted.last().copied().unwrap_or(0.0), 3)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(doc: &Json, key: &str) -> f64 {
        let rendered = doc.pretty();
        let tail = rendered.split(&format!("\"{key}\": ")).nth(1).expect("field present");
        tail.split([',', '\n', '}'])
            .next()
            .unwrap()
            .trim()
            .parse()
            .expect("numeric field")
    }

    #[test]
    fn quick_runs_never_write_under_results() {
        let full = BenchOpts::default();
        let quick = BenchOpts { quick: true, ..BenchOpts::default() };
        assert_eq!(artifact_dir(&full), Path::new("results"));
        assert_eq!(artifact_dir(&quick), Path::new("target/bench-quick"));
    }

    #[test]
    fn latency_us_sorts_unsorted_input() {
        // Reverse-sorted: the old implementation indexed this directly and
        // reported p50 > p99.
        let doc = latency_us(&[900.0, 500.0, 100.0, 700.0, 300.0]);
        assert_eq!(field(&doc, "p50"), 500.0);
        assert_eq!(field(&doc, "p99"), 900.0);
        assert_eq!(field(&doc, "max"), 900.0);
    }

    #[test]
    fn latency_us_percentiles_are_monotone() {
        let doc = latency_us(&[42.0, 7.0, 13.0, 99.0, 1.0, 58.0, 21.0]);
        let (p50, p90, p99, max) =
            (field(&doc, "p50"), field(&doc, "p90"), field(&doc, "p99"), field(&doc, "max"));
        assert!(p50 <= p90 && p90 <= p99 && p99 <= max);
        assert_eq!(max, 99.0);
    }

    #[test]
    fn latency_us_handles_empty_input() {
        let doc = latency_us(&[]);
        assert_eq!(field(&doc, "p50"), 0.0);
        assert_eq!(field(&doc, "max"), 0.0);
    }
}
