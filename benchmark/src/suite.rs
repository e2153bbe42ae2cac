//! Whole-benchmark modes: the full report, the A/A self-check and the check
//! of the catalogue against `BENCHMARK.json`. Every pass runs in a fresh
//! process of this same binary, because peak RSS is a per-process number.

use crate::report::{median, Spec, END_TO_END, PER_LAYER};
use crate::workloads::{Workload, WORKLOADS};
use ink_obs::parse::{parse_json, JsonValue};
use std::process::{Command, Stdio};

fn pass_command(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("path of this binary"));
    cmd.args(["--workload", w.name, "--seed", &seed.to_string()]);
    cmd.args([
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    cmd
}

/// Timed pass, then traced pass, of every workload; the passes print their
/// own metric lines. False when any pass failed.
pub fn report(selected: &[&'static Workload], seed: u64, seconds: f64) -> bool {
    let commit = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_owned()
        });
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!("seed {seed}, seconds {seconds}, nproc {nproc}, commit {commit}");
    let mut ok = true;
    for w in selected {
        for trace in [false, true] {
            let status = pass_command(w, seed, seconds, trace)
                .status()
                .expect("start a pass");
            if !status.success() {
                eprintln!("{} (trace {}) failed: {status}", w.name, trace as u8);
                ok = false;
            }
        }
    }
    ok
}

/// The end-to-end metrics of one timed pass, in catalogue order.
fn timed_pass(w: &Workload, seed: u64, seconds: f64) -> Option<Vec<f64>> {
    let out = pass_command(w, seed, seconds, false)
        .stderr(Stdio::inherit())
        .output()
        .expect("start a pass");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = parse_json(stdout.lines().last()?).ok()?;
    if !out.status.success() || result.get("correct") != Some(&JsonValue::Bool(true)) {
        return None;
    }
    let metrics = result.get("metrics")?;
    END_TO_END
        .iter()
        .map(|s| metrics.get(s.0)?.get("value")?.as_num())
        .collect()
}

/// The quartiles `statistics.quantiles(values, n=4)` gives in Python — the
/// method the driver uses for the same check.
fn quartiles(values: &mut [f64]) -> [f64; 3] {
    values.sort_unstable_by(f64::total_cmp);
    let len = values.len();
    [1, 2, 3].map(|i| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0
    })
}

/// Relative bounds below which no metric is gated, whatever the spread.
fn floor_bound(metric: &str) -> f64 {
    match metric {
        "setup_s" => 0.15,
        "peak_rss_mb" => 0.08,
        _ => 0.10,
    }
}

/// The A/A self-check: two interleaved sets of `n` timed passes of every
/// workload, same binary, same seed. Prints, per metric × workload, each
/// set's median, the first set's quartiles and relative inter-quartile
/// range, and how far the second median is from the first in the worse
/// direction; then the bound each metric would need (twice the widest
/// spread, not below its floor). False when two medians differ by more than
/// the bound `BENCHMARK.json` fixes, or a pass failed.
pub fn aa(selected: &[&'static Workload], seed: u64, seconds: f64, n: usize) -> bool {
    let contract = read_contract();
    let bound_of = |metric: &str| {
        contract
            .as_ref()
            .and_then(|c| entry(c, "end_to_end", metric)?.get("bound")?.as_num())
            .unwrap_or_else(|| floor_bound(metric))
    };
    // sets[set][workload][metric] -> samples
    let mut sets = vec![vec![vec![Vec::new(); END_TO_END.len()]; selected.len()]; 2];
    let mut ok = true;
    for round in 0..n {
        for (set, samples) in sets.iter_mut().enumerate() {
            for (wi, w) in selected.iter().enumerate() {
                eprintln!(
                    "A/A round {}/{n}, set {}, {}",
                    round + 1,
                    ["A", "B"][set],
                    w.name
                );
                match timed_pass(w, seed, seconds) {
                    Some(values) => {
                        for (slot, v) in samples[wi].iter_mut().zip(values) {
                            slot.push(v);
                        }
                    }
                    None => {
                        eprintln!("{} failed", w.name);
                        ok = false;
                    }
                }
            }
        }
    }
    if !ok {
        return false;
    }
    println!("| workload | metric | median A | median B | q1 A | q3 A | IQR/median | B worse by | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut needed = vec![0.0f64; END_TO_END.len()];
    for (wi, w) in selected.iter().enumerate() {
        for (mi, &(metric, _, better)) in END_TO_END.iter().enumerate() {
            let [q1, med_a, q3] = quartiles(&mut sets[0][wi][mi]);
            let med_b = median(&mut sets[1][wi][mi]);
            let spread = (q3 - q1) / med_a;
            let worse = if better == "lower" {
                med_b / med_a - 1.0
            } else {
                1.0 - med_b / med_a
            };
            let bound = bound_of(metric);
            needed[mi] = needed[mi].max(2.0 * spread);
            let within = worse <= bound;
            ok &= within;
            println!(
                "| {} | {metric} | {med_a:.4} | {med_b:.4} | {q1:.4} | {q3:.4} | {:.2} % | {:+.2} % | {:.0} % | {} |",
                w.name,
                spread * 100.0,
                worse * 100.0,
                bound * 100.0,
                if within { "ok" } else { "DIFFERS" }
            );
        }
    }
    for (&(metric, _, _), need) in END_TO_END.iter().zip(needed) {
        println!(
            "derived bound {metric}: {:.1} % (floor {:.0} %, 2 x widest spread {:.1} %)",
            need.max(floor_bound(metric)) * 100.0,
            floor_bound(metric) * 100.0,
            need * 100.0
        );
    }
    ok
}

fn read_contract() -> Option<JsonValue> {
    parse_json(&std::fs::read_to_string("BENCHMARK.json").ok()?).ok()
}

/// The entry called `name` of the contract's list `section`.
fn entry<'a>(contract: &'a JsonValue, section: &str, name: &str) -> Option<&'a JsonValue> {
    contract
        .get(section)?
        .as_arr()?
        .iter()
        .find(|e| e.get("name").and_then(JsonValue::as_str) == Some(name))
}

/// Whether `BENCHMARK.json` lists exactly this program's workloads and
/// metrics, with the same units and directions, and the same run length.
pub fn catalogue_matches_contract() -> bool {
    let Some(contract) = read_contract() else {
        eprintln!("BENCHMARK.json is missing or is not JSON");
        return false;
    };
    let mut ok = true;
    let mut section = |key: &str, expected: Vec<[&str; 3]>| {
        let listed = contract
            .get(key)
            .and_then(JsonValue::as_arr)
            .unwrap_or_default();
        let field =
            |e: &JsonValue, f: &str| e.get(f).and_then(JsonValue::as_str).map(str::to_owned);
        let listed: Vec<[Option<String>; 3]> = listed
            .iter()
            .map(|e| [field(e, "name"), field(e, "unit"), field(e, "better")])
            .collect();
        let expected: Vec<[Option<String>; 3]> = expected
            .iter()
            .map(|e| e.map(|f| (!f.is_empty()).then(|| f.to_owned())))
            .collect();
        if listed != expected {
            eprintln!("BENCHMARK.json `{key}` differs from the program's catalogue");
            ok = false;
        }
    };
    let specs = |s: &[Spec]| s.iter().map(|&(n, u, b)| [n, u, b]).collect();
    section(
        "workloads",
        WORKLOADS.iter().map(|w| [w.name, "", ""]).collect(),
    );
    section("end_to_end", specs(END_TO_END));
    section("per_layer", specs(PER_LAYER));
    if contract.get("run_seconds").and_then(JsonValue::as_num) != Some(crate::DEFAULT_SECONDS) {
        eprintln!("BENCHMARK.json `run_seconds` differs from the program's default");
        ok = false;
    }
    ok
}
