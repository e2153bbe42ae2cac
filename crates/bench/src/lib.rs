#![deny(missing_docs)]
//! # ink-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! InkStream paper's evaluation (§III) on the scaled dataset stand-ins.
//!
//! One binary per experiment (see DESIGN.md §4 for the full index):
//!
//! | binary  | reproduces |
//! |---------|------------|
//! | `fig1`   | Fig. 1a (theoretical affected area) + Fig. 1b (real/theoretical) |
//! | `table4` | Table IV — inference time, 5 methods × 3 models × 6 datasets |
//! | `table5` | Table V — RNVV / RMC vs the k-hop baseline |
//! | `fig7`   | Fig. 7 — speedup vs ΔG sweep |
//! | `fig8`   | Fig. 8 — distribution of evolvable conditions |
//! | `table6` | Table VI — component ablation |
//! | `fig9`   | Fig. 9 — accuracy with exact vs approximate GraphNorm |
//! | `memcost` | §III-E — memory cost of the cached state |
//! | `drift`  | audit cost and drift over long streams |
//! | `serve`  | `ink-serve` update/query throughput under many clients |
//!
//! All binaries accept `--scale <f>` (dataset scale factor, default 0.3),
//! `--quick` (fewer scenarios), `--datasets PM,CA,...`, `--hidden <n>`.

pub mod json;
pub mod methods;
pub mod opts;
pub mod results;
pub mod scrape;
pub mod table;
pub mod workload;

pub use json::Json;
pub use methods::{
    graphiler_paper_oom, run_inkstream, run_khop, time_graphiler, time_pyg_sampled, InkRun,
    KhopRun, MethodTiming,
};
pub use opts::BenchOpts;
pub use results::{latency_us, write_metrics, write_results};
pub use scrape::Scrape;
pub use table::Table;
pub use workload::{scenario_count, scenarios, ModelKind, Workload};
