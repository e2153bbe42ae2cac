//! Table V — reduction in visited nodes (RNVV) and memory cost (RMC) of
//! InkStream-m / InkStream-a relative to the k-hop baseline, for GCN with
//! ΔG = 100.
//!
//! Run: `cargo run --release -p ink-bench --bin table5 [--scale f] [--quick]`

use ink_bench::{
    run_inkstream, run_khop, scenario_count, scenarios, write_metrics, BenchOpts, ModelKind,
    Table, Workload,
};
use ink_bench::table::fmt_pct;
use ink_gnn::cost::reduction_pct;
use ink_gnn::Aggregator;
use ink_obs::MetricsRegistry;
use inkstream::UpdateConfig;

fn main() {
    let opts = BenchOpts::from_env();
    let workloads = Workload::all_selected(&opts);
    let dg = 100usize;
    println!("Table V — reductions vs k-hop (GCN, dG={dg}), scale {}", opts.scale);
    // Raw traffic counters behind the table's percentages, per dataset,
    // exported as results/BENCH_table5.prom.
    let registry = MetricsRegistry::new();

    let mut headers = vec!["metric".to_string()];
    headers.extend(workloads.iter().map(|w| w.spec.code.to_string()));
    let mut table = Table::new(headers);
    // The paper's RNVV counts theoretical-affected-area nodes that
    // InkStream-m bypasses entirely; the vs-k-hop row additionally credits
    // the skipped 2k-hop input cones (our cost-model view).
    let mut rnvv_m = vec!["RNVV InkStream-m (theor. area)".to_string()];
    let mut rnvv_k = vec!["RNVV InkStream-m (vs k-hop)".to_string()];
    let mut rmc_m = vec!["RMC InkStream-m".to_string()];
    let mut rmc_a = vec!["RMC InkStream-a".to_string()];

    for w in &workloads {
        let count = opts.scenarios.unwrap_or_else(|| scenario_count(dg, opts.quick));
        let scens = scenarios(&w.graph, dg, count, 0x7AB5 ^ w.spec.seed);

        let model_max = ModelKind::Gcn.build(w.spec.feat_len, &opts, Aggregator::Max, w.spec.seed);
        let khop_max = run_khop(&model_max, &w.graph, &w.features, &scens);
        let ink_m = run_inkstream(
            model_max,
            w.graph.clone(),
            w.features.clone(),
            &scens,
            UpdateConfig::full(),
        );

        // Bypassed fraction of the theoretical affected area.
        let mut bypassed = 0.0;
        for (scen, report) in scens.iter().zip(&ink_m.reports) {
            let mut g = w.graph.clone();
            scen.apply(&mut g);
            let theo = ink_graph::bfs::theoretical_affected_area(&g, scen, 2).len() as f64;
            let visited = (report.per_node_condition.len() as f64).min(theo);
            bypassed += (theo - visited) / theo.max(1.0);
        }
        rnvv_m.push(fmt_pct(100.0 * bypassed / scens.len() as f64));

        let model_mean =
            ModelKind::Gcn.build(w.spec.feat_len, &opts, Aggregator::Mean, w.spec.seed);
        let khop_mean = run_khop(&model_mean, &w.graph, &w.features, &scens);
        let ink_a = run_inkstream(
            model_mean,
            w.graph.clone(),
            w.features.clone(),
            &scens,
            UpdateConfig::full(),
        );

        rnvv_k.push(fmt_pct(reduction_pct(khop_max.nodes_visited, ink_m.avg_nodes_visited())));
        rmc_m.push(fmt_pct(reduction_pct(khop_max.traffic, ink_m.avg_traffic())));
        rmc_a.push(fmt_pct(reduction_pct(khop_mean.traffic, ink_a.avg_traffic())));
        let code = w.spec.code.to_lowercase();
        khop_max.meter.export(&registry, &format!("ink_gnn_khop_max_{code}"));
        khop_mean.meter.export(&registry, &format!("ink_gnn_khop_mean_{code}"));
        eprintln!("  [table5] {} done", w.spec.name);
    }
    table.add_row(rnvv_m);
    table.add_row(rnvv_k);
    table.add_row(rmc_m);
    table.add_row(rmc_a);
    table.print();
    write_metrics(&opts, "table5", &registry);
}
