//! The paper's claims as orderings of work counts, not of clocks: on a
//! `--scale 0.05` stand-in, a GCN-2 max model and ΔG ∈ {1, 10, 100, 1000}
//! (the Fig. 7 sweep below 10k, with its scenario protocol and seeds),
//!
//! * InkStream visits fewer nodes than the k-hop baseline (Fig. 7 / Table V);
//! * adding pruned propagation (Table VI's "1&2") visits no more nodes than
//!   incremental updates alone ("1") on every scenario, and fewer in total;
//! * the really affected nodes stay inside the theoretical affected area
//!   (Fig. 1b);
//! * from ΔG = 10 up, InkStream creates more events than it has distinct
//!   targets, so grouping them (§II-B1, Fig. 4) fetches α once per target
//!   instead of once per event.
//!
//! Every quantity is a count from `CostMeter` or `UpdateReport`, so the test
//! is deterministic and a change that breaks the paper's mechanism fails
//! here instead of only moving a timing.

use ink_bench::{run_inkstream, run_khop, scenario_count, scenarios, BenchOpts, ModelKind, Workload};
use ink_gnn::Aggregator;
use ink_graph::bfs::theoretical_affected_area;
use ink_graph::datasets::DatasetSpec;
use inkstream::UpdateConfig;

#[test]
fn inkstream_keeps_the_papers_work_orderings() {
    let opts = BenchOpts::default();
    let w = Workload::build(DatasetSpec::by_name("PM").expect("pubmed stand-in"), 0.05);
    let k = ModelKind::Gcn.layers();
    let model = || ModelKind::Gcn.build(w.spec.feat_len, &opts, Aggregator::Max, w.spec.seed);
    let mut checked = 0;
    for dg in [1usize, 10, 100, 1000] {
        if dg / 2 > w.graph.num_edges() {
            continue;
        }
        let scens =
            scenarios(&w.graph, dg, scenario_count(dg, true), 0xF170 ^ dg as u64 ^ w.spec.seed);
        let khop = run_khop(&model(), &w.graph, &w.features, &scens);
        let run = |cfg| run_inkstream(model(), w.graph.clone(), w.features.clone(), &scens, cfg);
        let (full, incremental) = (run(UpdateConfig::full()), run(UpdateConfig::incremental_only()));

        assert!(
            full.avg_nodes_visited() < khop.nodes_visited,
            "dG={dg}: InkStream visits {} nodes, k-hop {}",
            full.avg_nodes_visited(),
            khop.nodes_visited
        );
        let mut graph = w.graph.clone();
        for (i, (delta, (f, inc))) in
            scens.iter().zip(full.reports.iter().zip(&incremental.reports)).enumerate()
        {
            assert!(
                f.nodes_visited <= inc.nodes_visited,
                "dG={dg} scenario {i}: pruning visits {} nodes, incremental alone {}",
                f.nodes_visited,
                inc.nodes_visited
            );
            delta.apply(&mut graph);
            let area = theoretical_affected_area(&graph, delta, k).len() as u64;
            delta.revert(&mut graph);
            assert!(
                f.real_affected <= area,
                "dG={dg} scenario {i}: {} really affected, theoretical area {area}",
                f.real_affected
            );
        }
        let total = |run: &ink_bench::InkRun| run.reports.iter().map(|r| r.nodes_visited).sum::<u64>();
        assert!(
            total(&full) < total(&incremental),
            "dG={dg}: pruning must save visits over the scenarios ({} vs {})",
            total(&full),
            total(&incremental)
        );
        if dg >= 10 {
            let layers = || full.reports.iter().flat_map(|r| &r.per_layer);
            let events = layers().map(|l| l.events_created).sum::<usize>();
            let targets = layers().map(|l| l.targets).sum::<usize>();
            assert!(
                events > targets,
                "dG={dg}: {events} events for {targets} targets leave grouping nothing to save"
            );
        }
        checked += 1;
    }
    assert_eq!(checked, 4, "every dG of the sweep fits the stand-in");
}
