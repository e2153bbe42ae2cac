//! Property-based tests (proptest) on the core invariants:
//!
//! * monotonic incremental updates are bitwise identical to recomputation on
//!   arbitrary graphs, deltas and models;
//! * accumulative updates stay within float tolerance;
//! * the monotonic condition rules themselves (no reset / covered / exposed)
//!   agree with brute-force set recomputation;
//! * temporal snapshots compose with deltas.

use ink_graph::generators::erdos_renyi;
use ink_graph::temporal::TemporalGraph;
use ink_graph::{DeltaBatch, DynGraph, EdgeChange, VertexId};
use ink_gnn::{Aggregator, Model};
use ink_tensor::init::{seeded_rng, uniform};
use inkstream::monotonic::{apply_monotonic, MonoOutcome};
use inkstream::{InkStream, UpdateConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random undirected graph as (n, edge list).
fn arb_graph(max_n: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (6..max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 8..60);
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Bitwise identity of the monotonic engine on arbitrary graphs/deltas.
    #[test]
    fn monotonic_engine_is_bitwise_exact(
        (n, raw_edges) in arb_graph(24),
        seed in 0u64..1000,
        delta_size in 1usize..8,
        use_min in proptest::bool::ANY,
    ) {
        let g = DynGraph::undirected_from_edges(n, &raw_edges
            .iter()
            .map(|&(a, b)| (a, b))
            .collect::<Vec<_>>());
        prop_assume!(g.num_edges() > delta_size / 2);
        let max_pairs = n * (n - 1) / 2;
        prop_assume!(g.num_edges() + delta_size <= max_pairs);
        let agg = if use_min { Aggregator::Min } else { Aggregator::Max };
        let mut rng = seeded_rng(seed);
        let x = uniform(&mut rng, n, 4, -1.0, 1.0);
        let model = Model::gcn(&mut rng, &[4, 5, 3], agg);
        let mut engine = InkStream::new(model, g, x, UpdateConfig::default()).unwrap();
        let mut drng = StdRng::seed_from_u64(seed ^ 0xabc);
        let delta = DeltaBatch::random_scenario(engine.graph(), &mut drng, delta_size);
        engine.apply_delta(&delta);
        prop_assert_eq!(engine.output(), &engine.recompute_reference());
    }

    /// Accumulative engines stay within tolerance over multiple rounds.
    #[test]
    fn accumulative_engine_stays_close(
        (n, raw_edges) in arb_graph(20),
        seed in 0u64..1000,
        use_mean in proptest::bool::ANY,
    ) {
        let g = DynGraph::undirected_from_edges(n, &raw_edges);
        prop_assume!(g.num_edges() >= 4);
        prop_assume!(g.num_edges() + 3 * 4 <= n * (n - 1) / 2);
        let agg = if use_mean { Aggregator::Mean } else { Aggregator::Sum };
        let mut rng = seeded_rng(seed);
        let x = uniform(&mut rng, n, 4, -1.0, 1.0);
        let model = Model::gcn(&mut rng, &[4, 5, 3], agg);
        let mut engine = InkStream::new(model, g, x, UpdateConfig::default()).unwrap();
        let mut drng = StdRng::seed_from_u64(seed ^ 0x123);
        for _ in 0..3 {
            let delta = DeltaBatch::random_scenario(engine.graph(), &mut drng, 4);
            engine.apply_delta(&delta);
        }
        let reference = engine.recompute_reference();
        prop_assert!(engine.output().max_abs_diff(&reference) < 1e-3);
    }

    /// The condition rules against a brute-force multiset model: aggregate a
    /// random neighborhood, delete a random subset, add new messages, and
    /// check the incremental answer is exact — the whole row when the check
    /// says so, and for an exposed reset every channel it does *not* list,
    /// with the listed ones exact once repaired from `remaining ∪ added`.
    /// Each case runs at channel counts on both sides of 64 (prefixes of the
    /// drawn rows) so nothing can lean on a one-word mask.
    #[test]
    fn monotonic_rules_match_bruteforce(
        neigh in proptest::collection::vec(
            proptest::collection::vec(-10i32..10, 130), 1..7),
        added in proptest::collection::vec(
            proptest::collection::vec(-10i32..10, 130), 0..4),
        del_mask in proptest::collection::vec(proptest::bool::ANY, 7),
        use_min in proptest::bool::ANY,
    ) {
        let agg = if use_min { Aggregator::Min } else { Aggregator::Max };
        let deleted_at = |i: usize| del_mask[i % del_mask.len()];
        // Never delete everything: the engine routes the
        // empty-old-neighborhood case to recomputation separately.
        prop_assume!((0..neigh.len()).any(|i| !deleted_at(i)));
        for dim in [1usize, 3, 64, 65, 130] {
            let to_f = |v: &Vec<i32>| v[..dim].iter().map(|&x| x as f32).collect::<Vec<f32>>();
            let neigh: Vec<Vec<f32>> = neigh.iter().map(to_f).collect();
            let added: Vec<Vec<f32>> = added.iter().map(to_f).collect();
            // Old aggregate over the full neighborhood.
            let mut alpha_old = vec![0.0; dim];
            agg.aggregate_into(neigh.iter().map(|v| v.as_slice()), &mut alpha_old);
            let pick = |want_deleted: bool| -> Vec<&Vec<f32>> {
                neigh
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| deleted_at(*i) == want_deleted)
                    .map(|(_, v)| v)
                    .collect()
            };
            let (deleted, remaining) = (pick(true), pick(false));
            // Ground truth over remaining ∪ added.
            let survivors = || {
                remaining.iter().map(|v| v.as_slice()).chain(added.iter().map(|v| v.as_slice()))
            };
            let mut truth = vec![0.0; dim];
            agg.aggregate_into(survivors(), &mut truth);
            // Reduced del/add groups, as grouping would produce.
            let reduce = |msgs: &[&Vec<f32>]| -> Option<Vec<f32>> {
                let mut it = msgs.iter();
                let first = it.next()?;
                let mut acc = (*first).clone();
                for m in it {
                    agg.combine_into(&mut acc, m);
                }
                Some(acc)
            };
            let del = reduce(&deleted);
            let add = reduce(&added.iter().collect::<Vec<_>>());
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            match apply_monotonic(agg, &alpha_old, del.as_deref(), add.as_deref()) {
                MonoOutcome::Updated { alpha, .. } => prop_assert_eq!(bits(&alpha), bits(&truth)),
                MonoOutcome::Exposed { mut alpha, channels } => {
                    prop_assert!(!channels.is_empty());
                    prop_assert!(channels.windows(2).all(|w| w[0] < w[1]), "ascending");
                    for c in (0..dim).filter(|c| !channels.contains(&(*c as u32))) {
                        prop_assert!(
                            alpha[c].to_bits() == truth[c].to_bits(),
                            "dim {}: channel {} is not listed in {:?} yet differs", dim, c, channels
                        );
                    }
                    agg.aggregate_channels_into(survivors(), &channels, &mut alpha);
                    prop_assert_eq!(bits(&alpha), bits(&truth));
                }
            }
        }
    }

    /// Temporal snapshots: snapshot(t0) + ΔG(t0, t1) == snapshot(t1) under
    /// arbitrary timelines, and the engine tracks the walk.
    #[test]
    fn temporal_walk_is_consistent(seed in 0u64..500) {
        let mut rng = seeded_rng(seed);
        let base = erdos_renyi(&mut rng, 20, 40);
        let tg = TemporalGraph::from_graph(&base, &mut rng, 0.4);
        let t_points = [0.2, 0.5, 0.8];
        let x = uniform(&mut rng, 20, 4, -1.0, 1.0);
        let model = Model::gcn(&mut rng, &[4, 4, 3], Aggregator::Max);
        let mut engine = InkStream::new(
            model,
            tg.snapshot_at(t_points[0]),
            x,
            UpdateConfig::default(),
        ).unwrap();
        for w in t_points.windows(2) {
            let delta = tg.delta_between(w[0], w[1]);
            engine.apply_delta(&delta);
            prop_assert_eq!(engine.graph(), &tg.snapshot_at(w[1]));
            prop_assert_eq!(engine.output(), &engine.recompute_reference());
        }
    }

    /// The sharded parallel pipeline is element-identical to the sequential
    /// one: for every aggregator, random graphs and deltas, an engine with
    /// `parallel: true` run in a 1–4 thread pool (one worker per thread,
    /// 4–16 shards) must produce bitwise the same outputs, α state and
    /// messages as `sequential()`.
    #[test]
    fn parallel_pipeline_matches_sequential_bitwise(
        (n, raw_edges) in arb_graph(24),
        seed in 0u64..1000,
        delta_size in 1usize..10,
        agg_pick in 0usize..4,
        threads in 1usize..5,
    ) {
        let agg = [Aggregator::Max, Aggregator::Min, Aggregator::Sum, Aggregator::Mean][agg_pick];
        let g = DynGraph::undirected_from_edges(n, &raw_edges);
        prop_assume!(g.num_edges() >= 2);
        prop_assume!(g.num_edges() + 2 * delta_size <= n * (n - 1) / 2);
        let make = |cfg: UpdateConfig| {
            let mut rng = seeded_rng(seed);
            let x = uniform(&mut rng, n, 4, -1.0, 1.0);
            let model = Model::gcn(&mut rng, &[4, 5, 3], agg);
            InkStream::new(model, g.clone(), x, cfg).unwrap()
        };
        let mut seq = make(UpdateConfig::default().sequential());
        let mut par = make(UpdateConfig::default());
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let mut drng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for _ in 0..2 {
            let delta = DeltaBatch::random_scenario(seq.graph(), &mut drng, delta_size);
            seq.apply_delta(&delta);
            pool.install(|| par.apply_delta(&delta));
        }
        prop_assert_eq!(par.output(), seq.output());
        for l in 0..seq.model().num_layers() {
            prop_assert_eq!(&par.state().alpha[l], &seq.state().alpha[l]);
            prop_assert_eq!(&par.state().m[l], &seq.state().m[l]);
        }
    }

    /// Toggling one random edge back and forth returns to the exact
    /// starting output (monotonic determinism).
    #[test]
    fn edge_toggle_roundtrip_is_exact(
        seed in 0u64..500,
        u in 0u32..15,
        v in 0u32..15,
    ) {
        prop_assume!(u != v);
        let mut rng = seeded_rng(seed);
        let g = erdos_renyi(&mut rng, 15, 30);
        let x = uniform(&mut rng, 15, 4, -1.0, 1.0);
        let model = Model::gcn(&mut rng, &[4, 4], Aggregator::Max);
        let mut engine = InkStream::new(model, g, x, UpdateConfig::default()).unwrap();
        let before = engine.output().clone();
        let had = engine.graph().has_edge(u, v);
        let (first, second) = if had {
            (EdgeChange::remove(u, v), EdgeChange::insert(u, v))
        } else {
            (EdgeChange::insert(u, v), EdgeChange::remove(u, v))
        };
        engine.apply_delta(&DeltaBatch::new(vec![first]));
        engine.apply_delta(&DeltaBatch::new(vec![second]));
        prop_assert_eq!(engine.output(), &before);
    }
}

/// Non-proptest sanity companion: the brute-force helper used above agrees
/// with the aggregator on a known case.
#[test]
fn bruteforce_helper_sanity() {
    let agg = Aggregator::Max;
    let msgs: Vec<Vec<f32>> = vec![vec![1.0, 5.0], vec![3.0, 2.0]];
    let mut out = vec![0.0; 2];
    agg.aggregate_into(msgs.iter().map(|v| v.as_slice()), &mut out);
    assert_eq!(out, vec![3.0, 5.0]);
    let _: Vec<VertexId> = vec![];
}
