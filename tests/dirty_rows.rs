//! The engine's dirty-row list (`InkStream::take_dirty_rows`) is what lets a
//! snapshot publish copy O(rows changed): it must name every output row an
//! update rewrote, and own up when it cannot.

use ink_graph::generators::erdos_renyi;
use ink_graph::{DeltaBatch, EdgeChange, VertexId};
use ink_gnn::{Aggregator, Model};
use ink_tensor::init::{seeded_rng, uniform};
use ink_tensor::Matrix;
use inkstream::{InkStream, UpdateConfig};
use rand::RngExt;

/// Large enough that a handful of changes stays far below the list's cap of
/// an eighth of the vertices.
const N: usize = 2000;
const FEAT_DIM: usize = 5;

fn engine(kind: &str, agg: Aggregator, seed: u64) -> InkStream {
    let mut rng = seeded_rng(seed);
    let g = erdos_renyi(&mut rng, N, 3 * N);
    let x = uniform(&mut rng, N, FEAT_DIM, -1.0, 1.0);
    let model = match kind {
        "gcn" => Model::gcn(&mut rng, &[FEAT_DIM, 6, 3], agg),
        "sage" => Model::sage(&mut rng, &[FEAT_DIM, 6, 3], agg),
        "gin" => Model::gin(&mut rng, FEAT_DIM, 6, 2, 0.1, agg),
        _ => unreachable!(),
    };
    InkStream::new(model, g, x, UpdateConfig::default()).unwrap()
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Drains the list and replays it onto `mirror`, the way a delta publish
/// brings a stale buffer up to date: afterwards `mirror` must equal the
/// output bitwise, which holds only if no changed row was left out.
fn replay(e: &mut InkStream, mirror: &mut Matrix, rows: &mut Vec<VertexId>, ctx: &str) {
    rows.clear();
    assert!(e.take_dirty_rows(rows), "{ctx}: a small update is known row by row");
    for &v in rows.iter() {
        mirror.set_row(v as usize, e.output().row(v as usize));
    }
    assert!(bits(mirror) == bits(e.output()), "{ctx}: a rewritten row is missing from the list");
}

#[test]
fn every_rewritten_output_row_is_listed() {
    let aggs = [Aggregator::Max, Aggregator::Min, Aggregator::Sum, Aggregator::Mean];
    for (i, kind) in ["gcn", "sage", "gin"].into_iter().enumerate() {
        for (j, agg) in aggs.into_iter().enumerate() {
            let seed = (i * 4 + j) as u64 + 1;
            let ctx = format!("{kind}/{agg:?}");
            let mut e = engine(kind, agg, seed);
            let mut rng = seeded_rng(seed ^ 0xD1);
            let mut mirror = e.output().clone();
            let mut rows = Vec::new();
            assert!(e.take_dirty_rows(&mut rows) && rows.is_empty(), "{ctx}: fresh engine");

            for round in 0..4 {
                let changes: Vec<EdgeChange> = (0..4)
                    .map(|_| {
                        let s = rng.random_range(0..N as VertexId);
                        let d = (s + rng.random_range(1..N as VertexId)) % N as VertexId;
                        match e.graph().out_neighbors(s).first() {
                            Some(&t) if round % 2 == 1 => EdgeChange::remove(s, t),
                            _ => EdgeChange::insert(s, d),
                        }
                    })
                    .collect();
                let report = e.apply_delta(&DeltaBatch::new(changes));
                replay(&mut e, &mut mirror, &mut rows, &format!("{ctx} apply_delta {round}"));
                assert!(rows.len() as u64 >= report.output_changed);
            }

            let v = rng.random_range(0..N as VertexId);
            e.update_vertex_feature(v, &[0.9, -0.5, 0.1, 0.7, -0.2]).unwrap();
            replay(&mut e, &mut mirror, &mut rows, &format!("{ctx} update_vertex_feature"));

            let v = rng.random_range(0..N as VertexId);
            e.remove_vertex(v).unwrap();
            replay(&mut e, &mut mirror, &mut rows, &format!("{ctx} remove_vertex"));
        }
    }
}

/// The delta rule's shape: SAGE-mean with a hub adjacent to a tenth of the
/// graph. An edge at the hub moves the hub's last-layer message, and every
/// other target commits its output row in the apply phase as a delta row —
/// at least 99 % of the last layer's targets. Those rows reach the list from
/// the write phase, the rest from next-messages; the list must still rebuild
/// the output bitwise.
#[test]
fn delta_rows_are_listed_row_by_row() {
    const HUB: VertexId = 0;
    const HUB_DEGREE: usize = N / 10;
    let mut rng = seeded_rng(0xDE17A);
    let mut g = erdos_renyi(&mut rng, N, 2 * N);
    for v in 1..=HUB_DEGREE as VertexId {
        g.apply(EdgeChange::insert(HUB, v));
    }
    let x = uniform(&mut rng, N, FEAT_DIM, -1.0, 1.0);
    let model = Model::sage(&mut seeded_rng(0x5A6E), &[FEAT_DIM, 6, 3], Aggregator::Mean);
    let mut single = InkStream::new(model, g, x, UpdateConfig::default()).unwrap();
    let mut mirror = single.output().clone();
    let mut rows = Vec::new();
    assert!(single.take_dirty_rows(&mut rows));

    let (mut delta_rows, mut targets) = (0, 0);
    for round in 0..8 {
        // Attach a new vertex to the hub, or detach the previous one.
        let v = (HUB_DEGREE + 1 + round / 2) as VertexId;
        let change =
            if round % 2 == 0 { EdgeChange::insert(HUB, v) } else { EdgeChange::remove(HUB, v) };
        let report = single.apply_delta(&DeltaBatch::new(vec![change]));
        let last = report.per_layer.last().unwrap();
        (delta_rows, targets) = (delta_rows + last.delta_rows, targets + last.targets);
        replay(&mut single, &mut mirror, &mut rows, &format!("round {round}"));
    }
    assert!(delta_rows * 100 >= targets * 99, "{delta_rows} delta rows of {targets} targets");
}

#[test]
fn whole_state_rewrites_answer_all() {
    let mut e = engine("gcn", Aggregator::Max, 42);
    let mut rows = Vec::new();
    let mut assert_all_then_clean = |e: &mut InkStream, ctx: &str| {
        assert!(!e.take_dirty_rows(&mut rows), "{ctx} must read as all rows changed");
        assert!(rows.is_empty(), "{ctx}: nothing is listed alongside the all answer");
        assert!(e.take_dirty_rows(&mut rows) && rows.is_empty(), "{ctx}: the take resets it");
    };

    e.resync();
    assert_all_then_clean(&mut e, "resync");

    e.add_vertex(&[0.1; FEAT_DIM], &[0, 1]).unwrap();
    assert_all_then_clean(&mut e, "add_vertex");

    e.state_mut().h.set(0, 0, 7.0);
    assert_all_then_clean(&mut e, "state_mut");

    // Rows written after an all answer is pending are covered by it.
    e.resync();
    e.apply_delta(&DeltaBatch::new(vec![EdgeChange::insert(3, 900)]));
    assert_all_then_clean(&mut e, "resync then apply_delta");
}
