//! Criterion micro-benches for the kernels behind the paper's tables:
//! aggregation, event grouping/reduction, and the incremental-update vs
//! recompute decision that Table V's memory savings come from.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ink_gnn::{Aggregator, Conv, SageConv};
use ink_tensor::init::{seeded_rng, uniform};
use ink_tensor::GemmScratch;
use inkstream::monotonic::apply_monotonic;
use inkstream::{group_events, Event, EventOp, PayloadArena};
use std::hint::black_box;

const DIM: usize = 64;

fn bench_aggregate(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregate_neighborhood");
    let mut rng = seeded_rng(1);
    for &degree in &[4usize, 32, 256] {
        let msgs = uniform(&mut rng, degree, DIM, -1.0, 1.0);
        for agg in [Aggregator::Max, Aggregator::Sum, Aggregator::Mean] {
            group.bench_with_input(
                BenchmarkId::new(format!("{agg:?}"), degree),
                &degree,
                |b, _| {
                    let mut out = vec![0.0f32; DIM];
                    b.iter(|| {
                        agg.aggregate_into(msgs.rows_iter(), black_box(&mut out));
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_grouping(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_grouping");
    let mut rng = seeded_rng(2);
    for &events_n in &[100usize, 1_000, 10_000] {
        // Events spread over targets with ~4 events per target.
        let payloads = uniform(&mut rng, 64, DIM, -1.0, 1.0);
        let mut arena = PayloadArena::new(DIM);
        let ids: Vec<_> = (0..64).map(|i| arena.push(payloads.row(i))).collect();
        let events: Vec<Event> = (0..events_n)
            .map(|i| Event {
                op: if i % 2 == 0 { EventOp::Del } else { EventOp::Add },
                target: (i / 4) as u32,
                payload: ids[i % 64],
                degree_delta: 0,
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("max", events_n), &events_n, |b, _| {
            b.iter(|| group_events(black_box(&events), &arena, Aggregator::Max));
        });
        let upd: Vec<Event> =
            events.iter().map(|e| Event { op: EventOp::Update, ..*e }).collect();
        group.bench_with_input(BenchmarkId::new("sum", events_n), &events_n, |b, _| {
            b.iter(|| group_events(black_box(&upd), &arena, Aggregator::Sum));
        });
    }
    group.finish();
}

fn bench_incremental_vs_recompute(c: &mut Criterion) {
    // The intra-layer saving of Table V in isolation: evolving one node's
    // aggregate incrementally vs refetching its whole neighborhood.
    let mut group = c.benchmark_group("intra_layer_update");
    let mut rng = seeded_rng(3);
    for &degree in &[16usize, 128, 1024] {
        let msgs = uniform(&mut rng, degree, DIM, -1.0, 1.0);
        let mut alpha_old = vec![0.0f32; DIM];
        Aggregator::Max.aggregate_into(msgs.rows_iter(), &mut alpha_old);
        let add = uniform(&mut rng, 1, DIM, -0.5, 0.5);
        let del = uniform(&mut rng, 1, DIM, -2.0, -1.5); // never the max → no reset

        group.bench_with_input(
            BenchmarkId::new("incremental", degree),
            &degree,
            |b, _| {
                b.iter(|| {
                    black_box(apply_monotonic(
                        Aggregator::Max,
                        black_box(&alpha_old),
                        Some(del.row(0)),
                        Some(add.row(0)),
                    ))
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("recompute", degree), &degree, |b, _| {
            let mut out = vec![0.0f32; DIM];
            b.iter(|| {
                Aggregator::Max.aggregate_into(msgs.rows_iter(), black_box(&mut out));
            });
        });
    }
    group.finish();
}

fn bench_channel_repair(c: &mut Criterion) {
    // The exposed-reset repair: re-aggregating a few channels of a target
    // over its whole neighborhood, against the full-row fold it replaced.
    let mut group = c.benchmark_group("exposed_channel_repair");
    let mut rng = seeded_rng(4);
    for &degree in &[64usize, 1024] {
        let msgs = uniform(&mut rng, degree, DIM, -1.0, 1.0);
        let mut out = vec![0.0f32; DIM];
        for &width in &[1usize, 4, 32] {
            // Evenly spread over the row, as exposed channels are.
            let channels: Vec<u32> = (0..width).map(|i| (i * DIM / width) as u32).collect();
            group.bench_with_input(
                BenchmarkId::new(format!("channels_{width}"), degree),
                &degree,
                |b, _| {
                    b.iter(|| {
                        Aggregator::Max.aggregate_channels_into(
                            msgs.rows_iter(),
                            black_box(&channels),
                            black_box(&mut out),
                        );
                    });
                },
            );
        }
        group.bench_with_input(BenchmarkId::new("full_row", degree), &degree, |b, _| {
            b.iter(|| {
                Aggregator::Max.aggregate_into(msgs.rows_iter(), black_box(&mut out));
            });
        });
    }
    group.finish();
}

fn bench_delta_rule(c: &mut Criterion) {
    // One round's output rebuild on an α-affine layer, both ways: the full
    // transform runs SAGE's two 64×64 GEMMs over every target's gathered α
    // and self rows; the delta rule transforms the round's ≈ 48 payloads once
    // and adds one scaled row per target. 32 rows is what still takes the
    // transform on `engine_accum`, 6000 what used to.
    const SOURCES: usize = 48;
    let mut group = c.benchmark_group("delta_rule");
    let mut rng = seeded_rng(5);
    let conv = SageConv::new(&mut rng, DIM, DIM, Aggregator::Mean);
    let w = conv.alpha_weight().expect("SAGE is affine in α");
    let payloads = uniform(&mut rng, SOURCES, DIM, -1.0, 1.0);
    for &rows in &[32usize, 6000] {
        let alpha = uniform(&mut rng, rows, DIM, -1.0, 1.0);
        let own = uniform(&mut rng, rows, DIM, -1.0, 1.0);
        let mut h = vec![0.0f32; rows * DIM];
        let mut scratch = GemmScratch::new();
        group.bench_with_input(
            BenchmarkId::new("two_gemms_per_row", rows),
            &rows,
            |b, &rows| {
                b.iter(|| {
                    conv.update_batch_into(
                        rows,
                        black_box(alpha.as_slice()),
                        own.as_slice(),
                        black_box(&mut h),
                        &mut scratch,
                    )
                });
            },
        );
        let mut transformed = vec![0.0f32; SOURCES * DIM];
        group.bench_with_input(
            BenchmarkId::new("source_transform_plus_row_axpy", rows),
            &rows,
            |b, &rows| {
                b.iter(|| {
                    for (p, t) in payloads.rows_iter().zip(transformed.chunks_exact_mut(DIM)) {
                        w.vecmul(black_box(p), t);
                    }
                    for (i, row) in h.chunks_exact_mut(DIM).take(rows).enumerate() {
                        let sum = &transformed[(i % SOURCES) * DIM..(i % SOURCES + 1) * DIM];
                        ink_tensor::ops::axpy(black_box(row), 0.125, sum);
                    }
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets =
        bench_aggregate,
        bench_grouping,
        bench_incremental_vs_recompute,
        bench_channel_repair,
        bench_delta_rule
}
criterion_main!(kernels);
