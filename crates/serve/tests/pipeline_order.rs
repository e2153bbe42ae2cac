//! Property test for the writer's ordering contract: under random
//! interleavings of updates, flush barriers and queries, a client must
//! observe **read-your-writes at every flush** — the epoch a flush returns
//! already reflects every update the client admitted before it, bitwise.
//!
//! Max aggregation keeps incremental outputs bitwise equal to full
//! recomputation, so the reference replay is exact, not approximate.

use ink_gnn::{Aggregator, Model};
use ink_graph::generators::erdos_renyi;
use ink_graph::{DeltaBatch, EdgeChange};
use ink_serve::{Backpressure, InkClient, InkServer, ServeConfig};
use ink_tensor::init::{seeded_rng, uniform};
use inkstream::{InkStream, StreamSession, UpdateConfig};
use proptest::prelude::*;

const N: usize = 24;
const FEAT_DIM: usize = 5;

fn model(seed: u64) -> Model {
    Model::gcn(&mut seeded_rng(seed ^ 0x5e), &[FEAT_DIM, 6, 3], Aggregator::Max)
}

fn reference(seed: u64) -> InkStream {
    let mut rng = seeded_rng(seed);
    let g = erdos_renyi(&mut rng, N, 55);
    let x = uniform(&mut rng, N, FEAT_DIM, -1.0, 1.0);
    InkStream::new(model(seed), g, x, UpdateConfig::default()).unwrap()
}

/// One interleaving step: a run of update batches admitted back to back
/// (they may coalesce into fewer epochs), then a flush barrier, then a
/// query racing nothing — which therefore must see all of them.
type Step = (Vec<Vec<(u32, u32, bool)>>, u32);

fn to_changes(spec: &[(u32, u32, bool)]) -> Vec<EdgeChange> {
    spec.iter()
        .map(|&(s, d, insert)| {
            let d = if d == s { (d + 1) % N as u32 } else { d };
            if insert {
                EdgeChange::insert(s, d)
            } else {
                EdgeChange::remove(s, d)
            }
        })
        .collect()
}

fn check_interleaving(seed: u64, steps: &[Step]) {
    let config = ServeConfig {
        queue_capacity: 8,
        backpressure: Backpressure::Block,
        ..ServeConfig::default()
    };
    let mut refeng = reference(seed);
    let session = StreamSession::new(reference(seed));
    let handle = InkServer::bind("127.0.0.1:0", session, config).unwrap();

    let mut client = InkClient::connect(handle.local_addr()).unwrap();
    let mut last_epoch = 0u64;
    for (runs, query_v) in steps {
        for spec in runs {
            let batch = to_changes(spec);
            client.update(batch.clone()).unwrap().expect("block mode never rejects");
            refeng.apply_delta(&DeltaBatch::new(batch));
        }
        let epoch = client.flush().unwrap();
        assert!(epoch >= last_epoch, "epochs are monotonic across flushes");
        last_epoch = epoch;
        // Read-your-writes: the post-flush snapshot reflects every update
        // admitted above, bitwise (no other writer is running).
        let (e, values) = client.embedding(*query_v).unwrap();
        assert!(e >= epoch, "a read after the barrier never sees an older epoch");
        assert_eq!(values, refeng.output().row(*query_v as usize), "read-your-writes bitwise");
    }
    drop(client);

    let session = handle.shutdown().unwrap();
    assert_eq!(session.engine().output(), refeng.output(), "final state bitwise");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]

    #[test]
    fn flush_barriers_observe_read_your_writes(
        seed in 0u64..400,
        steps in proptest::collection::vec(
            (
                proptest::collection::vec(
                    proptest::collection::vec(
                        (0u32..N as u32, 0u32..N as u32, proptest::bool::ANY),
                        1..5,
                    ),
                    1..4,
                ),
                0u32..N as u32,
            ),
            1..6,
        ),
    ) {
        check_interleaving(seed, &steps);
    }
}
