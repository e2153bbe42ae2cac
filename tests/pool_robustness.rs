//! Panic robustness for the partitioned driver: a panic inside one engine's
//! step on the rayon pool (here injected through a user hook) must surface
//! as a typed [`InkError::WorkerPanic`] instead of aborting the process,
//! poison the driver so every subsequent apply, vertex insertion and vertex
//! removal fails fast without touching the graph, and heal completely under
//! [`PartitionedInkStream::resync`] — after which the merged output is again
//! bitwise equal to the single-engine reference. The second test takes the
//! same fault through the session layer and a loopback server: a typed
//! ingest error, a tick of `ink_serve_apply_errors_total`, no hang.

use ink_gnn::Aggregator;
use ink_graph::DeltaBatch;
use ink_partition::{HashPartitioner, PartitionConfig, PartitionedInkStream};
use ink_tensor::init::{seeded_rng, uniform};
use ink_tensor::Matrix;
use ink_serve::{InkClient, InkServer, ServeConfig};
use inkstream::{
    IngestError, InkError, InkStream, SessionConfig, UpdateConfig, UserEvent, UserHooks,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A hook that is a complete no-op (no cache, no events) until armed — then
/// the first message change panics the thread processing it. Unarmed it
/// leaves the engine bitwise identical to a hook-free one, so the same
/// reference engine serves before and after the injected fault.
struct Tripwire {
    arm: Arc<AtomicBool>,
}

impl UserHooks for Tripwire {
    fn init_cache(&self, _layer: usize, _messages: &Matrix) -> Option<Matrix> {
        None
    }

    fn user_propagate(
        &self,
        _layer: usize,
        _node: u32,
        _old_msg: &[f32],
        _new_msg: &[f32],
    ) -> Vec<UserEvent> {
        assert!(!self.arm.load(Ordering::SeqCst), "tripwire: injected worker fault");
        Vec::new()
    }

    fn user_apply(&self, _layer: usize, _node: u32, _row: &mut [f32], _events: &[UserEvent]) {}
}

fn model(seed: u64) -> ink_gnn::Model {
    let mut rng = seeded_rng(seed);
    ink_gnn::Model::gcn(&mut rng, &[4, 5, 3], Aggregator::Max)
}

/// A single engine and a 4-part partitioned one over the same inputs, both
/// wired to the same tripwire.
fn tripwired_pair(seed: u64, arm: &Arc<AtomicBool>) -> (InkStream, PartitionedInkStream) {
    let mut rng = seeded_rng(seed);
    let g = ink_graph::generators::erdos_renyi(&mut rng, 30, 70);
    let x = uniform(&mut rng, 30, 4, -1.0, 1.0);
    let cfg = UpdateConfig::default();
    let single = InkStream::with_hooks(
        model(seed),
        g.clone(),
        x.clone(),
        cfg,
        Some(Box::new(Tripwire { arm: arm.clone() })),
    )
    .unwrap();
    let hook_arm = arm.clone();
    let parted = PartitionedInkStream::with_hooks(
        move || model(seed),
        g,
        x,
        HashPartitioner,
        PartitionConfig { parts: 4, update: cfg },
        Some(Box::new(move || {
            let arm = hook_arm.clone();
            Box::new(Tripwire { arm })
        })),
    )
    .unwrap();
    assert_eq!(&parted.output(), single.output(), "bootstrap parity");
    (single, parted)
}

/// Runs on the global pool (four engines spread over its threads) and
/// inside a 1-thread pool, where every engine steps inline on the caller and
/// no worker thread exists to catch the panic on.
#[test]
fn worker_panic_poisons_pool_and_resync_recovers() {
    panic_poisons_and_resync_recovers();
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(panic_poisons_and_resync_recovers);
}

fn panic_poisons_and_resync_recovers() {
    let seed = 0x9021u64;
    let arm = Arc::new(AtomicBool::new(false));
    let (mut single, mut parted) = tripwired_pair(seed, &arm);

    // A healthy round with the hooks disarmed stays bitwise identical.
    let mut drng = StdRng::seed_from_u64(seed ^ 0xfa11);
    let delta1 = DeltaBatch::random_scenario(single.graph(), &mut drng, 6);
    single.apply_delta(&delta1);
    parted.try_apply_delta(&delta1).expect("disarmed round succeeds");
    assert_eq!(&parted.output(), single.output(), "healthy round parity");

    // Armed: the panic fires inside an engine step mid-round. It must come
    // back as a typed error (the step returns — no deadlock) and name the
    // injected fault.
    let delta2 = DeltaBatch::random_scenario(single.graph(), &mut drng, 6);
    single.apply_delta(&delta2);
    arm.store(true, Ordering::SeqCst);
    let err = parted.try_apply_delta(&delta2).expect_err("armed round fails");
    arm.store(false, Ordering::SeqCst);
    let InkError::WorkerPanic { detail, .. } = &err else {
        panic!("expected WorkerPanic, got {err:?}");
    };
    assert!(detail.contains("tripwire"), "panic payload surfaces in the error: {detail}");

    // Poisoned: the next apply fails fast *with the hooks disarmed* — the
    // error comes from the poison check, before any graph mutation, so the
    // rejected delta must not leak into the partitioned graph.
    let delta3 = DeltaBatch::random_scenario(single.graph(), &mut drng, 6);
    let edges_before = parted.graph().num_edges();
    let vertices_before = parted.graph().num_vertices();
    let err2 = parted.try_apply_delta(&delta3).expect_err("poisoned pool fails fast");
    assert!(matches!(err2, InkError::WorkerPanic { .. }), "still the typed error: {err2:?}");
    assert_eq!(parted.graph().num_edges(), edges_before, "fail-fast precedes graph mutation");

    // Vertex insertion and removal fail the same way, and neither grows or
    // rewires the graph first.
    let feat = [0.3, -0.2, 0.8, 0.1];
    let err3 = parted.add_vertex(&feat, &[0, 11, 22]).expect_err("poisoned add_vertex fails");
    assert!(matches!(err3, InkError::WorkerPanic { .. }), "add_vertex: {err3:?}");
    let err4 = parted.remove_vertex(5).expect_err("poisoned remove_vertex fails");
    assert!(matches!(err4, InkError::WorkerPanic { .. }), "remove_vertex: {err4:?}");
    assert_eq!(parted.graph().num_vertices(), vertices_before, "no vertex was added");
    assert_eq!(parted.graph().num_edges(), edges_before, "no edge was added or removed");

    // Resync rebuilds every engine from the (delta2-inclusive) graph and
    // clears the poison; Max aggregation makes the single engine's
    // incremental state bitwise equal to full recomputation, so the healed
    // outputs must match exactly.
    parted.resync();
    assert_eq!(&parted.output(), single.output(), "resync heals bitwise");
    assert_eq!(parted.mirror_deviation(), 0.0);

    // And the driver is live again: the previously rejected delta applies,
    // and so do the vertex calls.
    single.apply_delta(&delta3);
    parted.try_apply_delta(&delta3).expect("pool recovered after resync");
    assert_eq!(&parted.output(), single.output(), "post-recovery parity");
    let (vs, _) = single.add_vertex(&feat, &[0, 11, 22]).unwrap();
    let (vp, _) = parted.add_vertex(&feat, &[0, 11, 22]).expect("add_vertex after resync");
    assert_eq!(vs, vp);
    assert_eq!(&parted.output(), single.output(), "add_vertex parity after resync");
    single.remove_vertex(5).unwrap();
    parted.remove_vertex(5).expect("remove_vertex after resync");
    assert_eq!(&parted.output(), single.output(), "remove_vertex parity after resync");
}

/// The same fault one layer up. In a session the panic is an
/// [`IngestError::Engine`]; behind a server it costs one
/// `ink_serve_apply_errors_total` per refused epoch while flushes keep
/// resolving; and the session `shutdown()` hands back heals under
/// `resync()` to the single engine's bits.
#[test]
fn worker_panic_through_the_session_and_the_server() {
    let seed = 0x9022u64;
    let arm = Arc::new(AtomicBool::new(false));
    let (mut single, parted) = tripwired_pair(seed, &arm);
    let mut session = parted.into_session(SessionConfig::default());

    let mut drng = StdRng::seed_from_u64(seed ^ 0xfa11);
    let delta1 = DeltaBatch::random_scenario(single.graph(), &mut drng, 6);
    single.apply_delta(&delta1);
    session.ingest(&delta1).expect("disarmed ingest succeeds");

    let delta2 = DeltaBatch::random_scenario(single.graph(), &mut drng, 6);
    single.apply_delta(&delta2);
    arm.store(true, Ordering::SeqCst);
    let err = session.ingest(&delta2).expect_err("armed ingest fails");
    arm.store(false, Ordering::SeqCst);
    let IngestError::Engine(InkError::WorkerPanic { detail, .. }) = &err else {
        panic!("expected the typed worker panic, got {err:?}");
    };
    assert!(detail.contains("tripwire"), "panic payload surfaces in the error: {detail}");

    // Still poisoned when the server takes over: the writer counts the
    // refused epoch and keeps serving instead of hanging the flush.
    let handle = InkServer::bind("127.0.0.1:0", session, ServeConfig::default()).unwrap();
    let mut client = InkClient::connect(handle.local_addr()).unwrap();
    let delta3 = DeltaBatch::random_scenario(single.graph(), &mut drng, 6);
    client.update(delta3.changes().to_vec()).unwrap().expect("admitted");
    assert_eq!(client.flush().unwrap(), 1, "the barrier resolves past a refused epoch");
    let scrape = client.metrics().unwrap();
    assert!(scrape.contains("ink_serve_apply_errors_total 1"), "{scrape}");
    drop(client);
    let (mut session, _) = handle.shutdown().unwrap();

    // delta2 reached the driver's graph before the panic; delta3 was
    // refused before any mutation. Resync rebuilds from exactly that graph.
    session.engine_mut().resync();
    assert_eq!(&session.engine().output(), single.output(), "resync heals bitwise");
    single.apply_delta(&delta3);
    session.ingest(&delta3).expect("pool recovered after resync");
    assert_eq!(&session.engine().output(), single.output(), "post-recovery parity");
}
