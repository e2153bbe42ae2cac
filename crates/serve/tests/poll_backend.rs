//! The server on the portable poll(2) readiness backend: setting
//! `INK_MIO_FORCE_POLL=1` before the first `Poll::new` swaps epoll out for
//! the fallback selector, and the full protocol (handshake, pipelined
//! updates, flush barrier, reads) must behave identically. Lives in its own
//! test binary so the process-wide variable cannot race other tests.

use ink_gnn::{Aggregator, Model};
use ink_graph::generators::erdos_renyi;
use ink_graph::EdgeChange;
use ink_serve::{InkClient, InkServer, Request, Response, ServeConfig};
use ink_tensor::init::{seeded_rng, sparse_power_law};
use inkstream::{InkStream, StreamSession, UpdateConfig};

#[test]
fn server_works_on_the_forced_poll_backend() {
    std::env::set_var("INK_MIO_FORCE_POLL", "1");

    let n = 40;
    let mut rng = seeded_rng(5);
    let graph = erdos_renyi(&mut rng, n, 100);
    let feats = sparse_power_law(&mut rng, n, 6, 0.2, 0.9);
    let model = Model::gcn(&mut seeded_rng(5), &[6, 8, 4], Aggregator::Max);
    let engine = InkStream::new(model, graph, feats, UpdateConfig::default()).unwrap();

    let handle =
        InkServer::bind("127.0.0.1:0", StreamSession::new(engine), ServeConfig::default())
            .unwrap();
    let mut client = InkClient::connect(handle.local_addr()).unwrap();

    let hello = client.hello().unwrap();
    assert_eq!(hello.version, ink_serve::PROTOCOL_VERSION);

    client
        .queue(&Request::Update(vec![EdgeChange::insert(0, 1), EdgeChange::insert(1, 2)]))
        .unwrap();
    client.queue(&Request::Embedding(0)).unwrap();
    let ack = client.recv().unwrap();
    assert!(matches!(ack, Response::Ack { .. }), "{ack:?}");
    let read = client.recv().unwrap();
    assert!(matches!(read, Response::Embedding { .. }), "{read:?}");

    let epoch = client.flush().unwrap();
    assert!(epoch >= 1);
    let (e, values) = client.embedding(1).unwrap();
    assert!(e >= epoch);
    assert_eq!(values.len(), 4);

    drop(client);
    let (session, stats) = handle.shutdown().unwrap();
    assert!(stats.epochs >= 1);
    assert!(session.engine().graph().has_edge(0, 1));
}
