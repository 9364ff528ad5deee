//! Integration suite for the network serving tier: bit-identical TCP
//! estimates, multiplexed pipelining, hot-swap epoch detection, and
//! deterministic admission-control rejections (the acceptance criteria of
//! the fj-server tentpole).

use factorjoin::{BaseEstimatorKind, BinBudget, FactorJoinConfig, FactorJoinModel};
use fj_datagen::{stats_catalog, stats_ceb_workload, StatsConfig, WorkloadConfig};
use fj_query::Query;
use fj_service::{
    BatchOutcome, FjClient, FjServer, ModelRegistry, RejectReason, ServerConfig, ShardSpec,
};
use fj_storage::Catalog;
use std::sync::Arc;

fn tiny_catalog() -> Catalog {
    stats_catalog(&StatsConfig {
        scale: 0.03,
        ..Default::default()
    })
}

fn train(catalog: &Catalog, k: usize) -> FactorJoinModel {
    FactorJoinModel::train(
        catalog,
        FactorJoinConfig {
            bin_budget: BinBudget::Uniform(k),
            estimator: BaseEstimatorKind::TrueScan,
            ..Default::default()
        },
    )
}

fn workload(catalog: &Catalog, seed: u64) -> Vec<Query> {
    stats_ceb_workload(catalog, &WorkloadConfig::tiny(seed))
}

fn expected_bits(
    model: &FactorJoinModel,
    queries: &[Query],
    min_size: u32,
) -> Vec<Vec<(u64, u64)>> {
    queries
        .iter()
        .map(|q| {
            model
                .estimate_subplans(q, min_size)
                .into_iter()
                .map(|(m, e)| (m, e.to_bits()))
                .collect()
        })
        .collect()
}

fn to_bits(estimates: &[(u64, f64)]) -> Vec<(u64, u64)> {
    estimates.iter().map(|&(m, e)| (m, e.to_bits())).collect()
}

fn serve_one(
    model: Arc<FactorJoinModel>,
    config: ServerConfig,
) -> (FjServer, std::net::SocketAddr) {
    let server = FjServer::bind("127.0.0.1:0", vec![ShardSpec::new("stats", model)], config)
        .expect("bind loopback");
    let addr = server.local_addr();
    (server, addr)
}

/// The headline acceptance criterion: a client connects over TCP, submits
/// a multi-query batch, and gets epoch-tagged estimates **bit-identical**
/// to the in-process `estimate_subplans` path.
#[test]
fn tcp_estimates_bit_identical_to_in_process() {
    let catalog = tiny_catalog();
    let model = Arc::new(train(&catalog, 25));
    let queries = workload(&catalog, 11);
    let expected = expected_bits(&model, &queries, 1);

    let (server, addr) = serve_one(Arc::clone(&model), ServerConfig::new(2));
    let epoch = server
        .registry("stats")
        .unwrap()
        .get("stats")
        .unwrap()
        .epoch;

    let mut client = FjClient::connect(addr).expect("connect");
    assert_eq!(client.datasets(), ["stats".to_string()]);

    let outcome = client.call("stats", 1, &queries).expect("roundtrip");
    let BatchOutcome::Served(results) = outcome else {
        panic!("batch was rejected: {outcome:?}");
    };
    assert_eq!(results.len(), queries.len());
    for (qi, result) in results.iter().enumerate() {
        let est = result.as_ref().expect("query served");
        assert_eq!(
            est.model_epoch, epoch,
            "query {qi} tagged with the serving epoch"
        );
        assert_eq!(
            to_bits(&est.estimates),
            expected[qi],
            "query {qi}: TCP estimates diverge from in-process bits"
        );
    }

    // min_size crosses the wire too.
    let outcome = client.call("stats", 2, &queries[..1]).expect("roundtrip");
    let BatchOutcome::Served(results) = outcome else {
        panic!("min_size batch rejected: {outcome:?}");
    };
    let est = results[0].as_ref().expect("served");
    assert_eq!(
        to_bits(&est.estimates),
        expected_bits(&model, &queries[..1], 2)[0]
    );
    assert!(est.estimates.iter().all(|(m, _)| m.count_ones() >= 2));

    // An empty batch resolves immediately instead of dangling forever.
    let outcome = client.call("stats", 1, &[]).expect("roundtrip");
    assert_eq!(outcome, BatchOutcome::Served(vec![]));

    let snap = server.stats("stats").expect("shard stats");
    assert_eq!(snap.requests as usize, queries.len() + 1);
    assert_eq!(snap.errors, 0);
    server.shutdown();
}

/// Multiplexing: many pipelined requests on one connection, collected in
/// reverse submission order, each routed to the right request id.
#[test]
fn pipelined_requests_multiplex_out_of_order() {
    let catalog = tiny_catalog();
    let model = Arc::new(train(&catalog, 20));
    let queries = workload(&catalog, 13);
    let expected = expected_bits(&model, &queries, 1);

    let (_server, addr) = serve_one(model, ServerConfig::new(2));
    let mut client = FjClient::connect(addr).expect("connect");

    // One single-query batch per workload query, all in flight at once.
    let ids: Vec<(u64, usize)> = queries
        .iter()
        .enumerate()
        .map(|(qi, q)| {
            let id = client
                .send("stats", 1, std::slice::from_ref(q))
                .expect("send");
            (id, qi)
        })
        .collect();
    assert!(ids.windows(2).all(|w| w[0].0 != w[1].0), "distinct ids");

    for &(id, qi) in ids.iter().rev() {
        let outcome = client.recv(id).expect("recv");
        let BatchOutcome::Served(results) = outcome else {
            panic!("request {id} rejected: {outcome:?}");
        };
        assert_eq!(results.len(), 1);
        let est = results[0].as_ref().expect("served");
        assert_eq!(
            to_bits(&est.estimates),
            expected[qi],
            "request {id} resolved with query {qi}'s estimates"
        );
    }
}

/// Hot-swap detection: a client comparing epochs across responses spots a
/// mid-flight model swap, and post-swap responses match the new model
/// bit-for-bit.
#[test]
fn hot_swap_mid_flight_is_visible_through_epochs() {
    let catalog = tiny_catalog();
    let model_a = Arc::new(train(&catalog, 20));
    let model_b = Arc::new(train(&catalog, 40));
    let queries = workload(&catalog, 17);
    let expected_a = expected_bits(&model_a, &queries, 1);
    let expected_b = expected_bits(&model_b, &queries, 1);

    let registry = Arc::new(ModelRegistry::new());
    registry.publish("stats", Arc::clone(&model_a));
    let server = FjServer::bind(
        "127.0.0.1:0",
        vec![ShardSpec::with_registry("stats", Arc::clone(&registry))],
        ServerConfig::new(2),
    )
    .expect("bind");
    let mut client = FjClient::connect(server.local_addr()).expect("connect");

    let before = match client.call("stats", 1, &queries).expect("pre-swap") {
        BatchOutcome::Served(results) => results,
        other => panic!("pre-swap rejected: {other:?}"),
    };
    let epoch_a = before[0].as_ref().unwrap().model_epoch;
    for (qi, result) in before.iter().enumerate() {
        assert_eq!(to_bits(&result.as_ref().unwrap().estimates), expected_a[qi]);
    }

    // Server-side hot-swap between two pipelined client requests.
    registry.swap_model("stats", model_b).expect("swap");

    let after = match client.call("stats", 1, &queries).expect("post-swap") {
        BatchOutcome::Served(results) => results,
        other => panic!("post-swap rejected: {other:?}"),
    };
    let epoch_b = after[0].as_ref().unwrap().model_epoch;
    assert!(
        epoch_b > epoch_a,
        "the epoch jump ({epoch_a} -> {epoch_b}) is the client's hot-swap signal"
    );
    for (qi, result) in after.iter().enumerate() {
        let est = result.as_ref().unwrap();
        assert_eq!(est.model_epoch, epoch_b);
        assert_eq!(
            to_bits(&est.estimates),
            expected_b[qi],
            "post-swap query {qi} served by the new model"
        );
    }
}

/// Queue-full shedding is all-or-nothing and therefore deterministic: a
/// batch larger than the shard queue is always refused whole, the
/// connection stays usable, and the shed shows up in the stats.
#[test]
fn overloaded_batch_is_shed_whole_and_counted() {
    let catalog = tiny_catalog();
    let model = Arc::new(train(&catalog, 20));
    let queries = workload(&catalog, 23);
    assert!(queries.len() >= 3, "need a batch larger than the queue");

    let (server, addr) = serve_one(
        Arc::clone(&model),
        ServerConfig::new(1).with_queue_capacity(2),
    );
    let mut client = FjClient::connect(addr).expect("connect");

    // 3 queries can never fit a 2-slot queue: shed regardless of timing.
    match client.call("stats", 1, &queries[..3]).expect("roundtrip") {
        BatchOutcome::Rejected { reason, .. } => {
            assert_eq!(reason, RejectReason::Overloaded);
        }
        BatchOutcome::Served(_) => panic!("impossible batch was served"),
    }
    // The connection survives the shed; a fitting batch is served.
    match client.call("stats", 1, &queries[..2]).expect("roundtrip") {
        BatchOutcome::Served(results) => assert_eq!(results.len(), 2),
        other => panic!("fitting batch rejected: {other:?}"),
    }

    let snap = server.stats("stats").expect("shard stats");
    assert_eq!(snap.shed, 3, "all 3 shed queries counted");
    assert_eq!(snap.requests, 2, "only the fitting batch was served");
}

/// Requests against a dataset the server does not shard are refused with
/// a distinct reason, and other datasets keep working on the same
/// connection.
#[test]
fn unknown_dataset_is_rejected_by_name() {
    let catalog = tiny_catalog();
    let model = Arc::new(train(&catalog, 15));
    let queries = workload(&catalog, 29);

    let (_server, addr) = serve_one(model, ServerConfig::new(1));
    let mut client = FjClient::connect(addr).expect("connect");

    match client.call("imdb", 1, &queries[..1]).expect("roundtrip") {
        BatchOutcome::Rejected { reason, message } => {
            assert_eq!(reason, RejectReason::UnknownDataset);
            assert!(
                message.contains("imdb"),
                "message names the dataset: {message}"
            );
        }
        BatchOutcome::Served(_) => panic!("unknown dataset was served"),
    }
    match client.call("stats", 1, &queries[..1]).expect("roundtrip") {
        BatchOutcome::Served(results) => assert_eq!(results.len(), 1),
        other => panic!("known dataset rejected after the refusal: {other:?}"),
    }
}

/// Two shards serve independent registries: each dataset answers with its
/// own model's bits, and the handshake lists both.
#[test]
fn shards_route_by_dataset() {
    let catalog = tiny_catalog();
    let model_a = Arc::new(train(&catalog, 20));
    let model_b = Arc::new(train(&catalog, 40));
    let queries = workload(&catalog, 31);
    let expected_a = expected_bits(&model_a, &queries, 1);
    let expected_b = expected_bits(&model_b, &queries, 1);

    let server = FjServer::bind(
        "127.0.0.1:0",
        vec![
            ShardSpec::new("coarse", Arc::clone(&model_a)),
            ShardSpec::new("fine", Arc::clone(&model_b)),
        ],
        ServerConfig::new(1),
    )
    .expect("bind");
    let mut client = FjClient::connect(server.local_addr()).expect("connect");
    assert_eq!(
        client.datasets(),
        ["coarse".to_string(), "fine".to_string()]
    );

    for (dataset, expected) in [("coarse", &expected_a), ("fine", &expected_b)] {
        match client.call(dataset, 1, &queries).expect("roundtrip") {
            BatchOutcome::Served(results) => {
                for (qi, result) in results.iter().enumerate() {
                    assert_eq!(
                        to_bits(&result.as_ref().unwrap().estimates),
                        expected[qi],
                        "dataset {dataset} query {qi}"
                    );
                }
            }
            other => panic!("dataset {dataset} rejected: {other:?}"),
        }
    }
}

/// Server shutdown disconnects clients (an error, never a hang) and a
/// dropped server releases its port.
#[test]
fn shutdown_disconnects_clients_cleanly() {
    let catalog = tiny_catalog();
    let model = Arc::new(train(&catalog, 15));
    let queries = workload(&catalog, 37);

    let (server, addr) = serve_one(Arc::clone(&model), ServerConfig::new(1));
    let mut client = FjClient::connect(addr).expect("connect");
    match client.call("stats", 1, &queries[..1]).expect("roundtrip") {
        BatchOutcome::Served(_) => {}
        other => panic!("warm-up rejected: {other:?}"),
    }

    server.shutdown();
    // The next roundtrip fails fast instead of hanging on a dead socket.
    let err = client
        .call("stats", 1, &queries[..1])
        .expect_err("server is gone");
    let _ = err; // any io error is acceptable; the point is not hanging

    // The port is free again.
    let rebound = std::net::TcpListener::bind(addr).expect("port released");
    drop(rebound);
}
