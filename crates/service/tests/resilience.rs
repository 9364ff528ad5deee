//! Integration suite for the serving path's failure handling: health
//! probes, graceful drain, and worker-panic containment. (End-to-end
//! deadlines and idle-connection reaping live with the in-crate server
//! tests, which can hold the shard's worker and watch the server's
//! connection list.)

use factorjoin::{BaseEstimatorKind, BinBudget, FactorJoinConfig, FactorJoinModel};
use fj_datagen::{stats_catalog, stats_ceb_workload, StatsConfig, WorkloadConfig};
use fj_query::{FilterExpr, Query, TableRef};
use fj_service::{BatchOutcome, FjClient, FjServer, RejectReason, ServerConfig, ShardSpec};
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

fn serve_one(
    model: Arc<FactorJoinModel>,
    config: ServerConfig,
) -> (FjServer, std::net::SocketAddr) {
    let server = FjServer::bind("127.0.0.1:0", vec![ShardSpec::new("stats", model)], config)
        .expect("bind loopback");
    let addr = server.local_addr();
    (server, addr)
}

/// Health probes report per-shard load and the drain flag; draining keeps
/// answering probes and in-flight work, but rejects new batches and
/// refuses new connections.
#[test]
fn health_probe_and_graceful_drain() {
    let catalog = tiny_catalog();
    let model = Arc::new(train(&catalog, 20));
    let queries = workload(&catalog, 41);

    let (mut server, addr) = serve_one(Arc::clone(&model), ServerConfig::new(2));
    let mut client = FjClient::connect(addr).expect("connect");

    let report = client.health().expect("health probe");
    assert!(!report.draining, "fresh server is not draining");
    assert_eq!(report.shards.len(), 1);
    let shard = &report.shards[0];
    assert_eq!(shard.dataset, "stats");
    assert!(shard.model_epoch >= 1, "a model is published");
    assert!(shard.queue_capacity > 0);
    assert!(shard.queue_depth <= shard.queue_capacity);

    // Probes interleave with pipelined batches without stealing frames.
    let id = client.send("stats", 1, &queries[..2]).expect("send");
    let report = client.health().expect("health mid-batch");
    assert!(!report.draining);
    match client.recv(id).expect("recv after probe") {
        BatchOutcome::Served(results) => assert_eq!(results.len(), 2),
        other => panic!("batch rejected: {other:?}"),
    }

    server.begin_drain();
    assert!(server.is_draining());

    // The established connection still answers health — now reporting the
    // drain so the client knows to fail over.
    let report = client.health().expect("health while draining");
    assert!(report.draining, "drain is visible in the probe");

    // New batches on the surviving connection are rejected, not hung.
    match client.call("stats", 1, &queries[..1]).expect("roundtrip") {
        BatchOutcome::Rejected { reason, message } => {
            assert_eq!(reason, RejectReason::ShuttingDown);
            assert!(
                message.contains("drain") || message.contains("shut"),
                "message explains the refusal: {message}"
            );
        }
        BatchOutcome::Served(_) => panic!("draining server accepted a batch"),
    }

    // Fresh connections are refused at the TCP layer.
    assert!(
        FjClient::connect(addr).is_err(),
        "draining server must not accept new connections"
    );
    server.shutdown();
}

/// A query that panics the estimator (here: a structurally valid wire
/// query naming a table the model never saw) resolves its own slot with a
/// clear error; sibling queries in the same batch and all later batches
/// are served normally, and the panic shows up in the stats.
#[test]
fn worker_panic_is_contained_to_its_slot() {
    let catalog = tiny_catalog();
    let model = Arc::new(train(&catalog, 20));
    let queries = workload(&catalog, 47);

    // from_wire_parts skips catalog validation by design (the server's
    // model is the receiver's source of truth), so this models a client
    // bound against a different schema.
    let bogus = Query::from_wire_parts(
        vec![TableRef::new("z", "no_such_table")],
        vec![],
        vec![FilterExpr::True],
    )
    .expect("structurally valid");

    let (server, addr) = serve_one(Arc::clone(&model), ServerConfig::new(1));
    let mut client = FjClient::connect(addr).expect("connect");

    let batch = vec![queries[0].clone(), bogus, queries[1].clone()];
    match client.call("stats", 1, &batch).expect("roundtrip") {
        BatchOutcome::Served(results) => {
            assert_eq!(results.len(), 3);
            assert!(results[0].is_ok(), "sibling before the panic served");
            assert!(results[2].is_ok(), "sibling after the panic served");
            let msg = results[1].as_ref().expect_err("bogus query must fail");
            assert!(
                msg.contains("panicked"),
                "slot error names the panic: {msg}"
            );
        }
        other => panic!("batch rejected: {other:?}"),
    }

    let snap = server.stats("stats").expect("shard stats");
    assert_eq!(snap.worker_panics, 1, "the panic is counted");

    // The worker rebuilt its scratch and keeps serving.
    match client.call("stats", 1, &queries[..2]).expect("roundtrip") {
        BatchOutcome::Served(results) => assert!(results.iter().all(|r| r.is_ok())),
        other => panic!("post-panic batch rejected: {other:?}"),
    }
}
