//! Integration suite for the serving path's failure handling: health
//! probes, graceful drain, and queries the served model cannot answer. (End-to-end
//! deadlines and idle-connection reaping live with the in-crate server
//! tests, which can hold the shard's worker and watch the server's
//! connection list.)

use factorjoin::{BaseEstimatorKind, BinBudget, FactorJoinConfig, FactorJoinModel};
use fj_datagen::{stats_catalog, stats_ceb_workload, StatsConfig, WorkloadConfig};
use fj_query::{ColRef, FilterExpr, JoinPredicate, Predicate, Query, TableRef};
use fj_service::{
    BatchOutcome, EstimatorService, FjClient, FjServer, RejectReason, ServerConfig, ShardSpec,
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

/// Queries the served model cannot answer — a table it lacks, a join
/// column index past a table's schema, a filter on a column the table
/// lacks — each resolve their own slot with an error naming the table or
/// column, in process and over TCP. They are refused before estimation,
/// so no worker panics; sibling queries and later batches are served.
#[test]
fn queries_the_model_lacks_are_refused_by_name() {
    let catalog = tiny_catalog();
    let model = Arc::new(train(&catalog, 20));
    let queries = workload(&catalog, 47);

    // from_wire_parts sees no catalog (the server's model is the
    // receiver's source of truth), so these model a client bound against
    // a different schema.
    let unknown_table = Query::from_wire_parts(
        vec![TableRef::new("z", "no_such_table")],
        vec![],
        vec![FilterExpr::True],
    )
    .expect("structurally valid");
    let column_past_schema = Query::from_wire_parts(
        vec![TableRef::new("p", "posts"), TableRef::new("u", "users")],
        vec![JoinPredicate {
            left: ColRef {
                alias: 0,
                column: 99,
            },
            right: ColRef {
                alias: 1,
                column: 0,
            },
        }],
        vec![FilterExpr::True; 2],
    )
    .expect("structurally valid");
    let unknown_filter_column = Query::from_wire_parts(
        vec![TableRef::new("p", "posts")],
        vec![],
        vec![FilterExpr::pred(Predicate::eq("no_such_column", 1))],
    )
    .expect("structurally valid");
    let batch = vec![
        queries[0].clone(),
        unknown_table,
        column_past_schema,
        unknown_filter_column,
        queries[1].clone(),
    ];
    let named = [
        "unknown table no_such_table",
        "table posts has no column #99",
        "unknown column p.no_such_column",
    ];
    let check = |errors: Vec<Option<String>>| {
        assert_eq!(errors.len(), batch.len());
        assert!(errors[0].is_none(), "sibling before the refusals served");
        assert!(errors[4].is_none(), "sibling after the refusals served");
        for (error, name) in errors[1..4].iter().zip(named) {
            let error = error.as_deref().expect("refused");
            assert!(error.contains(name), "{error:?} names {name:?}");
        }
    };

    let service = EstimatorService::serve("stats", Arc::clone(&model), 1);
    let results = service.submit_batch(&batch).wait_all();
    check(
        results
            .iter()
            .map(|r| r.as_ref().err().map(|e| e.to_string()))
            .collect(),
    );
    let snap = service.stats();
    assert_eq!((snap.errors, snap.worker_panics), (3, 0));

    let (server, addr) = serve_one(Arc::clone(&model), ServerConfig::new(1));
    let mut client = FjClient::connect(addr).expect("connect");
    match client.call("stats", 1, &batch).expect("roundtrip") {
        BatchOutcome::Served(results) => check(results.into_iter().map(Result::err).collect()),
        other => panic!("batch rejected: {other:?}"),
    }
    let snap = server.stats("stats").expect("shard stats");
    assert_eq!((snap.errors, snap.worker_panics), (3, 0));
    match client.call("stats", 1, &queries[..2]).expect("roundtrip") {
        BatchOutcome::Served(results) => assert!(results.iter().all(|r| r.is_ok())),
        other => panic!("later batch rejected: {other:?}"),
    }
}
