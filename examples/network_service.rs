//! The network serving tier end-to-end: train, bind an `FjServer` on a
//! loopback port, and talk to it through `FjClient` — multiplexed
//! pipelined batches, a hot-swap detected by its epoch jump, admission
//! control rejecting an oversized batch instead of hanging the
//! connection, a health probe, a traced request scraped back out of the
//! metrics plane, and a graceful drain (see `ARCHITECTURE.md`, "Network
//! serving tier", "Observability", and "Failure model & resilience").
//!
//! ```sh
//! cargo run --release --example network_service
//! FJ_WORKERS=8 cargo run --release --example network_service
//! ```

use factorjoin::{BaseEstimatorKind, BinBudget, FactorJoinConfig, FactorJoinModel};
use fj_datagen::{stats_catalog, stats_ceb_workload, StatsConfig, WorkloadConfig};
use fj_service::{
    BatchOutcome, ClientConfig, FjClient, FjServer, ModelRegistry, RejectReason, RetryPolicy,
    ServerConfig, ShardSpec,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[path = "util/scale.rs"]
mod util;
use util::fj_scale;

fn main() {
    let workers: usize = std::env::var("FJ_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let catalog = stats_catalog(&StatsConfig {
        scale: fj_scale(),
        ..Default::default()
    });
    let train_cfg = FactorJoinConfig {
        bin_budget: BinBudget::Uniform(100),
        estimator: BaseEstimatorKind::TrueScan,
        ..Default::default()
    };
    let model = Arc::new(FactorJoinModel::train(&catalog, train_cfg.clone()));
    let queries = stats_ceb_workload(&catalog, &WorkloadConfig::tiny(5));
    println!(
        "trained on {} rows; workload of {} queries",
        catalog.total_rows(),
        queries.len()
    );

    // Bind an ephemeral loopback port. Keeping a clone of the registry
    // lets this process hot-swap models while the server runs; a small
    // queue makes the admission-control demo below deterministic.
    let registry = Arc::new(ModelRegistry::new());
    let first_epoch = registry.publish("stats", Arc::clone(&model));
    let queue_capacity = 2 * queries.len();
    let server = FjServer::bind(
        "127.0.0.1:0",
        vec![ShardSpec::with_registry("stats", Arc::clone(&registry))],
        ServerConfig::new(workers).with_queue_capacity(queue_capacity),
    )
    .expect("bind loopback");
    println!("fj-server listening on {}", server.local_addr());

    // Connect with explicit resilience knobs: a bounded connect, a per-call
    // budget that rides to the server as the wire deadline (the server
    // sheds work whose caller stopped waiting), and opt-in retries for
    // transport errors and Overloaded rejections. Then pipeline the
    // workload: every batch in flight before the first response is read,
    // multiplexed by request id on one socket.
    let client_config = ClientConfig::default()
        .with_connect_timeout(Some(Duration::from_secs(2)))
        .with_request_timeout(Some(Duration::from_secs(10)))
        .with_retry(RetryPolicy::retries(3));
    let mut client = FjClient::connect_with(server.local_addr(), client_config).expect("connect");
    println!("handshake: server offers datasets {:?}", client.datasets());
    let started = Instant::now();
    let ids: Vec<u64> = queries
        .iter()
        .map(|q| {
            client
                .send("stats", 1, std::slice::from_ref(q))
                .expect("send")
        })
        .collect();
    let mut subplans = 0usize;
    for id in &ids {
        match client.recv(*id).expect("recv") {
            BatchOutcome::Served(results) => {
                subplans += results
                    .iter()
                    .map(|r| r.as_ref().expect("served").estimates.len())
                    .sum::<usize>();
            }
            BatchOutcome::Rejected { reason, message } => {
                panic!("pipelined batch rejected ({reason}): {message}")
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "pipelined {} single-query batches → {} sub-plan estimates in {:.0}µs \
         ({:.0} sub-plans/s), all epoch {}",
        ids.len(),
        subplans,
        elapsed * 1e6,
        subplans as f64 / elapsed,
        first_epoch
    );

    // Hot-swap a retrained model server-side; the client sees the swap as
    // an epoch jump on its very next response — no reconnect, no pause.
    let retrained = Arc::new(FactorJoinModel::train(&catalog, train_cfg));
    registry
        .swap_model("stats", retrained)
        .expect("dataset registered");
    match client.call("stats", 1, &queries).expect("post-swap call") {
        BatchOutcome::Served(results) => {
            let epoch = results[0].as_ref().expect("served").model_epoch;
            println!("hot-swap detected over TCP: epoch {first_epoch} → {epoch}");
            assert!(epoch > first_epoch, "swap must raise the epoch");
        }
        BatchOutcome::Rejected { reason, message } => {
            panic!("post-swap batch rejected ({reason}): {message}")
        }
    }

    // Admission control: a batch larger than the shard queue can never be
    // enqueued whole, so it is shed — an explicit rejection frame, not a
    // blocked connection. (The retry policy backs off and retries the
    // Overloaded verdict a few times; an impossible batch stays shed, so
    // the exhausted policy surfaces the final rejection — the client's cue
    // to split the batch.)
    let oversized: Vec<_> = std::iter::repeat_with(|| queries.iter().cloned())
        .take(queue_capacity / queries.len() + 2)
        .flatten()
        .collect();
    match client.call("stats", 1, &oversized).expect("oversized call") {
        BatchOutcome::Rejected { reason, message } => {
            assert_eq!(reason, RejectReason::Overloaded);
            println!(
                "admission control shed a {}-query batch (queue holds {}): {message}",
                oversized.len(),
                queue_capacity
            );
        }
        BatchOutcome::Served(_) => panic!("an impossible batch was served"),
    }

    // Health probe: per-shard queue depth and model epoch, plus the drain
    // flag — the fail-over signal a load balancer would poll.
    let health = client.health().expect("health probe");
    println!(
        "health: draining={}, shard {:?} epoch {} queue {}/{}",
        health.draining,
        health.shards[0].dataset,
        health.shards[0].model_epoch,
        health.shards[0].queue_depth,
        health.shards[0].queue_capacity,
    );

    let snap = server.stats("stats").expect("stats shard");
    println!(
        "shard stats: {} requests, {} sub-plans, {} shed, {} rejected",
        snap.requests, snap.subplans, snap.shed, snap.rejected,
    );

    // Observability: send one traced request (the client mints the trace
    // id), then scrape the whole server as Prometheus text over the same
    // socket. The slow-query log rides along as `# slowlog` comment lines
    // and pins our trace to its dominant stage.
    let (traced, trace_id) = client
        .send_traced("stats", 1, &queries[..1])
        .expect("send traced");
    match client.recv(traced).expect("recv traced") {
        BatchOutcome::Served(_) => {}
        BatchOutcome::Rejected { reason, message } => {
            panic!("traced batch rejected ({reason}): {message}")
        }
    }
    // The server offers a request to the slow-query log only *after* it
    // has written the reply frame, so a scrape can overtake the entry:
    // poll, bounded, until the traced line shows.
    let needle = format!("trace_id={trace_id:#018x}");
    let deadline = Instant::now() + Duration::from_secs(5);
    let (text, slow) = loop {
        let text = client.metrics().expect("metrics scrape");
        let slow = text
            .lines()
            .find(|l| l.starts_with("# slowlog") && l.contains(&needle))
            .map(str::to_string);
        if let Some(slow) = slow {
            break (text, slow);
        }
        assert!(
            Instant::now() < deadline,
            "traced request {needle} never reached the slow-query log; last scrape:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    let requests_line = text
        .lines()
        .find(|l| l.starts_with("fj_requests_total"))
        .expect("requests counter exposed");
    println!(
        "scraped {} bytes of exposition; {requests_line}",
        text.len()
    );
    println!("slowlog pins the traced request: {slow}");

    // Graceful drain: stop accepting, finish in-flight, reject new batches
    // with ShuttingDown — but keep answering health probes so clients know
    // to fail over instead of wondering why the socket went quiet.
    let mut server = server;
    server.begin_drain();
    let health = client.health().expect("health while draining");
    assert!(health.draining, "drain must be visible in the probe");
    match client.call("stats", 1, &queries[..1]).expect("drain call") {
        BatchOutcome::Rejected { reason, .. } => {
            assert_eq!(reason, RejectReason::ShuttingDown);
            println!("draining: new batches rejected with {reason}, health still answered");
        }
        BatchOutcome::Served(_) => panic!("draining server accepted a batch"),
    }

    server.shutdown();
    println!("server shut down cleanly");
}
