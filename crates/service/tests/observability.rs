//! Integration suite for the observability plane (the fj-obs tentpole):
//! end-to-end traces that pin a slow batch to its dominant stage, remote
//! metrics scrapes over the wire, and the shape of a two-shard
//! exposition. (Raw-frame
//! tests, such as the version handshake, live with the in-crate server
//! tests, which can speak the `pub(crate)` codec.)

use factorjoin::{BaseEstimatorKind, BinBudget, FactorJoinConfig, FactorJoinModel};
use fj_datagen::{stats_catalog, stats_ceb_workload, StatsConfig, WorkloadConfig};
use fj_query::Query;
use fj_service::{BatchOutcome, FjClient, FjServer, ServerConfig, ShardSpec};
use fj_storage::Catalog;
use std::collections::{HashMap, HashSet};
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

/// Pull `key=<digits>` out of a slowlog line.
fn slowlog_field(line: &str, key: &str) -> u64 {
    let needle = format!(" {key}=");
    let start = line.find(&needle).unwrap_or_else(|| {
        panic!("slowlog line is missing {key}: {line}");
    }) + needle.len();
    line[start..]
        .split(|c: char| c.is_whitespace())
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("unparsable {key} in: {line}"))
}

/// The headline acceptance criterion: flood a one-worker shard so a traced
/// batch spends its life queued, scrape the metrics plane **over the
/// wire**, and confirm the slow-query log carries the client-minted trace
/// id and pins the latency on queue wait — not estimation.
#[test]
fn traced_queue_delayed_batch_is_pinned_to_queue_wait() {
    let catalog = tiny_catalog();
    let model = Arc::new(train(&catalog, 20));
    let wl = workload(&catalog, 11);
    let flood: Vec<Query> = std::iter::repeat_with(|| wl.iter().cloned())
        .take(20)
        .flatten()
        .collect();
    const FLOOD_BATCHES: usize = 6;

    let server = FjServer::bind(
        "127.0.0.1:0",
        vec![ShardSpec::new("stats", Arc::clone(&model))],
        ServerConfig::new(1)
            .with_queue_capacity(FLOOD_BATCHES * flood.len() + 1)
            .with_slowlog_capacity(FLOOD_BATCHES + 2),
    )
    .expect("bind");
    let mut client = FjClient::connect(server.local_addr()).expect("connect");

    // Fill the single worker's queue, then send the traced one-query batch
    // that has to wait behind all of it.
    let flood_ids: Vec<u64> = (0..FLOOD_BATCHES)
        .map(|_| client.send("stats", 1, &flood).expect("send flood"))
        .collect();
    let (traced_id, trace_id) = client
        .send_traced("stats", 1, &wl[..1])
        .expect("send traced");
    assert_ne!(trace_id, 0, "a minted trace id is never the untraced 0");

    match client.recv(traced_id).expect("recv traced") {
        BatchOutcome::Served(results) => assert_eq!(results.len(), 1),
        other => panic!("the traced batch was not served: {other:?}"),
    }
    for id in flood_ids {
        assert!(matches!(
            client.recv(id).expect("recv flood"),
            BatchOutcome::Served(_)
        ));
    }

    // Scrape over the wire (the same text FjServer::metrics_text returns).
    // The collector records the encode/socket_write stages *after* writing
    // a response, so the client can hold the last reply before its stages
    // land — poll briefly until the metrics plane settles before comparing
    // the two scrape paths.
    let mut text = client.metrics().expect("scrape");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while text != server.metrics_text() {
        assert!(
            std::time::Instant::now() < deadline,
            "wire scrape never converged with the in-process scrape"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
        text = client.metrics().expect("scrape");
    }

    // The exposition covers counters, the latency histogram, and every
    // serving stage under one family.
    assert!(text.contains("# TYPE fj_requests_total counter"), "{text}");
    assert!(text.contains("# TYPE fj_request_latency_seconds histogram"));
    assert!(text.contains("# TYPE fj_stage_duration_seconds histogram"));
    for stage in [
        "admission",
        "queue_wait",
        "estimation",
        "encode",
        "socket_write",
    ] {
        let series =
            format!("fj_stage_duration_seconds_count{{dataset=\"stats\",stage=\"{stage}\"}}");
        assert!(text.contains(&series), "missing {series} in:\n{text}");
    }

    // The traced batch's slowlog entry: present, attributed to our trace,
    // and dominated by queue wait rather than estimation. The collector
    // offers the entry *after* writing the reply frame, so the client can
    // hold the response (and scrape) before the offer lands — poll with
    // the same bounded deadline as the convergence loop above.
    let needle = format!("trace_id={trace_id:#018x}");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !text
        .lines()
        .any(|l| l.starts_with("# slowlog") && l.contains(&needle))
    {
        assert!(
            std::time::Instant::now() < deadline,
            "no slowlog entry for {needle} in:\n{text}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
        text = client.metrics().expect("scrape");
    }
    let line = text
        .lines()
        .find(|l| l.starts_with("# slowlog") && l.contains(&needle))
        .expect("the poll above found it");
    assert!(line.contains("dataset=\"stats\""), "{line}");
    assert!(line.ends_with("dominant=queue_wait"), "{line}");
    let queue_wait = slowlog_field(line, "queue_wait_ns");
    let estimation = slowlog_field(line, "estimation_ns");
    assert!(
        queue_wait > estimation,
        "queued behind {FLOOD_BATCHES} flood batches, queue wait ({queue_wait}ns) \
         must dwarf the one-query estimation ({estimation}ns): {line}"
    );

    // The aggregate stage histograms agree with the per-request verdict:
    // under a flood, total queued time dwarfs total estimation time.
    let stage_sum = |stage: &str| -> f64 {
        let series =
            format!("fj_stage_duration_seconds_sum{{dataset=\"stats\",stage=\"{stage}\"}}");
        let line = text
            .lines()
            .find(|l| l.starts_with(&series))
            .unwrap_or_else(|| panic!("missing {series}"));
        line.rsplit(' ').next().unwrap().parse().expect("a float")
    };
    assert!(stage_sum("queue_wait") > stage_sum("estimation"));

    server.shutdown();
}

/// Two shards share one exposition: every family has exactly one
/// `# HELP` and one `# TYPE` line, no series (name plus label set)
/// repeats, and all five stages appear for both datasets. Per-shard
/// counters still account for every sub-plan, and the scrape answers
/// mid-drain.
#[test]
fn two_shard_exposition_is_well_formed() {
    let catalog = tiny_catalog();
    let model = Arc::new(train(&catalog, 20));
    let wl = workload(&catalog, 7);

    let mut server = FjServer::bind(
        "127.0.0.1:0",
        vec![
            ShardSpec::new("alpha", Arc::clone(&model)),
            ShardSpec::new("beta", Arc::clone(&model)),
        ],
        ServerConfig::new(2),
    )
    .expect("bind");
    let mut client = FjClient::connect(server.local_addr()).expect("connect");

    // Uneven traffic so the shards genuinely differ.
    for _ in 0..3 {
        assert!(matches!(
            client.call("alpha", 1, &wl).expect("alpha batch"),
            BatchOutcome::Served(_)
        ));
    }
    assert!(matches!(
        client.call("beta", 1, &wl[..2]).expect("beta batch"),
        BatchOutcome::Served(_)
    ));

    let alpha = server.stats("alpha").expect("alpha shard");
    assert!(
        alpha.cache_hits > 0,
        "alpha replayed the same workload 3x; repeats must hit the sub-plan cache"
    );
    assert_eq!(
        alpha.cache_hits + alpha.cache_misses,
        alpha.subplans,
        "every served sub-plan is either a cache hit or a counted miss"
    );

    // Both shards show up in one exposition, each with its own queue gauge.
    let text = server.metrics_text();
    assert!(text.contains("fj_queue_depth{dataset=\"alpha\"}"));
    assert!(text.contains("fj_queue_depth{dataset=\"beta\"}"));

    let mut helps: HashMap<&str, usize> = HashMap::new();
    let mut types: HashMap<&str, &str> = HashMap::new();
    let mut series = HashSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().expect("a family name");
            *helps.entry(name).or_default() += 1;
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("name and type");
            assert!(
                types.insert(name, kind).is_none(),
                "second # TYPE for {name}"
            );
        } else if !line.starts_with('#') {
            let (key, _) = line.rsplit_once(' ').expect("series and value");
            assert!(series.insert(key), "series {key} repeats in:\n{text}");
            let name = key.split('{').next().expect("a series name");
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| {
                    let base = name.strip_suffix(suffix)?;
                    (types.get(base) == Some(&"histogram")).then_some(base)
                })
                .unwrap_or(name);
            assert!(
                types.contains_key(family),
                "{key} precedes or lacks its family's # TYPE"
            );
        }
    }
    assert_eq!(
        helps.keys().collect::<HashSet<_>>(),
        types.keys().collect::<HashSet<_>>(),
        "every family has both headers"
    );
    for (name, count) in &helps {
        assert_eq!(*count, 1, "{name} has {count} # HELP lines");
    }
    for dataset in ["alpha", "beta"] {
        for stage in [
            "admission",
            "queue_wait",
            "estimation",
            "encode",
            "socket_write",
        ] {
            let key = format!(
                "fj_stage_duration_seconds_count{{dataset=\"{dataset}\",stage=\"{stage}\"}}"
            );
            assert!(series.contains(key.as_str()), "missing {key} in:\n{text}");
        }
    }

    // Metrics answer inline like health probes — including mid-drain, so
    // an operator can watch a drain finish.
    server.begin_drain();
    let drained = client.metrics().expect("scrape while draining");
    let expected = format!("fj_requests_total{{dataset=\"alpha\"}} {}", 3 * wl.len());
    assert!(drained.contains(&expected), "{drained}");

    server.shutdown();
}
