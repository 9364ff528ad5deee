//! Integration suite for the observability plane: the shape of a
//! two-shard exposition, scraped mid-drain. (Tests that hold a worker or
//! speak raw frames — the traced batch pinned to queue wait, the version
//! handshake — live with the in-crate server tests, which can reach the
//! registry seam and the `pub(crate)` codec.)

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
