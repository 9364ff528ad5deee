//! Integration suite for the estimation service: concurrent correctness,
//! hot-swap under load, and persist → load → serve.

use factorjoin::{
    load_model, save_model, BaseEstimatorKind, BinBudget, FactorJoinConfig, FactorJoinModel,
    ModelDelta,
};
use fj_datagen::{
    stats_catalog, stats_catalog_split_by_date, stats_ceb_workload, StatsConfig, WorkloadConfig,
};
use fj_query::Query;
use fj_service::{EstimatorService, ModelRegistry, ServiceConfig};
use fj_storage::Catalog;
use std::sync::atomic::{AtomicBool, Ordering};
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

/// Bit-exact expected estimates per query, computed on the calling thread
/// through the same public entry point the workers use.
fn expected_bits(model: &FactorJoinModel, queries: &[Query]) -> Vec<Vec<(u64, u64)>> {
    queries
        .iter()
        .map(|q| {
            model
                .estimate_subplans(q, 1)
                .into_iter()
                .map(|(m, e)| (m, e.to_bits()))
                .collect()
        })
        .collect()
}

fn to_bits(estimates: &[(u64, f64)]) -> Vec<(u64, u64)> {
    estimates.iter().map(|&(m, e)| (m, e.to_bits())).collect()
}

/// N client threads hammering the pool concurrently must get estimates
/// that are bit-identical to the single-threaded `estimate_subplans` path
/// — the concurrent-correctness contract of the acceptance criteria.
#[test]
fn concurrent_estimates_bit_identical_to_single_threaded() {
    let catalog = tiny_catalog();
    let model = Arc::new(train(&catalog, 25));
    let queries = workload(&catalog, 11);
    let expected = Arc::new(expected_bits(&model, &queries));
    let queries = Arc::new(queries);

    let service = Arc::new(EstimatorService::serve("stats", Arc::clone(&model), 4));
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let service = Arc::clone(&service);
            let queries = Arc::clone(&queries);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                // Interleave single submits and batches, repeated passes.
                for pass in 0..5 {
                    if (c + pass) % 2 == 0 {
                        for (qi, q) in queries.iter().enumerate() {
                            let resp = service.submit(q.clone()).wait().expect("served");
                            assert_eq!(
                                to_bits(&resp.estimates),
                                expected[qi],
                                "client {c} pass {pass} query {qi}"
                            );
                        }
                    } else {
                        let responses = service.submit_batch(&queries).wait_all();
                        for (qi, resp) in responses.into_iter().enumerate() {
                            let resp = resp.expect("served");
                            assert_eq!(
                                to_bits(&resp.estimates),
                                expected[qi],
                                "client {c} pass {pass} query {qi} (batch)"
                            );
                        }
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    let snap = service.stats();
    let per_client = 5 * queries.len() as u64;
    assert_eq!(snap.requests, 4 * per_client);
    assert_eq!(snap.errors, 0);
    assert!(snap.subplans >= snap.requests, "every query has a sub-plan");
}

/// Hot-swapping models while clients hammer the service never panics and
/// never mixes models: every response is bit-identical to one of the two
/// models' outputs, and the response's epoch says which one.
#[test]
fn hot_swap_under_load_never_mixes_models() {
    let catalog = tiny_catalog();
    let model_a = Arc::new(train(&catalog, 20));
    let model_b = Arc::new(train(&catalog, 40));
    let queries = Arc::new(workload(&catalog, 13));
    let expected_a = Arc::new(expected_bits(&model_a, &queries));
    let expected_b = Arc::new(expected_bits(&model_b, &queries));

    let registry = Arc::new(ModelRegistry::new());
    let epoch_a = registry.publish("stats", Arc::clone(&model_a));
    let service = Arc::new(EstimatorService::start(
        Arc::clone(&registry),
        ServiceConfig::new("stats", 3),
    ));

    let stop = Arc::new(AtomicBool::new(false));
    // The swapper reports its first swap, and the clients start only after
    // it: on a loaded machine they could otherwise finish every pass
    // before the swapper is ever scheduled, and the test would check
    // nothing.
    let (first_swap_tx, first_swap_rx) = std::sync::mpsc::channel();
    let swapped_epochs = {
        // Swapper: flip between the two models while clients run.
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&stop);
        let (a, b) = (Arc::clone(&model_a), Arc::clone(&model_b));
        std::thread::spawn(move || {
            let mut epochs = vec![];
            let mut to_b = true;
            while !stop.load(Ordering::Relaxed) {
                let next = if to_b { Arc::clone(&b) } else { Arc::clone(&a) };
                assert!(registry.swap_model("stats", next).is_some());
                epochs.push(registry.get("stats").expect("registered").epoch);
                if epochs.len() == 1 {
                    first_swap_tx.send(()).expect("main thread waits");
                }
                to_b = !to_b;
                std::thread::yield_now();
            }
            epochs
        })
    };
    first_swap_rx.recv().expect("swapper made its first swap");

    let clients: Vec<_> = (0..3)
        .map(|c| {
            let service = Arc::clone(&service);
            let queries = Arc::clone(&queries);
            let (ea, eb) = (Arc::clone(&expected_a), Arc::clone(&expected_b));
            std::thread::spawn(move || {
                for pass in 0..6 {
                    let responses = service.submit_batch(&queries).wait_all();
                    for (qi, resp) in responses.into_iter().enumerate() {
                        let resp = resp.expect("served during swap");
                        let bits = to_bits(&resp.estimates);
                        let matches_a = bits == ea[qi];
                        let matches_b = bits == eb[qi];
                        assert!(
                            matches_a || matches_b,
                            "client {c} pass {pass} query {qi}: \
                             response matches neither model (epoch {})",
                            resp.model_epoch
                        );
                        // Epoch parity identifies the model: A was published
                        // first, then swaps alternate B, A, B, … so any
                        // response claiming A's lineage must match A, etc.
                        // (A and B may coincide on some query; only assert
                        // when they differ.)
                        if matches_a != matches_b {
                            assert_eq!(
                                (resp.model_epoch - epoch_a).is_multiple_of(2),
                                matches_a,
                                "client {c} pass {pass} query {qi}: \
                                 epoch {} does not match the model that answered",
                                resp.model_epoch
                            );
                        }
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread survived hot-swapping");
    }
    stop.store(true, Ordering::Relaxed);
    let epochs = swapped_epochs.join().expect("swapper thread");
    assert!(!epochs.is_empty(), "at least one swap happened under load");
    assert!(epochs.windows(2).all(|w| w[0] < w[1]), "epochs increase");
    assert_eq!(service.stats().errors, 0);
}

/// Satellite: persist → load → serve. A model loaded from disk must serve
/// estimates bit-identical to the in-memory model it was saved from.
#[test]
fn persisted_model_serves_identically() {
    let catalog = tiny_catalog();
    let model = train(&catalog, 30);
    let queries = workload(&catalog, 17);
    let expected = expected_bits(&model, &queries);

    let dir = std::env::temp_dir().join("fj_service_persist_test");
    std::fs::create_dir_all(&dir).unwrap();
    // Both load paths must serve bit-identically: the registry's own
    // cold-start loader and load_model + publish.
    for via_registry in [true, false] {
        let path = dir.join("model.fjm");
        save_model(&model, &path).expect("save");
        let registry = Arc::new(ModelRegistry::new());
        if via_registry {
            registry
                .load_and_publish("stats", &path, &catalog)
                .expect("load_and_publish");
        } else {
            let loaded = load_model(&path, &catalog).expect("load");
            registry.publish("stats", Arc::new(loaded));
        }
        std::fs::remove_file(&path).ok();
        let service =
            EstimatorService::start(Arc::clone(&registry), ServiceConfig::new("stats", 2));
        let responses = service.submit_batch(&queries).wait_all();
        for (qi, resp) in responses.into_iter().enumerate() {
            let resp = resp.expect("served");
            assert_eq!(
                to_bits(&resp.estimates),
                expected[qi],
                "via_registry={via_registry}: loaded model diverges from the saved one on query {qi}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Incremental updates under load (paper §4.3 meets serving): while
/// clients hammer the pool, `ModelRegistry::apply_insert` absorbs a
/// staged insert batch by cloning the served model, delta-updating the
/// copy, and hot-swapping it in. No request errors, no torn model: every
/// response is bit-identical to either the stale or the updated model,
/// the epoch says which, and once the swap's epoch is visible every later
/// response comes from the updated statistics.
#[test]
fn apply_insert_absorbs_updates_under_load() {
    let cfg = StatsConfig {
        scale: 0.03,
        ..Default::default()
    };
    // Train on the pre-split data, stage the post-split rows as the delta.
    let (mut catalog, inserts) = stats_catalog_split_by_date(&cfg, 3285);
    let stale = Arc::new(train(&catalog, 25));
    let mut delta = ModelDelta::new();
    for (tname, rows) in &inserts {
        let first = catalog.table(tname).unwrap().nrows();
        catalog.table_mut(tname).unwrap().append_rows(rows).unwrap();
        delta.record(catalog.table(tname).unwrap(), first);
    }
    assert!(delta.rows() > 0, "the split staged some inserts");
    let updated_oracle = stale.updated_with(&catalog, &delta);

    let queries = Arc::new(workload(&catalog, 23));
    let expected_stale = Arc::new(expected_bits(&stale, &queries));
    let expected_updated = Arc::new(expected_bits(&updated_oracle, &queries));

    let registry = Arc::new(ModelRegistry::new());
    let stale_epoch = registry.publish("stats", Arc::clone(&stale));
    let service = Arc::new(EstimatorService::start(
        Arc::clone(&registry),
        ServiceConfig::new("stats", 3),
    ));

    // Updater: absorb the delta mid-load, once.
    let swap_epoch = {
        let registry = Arc::clone(&registry);
        let catalog = catalog.clone();
        let delta = delta.clone();
        std::thread::spawn(move || {
            registry
                .apply_insert("stats", &catalog, &delta)
                .expect("dataset registered")
        })
    };

    let clients: Vec<_> = (0..3)
        .map(|c| {
            let service = Arc::clone(&service);
            let queries = Arc::clone(&queries);
            let (es, eu) = (Arc::clone(&expected_stale), Arc::clone(&expected_updated));
            std::thread::spawn(move || {
                for pass in 0..6 {
                    let responses = service.submit_batch(&queries).wait_all();
                    for (qi, resp) in responses.into_iter().enumerate() {
                        let resp = resp.expect("served during update");
                        let bits = to_bits(&resp.estimates);
                        let is_stale = bits == es[qi];
                        let is_updated = bits == eu[qi];
                        assert!(
                            is_stale || is_updated,
                            "client {c} pass {pass} query {qi}: torn model \
                             (epoch {})",
                            resp.model_epoch
                        );
                        // The epoch identifies which model answered (when
                        // the two models actually differ on the query).
                        if is_stale != is_updated {
                            assert_eq!(
                                resp.model_epoch > stale_epoch,
                                is_updated,
                                "client {c} pass {pass} query {qi}: epoch \
                                 {} disagrees with the answering model",
                                resp.model_epoch
                            );
                        }
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread survived the update");
    }
    let swap_epoch = swap_epoch.join().expect("updater thread");
    assert!(swap_epoch > stale_epoch);
    assert_eq!(service.stats().errors, 0);

    // Steady state after the swap: responses come from the updated model.
    let resp = service.submit(queries[0].clone()).wait().expect("served");
    assert_eq!(resp.model_epoch, swap_epoch);
    assert_eq!(to_bits(&resp.estimates), expected_updated[0]);

    // The swap's epoch fences the sub-plan cache: the submit above either
    // hit an entry written under swap_epoch or inserted one, so an
    // immediate repeat is a guaranteed cache hit — and it must still
    // carry the **updated** model's bits, never a pre-swap estimate.
    let hits_before = service.stats().cache_hits;
    let repeat = service.submit(queries[0].clone()).wait().expect("served");
    assert_eq!(repeat.model_epoch, swap_epoch);
    assert_eq!(
        to_bits(&repeat.estimates),
        expected_updated[0],
        "a cache hit after the epoch bump must serve post-swap statistics"
    );
    assert!(
        service.stats().cache_hits > hits_before,
        "the repeat under a settled epoch is served from the cache"
    );
}

/// Sub-plan cache acceptance: for **every estimator backend**, a cache
/// hit is bit-identical (`f64::to_bits`) to the miss that populated it.
/// The first pass misses and fills the cache; the second pass must be
/// served entirely from it, and both passes must equal the
/// single-threaded oracle exactly.
#[test]
fn cache_hit_is_bit_identical_to_miss_for_every_backend() {
    let catalog = tiny_catalog();
    let backends = [
        ("true_scan", BaseEstimatorKind::TrueScan),
        (
            "bayes_net",
            BaseEstimatorKind::BayesNet(fj_stats::BnConfig::default()),
        ),
        ("sampling", BaseEstimatorKind::Sampling { rate: 0.5 }),
    ];
    for (name, estimator) in backends {
        let model = Arc::new(FactorJoinModel::train(
            &catalog,
            FactorJoinConfig {
                bin_budget: BinBudget::Uniform(20),
                estimator,
                ..Default::default()
            },
        ));
        let queries = workload(&catalog, 29);
        let expected = expected_bits(&model, &queries);
        let service = EstimatorService::serve(name, Arc::clone(&model), 2);

        let first: Vec<_> = service
            .submit_batch(&queries)
            .wait_all()
            .into_iter()
            .map(|r| to_bits(&r.expect("served (miss pass)").estimates))
            .collect();
        let after_fill = service.stats();
        assert!(
            after_fill.cache_misses > 0,
            "{name}: the cold pass must populate the cache"
        );

        let second: Vec<_> = service
            .submit_batch(&queries)
            .wait_all()
            .into_iter()
            .map(|r| to_bits(&r.expect("served (hit pass)").estimates))
            .collect();
        let after_replay = service.stats();

        for (qi, exp) in expected.iter().enumerate() {
            assert_eq!(&first[qi], exp, "{name}: miss pass diverges on query {qi}");
            assert_eq!(
                second[qi], first[qi],
                "{name}: cache hit is not bit-identical to the miss on query {qi}"
            );
        }
        let replayed_subplans: u64 = expected.iter().map(|e| e.len() as u64).sum();
        assert_eq!(
            after_replay.cache_hits - after_fill.cache_hits,
            replayed_subplans,
            "{name}: the replay pass must be served entirely from the cache"
        );
        assert_eq!(
            after_replay.cache_misses, after_fill.cache_misses,
            "{name}: no new misses on the replay pass"
        );
    }
}

/// The cache's soundness contract across queries, over three STATS-CEB and
/// three IMDB-JOB workloads (the paper-sized one and two small seeds each;
/// IMDB adds cyclic joins, `LIKE` and self-joins):
/// * an alias-renamed copy of every query shares every `(mask,
///   fingerprint)` key with it and gets the same `f64::to_bits` from every
///   backend, so the check is never vacuous;
/// * queries that differ in a table, a filter or a join share no key:
///   each query against its copies with one table renamed, one filter
///   wrapped in an `AND`, or the join list reversed, and every pair of
///   workload queries whose content differs.
#[test]
fn equal_cache_keys_are_bit_identical_across_queries() {
    use fj_datagen::{imdb_catalog, imdb_job_workload, ImdbConfig};
    use fj_query::{subplan_fingerprints, FilterExpr, TableRef};
    use std::collections::HashMap;
    const SEED: u64 = 0x5eed;
    let stats = tiny_catalog();
    let imdb = imdb_catalog(&ImdbConfig {
        scale: 0.05,
        ..Default::default()
    });
    let stats_workload: fn(&Catalog, &WorkloadConfig) -> Vec<Query> = stats_ceb_workload;
    // A copy of `q` with its tables, joins and filters edited.
    let edit = |q: &Query,
                tables: &dyn Fn(usize, &TableRef) -> TableRef,
                joins: &dyn Fn(&[fj_query::JoinPredicate]) -> Vec<fj_query::JoinPredicate>,
                filters: &dyn Fn(usize, &FilterExpr) -> FilterExpr| {
        Query::from_wire_parts(
            q.tables()
                .iter()
                .enumerate()
                .map(|(i, t)| tables(i, t))
                .collect(),
            joins(q.joins()),
            q.filters()
                .iter()
                .enumerate()
                .map(|(i, f)| filters(i, f))
                .collect(),
        )
        .expect("an edit keeps the query well formed")
    };
    let same_joins = |joins: &[fj_query::JoinPredicate]| joins.to_vec();
    let same_filter = |_: usize, f: &FilterExpr| f.clone();
    for (dataset, catalog, generate, paper) in [
        ("stats", &stats, stats_workload, WorkloadConfig::stats_ceb()),
        ("imdb", &imdb, imdb_job_workload, WorkloadConfig::imdb_job()),
    ] {
        let queries: Vec<Query> = [paper, WorkloadConfig::tiny(3), WorkloadConfig::tiny(17)]
            .iter()
            .flat_map(|config| generate(catalog, config))
            .collect();
        let renamed: Vec<Query> = (queries.iter())
            .map(|q| {
                let alias = |i: usize, t: &TableRef| TableRef::new(&format!("r{i}"), &t.table);
                edit(q, &alias, &same_joins, &same_filter)
            })
            .collect();
        for (q, copy) in queries.iter().zip(&renamed) {
            assert_eq!(
                subplan_fingerprints(q, 1, SEED),
                subplan_fingerprints(copy, 1, SEED),
                "{dataset}: renaming aliases moved a key"
            );
            let table = |i: usize, t: &TableRef| {
                let name = if i == 0 {
                    format!("{}_", t.table)
                } else {
                    t.table.clone()
                };
                TableRef::new(&t.alias, &name)
            };
            let filter = |i: usize, f: &FilterExpr| match i {
                0 => FilterExpr::And(vec![f.clone()]),
                _ => f.clone(),
            };
            let reversed =
                |joins: &[fj_query::JoinPredicate]| joins.iter().rev().copied().collect();
            let mut edits = vec![
                edit(q, &|_, t| t.clone(), &same_joins, &filter),
                edit(q, &table, &same_joins, &same_filter),
            ];
            if q.joins().len() > 1 {
                edits.push(edit(q, &|_, t| t.clone(), &reversed, &same_filter));
            }
            for edited in &edits {
                assert_ne!(
                    fj_query::query_fingerprint(q, SEED),
                    fj_query::query_fingerprint(edited, SEED),
                    "{dataset}: an edit of a table, filter or join kept the key"
                );
            }
        }
        // Distinct content, distinct fingerprint: alias names are all the
        // renamed copies have in common beyond it.
        let mut by_key: HashMap<u64, &Query> = HashMap::new();
        for copy in &renamed {
            let first = *by_key
                .entry(fj_query::query_fingerprint(copy, SEED))
                .or_insert(copy);
            assert_eq!(first, copy, "{dataset}: two queries share a key");
        }
        for estimator in [
            BaseEstimatorKind::TrueScan,
            BaseEstimatorKind::BayesNet(fj_stats::BnConfig::default()),
            BaseEstimatorKind::Sampling { rate: 0.5 },
        ] {
            let model = FactorJoinModel::train(
                catalog,
                FactorJoinConfig {
                    bin_budget: BinBudget::Uniform(20),
                    estimator,
                    ..Default::default()
                },
            );
            assert_eq!(
                expected_bits(&model, &queries),
                expected_bits(&model, &renamed),
                "{dataset} {estimator:?}: equal keys, different estimates"
            );
        }
    }
}

/// With the cache disabled (`subplan_cache_entries = 0`) the service
/// serves bit-identically through the uncached path and the cache
/// counters never move — the benchmark's uncached arm cannot be silently
/// cached.
#[test]
fn disabled_cache_serves_identically_with_zero_counters() {
    let catalog = tiny_catalog();
    let model = Arc::new(train(&catalog, 20));
    let queries = workload(&catalog, 31);
    let expected = expected_bits(&model, &queries);

    let registry = Arc::new(ModelRegistry::new());
    registry.publish("stats", Arc::clone(&model));
    let service = EstimatorService::start(
        registry,
        ServiceConfig::new("stats", 2).with_subplan_cache_entries(0),
    );
    for _ in 0..2 {
        for (qi, resp) in service
            .submit_batch(&queries)
            .wait_all()
            .into_iter()
            .enumerate()
        {
            assert_eq!(to_bits(&resp.expect("served").estimates), expected[qi]);
        }
    }
    let snap = service.stats();
    assert_eq!(snap.cache_hits, 0);
    assert_eq!(snap.cache_misses, 0);
    assert_eq!(snap.cache_evictions, 0);
}

/// Backpressure: a queue smaller than the batch still serves everything.
/// A batch goes in whole or not at all, and one larger than the capacity
/// goes in only when the queue is empty (producers block until the
/// workers have drained it) — so the high-water mark is exactly one batch.
#[test]
fn bounded_queue_backpressure_serves_all() {
    let catalog = tiny_catalog();
    let model = Arc::new(train(&catalog, 15));
    let queries = workload(&catalog, 19);
    let expected = expected_bits(&model, &queries);

    let registry = Arc::new(ModelRegistry::new());
    registry.publish("stats", Arc::clone(&model));
    let service = EstimatorService::start(
        registry,
        ServiceConfig::new("stats", 2).with_queue_capacity(2),
    );
    // 4 copies of the workload through a 2-deep queue.
    let mut tickets = Vec::new();
    for _ in 0..4 {
        tickets.push(service.submit_batch(&queries));
    }
    for ticket in tickets {
        for (qi, resp) in ticket.wait_all().into_iter().enumerate() {
            assert_eq!(to_bits(&resp.expect("served").estimates), expected[qi]);
        }
    }
    let snap = service.stats();
    assert_eq!(snap.requests as usize, 4 * queries.len());
    assert!(queries.len() > 2, "each batch is larger than the queue");
    assert_eq!(
        snap.queue_high_water,
        queries.len(),
        "never two oversized batches queued at once, never part of one"
    );
    assert!(snap.subplans > 0);
}
