//! Criterion micro-benchmarks for the substrates: executor joins, GBSA
//! binning, Bayesian-network inference, filter compilation, query
//! analysis, and the service hand-off. These back the engineering claims in DESIGN.md
//! (ablations of design choices).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use factorjoin::{build_group_bins, BinningStrategy, FactorJoinConfig, FactorJoinModel};
use fj_datagen::{imdb_catalog, stats_catalog, ImdbConfig, StatsConfig};
use fj_exec::TrueCardEngine;
use fj_query::{connected_subplans_into, parse_query, subplan_fingerprints, QueryGraph};
use fj_service::{EstimatorService, ModelRegistry, ServiceConfig};
use fj_stats::{
    BaseTableEstimator, BayesNetEstimator, BnConfig, KeyBinMap, SamplingEstimator, TableBins,
    TableProfile,
};
use std::sync::Arc;

fn executor_join(c: &mut Criterion) {
    let cat = stats_catalog(&StatsConfig {
        scale: 0.1,
        ..Default::default()
    });
    let q = parse_query(
        &cat,
        "SELECT COUNT(*) FROM users u, posts p, comments c \
         WHERE u.id = p.owner_user_id AND p.id = c.post_id AND p.score > 0;",
    )
    .expect("valid query");
    let mut group = c.benchmark_group("executor");
    group.sample_size(10);
    group.bench_function("three_way_true_cardinality", |b| {
        b.iter(|| {
            let mut eng = TrueCardEngine::new(&cat, &q);
            std::hint::black_box(eng.full_cardinality())
        })
    });
    group.finish();
}

fn binning_strategies(c: &mut Criterion) {
    // Zipf-ish frequency map of 20k values.
    let freq: factorjoin::KeyFreq = (0..20_000)
        .map(|v| (v, 1 + (20_000 / (v + 1)) as u64))
        .collect();
    let mut group = c.benchmark_group("binning_20k_values");
    group.sample_size(10);
    for (label, strat) in [
        ("gbsa", BinningStrategy::Gbsa),
        ("equal_width", BinningStrategy::EqualWidth),
        ("equal_depth", BinningStrategy::EqualDepth),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &strat, |b, &s| {
            b.iter(|| std::hint::black_box(build_group_bins(&[&freq], 100, s)))
        });
    }
    group.finish();
}

/// Single-table inference on the Bayesian network (`stats.profile_us_per_alias`
/// on the STATS workloads): `estimate_filter`, then `profile_into` for the
/// `posts` keys by request shape — no filter (cached priors), evidence on
/// one and on two columns, and evidence on the attribute farthest in the
/// learned tree from the key asked for (both propagation passes over the
/// longest path the network has).
fn bayesnet_inference(c: &mut Criterion) {
    let cat = stats_catalog(&StatsConfig {
        scale: 0.1,
        ..Default::default()
    });
    let posts = cat.table("posts").expect("table exists");
    let bn = BayesNetEstimator::build(posts, &TableBins::new(), BnConfig::default());
    let pred = fj_query::FilterExpr::pred;
    let score = pred(fj_query::Predicate::cmp("score", fj_query::CmpOp::Ge, 5));
    let mut group = c.benchmark_group("bayesnet");
    group.sample_size(20);
    group.bench_function("filter_inference", |b| {
        b.iter(|| std::hint::black_box(bn.estimate_filter(&score)))
    });

    // The served shape: keys at the model's 100 bins.
    let model = FactorJoinModel::train(&cat, FactorJoinConfig::default());
    let bins = model.table_bins("posts").expect("posts has join keys");
    let bn = BayesNetEstimator::build(posts, bins, BnConfig::default());
    // `posts` has no float column, so node i models column i; hops = tree
    // distance.
    let columns: Vec<&str> = posts
        .schema()
        .columns()
        .iter()
        .map(|d| d.name.as_str())
        .collect();
    let parent = bn.structure();
    let ancestors = |mut i: usize| {
        let mut path = vec![i];
        while let Some(p) = parent[i] {
            path.push(p);
            i = p;
        }
        path
    };
    let hops = |a: usize, b: usize| {
        let (pa, pb) = (ancestors(a), ancestors(b));
        let shared = pa
            .iter()
            .rev()
            .zip(pb.iter().rev())
            .take_while(|(x, y)| x == y);
        pa.len() + pb.len() - 2 * shared.count()
    };
    let key = columns.iter().position(|&c| c == "id").expect("posts.id");
    let far = (0..columns.len())
        .filter(|&i| bins.get(columns[i]).is_none())
        .max_by_key(|&i| hops(i, key))
        .expect("posts has attributes");
    let views = pred(fj_query::Predicate::between("view_count", 100, 900));
    let cases = [
        ("unfiltered", fj_query::FilterExpr::True),
        ("one_column", score.clone()),
        ("two_columns", fj_query::FilterExpr::and(vec![score, views])),
        (
            "far_key",
            pred(fj_query::Predicate::IsNull {
                column: columns[far].into(),
                negated: true,
            }),
        ),
    ];
    println!(
        "bayesnet/profile_into: far_key = evidence on {} ({} hops from id)",
        columns[far],
        hops(far, key)
    );
    let mut profile = TableProfile::default();
    for (shape, filter) in &cases {
        group.bench_with_input(
            BenchmarkId::new("profile_into", shape),
            filter,
            |b, filter| {
                b.iter(|| {
                    bn.profile_into(filter, &["id", "owner_user_id"], &mut profile);
                    std::hint::black_box(profile.rows)
                })
            },
        );
    }
    group.finish();
}

fn filter_compilation(c: &mut Criterion) {
    let cat = stats_catalog(&StatsConfig {
        scale: 0.1,
        ..Default::default()
    });
    let posts = cat.table("posts").expect("table exists");
    let filter = fj_query::FilterExpr::and(vec![
        fj_query::FilterExpr::pred(fj_query::Predicate::between("score", 0, 50)),
        fj_query::FilterExpr::pred(fj_query::Predicate::cmp(
            "view_count",
            fj_query::CmpOp::Ge,
            100,
        )),
    ]);
    let mut group = c.benchmark_group("filter");
    group.sample_size(20);
    group.bench_function("compile_and_count", |b| {
        b.iter(|| std::hint::black_box(fj_query::filtered_count(posts, &filter)))
    });

    // String predicates over the full IMDB `title` column — the
    // `TrueScan` / `TrueCardEngine` path, which compiles against the whole
    // dictionary rather than a sample's: a `%word%` arena scan and an
    // equality on an existing title.
    let imdb = imdb_catalog(&ImdbConfig::default());
    let title = imdb.table("title").expect("table exists");
    let column = title.column_by_name("title").expect("title.title");
    let existing = column.dict().get(column.codes()[0] as usize).to_string();
    println!(
        "filter/title_*: {} rows, {} dictionary entries",
        title.nrows(),
        column.dict().len()
    );
    let pred = fj_query::FilterExpr::pred;
    let cases = [
        (
            "title_like_the",
            pred(fj_query::Predicate::like("title", "%the%")),
        ),
        (
            "title_eq_existing",
            pred(fj_query::Predicate::eq("title", existing.as_str())),
        ),
    ];
    for (case, filter) in &cases {
        group.bench_with_input(BenchmarkId::from_parameter(case), filter, |b, filter| {
            b.iter(|| std::hint::black_box(fj_query::filtered_count(title, filter)))
        });
    }
    group.finish();
}

/// Single-table inference on a sample (`SamplingEstimator::profile_into`,
/// the `stats.profile_us_per_alias` layer of the repository benchmark), one
/// case per filter class of an IMDB-JOB alias: no filter (cached histogram
/// copy), numeric predicates (bitmap scan + bin accumulation), and `LIKE`
/// (plus the dictionary pre-evaluation with the compiled pattern).
fn sampling_profile(c: &mut Criterion) {
    let cat = imdb_catalog(&ImdbConfig::default());
    let title = cat.table("title").expect("table exists");
    let mut bins = TableBins::new();
    for key in ["id", "kind_id"] {
        bins.insert(key, KeyBinMap::new(100, []));
    }
    let sampler = SamplingEstimator::build(title, &bins, 0.1, 42);
    let pred = fj_query::FilterExpr::pred;
    let cases = [
        ("unfiltered", fj_query::FilterExpr::True),
        (
            "numeric",
            fj_query::FilterExpr::and(vec![
                pred(fj_query::Predicate::cmp(
                    "production_year",
                    fj_query::CmpOp::Ge,
                    1990,
                )),
                pred(fj_query::Predicate::in_list(
                    "kind_id",
                    vec![1.into(), 2.into(), 4.into()],
                )),
            ]),
        ),
        ("like", pred(fj_query::Predicate::like("title", "%the%"))),
    ];
    let mut group = c.benchmark_group("sampling_profile");
    group.sample_size(20);
    let mut profile = TableProfile::default();
    for (class, filter) in &cases {
        group.bench_with_input(BenchmarkId::from_parameter(class), filter, |b, filter| {
            b.iter(|| {
                sampler.profile_into(filter, &["id", "kind_id"], &mut profile);
                std::hint::black_box(profile.rows)
            })
        });
    }
    group.finish();
}

/// Query analysis, the per-request work in front of every cache probe
/// (`query.enumerate_us` and `query.fingerprint_us` of the repository
/// benchmark): `QueryGraph::analyze`, `connected_subplans_into` and
/// `subplan_fingerprints` over one batch of each paper-shaped workload —
/// STATS-CEB (2–6 aliases, trees) and IMDB-JOB (3–8 aliases, cyclic,
/// `LIKE`).
fn query_analysis(c: &mut Criterion) {
    let stats = stats_catalog(&StatsConfig {
        scale: 0.1,
        ..Default::default()
    });
    let imdb = imdb_catalog(&ImdbConfig::tiny());
    let batches = [
        (
            "stats",
            fj_datagen::stats_ceb_workload(&stats, &fj_datagen::WorkloadConfig::stats_ceb()),
        ),
        (
            "imdb",
            fj_datagen::imdb_job_workload(&imdb, &fj_datagen::WorkloadConfig::imdb_job()),
        ),
    ];
    let mut group = c.benchmark_group("query_analysis");
    group.sample_size(20);
    for (workload, batch) in &batches {
        group.bench_with_input(BenchmarkId::new("analyze", workload), batch, |b, batch| {
            b.iter(|| {
                for q in batch {
                    std::hint::black_box(QueryGraph::analyze(q));
                }
            })
        });
        let mut masks = Vec::new();
        group.bench_with_input(
            BenchmarkId::new("connected_subplans_into", workload),
            batch,
            |b, batch| {
                b.iter(|| {
                    for q in batch {
                        connected_subplans_into(q, 1, &mut masks);
                        std::hint::black_box(masks.len());
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("subplan_fingerprints", workload),
            batch,
            |b, batch| {
                b.iter(|| {
                    for q in batch {
                        std::hint::black_box(subplan_fingerprints(q, 1, 0x5eed));
                    }
                })
            },
        );
    }
    group.finish();
}

/// What the queue, the worker hand-off and the reply add to a direct
/// estimate — the micro number behind the benchmark's
/// `service.handoff_us` / `service.batch_handoff_us`: 16 direct estimates
/// against 16 single submits' worth (`submit_wait` × 16) and one 16-query
/// batch, on one worker with the cache off so every side computes.
fn service_handoff(c: &mut Criterion) {
    let cat = stats_catalog(&StatsConfig {
        scale: 0.1,
        ..Default::default()
    });
    let model = Arc::new(FactorJoinModel::train(&cat, FactorJoinConfig::default()));
    let wl = fj_datagen::stats_ceb_workload(&cat, &fj_datagen::WorkloadConfig::tiny(3));
    let batch: Vec<_> = wl.iter().cycle().take(16).cloned().collect();
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("stats", Arc::clone(&model));
    let service = EstimatorService::start(
        registry,
        ServiceConfig::new("stats", 1).with_subplan_cache_entries(0),
    );
    let mut group = c.benchmark_group("service");
    group.sample_size(200);
    group.bench_function("direct_x16", |b| {
        let mut scratch = factorjoin::EstimationScratch::default();
        b.iter(|| {
            for q in &batch {
                std::hint::black_box(model.estimate_subplans_with(&mut scratch, q, 1));
            }
        })
    });
    group.bench_function("submit_wait", |b| {
        b.iter(|| service.submit(batch[0].clone()).wait().expect("served"))
    });
    group.bench_function("submit_batch_16_wait", |b| {
        b.iter(|| service.submit_batch(&batch).wait_all())
    });
    group.finish();
    service.shutdown();
}

criterion_group!(
    benches,
    executor_join,
    binning_strategies,
    bayesnet_inference,
    filter_compilation,
    sampling_profile,
    query_analysis,
    service_handoff
);
criterion_main!(benches);
