//! Criterion micro-benchmarks for estimation latency (paper Figure 9C and
//! the planning-latency columns of Tables 3/4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use factorjoin::{
    build_group_bins, BaseEstimatorKind, BinBudget, BinningStrategy, Factor, FactorJoinConfig,
    FactorJoinModel, JoinScratch, KeepVars, KeyFreq,
};
use fj_baselines::{CardEst, FactorJoinEst, PessEst, PostgresLike};
use fj_datagen::{stats_catalog, stats_ceb_workload, StatsConfig, WorkloadConfig};
use fj_stats::{BaseTableEstimator, BayesNetEstimator, BnConfig, TableBins};
use fj_storage::KeyRef;
use std::sync::Arc;

fn bench_env() -> (fj_storage::Catalog, Vec<fj_query::Query>) {
    let cat = stats_catalog(&StatsConfig {
        scale: 0.1,
        ..Default::default()
    });
    let wl = stats_ceb_workload(
        &cat,
        &WorkloadConfig {
            num_queries: 8,
            num_templates: 4,
            ..WorkloadConfig::tiny(5)
        },
    );
    (cat, wl)
}

/// Figure 9C: FactorJoin sub-plan estimation latency vs. number of bins.
/// Estimation runs through a long-lived `SubplanEstimator` session, as a
/// serving optimizer would hold one — the path the flat arena-backed
/// factors optimize.
fn fig9_latency_vs_bins(c: &mut Criterion) {
    let (cat, wl) = bench_env();
    let mut group = c.benchmark_group("fig9_latency_per_query");
    group.sample_size(10);
    for k in [1usize, 10, 50, 100, 200] {
        let model = FactorJoinModel::train(
            &cat,
            FactorJoinConfig {
                bin_budget: BinBudget::Uniform(k),
                estimator: BaseEstimatorKind::BayesNet(BnConfig::default()),
                ..Default::default()
            },
        );
        let mut session = model.subplan_estimator();
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| {
                let mut n = 0usize;
                for q in &wl {
                    n += session.estimate_subplans(q, 1).len();
                }
                std::hint::black_box(n)
            })
        });
    }
    group.finish();
}

/// Synthetic factor with `vars` variables of `bins` bins each; shifted per
/// side so joins see shared and residual variables.
fn synth_factor(vars: usize, bins: usize, shift: usize) -> Factor {
    let entries = (0..vars)
        .map(|v| {
            let var = v + shift;
            let dist: Vec<f64> = (0..bins).map(|i| ((i * 7 + var * 3) % 23) as f64).collect();
            let mfv: Vec<f64> = (0..bins).map(|i| (1 + (i + var) % 5) as f64).collect();
            (var, dist, mfv)
        })
        .collect();
    Factor::base(1000.0, entries)
}

/// `Factor::join` micro-benchmark over bin count × variable count — the
/// innermost loop of sub-plan estimation, isolated from profiling. Each
/// pair shares `vars` variables and carries one residual variable per
/// side; the scratch is reused as on the model's hot path.
fn factor_join_micro(c: &mut Criterion) {
    let mut group = c.benchmark_group("factor_join");
    group.sample_size(30);
    for vars in [1usize, 2, 4] {
        for bins in [10usize, 100, 1000] {
            let a = synth_factor(vars + 1, bins, 0); // vars shared + 1 residual (id vars..)
            let b = synth_factor(vars + 1, bins, 1); // shares 1..=vars with a
            let keep = KeepVars::all();
            let mut scratch = JoinScratch::default();
            group.bench_with_input(
                BenchmarkId::new(format!("vars{vars}"), bins),
                &bins,
                |bch, _| {
                    bch.iter(|| {
                        let j = a.join_with(&b, &keep, &mut scratch);
                        std::hint::black_box(j.rows)
                    })
                },
            );
        }
    }
    group.finish();
}

/// Planning latency of representative methods on one workload (Tables 3/4
/// planning column, per-method).
fn planning_latency(c: &mut Criterion) {
    let (cat, wl) = bench_env();
    let mut group = c.benchmark_group("planning_latency");
    group.sample_size(10);

    let model = FactorJoinModel::train(&cat, FactorJoinConfig::default());
    let mut fj = FactorJoinEst::new(model);
    group.bench_function("factorjoin", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for q in &wl {
                n += fj.estimate_subplans(q, 1).len();
            }
            std::hint::black_box(n)
        })
    });

    let mut pg = PostgresLike::build(&cat);
    group.bench_function("postgres", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for q in &wl {
                n += pg.estimate_subplans(q, 1).len();
            }
            std::hint::black_box(n)
        })
    });

    // PessEst materializes filters per estimate — run fewer queries.
    let mut pe = PessEst::new(&cat, 256);
    group.bench_function("pessest", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for q in wl.iter().take(2) {
                n += pe.estimate_subplans(q, 1).len();
            }
            std::hint::black_box(n)
        })
    });
    group.finish();
}

/// Training time by estimator kind (Figure 6 training-time series).
fn training_time(c: &mut Criterion) {
    let cat = stats_catalog(&StatsConfig {
        scale: 0.05,
        ..Default::default()
    });
    let mut group = c.benchmark_group("fig6_training_time");
    group.sample_size(10);
    for (label, kind) in [
        ("bayesnet", BaseEstimatorKind::BayesNet(BnConfig::default())),
        ("sampling", BaseEstimatorKind::Sampling { rate: 0.05 }),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let model = FactorJoinModel::train(
                    &cat,
                    FactorJoinConfig {
                        estimator: kind,
                        ..Default::default()
                    },
                );
                std::hint::black_box(model.model_bytes())
            })
        });
    }
    group.finish();
}

/// The two training phases that dominate `train` at STATS scale 2, each
/// on its largest input: GBSA binning of the `posts.id` key group (wave
/// 2a) and the Bayesian-network fit of `votes` (wave 3 — also the refit
/// `load_model` pays, and the encoder `insert` shares).
fn training_phases(c: &mut Criterion) {
    let cat = stats_catalog(&StatsConfig {
        scale: 2.0,
        ..Default::default()
    });
    let posts_id = KeyRef::new("posts", "id");
    let group = cat
        .equivalent_key_groups()
        .into_iter()
        .find(|g| g.keys.contains(&posts_id))
        .expect("posts.id is a join key");
    let column = |k: &KeyRef| {
        let table = cat.table(&k.table).expect("group keys exist");
        table.column_by_name(&k.column).expect("group keys exist")
    };
    let freqs: Vec<KeyFreq> = group
        .keys
        .iter()
        .map(|k| KeyFreq::count_column(column(k)))
        .collect();
    let members: Vec<&KeyFreq> = freqs.iter().collect();
    let bins = Arc::new(build_group_bins(&members, 100, BinningStrategy::Gbsa));
    let votes = cat.table("votes").expect("table exists");
    let mut votes_bins = TableBins::new();
    for k in group.keys.iter().filter(|k| k.table == "votes") {
        votes_bins.insert_shared(&k.column, Arc::clone(&bins));
    }

    let mut g = c.benchmark_group("training_phases");
    g.sample_size(20);
    g.bench_function("gbsa_posts_id_group", |b| {
        b.iter(|| std::hint::black_box(build_group_bins(&members, 100, BinningStrategy::Gbsa)))
    });
    g.bench_function("bayesnet_fit_votes", |b| {
        b.iter(|| {
            let bn = BayesNetEstimator::build(votes, &votes_bins, BnConfig::default());
            std::hint::black_box(bn.model_bytes())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    fig9_latency_vs_bins,
    factor_join_micro,
    planning_latency,
    training_time,
    training_phases
);
criterion_main!(benches);
