//! Integration tests: the full pipeline across all crates —
//! generate data → train → estimate sub-plans → optimize → execute.

use factorjoin::{
    BaseEstimatorKind, BinBudget, BinningStrategy, FactorJoinConfig, FactorJoinModel, ModelDelta,
};
use fj_baselines::{CardEst, FactorJoinEst, PostgresLike, TrueCard};
use fj_datagen::{stats_catalog, stats_ceb_workload, StatsConfig, WorkloadConfig};
use fj_exec::{optimize, plan_cost, CostModel, TrueCardEngine};
use fj_stats::BnConfig;
use std::collections::HashMap;

fn catalog() -> fj_storage::Catalog {
    stats_catalog(&StatsConfig {
        scale: 0.08,
        ..Default::default()
    })
}

fn workload(cat: &fj_storage::Catalog, n: usize, seed: u64) -> Vec<fj_query::Query> {
    stats_ceb_workload(
        cat,
        &WorkloadConfig {
            num_queries: n,
            num_templates: 8,
            ..WorkloadConfig::tiny(seed)
        },
    )
}

/// Plan cost (under true cardinalities) of the plans an estimator induces.
fn total_plan_cost(
    cat: &fj_storage::Catalog,
    queries: &[fj_query::Query],
    est: &mut dyn CardEst,
) -> f64 {
    let model = CostModel::default();
    let mut total = 0.0;
    for q in queries {
        let subs: HashMap<u64, f64> = est.estimate_subplans(q, 1).into_iter().collect();
        let plan = optimize(q, &mut |m| subs.get(&m).copied().unwrap_or(1.0), &model);
        let mut engine = TrueCardEngine::new(cat, q);
        total += plan_cost(&plan.root, &mut |m| engine.cardinality(m), &model).total;
    }
    total
}

#[test]
fn factorjoin_plans_beat_postgres_and_approach_optimal() {
    let cat = catalog();
    let queries = workload(&cat, 15, 21);
    let mut pg = PostgresLike::build(&cat);
    let mut fj = FactorJoinEst::new(FactorJoinModel::train(&cat, FactorJoinConfig::default()));
    let mut oracle = TrueCard::new(&cat);

    let cost_pg = total_plan_cost(&cat, &queries, &mut pg);
    let cost_fj = total_plan_cost(&cat, &queries, &mut fj);
    let cost_opt = total_plan_cost(&cat, &queries, &mut oracle);

    // The oracle is optimal by construction.
    assert!(
        cost_opt <= cost_fj * 1.0001,
        "optimal {cost_opt} vs factorjoin {cost_fj}"
    );
    assert!(cost_opt <= cost_pg * 1.0001);
    // The paper's headline: FactorJoin plans land near optimal and at
    // least match the Postgres baseline.
    assert!(
        cost_fj <= cost_pg * 1.05,
        "factorjoin cost {cost_fj} should be ≤ postgres cost {cost_pg}"
    );
    // And near-optimal: within 2x of the oracle on this workload.
    assert!(
        cost_fj <= cost_opt * 2.0,
        "factorjoin cost {cost_fj} vs optimal {cost_opt}"
    );
}

#[test]
fn all_three_base_estimators_run_the_full_pipeline() {
    let cat = catalog();
    let queries = workload(&cat, 6, 33);
    for kind in [
        BaseEstimatorKind::BayesNet(BnConfig::default()),
        BaseEstimatorKind::Sampling { rate: 0.2 },
        BaseEstimatorKind::TrueScan,
    ] {
        let model = FactorJoinModel::train(
            &cat,
            FactorJoinConfig {
                bin_budget: BinBudget::Uniform(50),
                strategy: BinningStrategy::Gbsa,
                estimator: kind,
                seed: 3,
                threads: 1,
            },
        );
        for q in &queries {
            let subs = model.estimate_subplans(q, 1);
            assert!(!subs.is_empty());
            for (mask, est) in subs {
                assert!(
                    est.is_finite() && est >= 0.0,
                    "{kind:?} mask {mask:b} gave {est}"
                );
            }
        }
    }
}

#[test]
fn progressive_estimates_cover_exactly_the_connected_subplans() {
    let cat = catalog();
    let queries = workload(&cat, 8, 5);
    let model = FactorJoinModel::train(&cat, FactorJoinConfig::default());
    for q in &queries {
        let masks: Vec<u64> = fj_query::connected_subplans(q, 1);
        let subs = model.estimate_subplans(q, 1);
        assert_eq!(subs.len(), masks.len());
        let got: Vec<u64> = subs.iter().map(|&(m, _)| m).collect();
        assert_eq!(got, masks, "progressive order matches enumeration order");
    }
}

#[test]
fn persistence_roundtrip_through_disk() {
    let cat = catalog();
    let model = FactorJoinModel::train(
        &cat,
        FactorJoinConfig {
            estimator: BaseEstimatorKind::TrueScan,
            bin_budget: BinBudget::Uniform(30),
            ..Default::default()
        },
    );
    let q = workload(&cat, 1, 77).pop().expect("one query");
    let before = model.estimate(&q);
    let dir = std::env::temp_dir().join("fj_integration");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("model.fjm");
    factorjoin::save_model(&model, &path).expect("save");
    let loaded = factorjoin::load_model(&path, &cat).expect("load");
    assert_eq!(loaded.estimate(&q), before);
    std::fs::remove_file(&path).ok();
}

#[test]
fn update_then_estimate_stays_consistent() {
    use fj_datagen::stats_catalog_split_by_date;
    let cfg = StatsConfig {
        scale: 0.08,
        ..Default::default()
    };
    let (mut base, inserts) = stats_catalog_split_by_date(&cfg, 1825);
    let mut model = FactorJoinModel::train(
        &base,
        FactorJoinConfig {
            estimator: BaseEstimatorKind::TrueScan,
            ..Default::default()
        },
    );
    let mut delta = ModelDelta::new();
    for (tname, rows) in &inserts {
        let table = base.table_mut(tname).expect("table");
        let first = table.nrows();
        table.append_rows(rows).expect("rows");
        delta.record(table, first);
    }
    model.apply_insert(&base, &delta);
    // After updates, bounds on fresh queries still dominate the truth for
    // the vast majority of sub-plans.
    let queries = workload(&base, 8, 99);
    let mut total = 0;
    let mut upper = 0;
    for q in &queries {
        let mut eng = TrueCardEngine::new(&base, q);
        for (mask, est) in model.estimate_subplans(q, 2) {
            total += 1;
            if est >= eng.cardinality(mask) * 0.999 {
                upper += 1;
            }
        }
    }
    assert!(
        upper as f64 / total as f64 > 0.85,
        "only {upper}/{total} sub-plans upper-bounded after update"
    );
}

#[test]
fn workload_aware_budget_allocates_more_bins_to_hot_groups() {
    let cat = catalog();
    let mut weights = HashMap::new();
    weights.insert(0usize, 9.0);
    weights.insert(1usize, 1.0);
    let model = FactorJoinModel::train(
        &cat,
        FactorJoinConfig {
            bin_budget: BinBudget::Workload {
                total: 100,
                weights,
            },
            ..Default::default()
        },
    );
    let bins = &model.report().bins_per_group;
    assert_eq!(bins.len(), 2);
    assert!(
        bins[0] > bins[1] * 3,
        "hot group should get most bins: {bins:?}"
    );
}
