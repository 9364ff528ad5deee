//! Differential tests of the parallel training pipeline: for every thread
//! count, `FactorJoinModel::train` must produce the **same model bit for
//! bit** as the serial build. The comparison is three-layered — the `.fjm`
//! bytes (bin-map and frequency slabs as laid out, group map, per-key
//! stats), training-report shape, and the actual sub-plan estimates on a
//! workload (exact `==` on `f64`s, no tolerance).

use factorjoin::{
    save_model, BaseEstimatorKind, BinBudget, BinningStrategy, FactorJoinConfig, FactorJoinModel,
};
use fj_datagen::{stats_catalog, stats_ceb_workload, StatsConfig, WorkloadConfig};
use fj_stats::BnConfig;
use fj_storage::Catalog;

fn catalog() -> Catalog {
    stats_catalog(&StatsConfig {
        scale: 0.05,
        ..Default::default()
    })
}

fn config(estimator: BaseEstimatorKind, threads: usize) -> FactorJoinConfig {
    FactorJoinConfig {
        bin_budget: BinBudget::Uniform(30),
        strategy: BinningStrategy::Gbsa,
        estimator,
        seed: 7,
        threads,
    }
}

/// Persisted statistics of a model, as its canonical `.fjm` bytes.
fn persisted(model: &FactorJoinModel, tag: &str) -> Vec<u8> {
    let dir = std::env::temp_dir().join("fj_parallel_train_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.fjm"));
    save_model(model, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

fn assert_models_identical(serial: &FactorJoinModel, parallel: &FactorJoinModel, label: &str) {
    // Layer 1: every persisted statistic (bin-map slabs, group ids,
    // per-bin totals/MFV/NDV, frequency slabs) byte-identical. Tags carry
    // the label so concurrently-running tests never share a temp file.
    let tag = label.replace([' ', '/'], "-");
    assert!(
        persisted(serial, &format!("serial-{tag}"))
            == persisted(parallel, &format!("parallel-{tag}")),
        "{label}: persisted statistics diverged"
    );
    // Layer 2: report shape and deployable size.
    let (rs, rp) = (serial.report(), parallel.report());
    assert_eq!(rs.num_groups, rp.num_groups, "{label}");
    assert_eq!(rs.bins_per_group, rp.bins_per_group, "{label}");
    assert_eq!(rs.model_bytes, rp.model_bytes, "{label}");
    // Layer 3: exact estimate equality over a workload — covers the
    // single-table estimators, which persistence deliberately omits.
    let cat = catalog();
    let wl = stats_ceb_workload(&cat, &WorkloadConfig::tiny(6));
    let mut s1 = serial.subplan_estimator();
    let mut s2 = parallel.subplan_estimator();
    for q in &wl {
        assert_eq!(
            s1.estimate_subplans(q, 1),
            s2.estimate_subplans(q, 1),
            "{label}: estimates diverged"
        );
    }
}

#[test]
fn parallel_build_is_bit_identical_to_serial_truescan() {
    let cat = catalog();
    let serial = FactorJoinModel::train(&cat, config(BaseEstimatorKind::TrueScan, 1));
    for threads in [2, 4, 8] {
        let parallel = FactorJoinModel::train(&cat, config(BaseEstimatorKind::TrueScan, threads));
        assert_models_identical(&serial, &parallel, &format!("truescan x{threads}"));
    }
}

#[test]
fn parallel_build_is_bit_identical_to_serial_bayesnet() {
    // The BayesNet path exercises wave 3 hardest: Chow-Liu structure
    // search + CPT counting per table, all fanned across workers.
    let cat = catalog();
    let kind = BaseEstimatorKind::BayesNet(BnConfig::default());
    let serial = FactorJoinModel::train(&cat, config(kind, 1));
    let parallel = FactorJoinModel::train(&cat, config(kind, 4));
    assert_models_identical(&serial, &parallel, "bayesnet x4");
}

#[test]
fn parallel_build_is_bit_identical_to_serial_sampling() {
    let cat = catalog();
    let kind = BaseEstimatorKind::Sampling { rate: 0.2 };
    let serial = FactorJoinModel::train(&cat, config(kind, 1));
    let parallel = FactorJoinModel::train(&cat, config(kind, 4));
    assert_models_identical(&serial, &parallel, "sampling x4");
}

#[test]
fn parallel_chowliu_matches_serial() {
    // Same guarantee one level down: a single wide-table network with the
    // per-network MI sweep parallelized learns the identical tree.
    let cat = catalog();
    let posts = cat.table("posts").unwrap();
    let bins = fj_stats::TableBins::new();
    let serial = fj_stats::BayesNetEstimator::build(posts, &bins, BnConfig::default());
    let parallel = fj_stats::BayesNetEstimator::build(
        posts,
        &bins,
        BnConfig {
            threads: 4,
            ..Default::default()
        },
    );
    let f = fj_query::FilterExpr::True;
    assert_eq!(
        fj_stats::BaseTableEstimator::estimate_filter(&serial, &f),
        fj_stats::BaseTableEstimator::estimate_filter(&parallel, &f),
    );
    assert_eq!(
        fj_stats::BaseTableEstimator::model_bytes(&serial),
        fj_stats::BaseTableEstimator::model_bytes(&parallel),
    );
}

#[test]
fn auto_threads_reports_core_count() {
    let cat = catalog();
    let model = FactorJoinModel::train(&cat, config(BaseEstimatorKind::TrueScan, 0));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(model.report().threads, cores);
    let serial = FactorJoinModel::train(&cat, config(BaseEstimatorKind::TrueScan, 1));
    assert_eq!(serial.report().threads, 1);
    assert_models_identical(&serial, &model, "auto threads");
}
