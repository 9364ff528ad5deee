//! Differential tests of the parallel training and update pipelines: for
//! every thread count, `FactorJoinModel::train`, `updated_with` and
//! `apply_insert` must produce the **same model bit for bit** as the
//! serial run. The comparison is three-layered — the `.fjm` bytes (bin-map
//! and frequency slabs as laid out, group map, per-key stats, estimators),
//! training-report shape, and the actual sub-plan estimates on a workload
//! (exact `==` on `f64`s, no tolerance).

use factorjoin::{
    load_model, save_model, BaseEstimatorKind, BinBudget, BinningStrategy, FactorJoinConfig,
    FactorJoinModel, ModelDelta,
};
use fj_datagen::{
    stats_catalog, stats_catalog_split_by_date, stats_ceb_workload, StatsConfig, WorkloadConfig,
};
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

/// The date split of the test catalog: the rows before the cut, the same
/// catalog with the later rows appended, and the delta staging them.
fn date_split() -> (Catalog, Catalog, ModelDelta) {
    let cfg = StatsConfig {
        scale: 0.05,
        ..Default::default()
    };
    let (base, inserts) = stats_catalog_split_by_date(&cfg, 1825);
    let mut full = base.clone();
    let mut delta = ModelDelta::new();
    for (name, rows) in &inserts {
        let table = full.table_mut(name).unwrap();
        let first = table.nrows();
        table.append_rows(rows).unwrap();
        delta.record(table, first);
    }
    (base, full, delta)
}

/// `model` saved and loaded back against `catalog`.
fn reloaded(model: &FactorJoinModel, catalog: &Catalog, tag: &str) -> FactorJoinModel {
    let dir = std::env::temp_dir().join("fj_parallel_train_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.fjm"));
    save_model(model, &path).unwrap();
    let loaded = load_model(&path, catalog).unwrap();
    std::fs::remove_file(&path).ok();
    loaded
}

/// Both update paths of `stale` against the serial update `want`; the
/// report keeps the stale model's training fields.
fn assert_updates_identical(
    want: &FactorJoinModel,
    stale: &FactorJoinModel,
    full: &Catalog,
    delta: &ModelDelta,
    label: &str,
) {
    let copy = stale.updated_with(full, delta);
    let mut in_place = stale.clone();
    in_place.apply_insert(full, delta);
    for (path, updated) in [("updated_with", &copy), ("apply_insert", &in_place)] {
        let label = format!("{label} {path}");
        assert_models_identical(want, updated, &label);
        let (rs, ru) = (stale.report(), updated.report());
        assert_eq!(rs.threads, ru.threads, "{label}");
        assert_eq!(rs.train_seconds, ru.train_seconds, "{label}");
    }
}

/// Updates fan out over `config.threads` like the build: the model an
/// update gives is the serial one at 1, 2, 3 and all cores, for a
/// trained model and for one loaded from `.fjm` (which carries 0 = all
/// cores), under every single-table estimator.
#[test]
fn updates_are_bit_identical_at_every_thread_count() {
    let (base, full, delta) = date_split();
    for (name, kind) in [
        ("bayesnet", BaseEstimatorKind::BayesNet(BnConfig::default())),
        ("sampling", BaseEstimatorKind::Sampling { rate: 0.2 }),
        ("truescan", BaseEstimatorKind::TrueScan),
    ] {
        let serial = FactorJoinModel::train(&base, config(kind, 1));
        let want = serial.updated_with(&full, &delta);
        for threads in [1, 2, 3, 0] {
            let trained = FactorJoinModel::train(&base, config(kind, threads));
            assert_updates_identical(
                &want,
                &trained,
                &full,
                &delta,
                &format!("{name} x{threads}"),
            );
        }
        let loaded = reloaded(&serial, &base, &format!("update-{name}"));
        assert_eq!(loaded.config().threads, 0, "{name}");
        assert_updates_identical(&want, &loaded, &full, &delta, &format!("{name} loaded"));
    }
}
