//! Differential persistence battery: for each persistable estimator
//! backend, at two scales, on both synthetic workloads, the `.fjm` round
//! trip must be **bit-identical** — the loaded model's estimates equal the
//! in-memory model's by exact `f64::to_bits` comparison (no tolerance),
//! and save→load→save reproduces the same bytes. The same holds for
//! models updated with inserts (paper §4.3), for models updated *after* a
//! reload, and for non-default configs. The bytes are canonical beyond
//! that: retraining on the same data, at any thread count, writes the same
//! file.
//!
//! Backends covered: `TrueScan`, `BayesNet`, `Sampling` — the three
//! `BaseEstimatorKind`s a `FactorJoinModel` can persist. `PostgresLike`
//! is not here because it is a *baseline* estimator (`fj-baselines`), not
//! a FactorJoin backend, and has no persistence path to differentiate.
//!
//! Bit-identity is a meaningful contract here because the file stores the
//! trained model itself — bins, key statistics and every single-table
//! estimator's fitted state, exact `f64` bits — and a load recomputes only
//! what the estimators derive from that state, by the code the fit uses.
//! Nothing is refitted from the catalog, so *any* bit of drift means a
//! codec bug, not noise.

use factorjoin::{
    load_model, save_model, BaseEstimatorKind, BinBudget, BinningStrategy, FactorJoinConfig,
    FactorJoinModel, ModelDelta,
};
use fj_datagen::{
    imdb_catalog, imdb_job_workload, stats_catalog, stats_catalog_split_by_date,
    stats_ceb_workload, ImdbConfig, StatsConfig, WorkloadConfig,
};
use fj_query::Query;
use fj_stats::BnConfig;
use fj_storage::{Catalog, KeyRef};
use std::collections::HashMap;

fn config(estimator: BaseEstimatorKind, bins: usize) -> FactorJoinConfig {
    FactorJoinConfig {
        bin_budget: BinBudget::Uniform(bins),
        strategy: BinningStrategy::Gbsa,
        estimator,
        seed: 7,
        threads: 1,
    }
}

/// The `.fjm` bytes `model` saves to (`tag` keeps concurrently running
/// tests off each other's files).
fn fjm_bytes(model: &FactorJoinModel, tag: &str) -> Vec<u8> {
    let dir = std::env::temp_dir().join("fj_binary_persist_bytes");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.fjm"));
    save_model(model, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// Trains a model, persists it, and proves the two estimate streams
/// (in-memory, loaded) bit-identical over `queries` — plus save→load→save
/// byte-identity.
fn assert_roundtrip_bit_identical(
    cat: &Catalog,
    queries: &[Query],
    cfg: FactorJoinConfig,
    label: &str,
) {
    let model = FactorJoinModel::train(cat, cfg);
    let dir = std::env::temp_dir().join(format!("fj_binary_persist_{label}"));
    std::fs::create_dir_all(&dir).unwrap();
    let fjm = dir.join("model.fjm");
    save_model(&model, &fjm).unwrap();
    let loaded = load_model(&fjm, cat).unwrap();

    // Full-query estimates and every sub-plan of the join lattice: both
    // models must agree to the last bit.
    let mut s0 = model.subplan_estimator();
    let mut s1 = loaded.subplan_estimator();
    for (i, q) in queries.iter().enumerate() {
        let e0 = model.estimate(q);
        let e1 = loaded.estimate(q);
        assert_eq!(
            e0.to_bits(),
            e1.to_bits(),
            "{label} q{i}: loaded estimate diverged ({e0} vs {e1})"
        );
        assert_eq!(
            s0.estimate_subplans(q, 1),
            s1.estimate_subplans(q, 1),
            "{label} q{i}: sub-plans"
        );
    }

    // Re-saving the loaded model must reproduce the original file byte
    // for byte.
    let again = dir.join("model2.fjm");
    save_model(&loaded, &again).unwrap();
    assert_eq!(
        std::fs::read(&fjm).unwrap(),
        std::fs::read(&again).unwrap(),
        "{label}: save->load->save is not byte-identical"
    );

    std::fs::remove_dir_all(&dir).ok();
}

fn stats_cat(scale: f64) -> Catalog {
    stats_catalog(&StatsConfig {
        scale,
        ..Default::default()
    })
}

fn imdb_cat(scale: f64) -> Catalog {
    imdb_catalog(&ImdbConfig {
        scale,
        ..Default::default()
    })
}

const SCALES: [f64; 2] = [0.02, 0.06];

#[test]
fn truescan_roundtrips_bit_identical_on_stats_ceb() {
    for scale in SCALES {
        let cat = stats_cat(scale);
        let wl = stats_ceb_workload(&cat, &WorkloadConfig::tiny(11));
        assert_roundtrip_bit_identical(
            &cat,
            &wl,
            config(BaseEstimatorKind::TrueScan, 20),
            &format!("truescan_stats_{scale}"),
        );
    }
}

#[test]
fn bayesnet_roundtrips_bit_identical_on_stats_ceb() {
    for scale in SCALES {
        let cat = stats_cat(scale);
        let wl = stats_ceb_workload(&cat, &WorkloadConfig::tiny(12));
        assert_roundtrip_bit_identical(
            &cat,
            &wl,
            config(BaseEstimatorKind::BayesNet(BnConfig::default()), 15),
            &format!("bayesnet_stats_{scale}"),
        );
    }
}

#[test]
fn sampling_roundtrips_bit_identical_on_stats_ceb() {
    for scale in SCALES {
        let cat = stats_cat(scale);
        let wl = stats_ceb_workload(&cat, &WorkloadConfig::tiny(13));
        assert_roundtrip_bit_identical(
            &cat,
            &wl,
            config(BaseEstimatorKind::Sampling { rate: 0.25 }, 20),
            &format!("sampling_stats_{scale}"),
        );
    }
}

#[test]
fn truescan_roundtrips_bit_identical_on_imdb_job() {
    for scale in SCALES {
        let cat = imdb_cat(scale);
        let wl = imdb_job_workload(&cat, &WorkloadConfig::tiny(14));
        assert_roundtrip_bit_identical(
            &cat,
            &wl,
            config(BaseEstimatorKind::TrueScan, 20),
            &format!("truescan_imdb_{scale}"),
        );
    }
}

#[test]
fn bayesnet_roundtrips_bit_identical_on_imdb_job() {
    let cat = imdb_cat(0.04);
    let wl = imdb_job_workload(&cat, &WorkloadConfig::tiny(15));
    assert_roundtrip_bit_identical(
        &cat,
        &wl,
        config(BaseEstimatorKind::BayesNet(BnConfig::default()), 15),
        "bayesnet_imdb",
    );
}

#[test]
fn sampling_roundtrips_bit_identical_on_imdb_job() {
    let cat = imdb_cat(0.04);
    let wl = imdb_job_workload(&cat, &WorkloadConfig::tiny(16));
    assert_roundtrip_bit_identical(
        &cat,
        &wl,
        config(BaseEstimatorKind::Sampling { rate: 0.25 }, 20),
        "sampling_imdb",
    );
}

/// The `.fjm` bytes are a function of the data alone: two trainings with
/// the same config, and a serial against a 4-thread training, write
/// byte-identical files for every estimator backend: bin-map slab layout
/// depends on insertion order, so that order must come from the data.
#[test]
fn retraining_writes_byte_identical_fjm() {
    let cat = stats_cat(0.05);
    for (name, estimator) in [
        ("truescan", BaseEstimatorKind::TrueScan),
        ("bayesnet", BaseEstimatorKind::BayesNet(BnConfig::default())),
        ("sampling", BaseEstimatorKind::Sampling { rate: 0.2 }),
    ] {
        let cfg = |threads| FactorJoinConfig {
            threads,
            ..config(estimator, 30)
        };
        let first = fjm_bytes(&FactorJoinModel::train(&cat, cfg(1)), &format!("{name}-a"));
        let second = fjm_bytes(&FactorJoinModel::train(&cat, cfg(1)), &format!("{name}-b"));
        let parallel = fjm_bytes(&FactorJoinModel::train(&cat, cfg(4)), &format!("{name}-x4"));
        assert!(
            first == second,
            "{name}: two trainings wrote different bytes"
        );
        assert!(
            first == parallel,
            "{name}: 1 vs 4 threads wrote different bytes"
        );
    }
}

// ------------------------------------------------ updated and configured

const ESTIMATORS: [(&str, BaseEstimatorKind); 3] = [
    (
        "bayesnet",
        BaseEstimatorKind::BayesNet(BnConfig {
            max_codes: 64,
            mi_sample_rows: 20_000,
            alpha: 0.1,
            fallback_selectivity: 0.25,
            threads: 1,
        }),
    ),
    ("sampling", BaseEstimatorKind::Sampling { rate: 0.2 }),
    ("truescan", BaseEstimatorKind::TrueScan),
];

/// The STATS date split: the catalog before the cut, the catalog with the
/// later rows appended, and the delta staging them.
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

/// Every sub-plan estimate of `queries`, as `(mask, f64 bits)`.
fn estimate_bits(model: &FactorJoinModel, queries: &[Query]) -> Vec<(u64, u64)> {
    let mut session = model.subplan_estimator();
    queries
        .iter()
        .flat_map(|q| session.estimate_subplans(q, 1))
        .map(|(mask, est)| (mask, est.to_bits()))
        .collect()
}

/// Saves `model`, loads it against `catalog`, and proves the loaded model
/// the saved one: every sub-plan estimate bit-identical, the same size,
/// every key column sharing its group's map, and save→load→save
/// byte-identical. Returns the loaded model.
fn reload_bit_identical(
    model: &FactorJoinModel,
    catalog: &Catalog,
    queries: &[Query],
    label: &str,
) -> FactorJoinModel {
    let first = fjm_bytes(model, &format!("{label}-first"));
    let dir = std::env::temp_dir().join(format!("fj_binary_persist_reload_{label}"));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.fjm");
    std::fs::write(&path, &first).unwrap();
    let loaded = load_model(&path, catalog).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let want = estimate_bits(model, queries);
    assert!(!want.is_empty());
    let got = estimate_bits(&loaded, queries);
    let differ = want.iter().zip(&got).filter(|(a, b)| a != b).count();
    assert_eq!(
        differ,
        0,
        "{label}: {differ} of {} sub-plans differ",
        want.len()
    );
    assert_eq!(loaded.model_bytes(), model.model_bytes(), "{label}: size");
    for table in catalog.tables() {
        let bins = loaded.table_bins(table.name()).unwrap();
        for (column, map) in bins.iter() {
            let gid = loaded.group_of(&KeyRef::new(table.name(), column)).unwrap();
            assert!(
                std::ptr::eq(map, loaded.group_bins(gid)),
                "{label}: {}.{column} holds a copy of group {gid}",
                table.name()
            );
        }
    }
    assert!(
        fjm_bytes(&loaded, &format!("{label}-again")) == first,
        "{label}: save->load->save is not byte-identical"
    );
    loaded
}

/// An updated model reloads as itself: the file carries the estimators
/// the update changed, not a refit of them on the current data.
#[test]
fn updated_models_reload_bit_identical() {
    let (base, full, delta) = date_split();
    let queries = stats_ceb_workload(&full, &WorkloadConfig::tiny(35));
    for (name, estimator) in ESTIMATORS {
        let trained = FactorJoinModel::train(&base, config(estimator, 30));
        reload_bit_identical(&trained, &base, &queries, &format!("{name}-trained"));
        let updated = trained.updated_with(&full, &delta);
        reload_bit_identical(&updated, &full, &queries, &format!("{name}-updated"));
    }
}

/// A reloaded model absorbs an update exactly as the model it was saved
/// from: trained → save → load → update ≡ trained → update.
#[test]
fn a_reloaded_model_updates_like_the_trained_one() {
    let (base, full, delta) = date_split();
    let queries = stats_ceb_workload(&full, &WorkloadConfig::tiny(36));
    for (name, estimator) in ESTIMATORS {
        let trained = FactorJoinModel::train(&base, config(estimator, 30));
        let loaded = reload_bit_identical(&trained, &base, &queries, &format!("{name}-base"));
        let want = trained.updated_with(&full, &delta);
        let got = loaded.updated_with(&full, &delta);
        assert_eq!(
            estimate_bits(&got, &queries),
            estimate_bits(&want, &queries),
            "{name}"
        );
        assert!(
            fjm_bytes(&got, &format!("{name}-got")) == fjm_bytes(&want, &format!("{name}-want")),
            "{name}: the two updated models save differently"
        );
    }
}

/// Non-default configs come back whole — the network's own `BnConfig`,
/// the sampling rate, the strategy and a workload-split bin budget — and
/// the loaded model answers bit-identically.
#[test]
fn non_default_configs_round_trip() {
    let cat = stats_cat(0.04);
    let queries = stats_ceb_workload(&cat, &WorkloadConfig::tiny(37));
    let weights: HashMap<usize, f64> = [(0, 3.0), (1, 0.5)].into_iter().collect();
    let configs = [
        FactorJoinConfig {
            bin_budget: BinBudget::Workload {
                total: 50,
                weights: weights.clone(),
            },
            strategy: BinningStrategy::EqualDepth,
            estimator: BaseEstimatorKind::BayesNet(BnConfig {
                max_codes: 12,
                mi_sample_rows: 700,
                alpha: 0.5,
                fallback_selectivity: 0.4,
                threads: 1,
            }),
            seed: 11,
            threads: 1,
        },
        FactorJoinConfig {
            bin_budget: BinBudget::Uniform(17),
            strategy: BinningStrategy::EqualWidth,
            estimator: BaseEstimatorKind::Sampling { rate: 0.2 },
            seed: 99,
            threads: 1,
        },
        FactorJoinConfig {
            bin_budget: BinBudget::Workload { total: 9, weights },
            strategy: BinningStrategy::EqualDepth,
            estimator: BaseEstimatorKind::TrueScan,
            seed: 3,
            threads: 1,
        },
    ];
    for (i, cfg) in configs.into_iter().enumerate() {
        let model = FactorJoinModel::train(&cat, cfg.clone());
        let loaded = reload_bit_identical(&model, &cat, &queries, &format!("config-{i}"));
        // The build's thread count is not part of the model and not saved.
        let want = FactorJoinConfig { threads: 0, ..cfg };
        assert_eq!(loaded.config(), &want, "config {i}");
    }
}
