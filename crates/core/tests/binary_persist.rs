//! Differential persistence battery: for each persistable estimator
//! backend, at two scales, on both synthetic workloads, the `.fjm` round
//! trip must be **bit-identical** — the loaded model's estimates equal the
//! in-memory model's by exact `f64::to_bits` comparison (no tolerance),
//! and save→load→save reproduces the same bytes. The bytes are canonical
//! beyond that: retraining on the same data, at any thread count, writes
//! the same file.
//!
//! Backends covered: `TrueScan`, `BayesNet`, `Sampling` — the three
//! `BaseEstimatorKind`s a `FactorJoinModel` can persist. `PostgresLike`
//! is not here because it is a *baseline* estimator (`fj-baselines`), not
//! a FactorJoin backend, and has no persistence path to differentiate.
//!
//! Bit-identity is a meaningful contract here because persistence stores
//! bins + key statistics verbatim (raw slab copies, exact `f64` bits) and
//! deterministically rebuilds
//! single-table estimators from the catalog — so *any* bit of drift means
//! a codec bug, not noise.

use factorjoin::{
    load_model, save_model, BaseEstimatorKind, BinBudget, BinningStrategy, FactorJoinConfig,
    FactorJoinModel,
};
use fj_datagen::{
    imdb_catalog, imdb_job_workload, stats_catalog, stats_ceb_workload, ImdbConfig, StatsConfig,
    WorkloadConfig,
};
use fj_query::Query;
use fj_stats::BnConfig;
use fj_storage::Catalog;

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
