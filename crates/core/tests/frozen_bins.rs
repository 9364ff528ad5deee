//! The frozen-bins contract of incremental updates (paper §4.3): bins are
//! selected once at training and never change afterwards.
//!
//! * an update leaves every key group's bin map exactly as trained — and
//!   shared, not copied, between the stale model, the updated one and
//!   every table's bin set;
//! * the estimates of updated models are pinned, as literal FNV-1a hashes,
//!   for every estimator backend;
//! * an updated model survives `.fjm` persistence bit for bit.

use factorjoin::{
    load_model, save_model, BaseEstimatorKind, BinBudget, FactorJoinConfig, FactorJoinModel,
    ModelDelta,
};
use fj_datagen::{stats_catalog_split_by_date, stats_ceb_workload, StatsConfig, WorkloadConfig};
use fj_query::Query;
use fj_stats::BnConfig;
use fj_storage::{Catalog, KeyRef};

fn config(estimator: BaseEstimatorKind) -> FactorJoinConfig {
    FactorJoinConfig {
        bin_budget: BinBudget::Uniform(30),
        estimator,
        seed: 7,
        threads: 1,
        ..Default::default()
    }
}

/// The STATS date split: a model trained on the rows before the cut, the
/// catalog with the later rows appended, and the delta staging them.
fn date_split(estimator: BaseEstimatorKind) -> (FactorJoinModel, Catalog, ModelDelta) {
    let cfg = StatsConfig {
        scale: 0.05,
        ..Default::default()
    };
    let (mut catalog, inserts) = stats_catalog_split_by_date(&cfg, 1825);
    let trained = FactorJoinModel::train(&catalog, config(estimator));
    let mut delta = ModelDelta::new();
    for (name, rows) in &inserts {
        let table = catalog.table_mut(name).unwrap();
        let first = table.nrows();
        table.append_rows(rows).unwrap();
        delta.record(table, first);
    }
    (trained, catalog, delta)
}

/// FNV-1a, 64 bit: a hash with no seed and no dependency, stable forever.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
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

#[test]
fn an_update_leaves_every_bin_map_as_trained_and_shared() {
    let (trained, catalog, delta) = date_split(BaseEstimatorKind::TrueScan);
    let updated = trained.updated_with(&catalog, &delta);
    assert!(delta.rows() > 0);
    for gid in 0..trained.report().num_groups {
        let (before, after) = (trained.group_bins(gid), updated.group_bins(gid));
        assert!(
            before.raw_parts() == after.raw_parts(),
            "group {gid} changed: {} assigned values, then {}",
            before.assigned(),
            after.assigned()
        );
        assert!(std::ptr::eq(before, after), "group {gid} was copied");
    }
    // Every table's bin set holds its group's map itself.
    for table in catalog.tables() {
        let bins = updated.table_bins(table.name()).unwrap();
        for (column, map) in bins.iter() {
            let gid = updated
                .group_of(&KeyRef::new(table.name(), column))
                .unwrap();
            assert!(
                std::ptr::eq(map, updated.group_bins(gid)),
                "{}.{column} holds a copy of group {gid}",
                table.name()
            );
        }
    }
}

/// `(estimator, sub-plans, estimates hash)` of the updated model, recorded
/// before the bin maps were frozen: the stored maps then also pinned each
/// new value's fallback bin, which changed no estimate.
#[rustfmt::skip]
const UPDATED_PINS: [(&str, usize, u64); 3] = [
    ("bayesnet", 120, 0x87fe6c1d29c54fde),
    ("sampling", 120, 0x9344ff14b0560f61),
    ("truescan", 120, 0x1d28e313bb68b330),
];

#[test]
fn updated_estimates_match_the_pinned_hashes() {
    let mut got = Vec::new();
    for &(label, _, _) in &UPDATED_PINS {
        let estimator = match label {
            "bayesnet" => BaseEstimatorKind::BayesNet(BnConfig::default()),
            "sampling" => BaseEstimatorKind::Sampling { rate: 0.2 },
            _ => BaseEstimatorKind::TrueScan,
        };
        let (trained, catalog, delta) = date_split(estimator);
        let updated = trained.updated_with(&catalog, &delta);
        let queries = stats_ceb_workload(&catalog, &WorkloadConfig::tiny(33));
        let bits = estimate_bits(&updated, &queries);
        let hash = fnv1a(
            bits.iter()
                .flat_map(|&(mask, est)| [mask.to_le_bytes(), est.to_le_bytes()])
                .flatten(),
        );
        got.push((label, bits.len(), hash));
    }
    let rows: Vec<String> = got
        .iter()
        .map(|(label, n, hash)| format!("    (\"{label}\", {n}, {hash:#018x}),"))
        .collect();
    assert_eq!(
        got,
        UPDATED_PINS,
        "updated estimates changed; this build gives:\n{}",
        rows.join("\n")
    );
}

#[test]
fn an_updated_model_round_trips_through_fjm_bit_for_bit() {
    let (trained, catalog, delta) = date_split(BaseEstimatorKind::TrueScan);
    let updated = trained.updated_with(&catalog, &delta);
    let dir = std::env::temp_dir().join("fj_frozen_bins");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("updated.fjm");
    save_model(&updated, &path).unwrap();
    let loaded = load_model(&path, &catalog).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let queries = stats_ceb_workload(&catalog, &WorkloadConfig::tiny(34));
    let want = estimate_bits(&updated, &queries);
    assert!(!want.is_empty());
    assert_eq!(estimate_bits(&loaded, &queries), want);
}
