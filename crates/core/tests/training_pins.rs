//! Training output pinned across versions.
//!
//! `binary_persist.rs` proves two trainings by the *same* build agree; this
//! file proves a build trains exactly what its predecessors trained. Each
//! row pins, as literal FNV-1a hashes:
//!
//! * the `.fjm` bytes of the trained model — all of it, single-table
//!   estimators included;
//! * the bits of every sub-plan estimate over a small workload — which also
//!   reads the single-table estimators (wave 3);
//! * the training statistics themselves, independently of any byte format:
//!   each group's `k` and sorted `(value, bin)` entries (wave 2a), and each
//!   key's sorted `(value, count)` entries and its three per-bin vectors
//!   (waves 1 and 2b). A format change re-records the first column only.
//!
//! Both datasets × every estimator backend × every binning strategy, each
//! trained serially and on four threads. A speed-up of training must leave
//! every hash unchanged; a change that means to alter what training
//! produces updates the table and says why.

use factorjoin::persist::binary::encode;
use factorjoin::{
    BaseEstimatorKind, BinBudget, BinningStrategy, FactorJoinConfig, FactorJoinModel,
};
use fj_datagen::{
    imdb_catalog, imdb_job_workload, stats_catalog, stats_ceb_workload, ImdbConfig, StatsConfig,
    WorkloadConfig,
};
use fj_query::Query;
use fj_stats::BnConfig;
use fj_storage::Catalog;
use std::collections::BTreeMap;

/// FNV-1a, 64 bit: a hash with no seed and no dependency, stable forever.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The hash of what training computed, read through the model's public
/// accessors in a canonical order: groups by id, keys by name.
fn statistics_hash(model: &FactorJoinModel) -> u64 {
    let mut bytes = Vec::new();
    for gid in 0..model.report().num_groups {
        let map = model.group_bins(gid);
        let mut entries: Vec<(i64, u32)> = map.entries().collect();
        entries.sort_unstable();
        bytes.extend((map.k() as u64).to_le_bytes());
        for (value, bin) in entries {
            bytes.extend(value.to_le_bytes());
            bytes.extend(bin.to_le_bytes());
        }
    }
    let keys: BTreeMap<String, _> = model
        .iter_keys()
        .map(|(key, gid, stats)| (format!("{}.{}", key.table, key.column), (gid, stats)))
        .collect();
    for (name, (gid, stats)) in keys {
        bytes.extend(name.as_bytes());
        bytes.extend((gid as u64).to_le_bytes());
        for (value, count) in stats.freq.sorted_entries() {
            bytes.extend(value.to_le_bytes());
            bytes.extend(count.to_le_bytes());
        }
        for vector in [&stats.bin_total, &stats.bin_mfv, &stats.bin_ndv] {
            bytes.extend((vector.len() as u64).to_le_bytes());
            bytes.extend(vector.iter().flat_map(|x| x.to_bits().to_le_bytes()));
        }
    }
    fnv1a(bytes)
}

/// `(fjm hash, estimates hash, statistics hash)` of one training.
fn fingerprint(cat: &Catalog, queries: &[Query], cfg: FactorJoinConfig) -> (u64, u64, u64) {
    let model = FactorJoinModel::train(cat, cfg);
    let fjm = fnv1a(encode(&model));
    let mut session = model.subplan_estimator();
    let estimates = queries.iter().flat_map(|q| session.estimate_subplans(q, 1));
    let bytes: Vec<u8> = estimates
        .flat_map(|(mask, est)| [mask.to_le_bytes(), est.to_bits().to_le_bytes()])
        .flatten()
        .collect();
    (fjm, fnv1a(bytes), statistics_hash(&model))
}

/// `("dataset/estimator/strategy", fjm hash, estimates hash, statistics
/// hash)`.
#[rustfmt::skip]
const PINS: [(&str, u64, u64, u64); 18] = [
    ("stats/bayesnet/gbsa", 0x3e6f70969a8a4302, 0xdbf978a5a9773981, 0x458e9984de5528c7),
    ("stats/bayesnet/equal_depth", 0xc515ca1345506c20, 0x43754afea0a34e11, 0x7f137be47bdecd9f),
    ("stats/bayesnet/equal_width", 0x9e48ba928a04cda4, 0xe21a3fcd150c9db1, 0x5d5b09bf0fab086d),
    ("stats/sampling/gbsa", 0x9987fcd10bf901d4, 0xc591629da5e289ec, 0x458e9984de5528c7),
    ("stats/sampling/equal_depth", 0xd77fc59344dae7a1, 0xd28598c847e1e879, 0x7f137be47bdecd9f),
    ("stats/sampling/equal_width", 0x34e6bc6ad3f73feb, 0x254edd094700a1db, 0x5d5b09bf0fab086d),
    ("stats/truescan/gbsa", 0xda5427bd50747fe8, 0x893da16a70093662, 0x458e9984de5528c7),
    ("stats/truescan/equal_depth", 0x36f4db2f164e1dde, 0x29eb4b96cfe109c9, 0x7f137be47bdecd9f),
    ("stats/truescan/equal_width", 0x74194c3af8e93749, 0xd8571694252ed8a2, 0x5d5b09bf0fab086d),
    ("imdb/bayesnet/gbsa", 0xe2ab05c31c76863f, 0xcc501b8f245be6df, 0x6ac7cffc69e2978d),
    ("imdb/bayesnet/equal_depth", 0xea58e72b2abe58d6, 0x0361c9e4b9f8392c, 0x56a56fe6fdb5201f),
    ("imdb/bayesnet/equal_width", 0xae3899ccccea7c9f, 0x2603b353ec1a7119, 0x1008914b7f6137a3),
    ("imdb/sampling/gbsa", 0x7cc6142225efbbe0, 0x5a26d0a1e3a025cc, 0x6ac7cffc69e2978d),
    ("imdb/sampling/equal_depth", 0x4bf9e170810f47da, 0x9127d28606ef51a6, 0x56a56fe6fdb5201f),
    ("imdb/sampling/equal_width", 0xbf79eb661216e8f3, 0xa85e98ff2884c6b3, 0x1008914b7f6137a3),
    ("imdb/truescan/gbsa", 0x552c0e75acadb707, 0x1dc42a17b9b91565, 0x6ac7cffc69e2978d),
    ("imdb/truescan/equal_depth", 0xaa0673d2fddac722, 0xdec0fa4800f9a085, 0x56a56fe6fdb5201f),
    ("imdb/truescan/equal_width", 0x676d4dba72758318, 0x11c2900ff0434961, 0x1008914b7f6137a3),
];

#[test]
fn training_output_matches_the_pinned_hashes() {
    let stats = stats_catalog(&StatsConfig {
        scale: 0.05,
        ..Default::default()
    });
    let imdb = imdb_catalog(&ImdbConfig {
        scale: 0.05,
        ..Default::default()
    });
    let stats_queries = stats_ceb_workload(&stats, &WorkloadConfig::tiny(31));
    let imdb_queries = imdb_job_workload(&imdb, &WorkloadConfig::tiny(32));
    let mut got = Vec::new();
    let mut wrong = Vec::new();
    for &(label, fjm, estimates, statistics) in &PINS {
        let (data, rest) = label.split_once('/').unwrap();
        let (est, strat) = rest.split_once('/').unwrap();
        let (cat, queries) = match data {
            "stats" => (&stats, &stats_queries),
            _ => (&imdb, &imdb_queries),
        };
        let estimator = match est {
            "bayesnet" => BaseEstimatorKind::BayesNet(BnConfig::default()),
            "sampling" => BaseEstimatorKind::Sampling { rate: 0.2 },
            _ => BaseEstimatorKind::TrueScan,
        };
        let strategy = match strat {
            "gbsa" => BinningStrategy::Gbsa,
            "equal_depth" => BinningStrategy::EqualDepth,
            _ => BinningStrategy::EqualWidth,
        };
        let cfg = |threads| FactorJoinConfig {
            bin_budget: BinBudget::Uniform(30),
            strategy,
            estimator,
            seed: 7,
            threads,
        };
        let serial = fingerprint(cat, queries, cfg(1));
        let parallel = fingerprint(cat, queries, cfg(4));
        assert_eq!(serial, parallel, "{label}: 1 vs 4 threads");
        if serial != (fjm, estimates, statistics) {
            wrong.push(label);
        }
        got.push(format!(
            "    (\"{label}\", {:#018x}, {:#018x}, {:#018x}),",
            serial.0, serial.1, serial.2
        ));
    }
    assert!(
        wrong.is_empty(),
        "training output changed for {wrong:?}; this build trains:\n{}",
        got.join("\n")
    );
}
