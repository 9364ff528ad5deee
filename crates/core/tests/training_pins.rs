//! Training output pinned across versions.
//!
//! `binary_persist.rs` proves two trainings by the *same* build agree; this
//! file proves a build trains exactly what its predecessors trained. Each
//! row pins, as literal FNV-1a hashes:
//!
//! * the `.fjm` bytes of the trained model — the bin maps (wave 2a) and the
//!   per-key statistics (waves 1 and 2b), slab layouts included;
//! * the bits of every sub-plan estimate over a small workload — which also
//!   reads the single-table estimators (wave 3, the fit `load_model` repeats).
//!
//! Both datasets × every estimator backend × every binning strategy, each
//! trained serially and on four threads. A speed-up of training must leave
//! every hash unchanged; a change that means to alter what training
//! produces updates the table and says why.

use factorjoin::persist::binary::encode;
use factorjoin::{
    BaseEstimatorKind, BinBudget, BinningStrategy, FactorJoinConfig, FactorJoinModel, SavedModel,
};
use fj_datagen::{
    imdb_catalog, imdb_job_workload, stats_catalog, stats_ceb_workload, ImdbConfig, StatsConfig,
    WorkloadConfig,
};
use fj_query::Query;
use fj_stats::BnConfig;
use fj_storage::Catalog;

/// FNV-1a, 64 bit: a hash with no seed and no dependency, stable forever.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(fjm hash, estimates hash)` of one training.
fn fingerprint(cat: &Catalog, queries: &[Query], cfg: FactorJoinConfig) -> (u64, u64) {
    let model = FactorJoinModel::train(cat, cfg);
    let fjm = fnv1a(encode(&SavedModel::from_model(&model)));
    let mut session = model.subplan_estimator();
    let estimates = queries.iter().flat_map(|q| session.estimate_subplans(q, 1));
    let bytes: Vec<u8> = estimates
        .flat_map(|(mask, est)| [mask.to_le_bytes(), est.to_bits().to_le_bytes()])
        .flatten()
        .collect();
    (fjm, fnv1a(bytes))
}

/// `("dataset/estimator/strategy", fjm hash, estimates hash)`.
#[rustfmt::skip]
const PINS: [(&str, u64, u64); 18] = [
    ("stats/bayesnet/gbsa", 0xd9d10e6178b45c5a, 0xdbf978a5a9773981),
    ("stats/bayesnet/equal_depth", 0x7f79d4e8719a251b, 0x43754afea0a34e11),
    ("stats/bayesnet/equal_width", 0xdf29482c257cd62c, 0xe21a3fcd150c9db1),
    ("stats/sampling/gbsa", 0xfed800e29e72b516, 0xc591629da5e289ec),
    ("stats/sampling/equal_depth", 0xaa87add67672aaa3, 0xd28598c847e1e879),
    ("stats/sampling/equal_width", 0x5427b4c6f3988e04, 0x254edd094700a1db),
    ("stats/truescan/gbsa", 0x2f8c3e1345c97f99, 0x893da16a70093662),
    ("stats/truescan/equal_depth", 0x4e7fca1013be5a50, 0x29eb4b96cfe109c9),
    ("stats/truescan/equal_width", 0x6c7be20349835043, 0xd8571694252ed8a2),
    ("imdb/bayesnet/gbsa", 0xbfec812cb13b41a3, 0xcc501b8f245be6df),
    ("imdb/bayesnet/equal_depth", 0xdcd7a05d51f0f4df, 0x0361c9e4b9f8392c),
    ("imdb/bayesnet/equal_width", 0x4acc2ea8941897ce, 0x2603b353ec1a7119),
    ("imdb/sampling/gbsa", 0xaec08d597a89d047, 0x5a26d0a1e3a025cc),
    ("imdb/sampling/equal_depth", 0x8af50044bd557173, 0x9127d28606ef51a6),
    ("imdb/sampling/equal_width", 0x9b695e1a3d1203ca, 0xa85e98ff2884c6b3),
    ("imdb/truescan/gbsa", 0xc4d18f7b202c63dc, 0x1dc42a17b9b91565),
    ("imdb/truescan/equal_depth", 0xd820c21671a6330c, 0xdec0fa4800f9a085),
    ("imdb/truescan/equal_width", 0xc00624dfab8a1a55, 0x11c2900ff0434961),
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
    for &(label, fjm, estimates) in &PINS {
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
        if serial != (fjm, estimates) {
            wrong.push(label);
        }
        got.push(format!(
            "    (\"{label}\", {:#018x}, {:#018x}),",
            serial.0, serial.1
        ));
    }
    assert!(
        wrong.is_empty(),
        "training output changed for {wrong:?}; this build trains:\n{}",
        got.join("\n")
    );
}
