//! Model persistence: the binary `.fjm` format.
//!
//! FactorJoin's deployable statistics — the per-group bin maps and the
//! per-key bin statistics — persist in one format, `.fjm` ([`binary`]):
//! versioned, checksummed, little-endian sections whose layout mirrors the
//! in-memory flat slabs, so load is validate + bulk copy rather than
//! parse. [`save_model`] writes it whatever the path's extension, and
//! [`load_model`] reads nothing else: a file that does not start with
//! [`binary::MAGIC`] — an old JSON export, an empty file, any foreign
//! bytes — is rejected as [`PersistError::BadMagic`] with the path named,
//! without any attempt to parse it.
//!
//! The bytes are canonical: the same statistics always encode to the same
//! file, whether they come from one training or another, from any thread
//! count, or from a reloaded model (see [`binary::encode`]).
//!
//! Single-table estimators are *rebuilt* from the catalog on load: they
//! train in well under a second at paper scale (Figure 6), so shipping
//! them would only complicate the format. The saved file pins the binning,
//! which is the part whose reproducibility matters (bin selection is the
//! expensive, data-dependent step, and incremental updates must keep bins
//! fixed, §4.3). All writes are crash-safe via `write_atomic` (same-dir
//! temp + fsync + rename).
//!
//! [`PersistError::BadMagic`]: binary::PersistError::BadMagic

pub mod binary;

use crate::binning::{BinBudget, BinningStrategy};
use crate::keystats::KeyStats;
use crate::model::{BaseEstimatorKind, FactorJoinConfig, FactorJoinModel};
use fj_stats::KeyBinMap;
use fj_storage::{Catalog, KeyRef};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// A trained model's persistable statistics — what the `.fjm` codec
/// encodes from and decodes to.
#[derive(Debug)]
pub struct SavedModel {
    /// Binning strategy used at training time.
    pub strategy: BinningStrategy,
    /// Single-table estimator kind. The file records the kind and the
    /// sampling rate; a decoded `BayesNet` carries `BnConfig::default()`.
    pub estimator: BaseEstimatorKind,
    /// Seed for sampling estimators.
    pub seed: u64,
    /// Per-group bin maps, shared with the model they were saved from or
    /// are loaded into.
    pub group_bins: Vec<Arc<KeyBinMap>>,
    /// Join key → group id.
    pub group_of: HashMap<String, usize>,
    /// Join key → per-bin statistics.
    pub key_stats: HashMap<String, KeyStats>,
}

fn err(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

fn key_to_string(k: &KeyRef) -> String {
    format!("{}.{}", k.table, k.column)
}

impl SavedModel {
    /// Snapshots a trained model's persistable statistics (bins, group
    /// assignments, per-key stats, config fingerprint) via its public
    /// accessors. [`save_model`] starts here.
    pub fn from_model(model: &FactorJoinModel) -> SavedModel {
        let cfg = model.config();
        let mut group_of = HashMap::new();
        let mut key_stats = HashMap::new();
        let mut max_gid = 0usize;
        for (kr, gid, stats) in model.iter_keys() {
            max_gid = max_gid.max(gid);
            group_of.insert(key_to_string(kr), gid);
            key_stats.insert(key_to_string(kr), stats.clone());
        }
        SavedModel {
            strategy: cfg.strategy,
            estimator: cfg.estimator,
            seed: cfg.seed,
            group_bins: model.shared_group_bins()[..=max_gid].to_vec(),
            group_of,
            key_stats,
        }
    }

    /// Reconstructs a servable model from saved statistics, rebuilding
    /// single-table estimators from `catalog`. [`load_model`] ends here.
    /// Every key must carry statistics.
    pub fn into_model(mut self, catalog: &Catalog) -> std::io::Result<FactorJoinModel> {
        let config = FactorJoinConfig {
            bin_budget: BinBudget::Uniform(self.group_bins.first().map_or(1, |b| b.k())),
            strategy: self.strategy,
            estimator: self.estimator,
            seed: self.seed,
            threads: 0,
        };
        let mut keys = Vec::with_capacity(self.group_of.len());
        for (key, gid) in self.group_of {
            let (table, column) = key.split_once('.').ok_or_else(|| err("bad key"))?;
            let stats = self
                .key_stats
                .remove(&key)
                .ok_or_else(|| err(format!("key {key} has no statistics")))?;
            keys.push((KeyRef::new(table, column), gid, stats));
        }
        Ok(FactorJoinModel::from_parts(
            config,
            self.group_bins,
            keys,
            catalog,
        ))
    }
}

/// Writes `bytes` to `path` atomically: write a same-directory temp file,
/// flush + `fsync`, then `rename` over the target. A crash at any point
/// leaves either the old file or the new one, never a torn mix — `rename`
/// within one directory is atomic on POSIX filesystems, and the temp file
/// must live in the same directory so the rename cannot cross a mount. The
/// directory itself is fsynced best-effort afterwards so the rename
/// survives a power cut.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static TEMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let name = path
        .file_name()
        .ok_or_else(|| err("save path has no file name"))?;
    let tmp = dir.join(format!(
        ".{}.tmp.{}.{}",
        name.to_string_lossy(),
        std::process::id(),
        TEMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
    ));
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        // Durability point: the temp file's bytes must hit disk before the
        // rename publishes them, or a crash could expose an empty file
        // under the final name.
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        // Never leave a stray temp file behind on failure.
        let _ = std::fs::remove_file(&tmp);
        return result;
    }
    // Best-effort: persist the directory entry for the rename. Failure here
    // (e.g. platforms where directories cannot be opened) is not fatal —
    // the data file itself is already durable.
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Serializes the model's statistics to `path` as `.fjm`, whatever the
/// extension.
///
/// The write is crash-safe: bytes are staged in a same-directory temp
/// file, fsynced, and renamed over `path`, so a kill or power loss
/// mid-save leaves the previous model file intact (`write_atomic` above).
pub fn save_model(model: &FactorJoinModel, path: &Path) -> std::io::Result<()> {
    write_atomic(path, &binary::encode(&SavedModel::from_model(model)))
}

/// Loads a saved `.fjm` model, rebuilding single-table estimators from
/// `catalog`.
///
/// The catalog must have the same schema as at save time; data may have
/// changed (estimators retrain on the current data while the saved bins
/// and key statistics are restored verbatim).
pub fn load_model(path: &Path, catalog: &Catalog) -> std::io::Result<FactorJoinModel> {
    load_saved(path)?.into_model(catalog)
}

/// Reads and fully validates a `.fjm` file's persisted statistics without
/// rebuilding estimators — the read stage of [`load_model`], exposed so
/// tooling (and `fj_benchmark`) can measure or inspect the format in
/// isolation. Any rejection is `InvalidData` naming the file, with the
/// typed [`binary::PersistError`] diagnosis in the message.
pub fn load_saved(path: &Path) -> std::io::Result<SavedModel> {
    let bytes = std::fs::read(path)?;
    binary::decode(&bytes).map_err(|e| err(format!("model file {}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_datagen::{stats_catalog, StatsConfig};
    use fj_query::parse_query;
    use fj_stats::BnConfig;

    #[test]
    fn save_load_roundtrip_preserves_estimates() {
        let cat = stats_catalog(&StatsConfig {
            scale: 0.05,
            ..Default::default()
        });
        let cfg = FactorJoinConfig {
            bin_budget: BinBudget::Uniform(20),
            estimator: BaseEstimatorKind::TrueScan,
            ..Default::default()
        };
        let model = FactorJoinModel::train(&cat, cfg);
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM posts p, comments c WHERE p.id = c.post_id;",
        )
        .unwrap();
        let before = model.estimate(&q);

        let dir = std::env::temp_dir().join("fj_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.fjm");
        save_model(&model, &path).unwrap();
        let loaded = load_model(&path, &cat).unwrap();
        let after = loaded.estimate(&q);
        assert_eq!(before, after, "persisted bins must reproduce the bound");
        std::fs::remove_file(&path).ok();
    }

    /// A key the file assigns a group but no statistics cannot be served
    /// (its MFVs are unknown): the load names it instead of guessing.
    #[test]
    fn load_rejects_a_key_without_statistics() {
        let cat = stats_catalog(&StatsConfig {
            scale: 0.02,
            ..Default::default()
        });
        let cfg = FactorJoinConfig {
            bin_budget: BinBudget::Uniform(4),
            estimator: BaseEstimatorKind::TrueScan,
            ..Default::default()
        };
        let mut saved = SavedModel::from_model(&FactorJoinModel::train(&cat, cfg));
        saved
            .key_stats
            .remove("posts.id")
            .expect("posts.id is a key");
        let e = binary::decode(&binary::encode(&saved))
            .expect("the file itself is well-formed")
            .into_model(&cat)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("posts.id"), "unnamed key: {e}");
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join("fj_persist_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let cat = stats_catalog(&StatsConfig {
            scale: 0.02,
            ..Default::default()
        });
        // Every non-`.fjm` file — a JSON model export as older builds wrote
        // it, other bytes, an empty file — is refused up front by both entry
        // points as a foreign file, naming it, and never parsed.
        let cases: [(&str, &[u8]); 4] = [
            (
                "model.json",
                br#"{"version":1,"strategy":"gbsa","estimator":"truescan","seed":42,"group_bins":[{"k":1,"map":[[1,0]]}],"group_of":{"posts.id":0},"key_stats":{}}"#,
            ),
            ("bad.fjm", b"{not json"),
            (
                "binary.fjm",
                &[0x00, 0xFF, 0x89, b'F', b'J', b'M', 0x0D, 0x0A, 0x1A],
            ),
            ("empty.fjm", b""),
        ];
        for (name, bytes) in cases {
            let path = dir.join(name);
            std::fs::write(&path, bytes).unwrap();
            for e in [
                load_saved(&path).map(|_| ()).unwrap_err(),
                load_model(&path, &cat).map(|_| ()).unwrap_err(),
            ] {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{name}: {e}");
                let msg = e.to_string();
                assert!(msg.contains(&path.display().to_string()), "unnamed: {msg}");
                assert!(
                    msg.contains(&binary::PersistError::BadMagic.to_string()),
                    "{name} not diagnosed as a foreign file: {msg}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_is_atomic_and_load_rejects_truncation() {
        let cat = stats_catalog(&StatsConfig {
            scale: 0.05,
            ..Default::default()
        });
        let cfg = FactorJoinConfig {
            bin_budget: BinBudget::Uniform(10),
            estimator: BaseEstimatorKind::TrueScan,
            ..Default::default()
        };
        let model = FactorJoinModel::train(&cat, cfg);
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM posts p, comments c WHERE p.id = c.post_id;",
        )
        .unwrap();
        let before = model.estimate(&q);

        let dir = std::env::temp_dir().join("fj_persist_atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.fjm");
        save_model(&model, &path).unwrap();

        // A successful save leaves no staging debris behind.
        let strays: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(strays.is_empty(), "temp files left after save: {strays:?}");

        // Simulate a crash mid-write of a *second* save: the writer died
        // after staging half the bytes but before the rename. The temp file
        // sits in the directory; the published model file is untouched.
        let good = std::fs::read(&path).unwrap();
        let torn = dir.join(".model.fjm.tmp.99999.0");
        std::fs::write(&torn, &good[..good.len() / 2]).unwrap();
        let loaded = load_model(&path, &cat).unwrap();
        assert_eq!(
            before,
            loaded.estimate(&q),
            "old model must survive a crashed save"
        );

        // Loading the torn file itself fails with a clear error.
        let e = match load_model(&torn, &cat) {
            Ok(_) => panic!("torn file must not load"),
            Err(e) => e,
        };
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            e.to_string().contains("truncated"),
            "unhelpful truncation error: {e}"
        );

        // An empty file (crashed before any bytes) is rejected too.
        let empty = dir.join("empty.fjm");
        std::fs::write(&empty, b"").unwrap();
        assert!(load_model(&empty, &cat).is_err());

        // And a later save still replaces the file cleanly.
        save_model(&model, &path).unwrap();
        assert_eq!(before, load_model(&path, &cat).unwrap().estimate(&q));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn saved_meta_is_typed() {
        let cat = stats_catalog(&StatsConfig {
            scale: 0.02,
            ..Default::default()
        });
        let dir = std::env::temp_dir().join("fj_persist_test3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.fjm");
        for (strategy, estimator) in [
            (
                BinningStrategy::EqualDepth,
                BaseEstimatorKind::Sampling { rate: 0.5 },
            ),
            (BinningStrategy::EqualWidth, BaseEstimatorKind::TrueScan),
            (
                BinningStrategy::Gbsa,
                BaseEstimatorKind::BayesNet(BnConfig::default()),
            ),
        ] {
            let model = FactorJoinModel::train(
                &cat,
                FactorJoinConfig {
                    bin_budget: BinBudget::Uniform(5),
                    strategy,
                    estimator,
                    seed: 9,
                    threads: 1,
                },
            );
            save_model(&model, &path).unwrap();
            let saved = load_saved(&path).unwrap();
            assert_eq!(saved.strategy, strategy);
            assert_eq!(saved.estimator, estimator);
            assert_eq!(saved.seed, 9);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_writes_fjm_whatever_the_extension() {
        let cat = stats_catalog(&StatsConfig {
            scale: 0.02,
            ..Default::default()
        });
        let model = FactorJoinModel::train(
            &cat,
            FactorJoinConfig {
                bin_budget: BinBudget::Uniform(8),
                estimator: BaseEstimatorKind::TrueScan,
                ..Default::default()
            },
        );
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM posts p, comments c WHERE p.id = c.post_id;",
        )
        .unwrap();
        let before = model.estimate(&q);

        let dir = std::env::temp_dir().join("fj_persist_dispatch");
        std::fs::create_dir_all(&dir).unwrap();
        let fjm_path = dir.join("model.fjm");
        save_model(&model, &fjm_path).unwrap();
        let fjm_bytes = std::fs::read(&fjm_path).unwrap();
        assert!(fjm_bytes.starts_with(&binary::MAGIC));

        // Any other name gets the same bytes, and loads the same way.
        for name in ["model.json", "model"] {
            let p = dir.join(name);
            save_model(&model, &p).unwrap();
            assert_eq!(std::fs::read(&p).unwrap(), fjm_bytes, "{name}");
            let got = load_model(&p, &cat).unwrap().estimate(&q);
            assert_eq!(before.to_bits(), got.to_bits(), "estimate via {name}");
        }

        // save -> load -> save is byte-identical.
        let reloaded = load_model(&fjm_path, &cat).unwrap();
        let second = dir.join("model2.fjm");
        save_model(&reloaded, &second).unwrap();
        assert_eq!(
            fjm_bytes,
            std::fs::read(&second).unwrap(),
            "save->load->save must be byte-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_fjm_writes_are_rejected_with_clear_errors() {
        let cat = stats_catalog(&StatsConfig {
            scale: 0.02,
            ..Default::default()
        });
        let model = FactorJoinModel::train(
            &cat,
            FactorJoinConfig {
                bin_budget: BinBudget::Uniform(6),
                estimator: BaseEstimatorKind::TrueScan,
                ..Default::default()
            },
        );
        let dir = std::env::temp_dir().join("fj_persist_torn_fjm");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.fjm");
        save_model(&model, &path).unwrap();

        // A successful save leaves no temp debris behind.
        let strays: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(strays.is_empty(), "temp files left after save: {strays:?}");

        // Truncate at the header, mid-table, every section boundary, and
        // mid-section: every torn prefix must fail loudly with an
        // InvalidData error naming the file — never load a wrong model.
        let good = std::fs::read(&path).unwrap();
        let mut cuts = vec![0, 7, 12, 30, good.len() - 1];
        for i in 0..4 {
            let e = 24 + i * 32;
            let off = u64::from_le_bytes(good[e + 8..e + 16].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(good[e + 16..e + 24].try_into().unwrap()) as usize;
            cuts.extend([off, off + len / 2]);
        }
        let torn_path = dir.join("torn.fjm");
        for cut in cuts {
            std::fs::write(&torn_path, &good[..cut]).unwrap();
            let e = match load_model(&torn_path, &cat) {
                Ok(_) => panic!("torn prefix of {cut} bytes must not load"),
                Err(e) => e,
            };
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "cut at {cut}");
            assert!(
                e.to_string().contains("torn.fjm"),
                "error must name the file: {e}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
