//! Model persistence: the binary `.fjm` format.
//!
//! A model persists in one format, `.fjm` ([`binary`]): versioned,
//! checksummed, little-endian sections holding everything training
//! computed — the [`FactorJoinConfig`], the per-group bin maps, the
//! per-key statistics, and one section per table with its single-table
//! estimator's fitted state. [`save_model`] writes it whatever the path's
//! extension, and [`load_model`] reads nothing else: a file that does not
//! start with [`binary::MAGIC`] — an old JSON export, an empty file, any
//! foreign bytes — is rejected as [`PersistError::BadMagic`] with the path
//! named, without any attempt to parse it.
//!
//! The trained model is the artefact (as FLAT and Scardina ship theirs): a
//! load decodes the estimators and recomputes only what they derive from
//! their fitted state, and fits nothing. So a loaded model is the saved
//! one bit for bit — trained or updated (§4.3), with any config — and a
//! cold start pays a decode instead of a training pass. The decode pays
//! per byte, not per call: maps fill their slabs straight from the bytes,
//! with no vector of entries in between. On the benchmark's `lifecycle`
//! model (827 617 bytes) it takes ≈ 4.6 ms, down from ≈ 8.1 ms; read
//! sections + CRC 0.66 → 0.28, `GROUP_BINS` 1.29 → 0.58, `KEY_STATS`
//! 4.07 → 2.47 and the tables 2.04 → 1.24 ms (the split is in [`binary`]).
//! The catalog a load is given is checked, not read: it must hold exactly
//! the file's tables with the same column names and types.
//!
//! The bytes are canonical: the same model always encodes to the same
//! file, whether it comes from one training or another, from any thread
//! count, or from a reloaded model (see [`binary::encode`]). All writes
//! are crash-safe via `write_atomic` (same-dir temp + fsync + rename).
//!
//! [`PersistError::BadMagic`]: binary::PersistError::BadMagic

pub mod binary;

use crate::model::{FactorJoinConfig, FactorJoinModel};
use fj_storage::Catalog;
use std::io::Write;
use std::path::Path;

/// A decoded `.fjm` file: the saved model, not yet matched against a
/// catalog. [`load_saved`] returns it; [`Self::into_model`] checks the
/// catalog and hands the model over.
pub struct SavedModel {
    model: FactorJoinModel,
}

fn err(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

impl SavedModel {
    /// The saved training configuration.
    pub fn config(&self) -> &FactorJoinConfig {
        self.model.config()
    }

    /// The saved model, once `catalog` is shown to hold exactly its tables,
    /// each with the same column names and types in the same order: the
    /// estimators were fitted to that schema, and queries are compiled
    /// against the catalog. Any difference is `InvalidData` naming the
    /// table. [`load_model`] ends here.
    pub fn into_model(self, catalog: &Catalog) -> std::io::Result<FactorJoinModel> {
        let saved = self.model.sorted_tables();
        for table in catalog.tables() {
            let Some(&(_, schema, _)) = saved.iter().find(|(name, _, _)| *name == table.name())
            else {
                return Err(err(format!(
                    "catalog table {:?} is not in the model file",
                    table.name()
                )));
            };
            let shape = |s: &fj_storage::TableSchema| -> Vec<(String, fj_storage::DataType)> {
                s.columns()
                    .iter()
                    .map(|c| (c.name.clone(), c.dtype))
                    .collect()
            };
            if shape(schema) != shape(table.schema()) {
                return Err(err(format!(
                    "catalog table {:?} has other columns than the model file: {:?} vs {:?}",
                    table.name(),
                    shape(table.schema()),
                    shape(schema)
                )));
            }
        }
        if let Some((name, _, _)) = saved
            .iter()
            .find(|(name, _, _)| catalog.table(name).is_err())
        {
            return Err(err(format!(
                "model file table {name:?} is not in the catalog"
            )));
        }
        Ok(self.model)
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

/// Serializes the model to `path` as `.fjm`, whatever the extension.
///
/// The write is crash-safe: bytes are staged in a same-directory temp
/// file, fsynced, and renamed over `path`, so a kill or power loss
/// mid-save leaves the previous model file intact (`write_atomic` above).
pub fn save_model(model: &FactorJoinModel, path: &Path) -> std::io::Result<()> {
    write_atomic(path, &binary::encode(model))
}

/// Loads a saved `.fjm` model: decodes it ([`load_saved`]) and checks
/// that `catalog` has exactly the file's tables, with the same column
/// names and types ([`SavedModel::into_model`]). No estimator is fitted:
/// the loaded model is the saved one, bit for bit.
pub fn load_model(path: &Path, catalog: &Catalog) -> std::io::Result<FactorJoinModel> {
    load_saved(path)?.into_model(catalog)
}

/// Reads and fully validates a `.fjm` file — the decode stage of
/// [`load_model`], before the catalog check, exposed so tooling (and
/// `fj_benchmark`) can measure or inspect the format in isolation. Any
/// rejection is `InvalidData` naming the file, with the typed
/// [`binary::PersistError`] diagnosis in the message.
pub fn load_saved(path: &Path) -> std::io::Result<SavedModel> {
    let bytes = std::fs::read(path)?;
    binary::decode(&bytes).map_err(|e| err(format!("model file {}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::{BinBudget, BinningStrategy};
    use crate::model::BaseEstimatorKind;
    use fj_datagen::{stats_catalog, StatsConfig};
    use fj_query::parse_query;
    use fj_stats::BnConfig;
    use fj_storage::{ColumnDef, DataType, Table, TableSchema, Value};

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
        let model = FactorJoinModel::train(&cat, cfg);
        let last_key = model
            .iter_keys()
            .map(|(k, _, _)| format!("{}.{}", k.table, k.column))
            .max()
            .unwrap();
        // Claim one record fewer in KEY_STATS (its leading count varint)
        // and re-checksum the section: the last key has no statistics.
        let mut bytes = binary::encode(&model);
        let entry = (0..6)
            .map(|i| 24 + i * 32)
            .find(|&e| bytes[e..e + 4] == binary::SEC_KEY_STATS.to_le_bytes())
            .unwrap();
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        let (off, len) = (word(entry + 8), word(entry + 16));
        assert!(bytes[off] > 0 && bytes[off] < 0x80, "one-byte record count");
        bytes[off] -= 1;
        let crc = binary::crc32(&bytes[off..off + len]);
        bytes[entry + 24..entry + 28].copy_from_slice(&crc.to_le_bytes());
        let e = binary::decode(&bytes).map(|_| ()).unwrap_err();
        assert!(matches!(e, binary::PersistError::Invalid { .. }), "{e}");
        assert!(e.to_string().contains(&last_key), "unnamed key: {e}");
    }

    /// The catalog a load is given must hold exactly the file's tables with
    /// the same columns: each difference is refused at load, naming the
    /// table, not at the first estimate.
    #[test]
    fn load_checks_the_catalog_names_the_table() {
        let cat = stats_catalog(&StatsConfig {
            scale: 0.02,
            ..Default::default()
        });
        let model = FactorJoinModel::train(
            &cat,
            FactorJoinConfig {
                bin_budget: BinBudget::Uniform(4),
                estimator: BaseEstimatorKind::TrueScan,
                ..Default::default()
            },
        );
        let dir = std::env::temp_dir().join("fj_persist_catalog_check");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.fjm");
        save_model(&model, &path).unwrap();
        assert!(load_model(&path, &cat).is_ok());

        let mut missing = Catalog::new();
        for t in cat.tables().filter(|t| t.name() != "badges") {
            missing.add_table(t.clone()).unwrap();
        }
        let mut extra = cat.clone();
        let schema = TableSchema::new(vec![ColumnDef::key("id")]);
        let rows = vec![vec![Value::Int(1)]];
        extra
            .add_table(Table::from_rows("extras", schema, &rows).unwrap())
            .unwrap();
        let mut retyped = Catalog::new();
        for t in cat.tables() {
            if t.name() != "users" {
                retyped.add_table(t.clone()).unwrap();
                continue;
            }
            let columns: Vec<ColumnDef> = t
                .schema()
                .columns()
                .iter()
                .map(|c| match c.name.as_str() {
                    "reputation" => ColumnDef::new(&c.name, DataType::Float),
                    _ => c.clone(),
                })
                .collect();
            let rows: Vec<Vec<Value>> = (0..t.nrows()).map(|r| t.row(r)).collect();
            let users = Table::from_rows("users", TableSchema::new(columns), &rows).unwrap();
            retyped.add_table(users).unwrap();
        }
        for (catalog, table) in [(missing, "badges"), (extra, "extras"), (retyped, "users")] {
            let e = load_model(&path, &catalog).map(|_| ()).unwrap_err();
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{table}: {e}");
            assert!(e.to_string().contains(table), "{table} not named: {e}");
        }
        std::fs::remove_dir_all(&dir).ok();
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
            // Every field but the build's thread count, which is not saved.
            let want = FactorJoinConfig {
                threads: 0,
                ..model.config().clone()
            };
            assert_eq!(saved.config(), &want);
            assert_eq!(saved.config().strategy, strategy);
            assert_eq!(saved.config().estimator, estimator);
            assert_eq!(saved.config().seed, 9);
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
