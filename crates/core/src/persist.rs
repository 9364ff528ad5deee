//! Model persistence: the binary `.fjm` format plus a JSON debug export.
//!
//! FactorJoin's deployable statistics — the per-group bin maps and the
//! per-key bin statistics — persist in **two formats behind one API**:
//!
//! * **Binary `.fjm`** ([`binary`]) — the production format: versioned,
//!   checksummed, little-endian sections whose layout mirrors the
//!   in-memory flat slabs, so load is validate + bulk copy rather than
//!   parse. This is what [`save_model`] writes by default.
//! * **JSON** ([`save_model_json`]) — the debug export: human-readable,
//!   diff-able, hand-editable for fixtures. ~an order of magnitude larger
//!   and slower to load (the benchmark's `core.load_saved_s` /
//!   `ttfe_s` time the binary path).
//!
//! The format choice is explicit on save ([`save_model`] dispatches on the
//! path extension: `.json` → JSON, anything else → binary) and **sniffed
//! on load**: [`load_model`] reads the first bytes and accepts either
//! format regardless of extension — `.fjm` files start with the
//! [`binary::MAGIC`] signature, which no JSON document can (JSON starts
//! with `{` or whitespace), so the dispatch is unambiguous.
//!
//! In both formats, single-table estimators are *rebuilt* from the catalog
//! on load: they train in well under a second at paper scale (Figure 6),
//! so shipping them would only complicate the formats. The saved file pins
//! the binning, which is the part whose reproducibility matters (bin
//! selection is the expensive, data-dependent step, and incremental
//! updates must keep bins fixed, §4.3). All writes are crash-safe via
//! `write_atomic`-style staging (same-dir temp + fsync + rename).

pub mod binary;

use crate::binning::{BinningStrategy, KeyFreq};
use crate::keystats::KeyStats;
use crate::model::{BaseEstimatorKind, FactorJoinConfig, FactorJoinModel};
use fj_stats::{BnConfig, KeyBinMap};
use fj_storage::{Catalog, KeyRef};
use serde_json::Value;
use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::path::Path;

/// On-disk representation of a trained model's statistics — the common
/// intermediate both the binary `.fjm` codec and the JSON export encode
/// from and decode to, so the two formats cannot drift apart semantically.
///
/// The JSON mapping is hand-rolled against [`serde_json::Value`] (the
/// vendored serde derives are no-ops, see `vendor/README.md`): integers
/// keyed maps are stored as sorted `[key, value]` pair arrays so the output
/// is deterministic and stays valid JSON.
#[derive(Debug)]
pub struct SavedModel {
    /// Format version.
    pub version: u32,
    /// Binning strategy used at training time.
    pub strategy: String,
    /// Estimator kind (`"bayesnet"`, `"sampling:<rate>"`, `"truescan"`).
    pub estimator: String,
    /// Seed for sampling estimators.
    pub seed: u64,
    /// Per-group bin maps.
    pub group_bins: Vec<KeyBinMap>,
    /// Join key → group id.
    pub group_of: HashMap<String, usize>,
    /// Join key → per-bin statistics.
    pub key_stats: HashMap<String, KeyStats>,
}

// ------------------------------------------------------- JSON conversion

fn err(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

fn binmap_to_json(b: &KeyBinMap) -> Value {
    let mut pairs: Vec<(i64, u32)> = b.entries().collect();
    pairs.sort_unstable();
    Value::object([
        ("k".to_string(), Value::from(b.k())),
        (
            "map".to_string(),
            Value::Array(
                pairs
                    .into_iter()
                    .map(|(v, bin)| Value::Array(vec![Value::from(v), Value::from(bin)]))
                    .collect(),
            ),
        ),
    ])
}

fn binmap_from_json(v: &Value) -> std::io::Result<KeyBinMap> {
    let k = v["k"].as_u64().ok_or_else(|| err("bin map: bad k"))? as usize;
    let mut map = HashMap::new();
    for pair in v["map"].as_array().ok_or_else(|| err("bin map: bad map"))? {
        let key = pair[0].as_i64().ok_or_else(|| err("bin map: bad key"))?;
        let bin = pair[1].as_u64().ok_or_else(|| err("bin map: bad bin"))? as u32;
        if bin as usize >= k.max(1) {
            return Err(err(format!("bin map: bin {bin} out of range for k={k}")));
        }
        map.insert(key, bin);
    }
    if k == 0 {
        return Err(err("bin map: k must be positive"));
    }
    Ok(KeyBinMap::new(k, map))
}

fn f64s_to_json(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::from(x)).collect())
}

fn f64s_from_json(v: &Value) -> std::io::Result<Vec<f64>> {
    v.as_array()
        .ok_or_else(|| err("expected number array"))?
        .iter()
        .map(|x| x.as_f64().ok_or_else(|| err("expected number")))
        .collect()
}

fn keystats_to_json(s: &KeyStats) -> Value {
    let freq = s.freq.sorted_entries();
    Value::object([
        ("bin_total".to_string(), f64s_to_json(&s.bin_total)),
        ("bin_mfv".to_string(), f64s_to_json(&s.bin_mfv)),
        ("bin_ndv".to_string(), f64s_to_json(&s.bin_ndv)),
        (
            "freq".to_string(),
            Value::Array(
                freq.into_iter()
                    .map(|(v, c)| Value::Array(vec![Value::from(v), Value::from(c)]))
                    .collect(),
            ),
        ),
    ])
}

fn keystats_from_json(v: &Value) -> std::io::Result<KeyStats> {
    let mut freq = KeyFreq::default();
    for pair in v["freq"]
        .as_array()
        .ok_or_else(|| err("key stats: bad freq"))?
    {
        let value = pair[0]
            .as_i64()
            .ok_or_else(|| err("key stats: bad freq key"))?;
        let count = pair[1]
            .as_u64()
            .ok_or_else(|| err("key stats: bad freq count"))?;
        freq.set(value, count);
    }
    Ok(KeyStats {
        bin_total: f64s_from_json(&v["bin_total"])?,
        bin_mfv: f64s_from_json(&v["bin_mfv"])?,
        bin_ndv: f64s_from_json(&v["bin_ndv"])?,
        freq,
    })
}

fn saved_to_json(saved: &SavedModel) -> Value {
    Value::object([
        ("version".to_string(), Value::from(saved.version)),
        ("strategy".to_string(), Value::from(saved.strategy.clone())),
        (
            "estimator".to_string(),
            Value::from(saved.estimator.clone()),
        ),
        ("seed".to_string(), Value::from(saved.seed)),
        (
            "group_bins".to_string(),
            Value::Array(saved.group_bins.iter().map(binmap_to_json).collect()),
        ),
        (
            "group_of".to_string(),
            Value::object(
                saved
                    .group_of
                    .iter()
                    .map(|(k, &g)| (k.clone(), Value::from(g))),
            ),
        ),
        (
            "key_stats".to_string(),
            Value::object(
                saved
                    .key_stats
                    .iter()
                    .map(|(k, s)| (k.clone(), keystats_to_json(s))),
            ),
        ),
    ])
}

fn saved_from_json(v: &Value) -> std::io::Result<SavedModel> {
    let version = v["version"]
        .as_u64()
        .ok_or_else(|| err("missing version"))? as u32;
    if version != 1 {
        return Err(err(format!("unsupported model format version {version}")));
    }
    let strategy = v["strategy"]
        .as_str()
        .ok_or_else(|| err("missing strategy"))?
        .to_string();
    let estimator = v["estimator"]
        .as_str()
        .ok_or_else(|| err("missing estimator"))?
        .to_string();
    let seed = v["seed"].as_u64().ok_or_else(|| err("missing seed"))?;
    let group_bins = v["group_bins"]
        .as_array()
        .ok_or_else(|| err("missing group_bins"))?
        .iter()
        .map(binmap_from_json)
        .collect::<std::io::Result<Vec<_>>>()?;
    let mut group_of = HashMap::new();
    for (k, g) in v["group_of"]
        .as_object()
        .ok_or_else(|| err("missing group_of"))?
    {
        let gid = g.as_u64().ok_or_else(|| err("group_of: bad group id"))? as usize;
        if gid >= group_bins.len() {
            return Err(err(format!("group_of: group {gid} has no bin map")));
        }
        group_of.insert(k.clone(), gid);
    }
    let mut key_stats = HashMap::new();
    for (k, s) in v["key_stats"]
        .as_object()
        .ok_or_else(|| err("missing key_stats"))?
    {
        let stats = keystats_from_json(s)?;
        // Per-bin vectors must agree with each other and with the bin count
        // of the key's group, or estimation would index out of bounds later.
        if stats.bin_mfv.len() != stats.bin_total.len()
            || stats.bin_ndv.len() != stats.bin_total.len()
        {
            return Err(err(format!(
                "key stats {k:?}: per-bin vectors disagree in length"
            )));
        }
        if let Some(&gid) = group_of.get(k) {
            let expect = group_bins[gid].k();
            if stats.k() != expect {
                return Err(err(format!(
                    "key stats {k:?}: {} bins but group {gid} has {expect}",
                    stats.k()
                )));
            }
        }
        key_stats.insert(k.clone(), stats);
    }
    Ok(SavedModel {
        version,
        strategy,
        estimator,
        seed,
        group_bins,
        group_of,
        key_stats,
    })
}

fn key_to_string(k: &KeyRef) -> String {
    format!("{}.{}", k.table, k.column)
}

impl SavedModel {
    /// Snapshots a trained model's persistable statistics (bins, group
    /// assignments, per-key stats, config fingerprint) via its public
    /// accessors. Both the binary and JSON savers start here.
    pub fn from_model(model: &FactorJoinModel) -> SavedModel {
        let cfg = model.config();
        let estimator = match cfg.estimator {
            BaseEstimatorKind::BayesNet(_) => "bayesnet".to_string(),
            BaseEstimatorKind::Sampling { rate } => format!("sampling:{rate}"),
            BaseEstimatorKind::TrueScan => "truescan".to_string(),
        };
        let strategy = match cfg.strategy {
            BinningStrategy::Gbsa => "gbsa",
            BinningStrategy::EqualWidth => "equal-width",
            BinningStrategy::EqualDepth => "equal-depth",
        };
        let mut group_of = HashMap::new();
        let mut key_stats = HashMap::new();
        let mut max_gid = 0usize;
        for (kr, stats) in model.iter_key_stats() {
            let gid = model
                .group_of(kr)
                .expect("stats exist only for grouped keys");
            max_gid = max_gid.max(gid);
            group_of.insert(key_to_string(kr), gid);
            key_stats.insert(key_to_string(kr), stats.clone());
        }
        let group_bins: Vec<KeyBinMap> =
            (0..=max_gid).map(|g| model.group_bins(g).clone()).collect();
        SavedModel {
            version: 1,
            strategy: strategy.to_string(),
            estimator,
            seed: cfg.seed,
            group_bins,
            group_of,
            key_stats,
        }
    }

    /// Reconstructs a servable model from saved statistics, rebuilding
    /// single-table estimators from `catalog`. Both load paths end here.
    pub fn into_model(self, catalog: &Catalog) -> std::io::Result<FactorJoinModel> {
        let estimator = if self.estimator == "bayesnet" {
            BaseEstimatorKind::BayesNet(BnConfig::default())
        } else if self.estimator == "truescan" {
            BaseEstimatorKind::TrueScan
        } else if let Some(rate) = self.estimator.strip_prefix("sampling:") {
            BaseEstimatorKind::Sampling {
                rate: rate.parse().unwrap_or(0.01),
            }
        } else {
            return Err(err(format!("unknown estimator {:?}", self.estimator)));
        };
        let strategy = match self.strategy.as_str() {
            "gbsa" => BinningStrategy::Gbsa,
            "equal-width" => BinningStrategy::EqualWidth,
            "equal-depth" => BinningStrategy::EqualDepth,
            other => return Err(err(format!("unknown strategy {other:?}"))),
        };
        let config = FactorJoinConfig {
            bin_budget: crate::binning::BinBudget::Uniform(
                self.group_bins.first().map(KeyBinMap::k).unwrap_or(1),
            ),
            strategy,
            estimator,
            seed: self.seed,
            threads: 0,
        };
        let mut group_of = HashMap::new();
        let mut key_stats = HashMap::new();
        for (key, gid) in &self.group_of {
            let (table, column) = key.split_once('.').ok_or_else(|| err("bad key"))?;
            let kr = KeyRef::new(table, column);
            group_of.insert(kr.clone(), *gid);
            if let Some(s) = self.key_stats.get(key) {
                key_stats.insert(kr, s.clone());
            }
        }
        Ok(FactorJoinModel::from_parts(
            config,
            group_of,
            self.group_bins,
            key_stats,
            catalog,
        ))
    }
}

/// Writes `bytes`' producer output to `path` atomically: serialize into a
/// same-directory temp file, flush + `fsync`, then `rename` over the
/// target. A crash at any point leaves either the old file or the new one,
/// never a torn mix — `rename` within one directory is atomic on POSIX
/// filesystems, and the temp file must live in the same directory so the
/// rename cannot cross a mount. The directory itself is fsynced
/// best-effort afterwards so the rename survives a power cut.
fn write_atomic(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> std::io::Result<()> {
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
        let mut w = BufWriter::new(std::fs::File::create(&tmp)?);
        write(&mut w)?;
        w.flush()?;
        let file = w.into_inner().map_err(|e| e.into_error())?;
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

/// Serializes the model's statistics to `path`, picking the format from
/// the extension: `.json` → the JSON debug export, anything else (the
/// `.fjm` convention included) → the binary format.
///
/// Either way the write is crash-safe: bytes are staged in a
/// same-directory temp file, fsynced, and renamed over `path`, so a kill
/// or power loss mid-save leaves the previous model file intact
/// (`write_atomic` below).
pub fn save_model(model: &FactorJoinModel, path: &Path) -> std::io::Result<()> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("json") => save_model_json(model, path),
        _ => binary::save_model_binary(model, path),
    }
}

/// Serializes the model's statistics to `path` as JSON, regardless of
/// extension — the human-readable debug export (crash-safe like
/// [`save_model`]).
pub fn save_model_json(model: &FactorJoinModel, path: &Path) -> std::io::Result<()> {
    let saved = SavedModel::from_model(model);
    write_atomic(path, |w| serde_json::to_writer(w, &saved_to_json(&saved)))
}

/// Loads a saved model, rebuilding single-table estimators from `catalog`.
///
/// Accepts **both formats** regardless of extension by sniffing the first
/// bytes: a file starting with [`binary::MAGIC`] decodes as `.fjm`
/// binary; anything else is parsed as the JSON export (valid JSON can
/// never start with the magic — its first byte has the high bit set).
///
/// The catalog must have the same schema as at save time; data may have
/// changed (estimators retrain on the current data while the saved bins
/// and key statistics are restored verbatim).
pub fn load_model(path: &Path, catalog: &Catalog) -> std::io::Result<FactorJoinModel> {
    load_saved(path)?.into_model(catalog)
}

/// Reads and fully validates a model file's persisted statistics without
/// rebuilding estimators — the format-sniffing read stage of
/// [`load_model`], exposed so tooling (and `fj_benchmark`) can measure
/// or inspect the persistence formats in isolation.
pub fn load_saved(path: &Path) -> std::io::Result<SavedModel> {
    let bytes = std::fs::read(path)?;
    if bytes.starts_with(&binary::MAGIC) {
        // Typed rejection taxonomy lives in `binary::PersistError`; name
        // the file here so the operator knows which one to restore.
        binary::decode(&bytes).map_err(|e| err(format!("model file {}: {e}", path.display())))
    } else {
        // A truncated file (torn non-atomic write, interrupted copy) fails
        // JSON parsing; surface it with the path so the operator sees which
        // file to restore rather than a bare "unexpected end of input".
        let text = std::str::from_utf8(&bytes).map_err(|_| {
            err(format!(
                "model file {} is truncated or corrupt: not UTF-8 and not .fjm binary",
                path.display()
            ))
        })?;
        let value = serde_json::from_str(text).map_err(|e| {
            err(format!(
                "model file {} is truncated or corrupt: {e}",
                path.display()
            ))
        })?;
        saved_from_json(&value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::BinBudget;
    use fj_datagen::{stats_catalog, StatsConfig};
    use fj_query::parse_query;

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
        let path = dir.join("model.json");
        save_model(&model, &path).unwrap();
        let loaded = load_model(&path, &cat).unwrap();
        let after = loaded.estimate(&q);
        assert_eq!(before, after, "persisted bins must reproduce the bound");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join("fj_persist_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, b"{not json").unwrap();
        let cat = stats_catalog(&StatsConfig {
            scale: 0.02,
            ..Default::default()
        });
        assert!(load_model(&path, &cat).is_err());
        std::fs::remove_file(&path).ok();
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
        let path = dir.join("model.json");
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
        let torn = dir.join(".model.json.tmp.99999.0");
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
            e.to_string().contains("truncated or corrupt"),
            "unhelpful truncation error: {e}"
        );

        // An empty file (crashed before any bytes) is rejected the same way.
        let empty = dir.join("empty.json");
        std::fs::write(&empty, b"").unwrap();
        assert!(load_model(&empty, &cat).is_err());

        // And a later save still replaces the file cleanly.
        save_model(&model, &path).unwrap();
        assert_eq!(before, load_model(&path, &cat).unwrap().estimate(&q));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn saved_file_is_json_with_version() {
        let cat = stats_catalog(&StatsConfig {
            scale: 0.02,
            ..Default::default()
        });
        let model = FactorJoinModel::train(
            &cat,
            FactorJoinConfig {
                bin_budget: BinBudget::Uniform(5),
                estimator: BaseEstimatorKind::Sampling { rate: 0.5 },
                ..Default::default()
            },
        );
        let dir = std::env::temp_dir().join("fj_persist_test3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        save_model(&model, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v["version"], 1);
        assert_eq!(v["estimator"], "sampling:0.5");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_dispatches_on_extension_and_load_sniffs_magic() {
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
        let json_path = dir.join("model.json");
        let fjm_path = dir.join("model.fjm");
        save_model(&model, &json_path).unwrap();
        save_model(&model, &fjm_path).unwrap();

        // Extension dispatch: .json produced a JSON document, .fjm the
        // binary signature.
        let json_bytes = std::fs::read(&json_path).unwrap();
        let fjm_bytes = std::fs::read(&fjm_path).unwrap();
        assert_eq!(json_bytes[0], b'{');
        assert!(fjm_bytes.starts_with(&binary::MAGIC));

        // Magic sniffing: both load through the same entry point, and to
        // prove sniffing beats extension, load the binary bytes from a
        // mislabeled .json path.
        let mislabeled = dir.join("mislabeled.json");
        std::fs::write(&mislabeled, &fjm_bytes).unwrap();
        for p in [&json_path, &fjm_path, &mislabeled] {
            let loaded = load_model(p, &cat).unwrap();
            let got = loaded.estimate(&q);
            assert_eq!(
                before.to_bits(),
                got.to_bits(),
                "estimates diverged via {}",
                p.display()
            );
        }

        // save -> load -> save is byte-identical for the binary format.
        let reloaded = load_model(&fjm_path, &cat).unwrap();
        let second = dir.join("model2.fjm");
        save_model(&reloaded, &second).unwrap();
        assert_eq!(
            fjm_bytes,
            std::fs::read(&second).unwrap(),
            "binary save->load->save must be byte-identical"
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

        // `.fjm` saves go through the same `write_atomic` staging as JSON:
        // a successful save leaves no temp debris behind.
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
