//! Persistence: train a model once, ship it as a binary `.fjm` file, and
//! serve bit-identical estimates after a cold start — for the trained
//! model and for the model an incremental update (paper §4.3) produced.
//!
//! ```sh
//! cargo run --release --example persistence
//! FJ_SCALE=0.05 cargo run --release --example persistence   # seconds
//! ```
//!
//! `.fjm` (magic + section table + per-section CRC) is the only model
//! format, and it holds the trained model itself: bins, key statistics
//! and every single-table estimator. A load decodes it and fits nothing,
//! so the loaded model is the saved one bit for bit. Its bytes are
//! canonical — training again on the same data writes the same file.

use std::time::Instant;

use factorjoin::{load_model, save_model, FactorJoinConfig, FactorJoinModel, ModelDelta};
use fj_datagen::{stats_catalog_split_by_date, StatsConfig};
use fj_query::parse_query;

#[path = "util/scale.rs"]
mod util;
use util::fj_scale;

fn main() {
    // 1. Train a model on the synthetic Stack-Exchange-like database, up
    //    to a cut-off date; the later rows arrive as inserts in step 6.
    let (catalog, inserts) = stats_catalog_split_by_date(
        &StatsConfig {
            scale: fj_scale(),
            ..Default::default()
        },
        3285,
    );
    let model = FactorJoinModel::train(&catalog, FactorJoinConfig::default());
    println!(
        "trained: {} tables, {} rows, model {} KB in memory",
        catalog.num_tables(),
        catalog.total_rows(),
        model.report().model_bytes / 1024
    );

    // 2. Save it.
    let dir = std::env::temp_dir().join(format!("fj_persistence_example_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let fjm = dir.join("model.fjm");
    save_model(&model, &fjm).expect("save model");
    let saved = std::fs::read(&fjm).expect("read .fjm");
    println!("saved  : {} ({} KB)", fjm.display(), saved.len() / 1024);

    // 3. Cold-start from the file and time it.
    let t0 = Instant::now();
    let loaded = load_model(&fjm, &catalog).expect("load model");
    println!("loaded : {:.2}ms", t0.elapsed().as_secs_f64() * 1e3);

    // 4. The loaded model must estimate bit-identically to the trained one.
    let sql = "SELECT COUNT(*) FROM users u, posts p, comments c \
               WHERE u.id = p.owner_user_id AND p.id = c.post_id \
               AND u.reputation > 50 AND p.score >= 2;";
    let query = parse_query(&catalog, sql).expect("valid SQL");
    let original = model.estimate(&query);
    let est = loaded.estimate(&query);
    assert_eq!(
        est.to_bits(),
        original.to_bits(),
        "reload changed the estimate: {est} vs {original}"
    );
    println!("verify : reloaded estimate bit-identical ({original:.0})");

    // 5. The bytes are canonical: a second training writes the same file.
    let retrained = FactorJoinModel::train(&catalog, FactorJoinConfig::default());
    let again = dir.join("retrained.fjm");
    save_model(&retrained, &again).expect("save retrained model");
    assert!(
        std::fs::read(&again).expect("read retrained .fjm") == saved,
        "retraining on the same data wrote different bytes"
    );
    println!("verify : retrained model saves byte-identically");

    // 6. Absorb the later rows as an incremental update, ship the updated
    //    model, and reload it: it is the updated model, not a refit.
    let mut current = catalog.clone();
    let mut delta = ModelDelta::new();
    for (name, rows) in &inserts {
        let table = current.table_mut(name).expect("split names a table");
        let first = table.nrows();
        table.append_rows(rows).expect("schema-compatible rows");
        delta.record(table, first);
    }
    let updated = model.updated_with(&current, &delta);
    let updated_fjm = dir.join("updated.fjm");
    save_model(&updated, &updated_fjm).expect("save updated model");
    let reloaded = load_model(&updated_fjm, &current).expect("load updated model");
    let query = parse_query(&current, sql).expect("valid SQL");
    let (want, got) = (updated.estimate(&query), reloaded.estimate(&query));
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "reloading the updated model changed the estimate: {got} vs {want}"
    );
    println!(
        "verify : updated model ({} rows inserted) reloads bit-identical ({want:.0})",
        delta.rows()
    );

    std::fs::remove_dir_all(&dir).ok();
}
