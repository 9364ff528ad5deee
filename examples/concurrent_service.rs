//! Concurrent serving with hot-swap: train once, serve from a worker
//! pool, retrain offline after data growth, publish atomically — readers
//! never pause (ROADMAP north star; see `crates/service`).
//!
//! ```sh
//! cargo run --release --example concurrent_service
//! FJ_WORKERS=8 cargo run --release --example concurrent_service
//! ```

use factorjoin::{BaseEstimatorKind, BinBudget, FactorJoinConfig, FactorJoinModel};
use fj_datagen::{stats_catalog_split_by_date, stats_ceb_workload, StatsConfig, WorkloadConfig};
use fj_service::{EstimatorService, ModelRegistry, ServiceConfig};
use std::sync::Arc;
use std::time::Instant;

#[path = "util/scale.rs"]
mod util;
use util::fj_scale;

fn main() {
    let workers: usize = std::env::var("FJ_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let cfg = StatsConfig {
        scale: fj_scale(),
        ..Default::default()
    };
    // Train on the first half of the data (by date) so a grown catalog is
    // available later for the offline-retrain + hot-swap step.
    let (mut catalog, inserts) = stats_catalog_split_by_date(&cfg, 1825);
    let train_cfg = FactorJoinConfig {
        bin_budget: BinBudget::Uniform(100),
        estimator: BaseEstimatorKind::TrueScan,
        ..Default::default()
    };
    let model = Arc::new(FactorJoinModel::train(&catalog, train_cfg.clone()));
    println!(
        "trained on {} rows in {:.1}ms ({} key groups)",
        catalog.total_rows(),
        model.report().train_seconds * 1e3,
        model.report().num_groups,
    );

    // Registry + worker pool: the serving half of the architecture
    // (train → registry → workers; see README "Serving").
    let registry = Arc::new(ModelRegistry::new());
    let first_epoch = registry.publish("stats", Arc::clone(&model));
    let service = Arc::new(EstimatorService::start(
        Arc::clone(&registry),
        ServiceConfig::new("stats", workers),
    ));
    let queries = Arc::new(stats_ceb_workload(&catalog, &WorkloadConfig::tiny(5)));

    // Concurrent clients: each thread batches the workload several times.
    let started = Instant::now();
    let clients: Vec<_> = (0..workers.max(2))
        .map(|_| {
            let service = Arc::clone(&service);
            let queries = Arc::clone(&queries);
            std::thread::spawn(move || {
                let mut epochs = std::collections::BTreeSet::new();
                for _ in 0..10 {
                    for resp in service.submit_batch(&queries).wait_all() {
                        let resp = resp.expect("served");
                        epochs.insert(resp.model_epoch);
                    }
                }
                (epochs, Instant::now())
            })
        })
        .collect();

    // Meanwhile: the data grows, a new model trains *offline*, and
    // swap_model publishes it mid-traffic. In-flight requests finish on
    // the model they started with; later ones see the new epoch.
    for (tname, rows) in &inserts {
        catalog
            .table_mut(tname)
            .expect("table exists")
            .append_rows(rows)
            .expect("valid rows");
    }
    let retrained = Arc::new(FactorJoinModel::train(&catalog, train_cfg));
    registry
        .swap_model("stats", Arc::clone(&retrained))
        .expect("dataset registered");
    let new_epoch = registry.get("stats").expect("registered").epoch;
    println!("hot-swapped retrained model: epoch {first_epoch} → {new_epoch} (no reader paused)");

    let mut seen_epochs = std::collections::BTreeSet::new();
    let mut finished = started;
    for c in clients {
        let (epochs, done) = c.join().expect("client");
        seen_epochs.extend(epochs);
        finished = finished.max(done);
    }
    let elapsed = finished - started;
    println!(
        "clients observed model epochs {:?} across the swap",
        seen_epochs.iter().collect::<Vec<_>>()
    );

    let snap = service.stats();
    println!(
        "service stats: {} requests, {} sub-plans, {} errors; cache {} hits / {} misses; \
         queue high-water {}",
        snap.requests,
        snap.subplans,
        snap.errors,
        snap.cache_hits,
        snap.cache_misses,
        snap.queue_high_water,
    );
    println!(
        "aggregate throughput with {workers} workers: {:.0} sub-plans/s over the clients' {:.1}ms",
        snap.subplans as f64 / elapsed.as_secs_f64(),
        elapsed.as_secs_f64() * 1e3,
    );
}
