//! The model registry: named, hot-swappable, `Arc`-shared trained models.
//!
//! FactorJoin's split between heavy offline training and cheap online
//! reads means one trained [`FactorJoinModel`] can serve an optimizer
//! fleet. The registry holds one immutable model per dataset behind an
//! `Arc`; readers clone the `Arc` (a refcount bump) and never block each
//! other. Publishing a retrained model ([`ModelRegistry::swap_model`]) is
//! atomic with respect to readers: a request is served either entirely by
//! the old model or entirely by the new one — epochs on the handle let
//! clients tell which.

use factorjoin::{FactorJoinModel, ModelDelta};
use fj_storage::Catalog;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A resolved model: the shared model plus the epoch it was published at.
#[derive(Clone)]
pub struct ModelHandle {
    /// The trained model (immutable after training; shared by refcount).
    pub model: Arc<FactorJoinModel>,
    /// Monotonically increasing publication epoch, unique across datasets.
    pub epoch: u64,
}

struct Entry {
    model: Arc<FactorJoinModel>,
    epoch: u64,
}

/// Named model store with atomic hot-swap (see module docs).
#[derive(Default)]
pub struct ModelRegistry {
    entries: RwLock<HashMap<String, Entry>>,
    next_epoch: AtomicU64,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn fresh_epoch(&self) -> u64 {
        self.next_epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Publishes `model` under `dataset`, replacing any previous model.
    /// Returns the publication epoch.
    pub fn publish(&self, dataset: &str, model: Arc<FactorJoinModel>) -> u64 {
        let mut entries = self.entries.write().expect("registry lock");
        // Allocate the epoch under the write lock so install order matches
        // epoch order: concurrent publishers cannot install a lower epoch
        // after a higher one.
        let epoch = self.fresh_epoch();
        entries.insert(dataset.to_string(), Entry { model, epoch });
        epoch
    }

    /// Atomically replaces the model of an existing dataset — the hot-swap
    /// path for offline retraining (see `examples/incremental_update.rs`
    /// for producing the retrained model). Returns the replaced model, or
    /// `None` (publishing nothing) if the dataset is unknown; readers in
    /// flight keep the old `Arc` alive until they finish.
    pub fn swap_model(
        &self,
        dataset: &str,
        model: Arc<FactorJoinModel>,
    ) -> Option<Arc<FactorJoinModel>> {
        let mut entries = self.entries.write().expect("registry lock");
        let entry = entries.get_mut(dataset)?;
        // Under the write lock, like publish: install order must
        // match epoch order or clients comparing epochs would mistake a
        // superseded model for the newest one.
        entry.epoch = self.fresh_epoch();
        Some(std::mem::replace(&mut entry.model, model))
    }

    /// Absorbs a staged insert batch into the served model of `dataset`
    /// **without a cold rebuild** (paper §4.3): copies the current model
    /// and applies the delta in `O(|delta|)` through the frozen bin maps
    /// ([`FactorJoinModel::updated_with`]: the absorb fans out per table
    /// and per join key over the model's `config.threads` workers), and publishes
    /// the updated copy atomically. Readers are never blocked by the
    /// update — the expensive clone-and-apply runs outside the
    /// registry lock, and an optimistic epoch check retries if another
    /// publisher won the race meanwhile (so a concurrent swap is never
    /// silently overwritten with statistics derived from its predecessor).
    ///
    /// `catalog` must already contain the appended rows the delta
    /// describes. Returns the new epoch, or `None` when the dataset is
    /// unknown.
    pub fn apply_insert(
        &self,
        dataset: &str,
        catalog: &Catalog,
        delta: &ModelDelta,
    ) -> Option<u64> {
        self.apply_insert_observed(dataset, catalog, delta, |_| {})
    }

    /// [`Self::apply_insert`] with a test seam: `observed` is called with
    /// the epoch each retry loop iteration read, *before* the update is
    /// computed and installed — the window in which a concurrent publisher
    /// can win the race. Production code goes through [`Self::apply_insert`]
    /// (a no-op observer); the race regression test uses the seam to force
    /// a swap inside the window deterministically.
    fn apply_insert_observed(
        &self,
        dataset: &str,
        catalog: &Catalog,
        delta: &ModelDelta,
        mut observed: impl FnMut(u64),
    ) -> Option<u64> {
        loop {
            let handle = self.get(dataset)?;
            observed(handle.epoch);
            let updated = Arc::new(handle.model.updated_with(catalog, delta));
            let mut entries = self.entries.write().expect("registry lock");
            let entry = entries.get_mut(dataset)?;
            if entry.epoch != handle.epoch {
                // Raced with another publisher: redo the update against
                // the model that actually won.
                continue;
            }
            let epoch = self.fresh_epoch();
            entry.epoch = epoch;
            entry.model = updated;
            return Some(epoch);
        }
    }

    /// Loads a `.fjm` model file (anything else is refused as
    /// `InvalidData`) and publishes it under `dataset`. Returns the
    /// publication epoch. This is the registry's cold-start path: ship a
    /// trained or updated `.fjm` (written by [`factorjoin::save_model`])
    /// to a fresh shard and it serves the saved model, bit for bit,
    /// without fitting anything. `catalog` is checked, not kept: it must
    /// hold exactly the file's tables with the same columns.
    pub fn load_and_publish(
        &self,
        dataset: &str,
        path: &std::path::Path,
        catalog: &Catalog,
    ) -> std::io::Result<u64> {
        let model = factorjoin::load_model(path, catalog)?;
        Ok(self.publish(dataset, Arc::new(model)))
    }

    /// Resolves `dataset` to its current model and epoch.
    pub fn get(&self, dataset: &str) -> Option<ModelHandle> {
        let entries = self.entries.read().expect("registry lock");
        entries.get(dataset).map(|e| ModelHandle {
            model: Arc::clone(&e.model),
            epoch: e.epoch,
        })
    }

    /// Registered dataset names, sorted.
    pub fn datasets(&self) -> Vec<String> {
        let entries = self.entries.read().expect("registry lock");
        let mut names: Vec<String> = entries.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.entries.read().expect("registry lock").len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use factorjoin::{BaseEstimatorKind, BinBudget, FactorJoinConfig, FactorJoinModel};
    use fj_datagen::{stats_catalog, StatsConfig};

    /// Holds `registry`'s write lock until the returned guard drops, so
    /// every model lookup waits — a worker resolving its batch's model
    /// included. The seam that lets a server test keep a batch in flight
    /// for exactly as long as it needs, whatever the scheduling.
    pub(crate) fn hold_lookups(registry: &ModelRegistry) -> impl Sized + '_ {
        registry.entries.write().expect("registry lock")
    }

    fn tiny_model(k: usize) -> (Arc<FactorJoinModel>, Catalog) {
        let cat = stats_catalog(&StatsConfig {
            scale: 0.02,
            ..Default::default()
        });
        let model = FactorJoinModel::train(
            &cat,
            FactorJoinConfig {
                bin_budget: BinBudget::Uniform(k),
                estimator: BaseEstimatorKind::TrueScan,
                ..Default::default()
            },
        );
        (Arc::new(model), cat)
    }

    #[test]
    fn publish_get_swap_epochs() {
        let (m1, _) = tiny_model(5);
        let (m2, _) = tiny_model(10);
        let reg = ModelRegistry::new();
        assert!(reg.is_empty());
        assert!(reg.get("stats").is_none());

        let e1 = reg.publish("stats", Arc::clone(&m1));
        let h1 = reg.get("stats").unwrap();
        assert_eq!(h1.epoch, e1);
        assert!(Arc::ptr_eq(&h1.model, &m1));

        let old = reg.swap_model("stats", Arc::clone(&m2)).unwrap();
        assert!(Arc::ptr_eq(&old, &m1));
        let h2 = reg.get("stats").unwrap();
        assert!(h2.epoch > e1, "swap advances the epoch");
        assert!(Arc::ptr_eq(&h2.model, &m2));

        assert!(reg.swap_model("unknown", m2).is_none());
        assert_eq!(reg.datasets(), vec!["stats".to_string()]);
    }

    #[test]
    fn concurrent_swaps_install_in_epoch_order() {
        // Regression: epochs are allocated under the registry write lock,
        // so the last-installed model must carry the highest epoch handed
        // out — racing publishers can never leave a stale model looking
        // newer than the winner.
        let (m, _) = tiny_model(5);
        let reg = Arc::new(ModelRegistry::new());
        reg.publish("stats", Arc::clone(&m));
        let swappers: Vec<_> = (0..4)
            .map(|_| {
                let reg = Arc::clone(&reg);
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    (0..50)
                        .map(|_| {
                            reg.swap_model("stats", Arc::clone(&m)).expect("registered");
                            reg.get("stats").expect("registered").epoch
                        })
                        .max()
                        .expect("swapped at least once")
                })
            })
            .collect();
        let max_seen = swappers
            .into_iter()
            .map(|h| h.join().expect("swapper"))
            .max()
            .expect("non-empty");
        assert_eq!(
            reg.get("stats").expect("registered").epoch,
            max_seen,
            "final model must carry the highest installed epoch"
        );
    }

    #[test]
    fn apply_insert_updates_and_advances_epoch() {
        let (m, cat) = tiny_model(10);
        let reg = ModelRegistry::new();
        let delta = ModelDelta::new();
        // Unknown dataset → None, nothing published.
        assert!(reg.apply_insert("stats", &cat, &delta).is_none());
        let e1 = reg.publish("stats", Arc::clone(&m));
        // An empty delta still republishes (a fresh model copy) and
        // advances the epoch — callers can use it as a no-op refresh.
        let e2 = reg.apply_insert("stats", &cat, &delta).unwrap();
        assert!(e2 > e1);
        let h = reg.get("stats").unwrap();
        assert_eq!(h.epoch, e2);
        assert!(
            !Arc::ptr_eq(&h.model, &m),
            "apply_insert publishes a copy, never the original Arc"
        );
        assert_eq!(h.model.report().model_bytes, m.report().model_bytes);
    }

    #[test]
    fn apply_insert_losing_the_epoch_race_retries_against_the_winner() {
        // Regression for the optimistic-retry loop actually losing its
        // race: a swap lands between apply_insert's `get` and its install,
        // and the update must be redone against the winner — publishing
        // statistics derived from the superseded model would silently
        // undo the swap.
        let (loser, cat) = tiny_model(5);
        let (winner, _) = tiny_model(10);
        assert_ne!(
            loser.report().model_bytes,
            winner.report().model_bytes,
            "the two models must be distinguishable"
        );
        let reg = Arc::new(ModelRegistry::new());
        reg.publish("stats", Arc::clone(&loser));

        // Swapper thread: parked on a barrier until apply_insert is inside
        // its race window, then installs the winner and rejoins.
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let swapper = {
            let (reg, winner, barrier) =
                (Arc::clone(&reg), Arc::clone(&winner), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait(); // apply_insert has read its epoch
                assert!(reg.swap_model("stats", winner).is_some());
                barrier.wait(); // swap installed; let apply_insert proceed
            })
        };

        let delta = ModelDelta::new();
        let mut observed_epochs = Vec::new();
        let epoch = {
            let barrier = Arc::clone(&barrier);
            reg.apply_insert_observed("stats", &cat, &delta, |epoch| {
                observed_epochs.push(epoch);
                if observed_epochs.len() == 1 {
                    // First pass: hold the window open while the swapper
                    // wins the race.
                    barrier.wait();
                    barrier.wait();
                }
            })
            .expect("dataset registered")
        };
        swapper.join().expect("swapper thread");

        assert_eq!(
            observed_epochs.len(),
            2,
            "the lost race forced exactly one retry"
        );
        assert!(
            observed_epochs[1] > observed_epochs[0],
            "the retry observed the winner's (newer) epoch"
        );
        let final_handle = reg.get("stats").expect("registered");
        assert_eq!(final_handle.epoch, epoch);
        assert_eq!(
            final_handle.model.report().model_bytes,
            winner.report().model_bytes,
            "the published statistics derive from the winner, not the stale loser"
        );
    }

    #[test]
    fn save_model_then_load_and_publish_roundtrip_through_disk() {
        use fj_datagen::{stats_ceb_workload, WorkloadConfig};
        let (m, cat) = tiny_model(8);
        let queries = stats_ceb_workload(&cat, &WorkloadConfig::tiny(21));

        let dir = std::env::temp_dir().join("fj_registry_persist");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stats.fjm");
        factorjoin::save_model(&m, &path).unwrap();
        // Cold start on a fresh registry shard: load the shipped .fjm and
        // serve bit-identically to the original in-memory model.
        let reg2 = ModelRegistry::new();
        let epoch = reg2.load_and_publish("stats", &path, &cat).unwrap();
        let h = reg2.get("stats").unwrap();
        assert_eq!(h.epoch, epoch);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(
                m.estimate(q).to_bits(),
                h.model.estimate(q).to_bits(),
                "q{i}: loaded shard must serve bit-identically"
            );
        }
        // A corrupt file refuses to publish and leaves the registry empty.
        let bad = dir.join("bad.fjm");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes.truncate(mid);
        std::fs::write(&bad, &bytes).unwrap();
        let reg3 = ModelRegistry::new();
        assert!(reg3.load_and_publish("stats", &bad, &cat).is_err());
        assert!(reg3.is_empty(), "failed load must not publish");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epochs_unique_across_datasets() {
        let (m, _) = tiny_model(5);
        let reg = ModelRegistry::new();
        let e1 = reg.publish("a", Arc::clone(&m));
        let e2 = reg.publish("b", Arc::clone(&m));
        let e3 = reg.publish("a", m); // re-publish replaces
        assert!(e1 < e2 && e2 < e3);
        assert_eq!(reg.len(), 2);
    }
}
