//! The FactorJoin model: offline training and online estimation.

use crate::binning::{build_group_bins, BinBudget, BinningStrategy, KeyFreq};
use crate::factor::{FactorArena, FactorId, JoinScratch, KeepVars};
use crate::keystats::KeyStats;
use fj_par::WorkerPool;
use fj_query::{connected_subplans_into, Query, QueryError, QueryGraph, SubplanMask};
use fj_stats::{
    BaseTableEstimator, BayesNetEstimator, BnConfig, ExactEstimator, KeyBinMap, SamplingEstimator,
    TableBins, TableProfile,
};
use fj_storage::{Catalog, KeyRef, Table, TableSchema};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Which single-table estimator backs the model (paper Table 7 ablation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BaseEstimatorKind {
    /// Chow-Liu-tree Bayesian network (BayesCard stand-in) — the paper's
    /// choice for STATS-CEB.
    BayesNet(BnConfig),
    /// Uniform sampling with the given rate — the paper's choice for
    /// IMDB-JOB (supports `LIKE` and disjunctions).
    Sampling {
        /// Sampling fraction in (0, 1].
        rate: f64,
    },
    /// Exact scanning ("TrueScan"): tight bounds, high estimation latency.
    TrueScan,
}

/// Training configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorJoinConfig {
    /// Bins per equivalent key group (paper default k = 100).
    pub bin_budget: BinBudget,
    /// Binning strategy (paper default GBSA).
    pub strategy: BinningStrategy,
    /// Single-table estimator.
    pub estimator: BaseEstimatorKind,
    /// Seed for the sampling estimator.
    pub seed: u64,
    /// Worker threads for the offline build (0 = all available cores,
    /// 1 = fully serial). The trained model is **bit-identical** for every
    /// thread count — parallelism only fans out independent per-key,
    /// per-group, and per-table work (see `tests/parallel_train.rs`).
    pub threads: usize,
}

impl Default for FactorJoinConfig {
    fn default() -> Self {
        FactorJoinConfig {
            bin_budget: BinBudget::Uniform(100),
            strategy: BinningStrategy::Gbsa,
            estimator: BaseEstimatorKind::BayesNet(BnConfig::default()),
            seed: 42,
            threads: 0,
        }
    }
}

/// Offline-training metadata (paper Figure 6 reports these).
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// Wall-clock training time in seconds.
    pub train_seconds: f64,
    /// Deployable model size in bytes (estimators + bins + per-bin stats).
    pub model_bytes: usize,
    /// Number of equivalent key groups found in the schema.
    pub num_groups: usize,
    /// Bins allocated to each group.
    pub bins_per_group: Vec<usize>,
    /// Worker threads the build fanned out to (1 = serial).
    pub threads: usize,
}

/// Reusable buffers for progressive sub-plan estimation.
///
/// Owning one of these across queries (see [`SubplanEstimator`]) makes
/// [`FactorJoinModel::estimate_subplans_with`] allocation-free per
/// sub-plan: joined factors live in a [`FactorArena`], joins run through a
/// [`JoinScratch`], base-table profiles refill a reused [`TableProfile`],
/// and the per-mask factor ids keep their buffer. Every buffer growth is
/// counted, so tests can assert the steady state allocates nothing.
#[derive(Debug, Default)]
pub struct EstimationScratch {
    join: JoinScratch,
    arena: FactorArena,
    /// The arena id of each sub-plan estimated so far, parallel to the
    /// query's sorted mask list.
    ids: Vec<FactorId>,
    masks: Vec<SubplanMask>,
    base_ids: Vec<Option<FactorId>>,
    profile: TableProfile,
    key_order: Vec<(usize, usize)>,
    ones: Vec<f64>,
    grow_events: u64,
}

impl EstimationScratch {
    /// Total buffer-growth events since construction, across all internal
    /// buffers. Stays constant once the scratch has warmed up on the
    /// largest query shape — the "zero per-sub-plan heap allocation"
    /// contract of the hot path.
    pub fn grow_events(&self) -> u64 {
        self.grow_events + self.join.grow_events() + self.arena.grow_events()
    }
}

/// An estimation session: a trained model plus owned scratch buffers.
///
/// The model itself is immutable (and shareable) after training; all
/// mutable online state lives here. Create one per worker/thread and feed
/// it queries — after the first few queries the session stops allocating.
pub struct SubplanEstimator<'m> {
    model: &'m FactorJoinModel,
    scratch: EstimationScratch,
}

impl SubplanEstimator<'_> {
    /// Progressive sub-plan estimation through the session scratch (paper
    /// §5.2); see [`FactorJoinModel::estimate_subplans`].
    pub fn estimate_subplans(&mut self, query: &Query, min_size: u32) -> Vec<(SubplanMask, f64)> {
        self.model
            .estimate_subplans_with(&mut self.scratch, query, min_size)
    }

    /// Buffer-growth events so far (see [`EstimationScratch::grow_events`]).
    pub fn grow_events(&self) -> u64 {
        self.scratch.grow_events()
    }

    /// The wrapped model.
    pub fn model(&self) -> &FactorJoinModel {
        self.model
    }
}

/// A trained FactorJoin model.
///
/// Each statistic is held once. A key group's bin map is built once into
/// an `Arc` that the model, every table's [`TableBins`] and every
/// single-table estimator share, and nothing mutates it afterwards (paper
/// §4.3 keeps bins fixed under inserts), so a clone copies no bin slab.
/// Each table has one record and each join key one slot.
#[derive(Clone)]
pub struct FactorJoinModel {
    config: FactorJoinConfig,
    group_bins: Vec<Arc<KeyBinMap>>,
    /// Every join key's slot in `keys`.
    key_slot: HashMap<KeyRef, usize>,
    keys: Vec<KeyRecord>,
    tables: HashMap<String, TableRecord>,
    report: TrainingReport,
}

/// One join key: its group and its offline statistics.
#[derive(Debug, Clone)]
struct KeyRecord {
    group: usize,
    stats: KeyStats,
}

/// Everything the model holds about one table, resolved once per model so
/// the per-alias path looks it up by name once and nothing else by name.
struct TableRecord {
    schema: TableSchema,
    /// Per schema column: the slot of its key in `keys` (`None` for a
    /// column that is not a declared join key).
    key_slots: Vec<Option<usize>>,
    bins: TableBins,
    estimator: Box<dyn BaseTableEstimator>,
}

impl Clone for TableRecord {
    /// The boxed estimator clones through
    /// [`BaseTableEstimator::clone_box`]; the bins are shared `Arc`s.
    fn clone(&self) -> Self {
        TableRecord {
            schema: self.schema.clone(),
            key_slots: self.key_slots.clone(),
            bins: self.bins.clone(),
            estimator: self.estimator.clone_box(),
        }
    }
}

impl FactorJoinModel {
    /// Trains the model on `catalog` (paper Figure 4, offline phase).
    ///
    /// The build fans out across `config.threads` workers (0 = all cores)
    /// in three waves — per-key frequency profiling, per-group binning +
    /// per-key statistics, per-table estimator fits — with the guarantee
    /// that every thread count produces the **same model bit for bit**:
    /// each task is a pure function of its slice of the catalog, and all
    /// cross-task assembly happens serially in canonical order.
    pub fn train(catalog: &Catalog, config: FactorJoinConfig) -> Self {
        let start = Instant::now();
        let pool = WorkerPool::new(config.threads);
        let groups = catalog.equivalent_key_groups();
        let num_groups = groups.len();

        // Wave 1 — frequency map of every join key, one task per key. The
        // flat key order (groups in id order, members in group order) is
        // the canonical order every later stage indexes by.
        let flat_keys: Vec<&KeyRef> = groups.iter().flat_map(|g| g.keys.iter()).collect();
        let mut group_start = Vec::with_capacity(num_groups);
        {
            let mut at = 0usize;
            for g in &groups {
                group_start.push(at);
                at += g.keys.len();
            }
        }
        let freqs: Vec<KeyFreq> = pool.run_indexed(flat_keys.len(), |i| {
            let kr = flat_keys[i];
            let table = catalog.table(&kr.table).expect("group keys exist");
            let ci = table
                .schema()
                .index_of(&kr.column)
                .expect("group keys exist");
            KeyFreq::count_column(table.column(ci))
        });

        // Wave 2a — bin each group from its members' frequency maps, one
        // task per group.
        let group_bins: Vec<Arc<KeyBinMap>> = pool.run_indexed(num_groups, |gi| {
            let g = &groups[gi];
            let k = config.bin_budget.bins_for(g.id, num_groups);
            let member_freqs: Vec<&KeyFreq> = (0..g.keys.len())
                .map(|j| &freqs[group_start[gi] + j])
                .collect();
            Arc::new(build_group_bins(&member_freqs, k, config.strategy))
        });

        // Wave 2b — per-bin statistics of every key under its group's
        // bins, one task per key.
        let gid_of_flat: Vec<usize> = groups
            .iter()
            .flat_map(|g| std::iter::repeat_n(g.id, g.keys.len()))
            .collect();
        let stat_vectors = pool.run_indexed(flat_keys.len(), |i| {
            KeyStats::bin_vectors(&freqs[i], &group_bins[gid_of_flat[i]])
        });

        // Serial assembly in canonical order. Each key's frequency map
        // moves into its `KeyStats` (groups partition the keys), so
        // training never clones the potentially large per-key maps.
        let keys = flat_keys
            .into_iter()
            .zip(freqs)
            .zip(gid_of_flat.into_iter().zip(stat_vectors))
            .map(|((kr, freq), (gid, vectors))| {
                (kr.clone(), gid, KeyStats::from_vectors(vectors, freq))
            })
            .collect();

        Self::assemble(config, group_bins, keys, catalog, &pool, start)
    }

    /// The tail of [`Self::train`]: one slot per join key, and one record
    /// per table — key slots, its keys' shared bin maps, and one estimator
    /// fit (wave 3, the dominant cost: Chow-Liu trees and CPTs for BayesNet
    /// models).
    fn assemble(
        config: FactorJoinConfig,
        group_bins: Vec<Arc<KeyBinMap>>,
        keys: Vec<(KeyRef, usize, KeyStats)>,
        catalog: &Catalog,
        pool: &WorkerPool,
        start: Instant,
    ) -> Self {
        let (key_slot, keys) = index_keys(keys);
        let catalog_tables: Vec<&Table> = catalog.tables().collect();
        let records = pool.run_indexed(catalog_tables.len(), |i| {
            let table = catalog_tables[i];
            let schema = table.schema().clone();
            let (key_slots, bins) =
                key_columns(table.name(), &schema, &key_slot, &keys, &group_bins);
            let estimator = build_estimator(&config.estimator, table, &bins, config.seed);
            let record = TableRecord {
                schema,
                key_slots,
                bins,
                estimator,
            };
            (table.name().to_string(), record)
        });
        let mut model = Self::finish(config, group_bins, key_slot, keys, records, pool.threads());
        model.report.train_seconds = start.elapsed().as_secs_f64();
        model
    }

    /// A model read back from a file: the keys with their groups and
    /// statistics, and per table its name, schema and encoded estimator —
    /// `estimator(encoded, name, schema, bins)` decodes it against the key
    /// bins this model gives the table. Every key must be a column of a
    /// listed table. Nothing is fitted.
    pub(crate) fn from_decoded<T, E: From<String>>(
        config: FactorJoinConfig,
        group_bins: Vec<Arc<KeyBinMap>>,
        keys: Vec<(KeyRef, usize, KeyStats)>,
        tables: Vec<(String, TableSchema, T)>,
        mut estimator: impl FnMut(
            T,
            &str,
            &TableSchema,
            &TableBins,
        ) -> Result<Box<dyn BaseTableEstimator>, E>,
    ) -> Result<Self, E> {
        let (key_slot, keys) = index_keys(keys);
        let mut records = Vec::with_capacity(tables.len());
        let mut placed = 0;
        for (name, schema, encoded) in tables {
            let (key_slots, bins) = key_columns(&name, &schema, &key_slot, &keys, &group_bins);
            placed += key_slots.iter().flatten().count();
            let estimator = estimator(encoded, &name, &schema, &bins)?;
            let record = TableRecord {
                schema,
                key_slots,
                bins,
                estimator,
            };
            records.push((name, record));
        }
        if placed != keys.len() {
            let orphan = key_slot
                .keys()
                .find(|k| {
                    !records
                        .iter()
                        .any(|(name, r)| *name == k.table && r.schema.index_of(&k.column).is_some())
                })
                .map_or_else(String::new, |k| format!("{}.{}", k.table, k.column));
            return Err(E::from(format!(
                "key {orphan} is not a column of any table in the file"
            )));
        }
        Ok(Self::finish(config, group_bins, key_slot, keys, records, 1))
    }

    fn finish(
        config: FactorJoinConfig,
        group_bins: Vec<Arc<KeyBinMap>>,
        key_slot: HashMap<KeyRef, usize>,
        keys: Vec<KeyRecord>,
        tables: Vec<(String, TableRecord)>,
        threads: usize,
    ) -> Self {
        let num_groups = group_bins.len();
        let bins_per_group = group_bins.iter().map(|b| b.k()).collect();
        let mut model = FactorJoinModel {
            config,
            group_bins,
            key_slot,
            keys,
            tables: tables.into_iter().collect(),
            report: TrainingReport {
                train_seconds: 0.0,
                model_bytes: 0,
                num_groups,
                bins_per_group,
                threads,
            },
        };
        model.report.model_bytes = model.model_bytes();
        model
    }

    /// Training metadata.
    pub fn report(&self) -> &TrainingReport {
        &self.report
    }

    /// Training configuration.
    pub fn config(&self) -> &FactorJoinConfig {
        &self.config
    }

    /// Bin map of a key group (for baselines sharing the binning layer).
    pub fn group_bins(&self, gid: usize) -> &KeyBinMap {
        &self.group_bins[gid]
    }

    /// Group id of a join key, if it is part of a declared relation.
    pub fn group_of(&self, key: &KeyRef) -> Option<usize> {
        self.key_slot.get(key).map(|&slot| self.keys[slot].group)
    }

    /// Per-key offline statistics.
    pub fn key_stats(&self, key: &KeyRef) -> Option<&KeyStats> {
        self.key_slot.get(key).map(|&slot| &self.keys[slot].stats)
    }

    /// Iterates over every join key with its group id and statistics (used
    /// by persistence).
    pub fn iter_keys(&self) -> impl Iterator<Item = (&KeyRef, usize, &KeyStats)> {
        self.key_slot.iter().map(|(key, &slot)| {
            let record = &self.keys[slot];
            (key, record.group, &record.stats)
        })
    }

    /// The shared bin map of every key group, by group id (used by
    /// persistence).
    pub(crate) fn shared_group_bins(&self) -> &[Arc<KeyBinMap>] {
        &self.group_bins
    }

    /// Every table's name, schema and estimator, sorted by name (used by
    /// persistence).
    pub(crate) fn sorted_tables(&self) -> Vec<(&str, &TableSchema, &dyn BaseTableEstimator)> {
        let mut out: Vec<_> = self
            .tables
            .iter()
            .map(|(name, t)| (name.as_str(), &t.schema, t.estimator.as_ref()))
            .collect();
        out.sort_unstable_by_key(|&(name, _, _)| name);
        out
    }

    /// The single-table estimator of `table` (for baselines and tests).
    pub fn estimator(&self, table: &str) -> Option<&dyn BaseTableEstimator> {
        self.tables.get(table).map(|t| t.estimator.as_ref())
    }

    /// The bin maps of `table`'s join keys.
    pub fn table_bins(&self, table: &str) -> Option<&TableBins> {
        self.tables.get(table).map(|t| &t.bins)
    }

    /// Checks that `query` names only what this model holds: every table,
    /// every join column index and every filter column. A query bound with
    /// [`Query::new`] against the catalog the model was trained on always
    /// passes; [`Query::from_wire_parts`] sees no catalog, so a server
    /// checks a decoded query here before estimating it, since estimation
    /// indexes the model by these names and indices.
    pub fn check_query(&self, query: &Query) -> Result<(), QueryError> {
        let schema = |alias: usize| {
            let table = &query.tables()[alias].table;
            (self.tables.get(table).map(|t| &t.schema))
                .ok_or_else(|| QueryError::UnknownTable(table.clone()))
        };
        for (alias, tref) in query.tables().iter().enumerate() {
            let schema = schema(alias)?;
            if let Some(p) = (query.filter(alias).predicates().into_iter())
                .find(|p| schema.index_of(p.column()).is_none())
            {
                return Err(QueryError::UnknownColumn {
                    alias: tref.alias.clone(),
                    column: p.column().to_string(),
                });
            }
        }
        for side in query.joins().iter().flat_map(|j| [j.left, j.right]) {
            if side.column >= schema(side.alias)?.len() {
                return Err(QueryError::ColumnOutOfRange {
                    table: query.tables()[side.alias].table.clone(),
                    column: side.column,
                });
            }
        }
        Ok(())
    }

    /// Deployable model size: what each estimator owns, each group's bin
    /// map once (the model, its tables and their estimators share it), and
    /// the per-bin statistics.
    pub fn model_bytes(&self) -> usize {
        let est: usize = self
            .tables
            .values()
            .map(|t| t.estimator.model_bytes())
            .sum();
        let bins: usize = self.group_bins.iter().map(|b| b.heap_bytes()).sum();
        let stats: usize = self.keys.iter().map(|k| k.stats.heap_bytes()).sum();
        est + bins + stats
    }

    /// Opens an estimation session over this model (owned scratch buffers;
    /// see [`SubplanEstimator`]).
    pub fn subplan_estimator(&self) -> SubplanEstimator<'_> {
        SubplanEstimator {
            model: self,
            scratch: EstimationScratch::default(),
        }
    }

    /// Builds the base factor of alias `alias` into `scratch.join`'s output
    /// buffers, profiling its filter once for all adjacent variables.
    /// Returns the alias's estimated (filtered) row count.
    fn build_base_factor(
        &self,
        query: &Query,
        graph: &QueryGraph,
        alias: usize,
        scratch: &mut EstimationScratch,
    ) -> f64 {
        let record = &self.tables[&query.tables()[alias].table];

        // Distinct key columns of this alias, with their variables. Their
        // names sit on the stack: an alias joins on a handful of keys.
        let keys = graph.alias_keys(alias);
        let name = |&(c, _): &(usize, usize)| record.schema.column(c).name.as_str();
        let mut few = [""; 8];
        let many: Vec<&str>;
        let names: &[&str] = if keys.len() <= few.len() {
            for (slot, key) in few.iter_mut().zip(keys) {
                *slot = name(key);
            }
            &few[..keys.len()]
        } else {
            many = keys.iter().map(name).collect();
            &many
        };
        let EstimationScratch {
            join,
            profile,
            key_order,
            ones,
            grow_events,
            ..
        } = scratch;
        let reserved = profile.capacity();
        record
            .estimator
            .profile_into(query.filter(alias), names, profile);
        if profile.capacity() != reserved {
            *grow_events += 1;
        }

        // Group keys per var: a var may have several member columns within
        // this alias (e.g. movie_id and linked_movie_id equated); combine
        // with elementwise min — a valid upper bound for "all members
        // equal". Key distributions are consumed straight out of the
        // profile buffer; MFV counts straight out of the trained KeyStats.
        key_order.clear();
        key_order.extend(keys.iter().enumerate().map(|(idx, &(_, var))| (var, idx)));
        key_order.sort_unstable();
        join.begin();
        let mut prev_var = usize::MAX;
        for &(var, idx) in key_order.iter() {
            let dist: &[f64] = &profile.key_dists[idx];
            let mfv: &[f64] = match record.key_slots[keys[idx].0] {
                Some(slot) => &self.keys[slot].stats.bin_mfv,
                None => {
                    if ones.len() < dist.len() {
                        ones.resize(dist.len(), 1.0);
                    }
                    &ones[..dist.len()]
                }
            };
            if var == prev_var {
                join.min_combine_last(dist, mfv);
            } else {
                join.push_var(var, dist, mfv);
                prev_var = var;
            }
        }
        join.finish();
        profile.rows.max(0.0)
    }

    /// Estimates the probabilistic cardinality bound of `query` (paper
    /// Figure 4, online phase): the full-plan entry of
    /// [`Self::estimate_subplans`], so a query and its sub-plans are
    /// answered by one fold.
    pub fn estimate(&self, query: &Query) -> f64 {
        let n = query.num_tables() as u32;
        self.estimate_subplans(query, n)
            .last()
            .map_or(0.0, |&(_, rows)| rows)
    }

    /// Progressively estimates every connected sub-plan of `query` with at
    /// least `min_size` aliases (paper §5.2): each sub-plan is one factor
    /// join away from a cached smaller sub-plan, so the whole set costs
    /// little more than the final query alone.
    ///
    /// Allocates fresh scratch per call; hold a [`SubplanEstimator`] (or
    /// call [`Self::estimate_subplans_with`]) to reuse buffers across
    /// queries on hot paths.
    pub fn estimate_subplans(&self, query: &Query, min_size: u32) -> Vec<(SubplanMask, f64)> {
        let mut scratch = EstimationScratch::default();
        self.estimate_subplans_with(&mut scratch, query, min_size)
    }

    /// [`Self::estimate_subplans`] through caller-owned scratch buffers:
    /// analyses and enumerates `query`, then [`Self::estimate_analyzed`].
    ///
    /// After the base factors of a query are built, the per-sub-plan work —
    /// split lookup, keep-set construction, factor join — is free of heap
    /// allocation on a warm scratch (asserted by the scratch-reuse tests via
    /// [`EstimationScratch::grow_events`]).
    pub fn estimate_subplans_with(
        &self,
        scratch: &mut EstimationScratch,
        query: &Query,
        min_size: u32,
    ) -> Vec<(SubplanMask, f64)> {
        let graph = QueryGraph::analyze(query);
        let mut masks = std::mem::take(&mut scratch.masks);
        let cap = masks.capacity();
        connected_subplans_into(query, 1, &mut masks);
        if masks.capacity() != cap {
            scratch.grow_events += 1;
        }
        let out = self.estimate_analyzed(scratch, query, &graph, &masks, min_size);
        scratch.masks = masks;
        out
    }

    /// Progressive sub-plan estimation of a query its caller has already
    /// analysed — the one implementation behind
    /// [`Self::estimate_subplans_with`], and what the service's request
    /// path calls with the analysis its cache keys were computed from.
    ///
    /// `graph` is `QueryGraph::analyze(query)` and `masks` every connected
    /// sub-plan of `query` in `connected_subplans_into(query, 1, ..)` order
    /// (ascending `(popcount, mask)`); the estimates returned are those of
    /// the masks with at least `min_size` aliases, in that order.
    pub fn estimate_analyzed(
        &self,
        scratch: &mut EstimationScratch,
        query: &Query,
        graph: &QueryGraph,
        masks: &[SubplanMask],
        min_size: u32,
    ) -> Vec<(SubplanMask, f64)> {
        debug_assert!(
            masks
                .windows(2)
                .all(|w| (w[0].count_ones(), w[0]) < (w[1].count_ones(), w[1])),
            "masks in enumeration order"
        );
        let n = query.num_tables();
        scratch.arena.clear();
        scratch.ids.clear();
        if scratch.ids.capacity() < masks.len() {
            scratch.grow_events += 1;
            scratch.ids.reserve(masks.len());
        }
        if scratch.base_ids.capacity() < n {
            scratch.grow_events += 1;
        }
        scratch.base_ids.clear();
        scratch.base_ids.resize(n, None);
        let mut out = Vec::with_capacity(masks.len());

        for &mask in masks {
            let (id, rows) = if mask.count_ones() == 1 {
                // Base factors, including exact single-table row estimates.
                let i = mask.trailing_zeros() as usize;
                let rows = self.build_base_factor(query, graph, i, scratch);
                let id = scratch.arena.push_scratch(rows, &scratch.join);
                scratch.base_ids[i] = Some(id);
                (id, rows)
            } else {
                // Split off one alias whose removal leaves an estimated
                // (connected) sub-plan.
                let (rest_at, alias) = split_mask(mask, &masks[..scratch.ids.len()]);
                let keep = keep_for_mask(graph, mask);
                let base_id = scratch.base_ids[alias].expect("singletons come first");
                scratch
                    .arena
                    .join(scratch.ids[rest_at], base_id, &keep, &mut scratch.join)
            };
            scratch.ids.push(id);
            if mask.count_ones() >= min_size {
                out.push((mask, rows));
            }
        }
        out
    }

    /// Applies a staged batch of inserts in `O(|delta|)` (paper §4.3): for
    /// every staged table, the new rows `first_new_row..` of the (already
    /// appended-to) `catalog` are routed through the **existing** stable
    /// bin maps — `KeyBinMap::bin_of` assigns unseen values their
    /// deterministic fallback bin — and the per-bin totals, MFV counts,
    /// NDVs, and the single-table estimators update in place. Bins are
    /// never re-selected, which is exactly the paper's stale-bound trade:
    /// updates are cheap, and the bound degrades only as far as the frozen
    /// binning drifts from the new data distribution.
    pub fn apply_insert(&mut self, catalog: &Catalog, delta: &ModelDelta) {
        for (name, first_new_row) in delta.entries() {
            let table = catalog.table(name).expect("delta names a catalog table");
            let Some(record) = self.tables.get_mut(name) else {
                continue;
            };
            for (ci, slot) in record.key_slots.iter().enumerate() {
                let Some(slot) = *slot else { continue };
                let key = &mut self.keys[slot];
                key.stats
                    .insert(table, ci, first_new_row, &self.group_bins[key.group]);
            }
            record.estimator.insert(table, first_new_row);
        }
        self.report.model_bytes = self.model_bytes();
    }

    /// [`Self::apply_insert`] on a copy: clones the trained statistics
    /// (sharing the frozen bin maps), applies the delta, and returns the updated model, leaving `self`
    /// untouched. This is the hot-swap path — the served model stays live
    /// behind its `Arc` while the copy absorbs the update, then
    /// `ModelRegistry::apply_insert` (fj-service) publishes the copy
    /// atomically.
    pub fn updated_with(&self, catalog: &Catalog, delta: &ModelDelta) -> Self {
        let mut updated = self.clone();
        updated.apply_insert(catalog, delta);
        updated
    }
}

/// A staged batch of table inserts, applied to a model in `O(|delta|)` by
/// [`FactorJoinModel::apply_insert`] (paper §4.3).
///
/// The delta records *where the new rows start*, not the rows themselves:
/// append rows to the catalog's tables first, [`ModelDelta::record`] each
/// table's old length, then apply against that catalog. One delta can
/// stage inserts into many tables (the paper's STATS update replays all
/// post-2014 tuples across the whole schema).
#[derive(Debug, Clone, Default)]
pub struct ModelDelta {
    /// `(table name, first new row)` per staged table, in record order.
    entries: Vec<(String, usize)>,
    /// Total staged rows (for reporting; not used by apply).
    rows: usize,
}

impl ModelDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages the rows `first_new_row..` of `table` (already appended).
    pub fn record(&mut self, table: &Table, first_new_row: usize) {
        self.rows += table.nrows().saturating_sub(first_new_row);
        self.entries.push((table.name().to_string(), first_new_row));
    }

    /// Number of staged tables.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been staged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total rows staged across tables.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The staged `(table, first_new_row)` entries.
    pub fn entries(&self) -> impl Iterator<Item = (&str, usize)> {
        self.entries.iter().map(|(t, f)| (t.as_str(), *f))
    }
}

/// The variables that must survive a join producing `mask`: those with a
/// member alias outside the mask (some not-yet-joined alias still
/// references them). Shared by the model's fold and by baselines that
/// reuse the factor join (e.g. PessEst).
pub fn keep_for_mask(graph: &QueryGraph, mask: SubplanMask) -> KeepVars {
    KeepVars::from_fn(graph.num_vars(), |var| graph.var_aliases(var) & !mask != 0)
}

/// Finds `(rest, alias)` with `mask = rest | bit(alias)` and `rest` among
/// the sub-plans already estimated, `done` (sorted by `(popcount, mask)`):
/// returns `rest`'s index in `done`. The lowest such alias bit wins.
fn split_mask(mask: SubplanMask, done: &[SubplanMask]) -> (usize, usize) {
    let mut rest = mask;
    while rest != 0 {
        let bit = rest & rest.wrapping_neg();
        let candidate = mask & !bit;
        let key = (candidate.count_ones(), candidate);
        if let Ok(at) = done.binary_search_by_key(&key, |&m| (m.count_ones(), m)) {
            return (at, bit.trailing_zeros() as usize);
        }
        rest &= rest - 1;
    }
    panic!("connected sub-plan must have an estimated connected predecessor");
}

/// One slot per join key, in the order given.
fn index_keys(keys: Vec<(KeyRef, usize, KeyStats)>) -> (HashMap<KeyRef, usize>, Vec<KeyRecord>) {
    let mut key_slot = HashMap::with_capacity(keys.len());
    let keys = keys
        .into_iter()
        .enumerate()
        .map(|(slot, (kr, group, stats))| {
            key_slot.insert(kr, slot);
            KeyRecord { group, stats }
        })
        .collect();
    (key_slot, keys)
}

/// The key slot of each column of table `name` (`None` for a column that
/// is not a join key), and the table's key bins: each key column's entry
/// is its group's map itself.
fn key_columns(
    name: &str,
    schema: &TableSchema,
    key_slot: &HashMap<KeyRef, usize>,
    keys: &[KeyRecord],
    group_bins: &[Arc<KeyBinMap>],
) -> (Vec<Option<usize>>, TableBins) {
    let mut bins = TableBins::new();
    let key_slots = schema
        .columns()
        .iter()
        .map(|def| {
            let slot = key_slot.get(&KeyRef::new(name, &def.name)).copied();
            if let Some(slot) = slot {
                bins.insert_shared(&def.name, Arc::clone(&group_bins[keys[slot].group]));
            }
            slot
        })
        .collect();
    (key_slots, bins)
}

fn build_estimator(
    kind: &BaseEstimatorKind,
    table: &Table,
    bins: &TableBins,
    seed: u64,
) -> Box<dyn BaseTableEstimator> {
    match kind {
        BaseEstimatorKind::BayesNet(cfg) => Box::new(BayesNetEstimator::build(table, bins, *cfg)),
        BaseEstimatorKind::Sampling { rate } => {
            Box::new(SamplingEstimator::build(table, bins, *rate, seed))
        }
        BaseEstimatorKind::TrueScan => Box::new(ExactEstimator::build(table, bins)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::reference::RefFactor;
    use crate::factor::Factor;
    use fj_datagen::{stats_catalog, stats_ceb_workload, StatsConfig, WorkloadConfig};
    use fj_exec::TrueCardEngine;
    use fj_query::parse_query;

    fn tiny_catalog() -> Catalog {
        stats_catalog(&StatsConfig {
            scale: 0.05,
            ..Default::default()
        })
    }

    fn truescan_config(k: usize) -> FactorJoinConfig {
        FactorJoinConfig {
            bin_budget: BinBudget::Uniform(k),
            strategy: BinningStrategy::Gbsa,
            estimator: BaseEstimatorKind::TrueScan,
            seed: 1,
            threads: 1,
        }
    }

    #[test]
    fn training_report_is_populated() {
        let cat = tiny_catalog();
        let model = FactorJoinModel::train(&cat, FactorJoinConfig::default());
        let r = model.report();
        assert_eq!(r.num_groups, 2);
        assert_eq!(r.bins_per_group.len(), 2);
        assert!(r.model_bytes > 0);
        assert!(r.train_seconds >= 0.0);
    }

    /// Each key group's map is shared by the model, its tables and their
    /// estimators, and counted once: `model_bytes` is what the estimators
    /// own, plus every distinct map, plus the per-bin statistics.
    #[test]
    fn model_bytes_charges_each_group_map_once() {
        let cat = tiny_catalog();
        for estimator in [
            BaseEstimatorKind::BayesNet(BnConfig::default()),
            BaseEstimatorKind::TrueScan,
        ] {
            let model = FactorJoinModel::train(
                &cat,
                FactorJoinConfig {
                    estimator,
                    ..truescan_config(30)
                },
            );
            let mut maps: Vec<*const KeyBinMap> = Vec::new();
            let (mut map_bytes, mut owned, mut key_columns) = (0, 0, 0);
            for table in cat.tables() {
                owned += model.estimator(table.name()).unwrap().model_bytes();
                for (_, map) in model.table_bins(table.name()).unwrap().iter() {
                    key_columns += 1;
                    if !maps.contains(&std::ptr::from_ref(map)) {
                        maps.push(map);
                        map_bytes += map.heap_bytes();
                    }
                }
            }
            assert!(key_columns > maps.len(), "some map is shared");
            let stats: usize = model.iter_keys().map(|(_, _, s)| s.heap_bytes()).sum();
            assert_eq!(
                model.model_bytes(),
                owned + map_bytes + stats,
                "{estimator:?}"
            );
            if estimator == BaseEstimatorKind::TrueScan {
                assert_eq!(owned, 0, "a scan owns no learned state");
            }
        }
    }

    #[test]
    fn single_table_estimate_matches_estimator() {
        let cat = tiny_catalog();
        let model = FactorJoinModel::train(&cat, truescan_config(20));
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM posts p, comments c WHERE p.id = c.post_id AND p.score > 0;",
        )
        .unwrap();
        let subs = model.estimate_subplans(&q, 1);
        let single = subs.iter().find(|(m, _)| *m == 0b01).unwrap().1;
        let exact = fj_query::filtered_count(cat.table("posts").unwrap(), q.filter(0)) as f64;
        assert_eq!(single, exact, "TrueScan single-table estimates are exact");
    }

    /// A query bound against the training catalog passes; one rebuilt
    /// from wire parts naming what the model lacks is refused by name.
    #[test]
    fn check_query_names_what_the_model_lacks() {
        use fj_query::{FilterExpr, Predicate};
        let cat = tiny_catalog();
        let model = FactorJoinModel::train(&cat, truescan_config(10));
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM posts p, comments c WHERE p.id = c.post_id AND p.score > 0;",
        )
        .unwrap();
        assert_eq!(model.check_query(&q), Ok(()));
        let check = |q: Query| model.check_query(&q);
        let rebuilt =
            |tables, joins, filters| Query::from_wire_parts(tables, joins, filters).unwrap();
        let mut tables = q.tables().to_vec();
        tables[1].table = "no_such_table".into();
        assert_eq!(
            check(rebuilt(tables, q.joins().to_vec(), q.filters().to_vec())),
            Err(QueryError::UnknownTable("no_such_table".into()))
        );
        let columns = cat.table("comments").unwrap().schema().len();
        let mut joins = q.joins().to_vec();
        joins[0].right.column = columns;
        assert_eq!(
            check(rebuilt(q.tables().to_vec(), joins, q.filters().to_vec())),
            Err(QueryError::ColumnOutOfRange {
                table: "comments".into(),
                column: columns,
            })
        );
        let mut filters = q.filters().to_vec();
        filters[1] = FilterExpr::pred(Predicate::eq("no_such_column", 1));
        assert_eq!(
            check(rebuilt(q.tables().to_vec(), q.joins().to_vec(), filters)),
            Err(QueryError::UnknownColumn {
                alias: "c".into(),
                column: "no_such_column".into(),
            })
        );
    }

    #[test]
    fn two_table_bound_dominates_truth_with_truescan() {
        // With exact single-table statistics the two-table bound is a
        // genuine upper bound (paper §4.1).
        let cat = tiny_catalog();
        let model = FactorJoinModel::train(&cat, truescan_config(50));
        for sql in [
            "SELECT COUNT(*) FROM posts p, comments c WHERE p.id = c.post_id;",
            "SELECT COUNT(*) FROM users u, badges b WHERE u.id = b.user_id AND u.reputation > 50;",
            "SELECT COUNT(*) FROM posts p, votes v WHERE p.id = v.post_id AND p.score >= 1;",
        ] {
            let q = parse_query(&cat, sql).unwrap();
            let bound = model.estimate(&q);
            let truth = TrueCardEngine::new(&cat, &q).full_cardinality();
            assert!(
                bound >= truth * 0.999,
                "{sql}: bound {bound} < truth {truth}"
            );
        }
    }

    #[test]
    fn more_bins_tighten_the_bound() {
        let cat = tiny_catalog();
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM posts p, comments c WHERE p.id = c.post_id;",
        )
        .unwrap();
        let truth = TrueCardEngine::new(&cat, &q).full_cardinality();
        let bounds: Vec<f64> = [1usize, 10, 100]
            .iter()
            .map(|&k| FactorJoinModel::train(&cat, truescan_config(k)).estimate(&q))
            .collect();
        assert!(
            bounds[0] >= bounds[1] * 0.999 && bounds[1] >= bounds[2] * 0.999,
            "bounds should shrink with k: {bounds:?}"
        );
        assert!(bounds[2] >= truth * 0.999, "k=100 still an upper bound");
        // k=1 is loose but finite.
        assert!(bounds[0].is_finite());
    }

    #[test]
    fn workload_bounds_mostly_dominate_truth() {
        // Paper Figure 7: FactorJoin upper-bounds > 90% of sub-plans. With
        // the exact (TrueScan) base estimator we check the same property on
        // a small workload.
        let cat = tiny_catalog();
        let model = FactorJoinModel::train(&cat, truescan_config(50));
        let wl = stats_ceb_workload(&cat, &WorkloadConfig::tiny(3));
        let mut total = 0usize;
        let mut upper = 0usize;
        for q in &wl {
            let mut eng = TrueCardEngine::new(&cat, q);
            for (mask, est) in model.estimate_subplans(q, 2) {
                let truth = eng.cardinality(mask);
                total += 1;
                if est >= truth * 0.999 {
                    upper += 1;
                }
            }
        }
        let frac = upper as f64 / total as f64;
        assert!(
            frac >= 0.9,
            "only {upper}/{total} sub-plans upper-bounded ({frac:.2})"
        );
    }

    #[test]
    fn self_join_and_cyclic_queries_estimate() {
        let cat = tiny_catalog();
        let model = FactorJoinModel::train(&cat, truescan_config(20));
        // Self join of postLinks through posts (two aliases of postLinks).
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM postLinks l1, postLinks l2 \
             WHERE l1.related_post_id = l2.post_id;",
        )
        .unwrap();
        let bound = model.estimate(&q);
        let truth = TrueCardEngine::new(&cat, &q).full_cardinality();
        assert!(
            bound >= truth * 0.999,
            "self-join bound {bound} < truth {truth}"
        );
        // Cyclic: two join conditions between the same pair of aliases.
        let q2 = parse_query(
            &cat,
            "SELECT COUNT(*) FROM posts p, postLinks l \
             WHERE p.id = l.post_id AND p.id = l.related_post_id;",
        )
        .unwrap();
        let b2 = model.estimate(&q2);
        let t2 = TrueCardEngine::new(&cat, &q2).full_cardinality();
        assert!(b2 >= t2 * 0.999, "cyclic bound {b2} < truth {t2}");
    }

    #[test]
    fn bayesnet_and_sampling_models_give_reasonable_estimates() {
        let cat = tiny_catalog();
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM posts p, comments c WHERE p.id = c.post_id AND p.score > 0;",
        )
        .unwrap();
        let truth = TrueCardEngine::new(&cat, &q).full_cardinality();
        for kind in [
            BaseEstimatorKind::BayesNet(BnConfig::default()),
            BaseEstimatorKind::Sampling { rate: 0.2 },
        ] {
            let model = FactorJoinModel::train(
                &cat,
                FactorJoinConfig {
                    estimator: kind,
                    ..truescan_config(50)
                },
            );
            let est = model.estimate(&q);
            let q_err = (est.max(1.0) / truth.max(1.0)).max(truth.max(1.0) / est.max(1.0));
            assert!(
                q_err < 30.0,
                "{kind:?}: estimate {est} vs truth {truth} (q={q_err:.1})"
            );
        }
    }

    #[test]
    fn incremental_insert_tracks_growth() {
        use fj_datagen::stats_catalog_split_by_date;
        let cfg = StatsConfig {
            scale: 0.05,
            ..Default::default()
        };
        let (mut base, inserts) = stats_catalog_split_by_date(&cfg, 1825);
        let mut model = FactorJoinModel::train(&base, truescan_config(30));
        let q = parse_query(
            &base,
            "SELECT COUNT(*) FROM posts p, comments c WHERE p.id = c.post_id;",
        )
        .unwrap();
        let before = model.estimate(&q);
        let mut delta = ModelDelta::new();
        for (tname, rows) in &inserts {
            let table = base.table_mut(tname).unwrap();
            let first = table.nrows();
            table.append_rows(rows).unwrap();
            delta.record(table, first);
        }
        model.apply_insert(&base, &delta);
        let after = model.estimate(&q);
        let truth = TrueCardEngine::new(&base, &q).full_cardinality();
        assert!(after > before, "estimate should grow after inserts");
        assert!(
            after >= truth * 0.95,
            "updated bound {after} should still dominate truth {truth}"
        );
    }

    #[test]
    fn estimation_latency_is_small() {
        // Paper: ~10k sub-plans per second even for big queries; here we
        // just sanity-check that a workload's sub-plans estimate quickly.
        let cat = tiny_catalog();
        let model = FactorJoinModel::train(&cat, FactorJoinConfig::default());
        let wl = stats_ceb_workload(&cat, &WorkloadConfig::tiny(9));
        let mut session = model.subplan_estimator();
        let start = Instant::now();
        let mut count = 0usize;
        for q in &wl {
            count += session.estimate_subplans(q, 1).len();
        }
        let per_sec = count as f64 / start.elapsed().as_secs_f64();
        assert!(
            per_sec > 200.0,
            "only {per_sec:.0} sub-plans/s (debug build)"
        );
    }

    // ------------------------------------- flat/lazy path invariants

    /// Reference (BTreeMap, eager-rescale) progressive estimation: same
    /// split/cache/keep logic as `estimate_subplans_with`, but every join
    /// goes through the original implementation.
    fn ref_estimate_subplans(
        model: &FactorJoinModel,
        q: &Query,
        min_size: u32,
    ) -> Vec<(SubplanMask, f64)> {
        fn ref_of(f: &Factor) -> RefFactor {
            let entries = f
                .vars()
                .into_iter()
                .map(|v| (v, f.dist(v).unwrap(), f.mfv(v).unwrap()))
                .collect();
            RefFactor::base(f.rows, entries)
        }
        let n = q.num_tables();
        let graph = QueryGraph::analyze(q);
        let masks = fj_query::connected_subplans(q, 1);
        let mut scratch = EstimationScratch::default();
        let mut cache: HashMap<SubplanMask, RefFactor> = HashMap::new();
        let mut base: Vec<Option<RefFactor>> = vec![None; n];
        let mut out = Vec::new();
        for &mask in &masks {
            if mask.count_ones() == 1 {
                let i = mask.trailing_zeros() as usize;
                let rows = model.build_base_factor(q, &graph, i, &mut scratch);
                let f = Factor::from_scratch(rows, &scratch.join);
                let rf = ref_of(&f);
                out.push((mask, rf.rows));
                base[i] = Some(rf.clone());
                cache.insert(mask, rf);
            } else {
                let (rest, alias) = {
                    let mut rest = mask;
                    loop {
                        assert!(rest != 0, "cached predecessor exists");
                        let bit = rest & rest.wrapping_neg();
                        let candidate = mask & !bit;
                        if cache.contains_key(&candidate) {
                            break (candidate, bit.trailing_zeros() as usize);
                        }
                        rest &= rest - 1;
                    }
                };
                let keep = keep_for_mask(&graph, mask);
                let j = cache[&rest].join(base[alias].as_ref().unwrap(), &keep);
                out.push((mask, j.rows));
                cache.insert(mask, j);
            }
        }
        out.retain(|(m, _)| m.count_ones() >= min_size);
        out
    }

    /// Lazy scaling and arena caching never change the progressive
    /// estimates: every sub-plan of a generated STATS-CEB workload gets the
    /// same bound (≤ 1e-9 relative) as the eager reference implementation.
    #[test]
    fn flat_subplan_estimates_match_reference_on_workload() {
        let cat = tiny_catalog();
        let model = FactorJoinModel::train(&cat, truescan_config(25));
        let wl = stats_ceb_workload(&cat, &WorkloadConfig::tiny(7));
        let mut session = model.subplan_estimator();
        for q in &wl {
            let flat = session.estimate_subplans(q, 1);
            let reference = ref_estimate_subplans(&model, q, 1);
            assert_eq!(flat.len(), reference.len());
            for ((m1, e1), (m2, e2)) in flat.iter().zip(&reference) {
                assert_eq!(m1, m2, "mask order");
                let tol = 1e-9 * e1.abs().max(e2.abs()).max(1.0);
                assert!(
                    (e1 - e2).abs() <= tol,
                    "mask {m1:b}: flat {e1} vs reference {e2}"
                );
            }
        }
    }

    /// The scratch-reuse contract: once warmed on a workload, re-running
    /// the same workload performs zero buffer growths — i.e. the per-mask
    /// join path allocates nothing, and the scanning estimators refill the
    /// session's profile (distributions and selection bitmap) in place.
    #[test]
    fn warm_session_does_not_allocate() {
        let cat = tiny_catalog();
        let wl = stats_ceb_workload(&cat, &WorkloadConfig::tiny(4));
        for estimator in [
            BaseEstimatorKind::TrueScan,
            BaseEstimatorKind::Sampling { rate: 0.2 },
        ] {
            let config = FactorJoinConfig {
                estimator,
                ..truescan_config(30)
            };
            let model = FactorJoinModel::train(&cat, config);
            let mut session = model.subplan_estimator();
            for q in &wl {
                session.estimate_subplans(q, 1);
            }
            let warm = session.grow_events();
            for _ in 0..3 {
                for q in &wl {
                    session.estimate_subplans(q, 1);
                }
            }
            assert_eq!(
                session.grow_events(),
                warm,
                "estimation buffers grew on a warm {estimator:?} session"
            );
        }
    }

    // ------------------------------------------- analysis oracles

    /// `QueryGraph::analyze` before its flat rewrite: keys indexed through a
    /// `BTreeMap`, all inserted before any union, grouped by
    /// `UnionFind::groups`, per-alias lists deduplicated by `contains`.
    struct OracleGraph {
        vars: Vec<fj_query::KeyVar>,
        alias_keys: Vec<Vec<(usize, usize)>>,
        adjacency: Vec<Vec<usize>>,
    }

    fn oracle_analyze(query: &Query) -> OracleGraph {
        use fj_query::ColRef;
        let mut keys: Vec<ColRef> = Vec::new();
        let mut index: std::collections::BTreeMap<ColRef, usize> = Default::default();
        for j in query.joins() {
            for cr in [j.left, j.right] {
                index.entry(cr).or_insert_with(|| {
                    keys.push(cr);
                    keys.len() - 1
                });
            }
        }
        let mut uf = fj_storage::UnionFind::new(keys.len());
        for j in query.joins() {
            uf.union(index[&j.left], index[&j.right]);
        }
        let mut key_to_var = vec![0usize; keys.len()];
        let mut vars = Vec::new();
        for (id, members) in uf.groups().into_iter().enumerate() {
            for &m in &members {
                key_to_var[m] = id;
            }
            let members = members.into_iter().map(|m| keys[m]).collect();
            vars.push(fj_query::KeyVar { id, members });
        }
        let n = query.num_tables();
        let mut alias_keys: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for (ki, cr) in keys.iter().enumerate() {
            let entry = (cr.column, key_to_var[ki]);
            if !alias_keys[cr.alias].contains(&entry) {
                alias_keys[cr.alias].push(entry);
            }
        }
        let mut adjacency = vec![Vec::new(); n];
        for j in query.joins() {
            let (a, b) = (j.left.alias, j.right.alias);
            if !adjacency[a].contains(&b) {
                adjacency[a].push(b);
            }
            if !adjacency[b].contains(&a) {
                adjacency[b].push(a);
            }
        }
        alias_keys.iter_mut().for_each(|l| l.sort_unstable());
        adjacency.iter_mut().for_each(|l| l.sort_unstable());
        OracleGraph {
            vars,
            alias_keys,
            adjacency,
        }
    }

    /// `keep_for_mask` before per-variable alias masks: a member scan.
    fn oracle_keep(graph: &OracleGraph, mask: SubplanMask) -> KeepVars {
        let mut kv = KeepVars::none();
        for var in &graph.vars {
            if var.members.iter().any(|cr| mask & (1 << cr.alias) == 0) {
                kv.insert(var.id);
            }
        }
        kv
    }

    /// Progressive estimation before the analysed entry point: factor ids
    /// in a `HashMap` by mask, split through the map, oracle keep sets.
    /// Base factors read only `alias_keys`, which the caller asserts equal
    /// to the oracle's.
    fn oracle_estimate_subplans(model: &FactorJoinModel, q: &Query) -> Vec<(SubplanMask, f64)> {
        let graph = QueryGraph::analyze(q);
        let oracle = oracle_analyze(q);
        let mut scratch = EstimationScratch::default();
        let mut index: HashMap<SubplanMask, FactorId> = HashMap::new();
        let mut base_ids = vec![None; q.num_tables()];
        let mut out = Vec::new();
        for mask in fj_query::connected_subplans(q, 1) {
            let (id, rows) = if mask.count_ones() == 1 {
                let i = mask.trailing_zeros() as usize;
                let rows = model.build_base_factor(q, &graph, i, &mut scratch);
                let id = scratch.arena.push_scratch(rows, &scratch.join);
                base_ids[i] = Some(id);
                (id, rows)
            } else {
                let bit = (0..64)
                    .map(|b| 1u64 << b)
                    .find(|&bit| mask & bit != 0 && index.contains_key(&(mask & !bit)))
                    .expect("estimated predecessor");
                let keep = oracle_keep(&oracle, mask);
                let base = base_ids[bit.trailing_zeros() as usize].unwrap();
                let rest = index[&(mask & !bit)];
                scratch.arena.join(rest, base, &keep, &mut scratch.join)
            };
            index.insert(mask, id);
            out.push((mask, rows));
        }
        out
    }

    /// The rewritten analysis, keep sets and estimator bookkeeping against
    /// the oracles above on generated STATS-CEB and IMDB-JOB workloads
    /// (cyclic joins, self-joins, `LIKE`): identical graphs, identical keep
    /// sets for every connected mask, bit-identical estimates.
    #[test]
    fn analysis_matches_the_oracles_on_stats_and_imdb_workloads() {
        use fj_datagen::{imdb_catalog, imdb_job_workload, ImdbConfig};
        let stats = tiny_catalog();
        let imdb = imdb_catalog(&ImdbConfig {
            scale: 0.05,
            ..Default::default()
        });
        let cases = [
            (&stats, BaseEstimatorKind::TrueScan, 30, false),
            (&imdb, BaseEstimatorKind::Sampling { rate: 0.5 }, 30, true),
        ];
        for (cat, estimator, k, is_imdb) in cases {
            let model = FactorJoinModel::train(
                cat,
                FactorJoinConfig {
                    estimator,
                    ..truescan_config(k)
                },
            );
            let mut session = model.subplan_estimator();
            let mut cyclic = 0;
            for seed in [3, 17, 41] {
                let wl = if is_imdb {
                    imdb_job_workload(cat, &WorkloadConfig::tiny(seed))
                } else {
                    stats_ceb_workload(cat, &WorkloadConfig::tiny(seed))
                };
                for q in &wl {
                    let graph = QueryGraph::analyze(q);
                    let oracle = oracle_analyze(q);
                    assert_eq!(graph.vars(), &oracle.vars[..]);
                    for a in 0..q.num_tables() {
                        assert_eq!(graph.alias_keys(a), &oracle.alias_keys[a][..]);
                        let adjacent = oracle.adjacency[a].iter().fold(0, |m, &b| m | 1 << b);
                        assert_eq!(graph.neighbor_mask(a), adjacent);
                    }
                    cyclic += usize::from(q.joins().len() >= q.num_tables());
                    for mask in fj_query::connected_subplans(q, 1) {
                        assert_eq!(keep_for_mask(&graph, mask), oracle_keep(&oracle, mask));
                    }
                    let bits = |e: Vec<(SubplanMask, f64)>| {
                        e.into_iter()
                            .map(|(m, x)| (m, x.to_bits()))
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(
                        bits(session.estimate_subplans(q, 1)),
                        bits(oracle_estimate_subplans(&model, q))
                    );
                }
            }
            if is_imdb {
                assert!(cyclic > 0, "the IMDB workload exercises cyclic joins");
            }
        }
    }

    /// The reusable-session path returns exactly what the allocate-per-call
    /// path returns.
    #[test]
    fn session_matches_one_shot_estimates() {
        let cat = tiny_catalog();
        let model = FactorJoinModel::train(&cat, truescan_config(20));
        let wl = stats_ceb_workload(&cat, &WorkloadConfig::tiny(2));
        let mut session = model.subplan_estimator();
        for q in &wl {
            assert_eq!(
                session.estimate_subplans(q, 2),
                model.estimate_subplans(q, 2)
            );
        }
    }
}
