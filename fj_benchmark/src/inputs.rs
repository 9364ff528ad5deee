//! Everything a run feeds the system: catalogs, the seeded query pools,
//! the `tcp_mixed` batch schedule and the insert slices. The same
//! `--seed` gives the same inputs; the program under test only ever sees
//! what is generated here.

use factorjoin::{BaseEstimatorKind, FactorJoinConfig, ModelDelta};
use fj_datagen::{
    imdb_catalog, imdb_job_workload, stats_catalog, stats_catalog_split_by_date,
    stats_ceb_workload, ImdbConfig, StatsConfig, WorkloadConfig,
};
use fj_query::{Query, StableHasher};
use fj_storage::{Catalog, Value};

/// The two synthetic databases (stand-ins for STATS and IMDB).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    Stats,
    Imdb,
}

/// Sizes of a run. `FULL` is what the driver measures; `SMOKE` shrinks
/// every dimension so the whole harness runs in a debug build in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// `stats_catalog` scale of `direct_stats` and `tcp_mixed`
    /// (20 ≈ 960k rows, the real STATS size).
    pub stats_scale: f64,
    /// `imdb_catalog` scale of `direct_imdb` (5 ≈ 435k rows).
    pub imdb_scale: f64,
    /// STATS scale of `lifecycle`: 10, so a cycle is ≈ 0.33 s and a run
    /// holds ≥ 30 of them.
    pub lifecycle_scale: f64,
    /// STATS scale of the reference cycles that fill `train_s`, `ttfe_s`
    /// and `update_s` on the three query workloads: 2, so that their
    /// memory (54 MB at the peak) stays below every workload's own.
    pub reference_scale: f64,
    /// Reference cycles a run, in three blocks.
    pub reference_cycles: usize,
    /// Draws of the 146-query STATS-CEB-shaped workload in a pool. One
    /// draw is too few: per-query cost varies ±15% between seeds with 146
    /// queries and ±2% with 64 × 146.
    pub stats_draws: usize,
    /// Draws of the 113-query IMDB-JOB-shaped workload in a pool.
    pub imdb_draws: usize,
    /// Draws of the STATS workload `lifecycle` re-estimates each cycle.
    pub lifecycle_draws: usize,
    /// Queries of the `tcp_mixed` distinct pool (≈ 14 sub-plan keys each,
    /// 4.3 × the 65 536-entry cache at 20 000).
    pub tcp_distinct: usize,
    /// Batches `tcp_mixed` sends before timing starts.
    pub tcp_warmup_batches: usize,
    /// Insert slices (model hot-swaps) of a `tcp_mixed` run.
    pub swaps: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// The oracle checks every `eval_stride`-th query of the pinned
    /// workload …
    pub eval_stride: usize,
    /// … and at most this many.
    pub eval_max: usize,
    /// Samples of each cheap probe of the layer suite …
    pub probe_samples: usize,
    /// … and of each probe that trains or loads a model.
    pub slow_probe_samples: usize,
}

impl Sizing {
    pub const FULL: Sizing = Sizing {
        stats_scale: 20.0,
        imdb_scale: 5.0,
        lifecycle_scale: 10.0,
        reference_scale: 2.0,
        reference_cycles: 36,
        stats_draws: 64,
        imdb_draws: 32,
        lifecycle_draws: 16,
        tcp_distinct: 20_000,
        tcp_warmup_batches: 200,
        swaps: 12,
        setup_reps: 3,
        eval_stride: 8,
        eval_max: usize::MAX,
        probe_samples: 30,
        slow_probe_samples: 5,
    };

    pub const SMOKE: Sizing = Sizing {
        stats_scale: 0.2,
        imdb_scale: 0.2,
        lifecycle_scale: 0.2,
        reference_scale: 0.1,
        reference_cycles: 3,
        stats_draws: 1,
        imdb_draws: 1,
        lifecycle_draws: 1,
        tcp_distinct: 256,
        tcp_warmup_batches: 4,
        swaps: 3,
        setup_reps: 1,
        eval_stride: 8,
        eval_max: 4,
        probe_samples: 3,
        slow_probe_samples: 1,
    };
}

/// Queries per `tcp_mixed` batch: half replayed from the hot set, half
/// from the distinct pool.
pub const BATCH: usize = 16;
/// Size of the hot set (32 × ≈ 14 sub-plans fits the cache many times).
pub const HOT_SET: usize = 32;
/// Days of the ten-year date domain kept in the base catalog; the last
/// tenth arrives later as inserts (the paper splits STATS at 2014).
const SPLIT_CUTOFF: i64 = 3285;

pub fn catalog(dataset: Dataset, scale: f64) -> Catalog {
    match dataset {
        Dataset::Stats => stats_catalog(&stats_config(scale)),
        Dataset::Imdb => imdb_catalog(&ImdbConfig {
            scale,
            ..Default::default()
        }),
    }
}

fn stats_config(scale: f64) -> StatsConfig {
    StatsConfig {
        scale,
        ..Default::default()
    }
}

/// The paper's estimator per dataset: a Bayesian network on STATS,
/// 10% sampling on IMDB (which needs `LIKE`).
pub fn train_config(dataset: Dataset) -> FactorJoinConfig {
    match dataset {
        Dataset::Stats => FactorJoinConfig::default(),
        Dataset::Imdb => FactorJoinConfig {
            estimator: BaseEstimatorKind::Sampling { rate: 0.1 },
            ..Default::default()
        },
    }
}

fn workload_config(dataset: Dataset) -> WorkloadConfig {
    match dataset {
        Dataset::Stats => WorkloadConfig::stats_ceb(),
        Dataset::Imdb => WorkloadConfig::imdb_job(),
    }
}

fn generate(catalog: &Catalog, dataset: Dataset, cfg: &WorkloadConfig) -> Vec<Query> {
    match dataset {
        Dataset::Stats => stats_ceb_workload(catalog, cfg),
        Dataset::Imdb => imdb_job_workload(catalog, cfg),
    }
}

/// splitmix64: the benchmark's own seeded stream, so input selection does
/// not depend on how the repository's `rand` shim is implemented.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `draws` independent draws of the dataset's paper-shaped workload,
/// templates and literals both taken from `(seed, stream)`.
pub fn query_pool(
    catalog: &Catalog,
    dataset: Dataset,
    seed: u64,
    stream: u64,
    draws: usize,
) -> Vec<Query> {
    let mut rng = SplitMix64::new(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
    let mut pool = Vec::new();
    for _ in 0..draws {
        let cfg = WorkloadConfig {
            seed: rng.next_u64(),
            ..workload_config(dataset)
        };
        pool.extend(generate(catalog, dataset, &cfg));
    }
    pool
}

/// The pinned queries the true-cardinality oracle checks: every
/// `eval_stride`-th query of the dataset's paper workload at its paper
/// seed. They do not follow `--seed`: q-error percentiles over a few
/// hundred sub-plans are a property of which literals were drawn, and
/// swing by tens of percent between seeds.
pub fn eval_queries(catalog: &Catalog, dataset: Dataset, sizing: &Sizing) -> Vec<Query> {
    generate(catalog, dataset, &workload_config(dataset))
        .into_iter()
        .step_by(sizing.eval_stride)
        .take(sizing.eval_max)
        .collect()
}

/// Stable hash of the SQL text of `queries`, in order.
pub fn sql_hash(catalog: &Catalog, queries: &[Query]) -> u64 {
    let mut h = StableHasher::new(0x666a_5f62_656e_6368);
    for q in queries {
        h.write_str(&q.to_sql(catalog));
    }
    h.finish()
}

/// The `tcp_mixed` traffic: every batch holds `BATCH / 2` replays drawn
/// from a [`HOT_SET`]-query hot set and the next `BATCH / 2` queries of
/// the distinct pool, which is cycled in order. Hot and distinct queries
/// come from the same templates, so they share sub-joins without being
/// identical.
pub fn tcp_schedule(catalog: &Catalog, seed: u64, sizing: &Sizing) -> Vec<Vec<Query>> {
    let per_draw = workload_config(Dataset::Stats).num_queries;
    let hot: Vec<Query> = query_pool(catalog, Dataset::Stats, seed, 1, 1)
        .into_iter()
        .take(HOT_SET)
        .collect();
    let distinct = query_pool(
        catalog,
        Dataset::Stats,
        seed,
        2,
        sizing.tcp_distinct.div_ceil(per_draw),
    );
    let mut picks = SplitMix64::new(seed ^ 0x7463_705f_686f_7421);
    distinct[..sizing.tcp_distinct]
        .chunks_exact(BATCH / 2)
        .map(|cold| {
            let mut batch: Vec<Query> = (0..BATCH / 2)
                .map(|_| hot[picks.below(hot.len())].clone())
                .collect();
            batch.extend_from_slice(cold);
            batch
        })
        .collect()
}

/// Hash of a batch schedule: SQL text of every query of every batch.
pub fn schedule_hash(catalog: &Catalog, batches: &[Vec<Query>]) -> u64 {
    let mut h = StableHasher::new(batches.len() as u64);
    for batch in batches {
        h.write_u64(sql_hash(catalog, batch));
    }
    h.finish()
}

/// Rows held back from a base catalog, per table.
pub type Inserts = Vec<(String, Vec<Vec<Value>>)>;

/// STATS split by date: the ≈ 90% base catalog and the ≈ 10% of rows that
/// arrive later.
pub fn split_stats(scale: f64) -> (Catalog, Inserts) {
    stats_catalog_split_by_date(&stats_config(scale), SPLIT_CUTOFF)
}

/// Appends slice `k` of `n` of every table's held-back rows to `catalog`
/// and returns the delta that describes them. The slices do not depend on
/// the seed, so the model after all `n` is the same in every run.
pub fn append_slice(catalog: &mut Catalog, inserts: &Inserts, k: usize, n: usize) -> ModelDelta {
    let mut delta = ModelDelta::new();
    for (name, rows) in inserts {
        let slice = &rows[rows.len() * k / n..rows.len() * (k + 1) / n];
        if slice.is_empty() {
            continue;
        }
        let table = catalog.table_mut(name).expect("split names a table");
        let first_new_row = table.nrows();
        table
            .append_rows(slice)
            .expect("held-back rows fit the schema");
        delta.record(table, first_new_row);
    }
    delta
}

/// For the layer probes of `updated_with`: the catalog holding the first
/// `keep` share of every table's rows, and the delta that takes a model
/// trained on it to the whole of `full`.
pub fn head_split(full: &Catalog, keep: f64) -> (Catalog, ModelDelta) {
    let mut base = Catalog::new();
    let mut delta = ModelDelta::new();
    for table in full.tables() {
        let head = (table.nrows() as f64 * keep) as usize;
        let rows: Vec<usize> = (0..head).collect();
        base.add_table(table.select_rows(table.name(), &rows))
            .expect("table names are unique");
        delta.record(table, head);
    }
    for relation in full.relations() {
        base.add_relation(relation.clone())
            .expect("relation of the full catalog");
    }
    (base, delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Catalog {
        catalog(Dataset::Stats, 0.1)
    }

    #[test]
    fn same_seed_same_sql_and_schedule() {
        let cat = tiny();
        let a = query_pool(&cat, Dataset::Stats, 7, 0, 2);
        let b = query_pool(&cat, Dataset::Stats, 7, 0, 2);
        assert_eq!(a.len(), 2 * 146);
        assert_eq!(sql_hash(&cat, &a), sql_hash(&cat, &b));
        let sa = tcp_schedule(&cat, 7, &Sizing::SMOKE);
        let sb = tcp_schedule(&cat, 7, &Sizing::SMOKE);
        assert_eq!(sa.len(), Sizing::SMOKE.tcp_distinct / (BATCH / 2));
        assert!(sa.iter().all(|b| b.len() == BATCH));
        assert_eq!(schedule_hash(&cat, &sa), schedule_hash(&cat, &sb));
    }

    #[test]
    fn different_seed_or_stream_differs() {
        let cat = tiny();
        let a = sql_hash(&cat, &query_pool(&cat, Dataset::Stats, 7, 0, 1));
        let b = sql_hash(&cat, &query_pool(&cat, Dataset::Stats, 8, 0, 1));
        let c = sql_hash(&cat, &query_pool(&cat, Dataset::Stats, 7, 1, 1));
        assert!(a != b && a != c && b != c);
        let sa = schedule_hash(&cat, &tcp_schedule(&cat, 7, &Sizing::SMOKE));
        let sb = schedule_hash(&cat, &tcp_schedule(&cat, 8, &Sizing::SMOKE));
        assert_ne!(sa, sb);
    }

    #[test]
    fn eval_queries_ignore_the_run_seed() {
        let cat = tiny();
        let evals = eval_queries(&cat, Dataset::Stats, &Sizing::SMOKE);
        assert_eq!(evals.len(), Sizing::SMOKE.eval_max);
        assert_eq!(
            sql_hash(&cat, &evals),
            sql_hash(&cat, &eval_queries(&cat, Dataset::Stats, &Sizing::SMOKE))
        );
    }

    #[test]
    fn slices_rebuild_the_held_back_rows() {
        let (mut base, inserts) = split_stats(0.1);
        let before = base.total_rows();
        let held: usize = inserts.iter().map(|(_, r)| r.len()).sum();
        let mut staged = 0;
        for k in 0..3 {
            staged += append_slice(&mut base, &inserts, k, 3).rows();
        }
        assert_eq!(staged, held);
        assert_eq!(base.total_rows(), before + held);
    }

    #[test]
    fn head_split_keeps_the_head() {
        let full = tiny();
        let (base, delta) = head_split(&full, 0.9);
        assert_eq!(delta.len(), full.num_tables());
        assert_eq!(base.total_rows() + delta.rows(), full.total_rows());
        assert_eq!(base.relations().len(), full.relations().len());
    }
}
