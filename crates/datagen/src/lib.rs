//! # fj-datagen — synthetic benchmark databases and workloads
//!
//! The paper evaluates on two real-world benchmarks we cannot redistribute:
//! STATS-CEB (Stack-Exchange dump, 8 tables) and IMDB-JOB (21 tables). This
//! crate generates synthetic stand-ins that preserve the properties the
//! estimators are sensitive to:
//!
//! * **skewed join-key distributions** — FK fan-outs drawn from zipf-like
//!   distributions with controllable exponent;
//! * **attribute ↔ join-key correlation** — filter attributes are generated
//!   as noisy functions of the row's join keys, so conditioning on a filter
//!   really does change the key distribution (the effect FactorJoin's
//!   conditional distributions capture and the Selinger model misses);
//! * **the real schemas** — key groups, join templates, cyclic joins via
//!   `movie_link`, string columns for `LIKE` predicates.
//!
//! Everything is deterministic given a seed.

pub mod dist;
pub mod imdb_db;
pub mod loader;
pub mod schemas;
pub mod stats_db;
pub mod text;
pub mod workload;

pub use dist::{CorrelatedInt, ZipfKeys};
pub use imdb_db::{imdb_catalog, ImdbConfig};
pub use loader::{load_dataset, load_table_csv, write_dataset, LoadError};
pub use schemas::DatasetKind;
pub use stats_db::{stats_catalog, stats_catalog_split_by_date, StatsConfig};
pub use workload::{imdb_job_workload, stats_ceb_workload, WorkloadConfig};
