//! # factorjoin — cardinality estimation for join queries
//!
//! A from-scratch Rust implementation of **FactorJoin** (Wu et al., SIGMOD
//! 2023): a framework that estimates the cardinality of arbitrary equi-join
//! queries — chain, star, self, and cyclic joins with complex base-table
//! filters — using **only single-table statistics**.
//!
//! ## How it works
//!
//! *Offline* ([`FactorJoinModel::train`]):
//! 1. derive the *equivalent key groups* from the schema's join relations;
//! 2. partition each group's key domain into `k` bins with the greedy bin
//!    selection algorithm ([`binning::BinningStrategy::Gbsa`], paper §4.2),
//!    optionally splitting a global bin budget across groups by workload
//!    frequency;
//! 3. record each join key's per-bin **total** and **most-frequent-value
//!    (MFV)** counts ([`keystats::KeyStats`]);
//! 4. train a single-table estimator per table (Bayesian network, sampling,
//!    or exact scan — `fj-stats`).
//!
//! *Online* ([`FactorJoinModel::estimate`] /
//! [`FactorJoinModel::estimate_subplans`]):
//! translate the query into a factor graph whose variables are the query's
//! equivalent key groups and whose factors carry each table's *conditional*
//! binned key distributions, then run bound-preserving variable elimination
//! (paper Eq. 5 and Appendix A.3): eliminating a variable combines the
//! adjacent factors per bin as `min_f(d_f[i]/V*_f[i]) · Π_f V*_f[i]`,
//! yielding a **probabilistic upper bound** on the cardinality. Sub-plan
//! estimates reuse cached joined factors (paper §5.2), so all sub-plans of
//! a query cost barely more than the query itself.
//!
//! ## Quick example
//!
//! ```no_run
//! use factorjoin::{FactorJoinConfig, FactorJoinModel};
//! # fn get_catalog() -> fj_storage::Catalog { unimplemented!() }
//! # fn get_query(c: &fj_storage::Catalog) -> fj_query::Query { unimplemented!() }
//! let catalog = get_catalog();
//! let model = FactorJoinModel::train(&catalog, FactorJoinConfig::default());
//! let query = get_query(&catalog);
//! let bound = model.estimate(&query);
//! println!("estimated cardinality ≤ {bound}");
//! ```

#![warn(missing_docs)]

pub mod binning;
pub mod factor;
pub mod freq;
pub mod keystats;
pub mod model;
pub mod persist;

pub use binning::{build_group_bins, BinBudget, BinningStrategy};
pub use factor::{Factor, FactorArena, FactorId, JoinScratch, KeepVars, MAX_VARS};
pub use freq::KeyFreq;
pub use keystats::KeyStats;
pub use model::{
    keep_for_mask, BaseEstimatorKind, EstimationScratch, FactorJoinConfig, FactorJoinModel,
    ModelDelta, SubplanEstimator, TrainingReport,
};
pub use persist::binary::PersistError;
pub use persist::{load_model, load_saved, save_model, SavedModel};
