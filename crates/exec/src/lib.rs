//! # fj-exec — join executor, true-cardinality engine, plan optimizer
//!
//! This crate is the substitute for the PostgreSQL 13.1 instance the paper
//! injects cardinalities into (§6.1): a cost-based join-order optimizer that
//! accepts *externally supplied* sub-plan cardinality estimates, plus an
//! execution engine that evaluates the chosen plan and reports the work
//! actually performed. The end-to-end experiment pipeline is:
//!
//! 1. an estimator produces cardinalities for every connected sub-plan;
//! 2. [`optimizer::optimize`] turns them into a join tree (DP over connected
//!    subgraphs, hash-join cost model — greedy fallback for very wide
//!    queries);
//! 3. [`engine::TrueCardEngine`] executes the tree and yields the exact
//!    cardinality of every intermediate, from which [`cost::plan_cost`]
//!    computes the deterministic C_out-style execution cost that stands in
//!    for Postgres runtime.
//!
//! The execution engine is *count-preserving*: relations are grouped by the
//! join-key variables still needed, with multiplicity counts, so exact join
//! cardinalities are computed without materializing full tuples. NULL join
//! keys are kept as a sentinel that never matches, mirroring SQL semantics.

pub mod cost;
pub mod engine;
pub mod optimizer;
pub mod plan;
pub mod relation;

pub use cost::{plan_cost, CostModel, PlanCostBreakdown};
pub use engine::TrueCardEngine;
pub use optimizer::{optimize, OptimizedPlan};
pub use plan::PlanNode;
pub use relation::{GroupedRel, NULL_KEY};
