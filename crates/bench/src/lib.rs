//! # fj-bench — experiment harness for every table and figure
//!
//! Reproduces the paper's evaluation (§6) on the synthetic STATS-CEB-like
//! and IMDB-JOB-like benchmarks. The end-to-end methodology mirrors §6.1:
//! each estimator produces cardinalities for **all** connected sub-plans of
//! each query (timed as *planning*), the DP optimizer turns them into a
//! join tree, and the tree is costed with **true** cardinalities under the
//! hash-join cost model — a deterministic, hardware-independent stand-in
//! for Postgres execution time (`exec seconds = cost / tuple rate`).
//!
//! Run `cargo run --release -p fj-bench --bin fj-experiments -- all` (or an
//! individual id like `table3`, `fig9`). `FJ_SCALE` scales the data.

pub mod env;
pub mod experiments;
pub mod harness;
pub mod quality;
pub mod record;
pub mod report;

pub use env::{BenchEnv, BenchKind};
pub use harness::{run_end_to_end, EndToEnd, MethodResult};
pub use report::{fmt_seconds, percentile, Table as ReportTable};
