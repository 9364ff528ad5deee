//! `fj-obs`: std-only observability primitives for the FactorJoin serving
//! path.
//!
//! The serving tier (fj-service) needs to answer "where did the time go?"
//! for any slow request without paying for the answer on the hot path.
//! This crate provides the pieces, with zero dependencies beyond `std`:
//!
//! * [`Counter`] — a relaxed-atomic monotone counter.
//! * [`Histogram`] — a lock-free log-linear bucketed histogram
//!   (HdrHistogram-style): bounded memory (~15 KiB), wait-free `record`,
//!   and buckets within 1/32 ≈ 3.1 % of every recorded value, so a
//!   scraper computes percentiles and merges shards bucket by bucket.
//! * [`MetricsRegistry`] — names, labels, and Prometheus text exposition
//!   over closures that sample the owner's atomics at render time.
//! * [`Stage`] / [`StageBreakdown`] / [`SlowLog`] — per-request stage
//!   spans (admission → queue wait → estimation → encode → socket write)
//!   and a worst-N slow-query log rendered as `# slowlog` comment lines
//!   appended to the exposition text.
//! * [`next_trace_id`] — client-side minting of the trace ids that ride
//!   the wire (`EstimateBatch`'s `trace_id` field) and key slow-query-log
//!   entries.
//!
//! ```
//! use fj_obs::{Histogram, MetricsRegistry};
//! use std::sync::Arc;
//!
//! let registry = MetricsRegistry::new();
//! let latency = Arc::new(Histogram::new());
//! let read = Arc::clone(&latency);
//! registry.register_histogram_fn(
//!     "fj_request_latency_seconds",
//!     "End-to-end request latency.",
//!     &[("dataset", "stats")],
//!     move || read.snapshot(),
//! );
//! latency.record(250); // nanoseconds
//! let text = registry.render(); // Prometheus text format
//! assert!(text.contains("fj_request_latency_seconds_bucket"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod histogram;
mod metrics;
mod registry;
mod slowlog;
mod trace;

pub use histogram::{Histogram, HistogramSnapshot};
pub use metrics::Counter;
pub use registry::MetricsRegistry;
pub use slowlog::{SlowLog, SlowQuery, Stage, StageBreakdown};
pub use trace::next_trace_id;
