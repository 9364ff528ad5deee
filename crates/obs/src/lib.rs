//! `fj-obs`: std-only observability primitives for the FactorJoin serving
//! path.
//!
//! The serving tier (fj-service) needs to answer "where did the time go?"
//! for any slow request without paying for the answer on the hot path.
//! This crate provides the pieces, with zero dependencies beyond `std`:
//!
//! * [`Counter`] / [`Gauge`] — relaxed-atomic scalars.
//! * [`Histogram`] — a lock-free log-linear bucketed histogram
//!   (HdrHistogram-style): bounded memory (~15 KiB), wait-free `record`,
//!   percentiles within 1/32 ≈ 3.1 % of exact, and bucket-wise
//!   [`Histogram::merge_from`] so per-shard histograms combine into a
//!   fleet view without re-sorting samples.
//! * [`MetricsRegistry`] — names, labels, and Prometheus text exposition
//!   over the above (plus closure-backed entries for embedded stats).
//! * [`Stage`] / [`StageBreakdown`] / [`SlowLog`] — per-request stage
//!   spans (admission → queue wait → estimation → encode → socket write)
//!   and a worst-N slow-query log rendered as `# slowlog` comment lines
//!   appended to the exposition text.
//! * [`next_trace_id`] — client-side minting of the trace ids that ride
//!   the wire (`EstimateBatch`'s `trace_id` field) and key slow-query-log
//!   entries.
//!
//! ```
//! use fj_obs::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let latency = registry.histogram(
//!     "fj_request_latency_seconds",
//!     "End-to-end request latency.",
//!     &[("dataset", "stats")],
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

pub use histogram::{bucket_bounds, bucket_hi, Histogram, HistogramSnapshot};
pub use metrics::{Counter, Gauge};
pub use registry::{MetricKind, MetricsRegistry};
pub use slowlog::{SlowLog, SlowQuery, Stage, StageBreakdown};
pub use trace::next_trace_id;
